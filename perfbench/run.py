#!/usr/bin/env python3
"""Swarm benchmark: one command for every workload and metric.

Run from the repository root:

    python3 perfbench/run.py --workload swarm_10k --seed 1 --seconds 20 --trace 0

Builds the icd library and perfbench/swarm_bench from source into
.bench_build/ (Release, incremental after the first run), runs the workload
in its own process, and prints two JSON lines on stdout: the full record
(workload, seed, host stamp, every metric with its unit), then, last, the
result object {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones (see
RATIONALE.md). Exits nonzero, with a diagnostic on stderr, when the build
fails, the run fails its correctness checks, or it overruns its time limit.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("swarm_10k", "bulk_lossy", "churn_scn", "swarm_sharded")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
SCENARIO = BENCH_DIR / "churn.scn"
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_call(command, env=None):
    # Build chatter goes to stderr: stdout carries only the result lines.
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                            env=env, cwd=ROOT)
    if result.returncode != 0:
        die(f"command failed ({result.returncode}): {' '.join(command)}")


def build():
    if not (ROOT / "src").is_dir():
        die(f"program sources not found: {ROOT / 'src'}")
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        check_call(configure, env)
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", str(BUILD_DIR), "--target", "swarm_bench",
                "-j", jobs], env)
    return BUILD_DIR / "swarm_bench"


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if head.returncode != 0:
            return "unknown"
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        dirty = status.returncode != 0 or status.stdout.strip() != ""
        return head.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_sha256():
    """Digest of the measured code and inputs (src/ and perfbench/, without
    notes or baselines), for checkouts without git metadata."""
    digest = hashlib.sha256()
    files = [p for p in (ROOT / "src").rglob("*") if p.is_file()]
    files += [p for p in BENCH_DIR.rglob("*")
              if p.is_file() and p.suffix not in (".md", ".json")
              and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_stamp():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "os": platform.platform(),
            "git_sha": git_sha(), "source_sha256": source_sha256()}


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode, if present."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        die("--seed must be a non-negative integer")

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scn", str(SCENARIO)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} seed {args.seed}: no result within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if not lines:
        die(f"{args.workload} seed {args.seed}: swarm_bench exited "
            f"{run.returncode} without a result", run.returncode or 2)
    record = json.loads(lines[-1])
    record["host"] = host_stamp()

    produced = {(name, m["unit"]) for name, m in record["metrics"].items()}
    expected = declared_metrics(args.trace)
    if expected is not None and produced != expected:
        die(f"metrics differ from BENCHMARK.json: missing "
            f"{sorted(expected - produced)}, unexpected {sorted(produced - expected)}")

    print(json.dumps(record))
    print(json.dumps({key: record[key]
                      for key in ("correct", "attempted", "failed", "metrics")}))
    if run.returncode != 0 or not record["correct"]:
        die(f"{args.workload} seed {args.seed}: correctness checks failed "
            "(diagnostics above)", run.returncode or 1)


if __name__ == "__main__":
    main()
