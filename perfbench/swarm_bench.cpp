// Swarm benchmark program: one process runs one named workload through
// core::ShardedDelivery, checks every delivered byte, and prints one JSON
// object on stdout (the end-to-end metrics with --trace 0, the per-layer
// metrics with --trace 1). run.py builds and invokes it; RATIONALE.md says
// why each workload exists and which end-to-end metric each layer number
// should move.
//
//   swarm_bench --workload churn_scn --seed 1 --seconds 20 --trace 0
//               --scn perfbench/churn.scn
//
// Every number is taken from outside the engine: spans wrap this file's own
// calls into public functions, and counters come from public accessors.
// Nothing in src/ is instrumented.
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "codec/degree.hpp"
#include "codec/recoder.hpp"
#include "core/admission.hpp"
#include "core/event_loop.hpp"
#include "core/scenario.hpp"
#include "core/session_plan.hpp"
#include "core/sharded_delivery.hpp"
#include "reconcile/set_difference.hpp"
#include "sketch/minwise.hpp"
#include "util/buffer.hpp"
#include "util/hash.hpp"
#include "util/random.hpp"
#include "wire/message.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace icd;
using Clock = std::chrono::steady_clock;
using Engine = core::ShardedDelivery;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::logic_error("quantile of an empty sample");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) { return quantile(values, 0.5); }

/// Mean of the middle half of a non-empty sample (the plain mean below four
/// values): as robust to outliers as the median, but it does not jump
/// between the few discrete values a per-instance figure can take.
double interquartile_mean(std::vector<double> values) {
  if (values.empty()) throw std::logic_error("mean of an empty sample");
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

/// Keeps timed results observable so the optimizer cannot drop the calls.
volatile std::uint64_t g_sink = 0;

// --- Arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scn;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--scn") {
      args.scn = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

// --- The workload generator ---------------------------------------------------
//
// Every input the engine receives derives from --seed. A run measures a
// sequence of independent swarm instances; instance i takes the seed
// hash64(i, --seed), from which come its content bytes, its session seed
// chain and, for churn_scn, the scenario's master seed and Poisson arrival
// seeds. Summarising over instances keeps a run's figures from hinging on
// one swarm's luck.

constexpr std::uint64_t kContentSalt = 0xc0a7e47ULL;
constexpr std::uint64_t kSessionSalt = 0x5e55105eedULL;
constexpr std::uint64_t kScenarioSalt = 0x5ce4a210ULL;
constexpr std::uint64_t kArrivalSalt = 0xa221a1ULL;
constexpr std::uint64_t kProbeSalt = 0x9a0be5ULL;

struct Inputs {
  std::vector<std::uint8_t> content;
  core::DeliveryOptions options;
  std::size_t shards = 1;
  std::size_t peers = 0;
  /// Swarm shapes: peer p is origin-fed when p % fed_every == 0.
  std::size_t fed_every = 0;
  /// Scenario shape: peers below this id are origin-fed.
  std::size_t fed_below = 0;
  std::uint64_t max_ticks = 0;

  bool origin_fed(std::size_t peer) const {
    return fed_every > 0 ? peer % fed_every == 0 : peer < fed_below;
  }
};

std::vector<std::uint8_t> seeded_bytes(std::size_t size, std::uint64_t seed) {
  std::vector<std::uint8_t> bytes(size);
  util::Xoshiro256 rng(seed);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

/// The bench_scale shape: light per-peer work on delay-1 timed links with
/// sampled admission, so engine overhead dominates.
Inputs swarm_inputs(std::size_t peers, std::size_t shards, std::uint64_t seed) {
  Inputs inputs;
  inputs.content = seeded_bytes(1024, util::mix64(seed ^ kContentSalt));
  inputs.options.block_size = 256;
  inputs.options.session_seed = util::mix64(seed ^ kSessionSalt);
  inputs.options.refresh_interval = 40;
  inputs.options.admission_sample = 4;
  inputs.options.link.delay_ticks = 1;
  inputs.shards = shards;
  inputs.peers = peers;
  inputs.fed_every = 8;
  inputs.max_ticks = 20000;
  return inputs;
}

/// Few peers, big content, lossy untimed links, full-pool admission: the
/// codec and data plane dominate and the planner is bypassed.
Inputs bulk_inputs(std::uint64_t seed) {
  Inputs inputs;
  inputs.content = seeded_bytes(std::size_t{1} << 20,
                                util::mix64(seed ^ kContentSalt));
  inputs.options.block_size = 1024;
  inputs.options.session_seed = util::mix64(seed ^ kSessionSalt);
  inputs.options.link.loss_rate = 0.05;
  inputs.peers = 32;
  inputs.fed_every = 4;
  inputs.max_ticks = 20000;
  return inputs;
}

Inputs scenario_inputs(const std::string& path, std::uint64_t seed) {
  core::Scenario scenario = core::Scenario::parse_file(path);
  scenario.seed = util::mix64(seed ^ kScenarioSalt);
  for (std::size_t i = 0; i < scenario.arrivals.size(); ++i) {
    scenario.arrivals[i].seed = util::mix64(seed ^ kArrivalSalt ^ (i << 32));
  }
  core::CompiledScenario compiled = core::compile_scenario(scenario);
  Inputs inputs;
  inputs.content = std::move(compiled.content);
  inputs.options = std::move(compiled.options);
  inputs.peers = compiled.peers;
  inputs.fed_below = compiled.fed;
  inputs.max_ticks = compiled.max_ticks;
  return inputs;
}

/// Shard count of a workload, known before its inputs exist so the host probe
/// can run on as many threads as the engine will.
std::size_t workload_shards(const Args& args) {
  return args.workload == "swarm_sharded" ? 2 : 1;
}

std::uint64_t instance_seed(const Args& args, std::size_t instance) {
  return util::hash64(instance, args.seed);
}

Inputs generate(const Args& args, std::uint64_t seed) {
  if (args.workload == "swarm_10k") return swarm_inputs(10000, 1, seed);
  if (args.workload == "swarm_sharded") {
    return swarm_inputs(4000, workload_shards(args), seed);
  }
  if (args.workload == "bulk_lossy") return bulk_inputs(seed);
  if (args.workload == "churn_scn") {
    if (args.scn.empty()) throw std::invalid_argument("churn_scn needs --scn");
    return scenario_inputs(args.scn, seed);
  }
  throw std::invalid_argument("unknown workload " + args.workload);
}

// --- Host-speed probe ---------------------------------------------------------
//
// On a shared host the same instance can run a third slower for tens of
// seconds at a time; memory-heavy code suffers most, and CPU time tracks
// wall time, so the process is not being descheduled. The end-to-end timings
// are therefore scaled to a reference host speed. A fixed allocation-heavy
// probe runs before every instance and once after the last. An instance's
// wall times are multiplied by the reference probe time over the mean of the
// two probes either side of it. The probe calls no icd code, so a change to the
// program never moves it. With several shards it runs one copy per shard
// thread, in lockstep phases, as the engine's shards do.

constexpr int kProbePhases = 240;
constexpr int kProbeAllocationsPerPhase = 5000;

/// Median probe wall time on the reference host (RATIONALE.md), by thread
/// count: scaled timings read as wall time on that host at its usual speed.
double reference_probe_s(std::size_t threads) { return threads > 1 ? 0.135 : 0.110; }

double host_probe(std::size_t threads) {
  std::barrier phase_end(static_cast<std::ptrdiff_t>(threads));
  std::vector<std::uint64_t> sinks(threads, 0);
  const auto body = [&](std::size_t id) {
    std::uint64_t state = id + 1;
    std::vector<std::vector<std::uint8_t>> live;
    for (int phase = 0; phase < kProbePhases; ++phase) {
      live.clear();
      for (int i = 0; i < kProbeAllocationsPerPhase; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        live.emplace_back(16 + (state >> 33) % 512, std::uint8_t{1});
      }
      sinks[id] += live.back().size();
      phase_end.arrive_and_wait();
    }
  };
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (std::size_t id = 1; id < threads; ++id) workers.emplace_back(body, id);
  body(0);
  for (std::thread& worker : workers) worker.join();
  const double wall_s = since(start);
  for (const std::uint64_t sink : sinks) g_sink = g_sink + sink;
  return wall_s;
}

// --- One run of the workload --------------------------------------------------

struct Setup {
  Inputs inputs;
  std::unique_ptr<Engine> engine;
  double setup_s = 0.0;
  double add_peer_s = 0.0;
};

/// setup_s covers input generation (scenario parse + compile), engine
/// construction and the initial add_peer calls.
Setup set_up(const Args& args, std::uint64_t seed) {
  Setup setup;
  const auto start = Clock::now();
  setup.inputs = generate(args, seed);
  setup.engine = std::make_unique<Engine>(setup.inputs.content,
                                          setup.inputs.options,
                                          core::ShardOptions{setup.inputs.shards});
  const auto peers_start = Clock::now();
  for (std::size_t p = 0; p < setup.inputs.peers; ++p) {
    setup.engine->add_peer("peer" + std::to_string(p),
                           setup.inputs.origin_fed(p));
  }
  setup.add_peer_s = since(peers_start);
  setup.setup_s = since(start);
  return setup;
}

/// Public counters harvested after a run, plus the delivery check.
struct Harvest {
  core::ScenarioOutcome outcome;
  Engine::LinkTotals totals;
  core::PlanningQueue::Stats planner;
  std::uint64_t events_processed = 0;
  codec::DecoderStats decoder;
  std::vector<std::uint64_t> busy_ns;
  std::uint64_t parallel_wall_ns = 0;
  std::vector<std::uint64_t> cost_units;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<std::size_t> first_failed;
};

Harvest harvest(Engine& engine, const std::vector<std::uint8_t>& content) {
  Harvest out;
  out.outcome = core::harvest_scenario(engine);
  out.totals = engine.link_totals();
  out.planner = engine.planner_stats();
  out.events_processed = engine.events_processed();
  out.busy_ns = engine.shard_busy_ns();
  out.parallel_wall_ns = engine.parallel_wall_ns();
  out.cost_units = engine.shard_cost_units();
  for (std::size_t p = 0; p < engine.peer_count(); ++p) {
    out.decoder += engine.session_result(p).decoder_stats;
    ++out.attempted;
    if (!engine.peer_complete(p) || engine.peer_content(p) != content) {
      ++out.failed;
      if (!out.first_failed) out.first_failed = p;
    }
  }
  return out;
}

struct Sample {
  std::size_t initial_peers = 0;
  std::size_t content_bytes = 0;
  std::size_t shards = 1;
  double setup_s = 0.0;
  double add_peer_s = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  /// Wall-to-reference-speed factor from the host probes around this instance.
  double scale = 1.0;
  Harvest result;
};

/// The measured run: one run_until(max_ticks), exactly as an embedder
/// drives the engine.
Sample untraced_run(const Args& args, std::uint64_t seed) {
  Setup setup = set_up(args, seed);
  Sample sample;
  sample.initial_peers = setup.inputs.peers;
  sample.content_bytes = setup.inputs.content.size();
  sample.shards = setup.inputs.shards;
  sample.setup_s = setup.setup_s;
  sample.add_peer_s = setup.add_peer_s;
  const double cpu_start = cpu_seconds();
  const auto start = Clock::now();
  setup.engine->run_until(setup.inputs.max_ticks);
  sample.run_s = since(start);
  sample.cpu_s = cpu_seconds() - cpu_start;
  sample.result = harvest(*setup.engine, setup.inputs.content);
  return sample;
}

struct TracedRun {
  Setup setup;
  Harvest result;
  std::vector<double> refresh_ms;
  std::vector<double> rest_ms;
  double drive_s = 0.0;
  double covered_s = 0.0;
  double total_s = 0.0;
  core::MemoryAudit peak_audit;
};

/// The traced run drives the engine in refresh-aligned windows — the
/// epoch's first tick (admission, session rebuild, planner rebuild), then
/// the rest of the epoch — and samples the memory audit at each boundary.
/// Splitting run_until at tick boundaries does not change the trajectory
/// (jump and lockstep runs are pinned bit for bit); the caller
/// checks that it did not.
TracedRun traced_run(const Args& args, std::uint64_t seed) {
  TracedRun run;
  run.setup = set_up(args, seed);
  Engine& engine = *run.setup.engine;
  const std::uint64_t max_ticks = run.setup.inputs.max_ticks;
  const std::uint64_t interval =
      std::max<std::uint64_t>(1, run.setup.inputs.options.refresh_interval);
  double audit_s = 0.0;
  bool done = false;
  const auto start = Clock::now();
  for (std::uint64_t epoch = 0; !done && epoch < max_ticks; epoch += interval) {
    auto span = Clock::now();
    done = engine.run_until(std::min(epoch + 1, max_ticks));
    run.refresh_ms.push_back(since(span) * 1e3);
    if (!done) {
      span = Clock::now();
      done = engine.run_until(std::min(epoch + interval, max_ticks));
      run.rest_ms.push_back(since(span) * 1e3);
    }
    span = Clock::now();
    const core::MemoryAudit audit = engine.memory_audit();
    if (audit.total() > run.peak_audit.total()) run.peak_audit = audit;
    audit_s += since(span);
  }
  run.drive_s = since(start);
  double spans_s = audit_s;
  for (const double ms : run.refresh_ms) spans_s += ms * 1e-3;
  for (const double ms : run.rest_ms) spans_s += ms * 1e-3;
  run.covered_s = run.setup.setup_s + spans_s;
  run.total_s = run.setup.setup_s + run.drive_s;
  run.result = harvest(engine, run.setup.inputs.content);
  return run;
}

// --- Correctness --------------------------------------------------------------

struct Checks {
  const Args& args;
  bool ok = true;

  void fail(const std::string& what) {
    ok = false;
    std::fprintf(stderr, "swarm_bench: workload=%s seed=%llu %s\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), what.c_str());
  }

  void delivery(const Harvest& result, const std::string& run) {
    if (result.failed > 0) {
      fail(run + ": " + std::to_string(result.failed) + " of " +
           std::to_string(result.attempted) +
           " peers lack the content or hold wrong bytes; first is peer " +
           std::to_string(*result.first_failed));
    }
    if (result.totals.frames_refused != 0) {
      fail(run + ": " + std::to_string(result.totals.frames_refused) +
           " frames refused by the transports");
    }
  }

  /// ScenarioOutcome::same_trajectory, with the first differing peer named.
  void same_trajectory(const Harvest& reference, const Harvest& other,
                       const std::string& run) {
    const auto& a = reference.outcome;
    const auto& b = other.outcome;
    if (a.same_trajectory(b)) return;
    const std::size_t common = std::min(a.peer_count, b.peer_count);
    for (std::size_t p = 0; p < common; ++p) {
      if (a.completion_ticks[p] != b.completion_ticks[p]) {
        fail(run + " diverges from the untraced run at peer " +
             std::to_string(p) + ": completion tick " +
             std::to_string(b.completion_ticks[p]) + " vs " +
             std::to_string(a.completion_ticks[p]));
        return;
      }
    }
    fail(run + " diverges from the untraced run: peers " +
         std::to_string(b.peer_count) + "/" + std::to_string(a.peer_count) +
         ", data bytes " + std::to_string(b.data_bytes) + "/" +
         std::to_string(a.data_bytes) + ", control bytes " +
         std::to_string(b.control_bytes) + "/" +
         std::to_string(a.control_bytes) + ", failed sessions " +
         std::to_string(b.failed_sessions) + "/" +
         std::to_string(a.failed_sessions));
  }
};

// --- Per-layer probes on a finished swarm ------------------------------------
//
// Each probe times public calls on the traced run's finished peers at the
// workload's own sizes (block size, working sets, candidate pool, key
// count), and reports the median over batches.

template <typename Fn>
double seconds_per_call(Fn&& fn, double budget_s = 0.1) {
  constexpr int kBatches = 9;
  auto start = Clock::now();
  fn();  // warm-up, also the calibration sample
  const double one = std::max(since(start), 1e-9);
  const auto batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(budget_s / kBatches / one));
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    start = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call.push_back(since(start) / static_cast<double>(batch));
  }
  return median(per_call);
}

/// PlanningQueue set + take_due at `keys` live keys, per heap operation.
double planner_op_ns(std::size_t keys, std::uint64_t seed) {
  core::PlanningQueue queue;
  queue.ensure_keys(keys);
  queue.begin_rebuild();
  util::Xoshiro256 rng(seed);
  const auto event_at = [](std::uint64_t at, std::uint64_t key) {
    return core::Event{at, core::EventKind::kService, key};
  };
  for (std::uint64_t k = 0; k < keys; ++k) queue.set(k, event_at(rng() % 64, k));
  std::vector<std::uint64_t> due;
  std::uint64_t now = 0;
  std::vector<double> per_op;
  for (int batch = 0; batch < 5; ++batch) {
    const std::uint64_t ops_before = queue.stats().ops();
    const auto start = Clock::now();
    while (queue.stats().ops() - ops_before < 200000) {
      ++now;
      queue.take_due(now, due);
      for (const std::uint64_t key : due) {
        queue.set(key, event_at(now + 1 + rng() % 64, key));
      }
    }
    per_op.push_back(since(start) * 1e9 /
                     static_cast<double>(queue.stats().ops() - ops_before));
  }
  return median(per_op);
}

struct Probes {
  double planner_op_ns = 0.0;
  double select_us = 0.0;
  double resemblance_ns = 0.0;
  double frame_encode_ns = 0.0;
  double frame_decode_ns = 0.0;
  double recode_us = 0.0;
  double decode_us_per_symbol = 0.0;
  double bloom_summary_us = 0.0;
  double set_difference_us = 0.0;
};

Probes run_probes(const Setup& setup, std::uint64_t seed, Checks& checks) {
  const Engine& engine = *setup.engine;
  const core::DeliveryOptions& options = setup.inputs.options;
  const std::size_t n = engine.peer_count();
  util::Xoshiro256 rng(util::mix64(seed ^ kProbeSalt));
  Probes probes;

  probes.planner_op_ns = planner_op_ns(n, rng());

  // Admission against the workload's candidate pool: the sample size when
  // admission is sampled, every other peer otherwise.
  const std::size_t pool =
      options.admission_sample > 0 ? std::min(options.admission_sample, n - 1)
                                   : n - 1;
  std::vector<std::size_t> receivers;
  std::vector<std::vector<core::CandidateSender>> pools;
  for (std::size_t r = 0; r < std::min<std::size_t>(n, 16); ++r) {
    const std::size_t receiver = (r * 7919) % n;
    std::vector<core::CandidateSender> candidates;
    for (std::size_t j = 1; j <= pool; ++j) {
      const std::size_t id = (receiver + j) % n;
      candidates.push_back({id, &engine.peer(id).sketch(),
                            engine.peer(id).symbol_count()});
    }
    receivers.push_back(receiver);
    pools.push_back(std::move(candidates));
  }
  std::size_t turn = 0;
  probes.select_us = 1e6 * seconds_per_call([&] {
    const std::size_t i = turn++ % receivers.size();
    const core::Peer& receiver = engine.peer(receivers[i]);
    g_sink = g_sink + core::select_senders(receiver.sketch(),
                                           receiver.symbol_count(), pools[i],
                                           options.admission,
                                           options.max_peer_sessions)
                          .size();
  });
  probes.resemblance_ns = 1e9 * seconds_per_call([&] {
    const std::size_t a = turn++ % n;
    const double r = sketch::MinwiseSketch::resemblance(
        engine.peer(a).sketch(), engine.peer((a + 1) % n).sketch());
    g_sink = g_sink + static_cast<std::uint64_t>(r * 1024.0);
  });

  // Codec, frame and filter probes use the finished peer holding the most
  // symbols (lowest id on ties) as the sender.
  std::size_t source_id = 0;
  for (std::size_t p = 1; p < n; ++p) {
    if (engine.peer(p).symbol_count() > engine.peer(source_id).symbol_count()) {
      source_id = p;
    }
  }
  const core::Peer& source = engine.peer(source_id);
  const core::Peer& other = engine.peer((source_id + 1) % n);
  const codec::DegreeDistribution recode_degrees =
      codec::DegreeDistribution::robust_soliton(
          std::max<std::size_t>(source.symbol_count(), 2))
          .truncated(codec::kDefaultRecodeDegreeLimit);

  probes.recode_us = 1e6 * seconds_per_call([&] {
    g_sink = g_sink + source.recode(recode_degrees.sample(rng), rng).degree();
  });

  std::vector<codec::RecodedSymbol> symbols;
  std::vector<std::vector<std::uint8_t>> frames;
  for (int i = 0; i < 64; ++i) {
    symbols.push_back(source.recode(recode_degrees.sample(rng), rng));
    frames.push_back(wire::encode_frame(wire::RecodedSymbolMessage{symbols.back()}));
  }
  std::vector<std::uint8_t> buffer;
  probes.frame_encode_ns = 1e9 * seconds_per_call([&] {
    util::ByteWriter writer(std::move(buffer));
    wire::encode_frame_into(writer,
                            codec::RecodedSymbolView(symbols[turn++ % 64]));
    buffer = writer.take();
    g_sink = g_sink + buffer.size();
  });
  std::vector<std::uint64_t> constituents;
  probes.frame_decode_ns = 1e9 * seconds_per_call([&] {
    const auto view =
        wire::decode_symbol_frame(frames[turn++ % 64], constituents);
    g_sink = g_sink + (view && view->recoded ? view->recoded->degree() : 0);
  });
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const auto view = wire::decode_symbol_frame(frames[i], constituents);
    if (!view || !view->recoded ||
        !std::equal(view->recoded->constituents.begin(),
                    view->recoded->constituents.end(),
                    symbols[i].constituents.begin(),
                    symbols[i].constituents.end()) ||
        !std::equal(view->recoded->payload.begin(),
                    view->recoded->payload.end(), symbols[i].payload.begin(),
                    symbols[i].payload.end())) {
      checks.fail("recoded symbol frame " + std::to_string(i) +
                  " does not round-trip");
      break;
    }
  }

  // A fresh peer absorbing the source's recoded stream until it decodes.
  const codec::DegreeDistribution block_degrees = core::delivery_distribution(
      setup.inputs.content.size(), options.block_size);
  const std::size_t symbol_limit =
      64 * engine.parameters().block_count + 1024;
  std::vector<double> us_per_symbol;
  double decode_spent = 0.0;
  for (int rep = 0; rep < 3 || (rep < 20 && decode_spent < 0.1); ++rep) {
    core::Peer fresh("decode-probe", engine.parameters(), block_degrees);
    std::size_t received = 0;
    double spent = 0.0;
    while (!fresh.has_content() && received < symbol_limit) {
      const codec::RecodedSymbol symbol =
          source.recode(recode_degrees.sample(rng), rng);
      const auto start = Clock::now();
      fresh.receive_recoded(symbol);
      spent += since(start);
      ++received;
    }
    if (!fresh.has_content() ||
        fresh.content(setup.inputs.content.size()) != setup.inputs.content) {
      checks.fail("decode probe: a fresh peer fed " +
                  std::to_string(received) + " recoded symbols from peer " +
                  std::to_string(source_id) + " did not decode the content");
      break;
    }
    decode_spent += spent;
    us_per_symbol.push_back(spent * 1e6 / static_cast<double>(received));
  }
  if (!us_per_symbol.empty()) probes.decode_us_per_symbol = median(us_per_symbol);

  probes.bloom_summary_us = 1e6 * seconds_per_call([&] {
    g_sink = g_sink + source.bloom_summary().bit_count();
  });
  const filter::BloomFilter other_filter = other.bloom_summary();
  probes.set_difference_us = 1e6 * seconds_per_call([&] {
    g_sink = g_sink +
             reconcile::bloom_set_difference(source.symbol_ids(), other_filter)
                 .size();
  });
  return probes;
}

// --- Output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) {
    throw std::logic_error("non-finite metric value");
  }
  char text[32];
  std::snprintf(text, sizeof(text), "%.17g", value);
  return text;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

template <typename Item, typename Fn>
std::vector<double> values_over(const std::vector<Item>& items, Fn&& value) {
  std::vector<double> values;
  for (const Item& item : items) values.push_back(value(item));
  return values;
}

/// Median over instances of one per-instance value.
template <typename Item, typename Fn>
double median_over(const std::vector<Item>& items, Fn&& value) {
  return median(values_over(items, value));
}

/// Interquartile mean over instances of one per-instance value.
template <typename Item, typename Fn>
double iq_mean_over(const std::vector<Item>& items, Fn&& value) {
  return interquartile_mean(values_over(items, value));
}

/// Median completion tick as the median of grouped data: the peers that
/// complete at tick t are spread evenly over (t - 1, t], so the figure
/// resolves the share of peers done by a tick, not just the tick.
double completion_tick_p50(const Harvest& result) {
  std::vector<std::size_t> ticks = result.outcome.completion_ticks;
  std::sort(ticks.begin(), ticks.end());
  const double half = static_cast<double>(ticks.size()) / 2.0;
  const std::size_t tick = ticks[ticks.size() / 2];
  const auto first = std::lower_bound(ticks.begin(), ticks.end(), tick);
  const auto last = std::upper_bound(ticks.begin(), ticks.end(), tick);
  const double below = static_cast<double>(first - ticks.begin());
  return static_cast<double>(tick) - 1.0 +
         (half - below) / static_cast<double>(last - first);
}

std::vector<Metric> end_to_end(const std::vector<Sample>& samples,
                               std::size_t attempted, std::size_t failed) {
  const auto wire_per_useful = [](const Sample& s) {
    const auto& totals = s.result.totals;
    const double completed =
        static_cast<double>(s.result.attempted - s.result.failed);
    return ratio(static_cast<double>(totals.data_bytes + totals.control_bytes),
                 static_cast<double>(s.content_bytes) * completed);
  };
  // Per-instance figures are summarised by their interquartile mean. The
  // tail-bound ones (completion_tick_max, and peer_ticks_per_s, since a
  // swarm's late ticks are cheap) are heavy-tailed on lossy links, which
  // sways a plain mean, and on refresh-paced swarms they take a few values
  // 40 ticks apart, which makes a median over a handful of instances jump.
  const auto peer_ticks_per_s = [](const Sample& s) {
    return static_cast<double>(s.result.outcome.peer_count) *
           static_cast<double>(s.result.outcome.end_tick) / (s.run_s * s.scale);
  };
  return {
      {"setup_s", iq_mean_over(samples, [](const Sample& s) { return s.setup_s * s.scale; }),
       "s"},
      {"run_s", iq_mean_over(samples, [](const Sample& s) { return s.run_s * s.scale; }), "s"},
      {"peer_ticks_per_s", iq_mean_over(samples, peer_ticks_per_s), "1/s"},
      {"peak_rss_mb", peak_rss_bytes() / (1024.0 * 1024.0), "MB"},
      {"completion_tick_p50", iq_mean_over(samples, [](const Sample& s) {
         return completion_tick_p50(s.result);
       }), "ticks"},
      {"completion_tick_max", iq_mean_over(samples, [](const Sample& s) {
         const auto& ticks = s.result.outcome.completion_ticks;
         return static_cast<double>(*std::max_element(ticks.begin(), ticks.end()));
       }), "ticks"},
      {"wire_bytes_per_useful_byte", iq_mean_over(samples, wire_per_useful), "ratio"},
      {"delivered_share",
       ratio(static_cast<double>(attempted - failed), static_cast<double>(attempted)),
       "ratio"},
  };
}

/// One traced instance paired with its untraced twin.
struct Round {
  const Sample* untraced;
  const TracedRun* traced;
};

std::vector<Metric> per_layer(const std::vector<Sample>& samples,
                              const std::vector<Round>& rounds,
                              const Probes& probes) {
  const auto over = [&](auto&& value) { return median_over(samples, value); };
  const auto busy = [](const Sample& s, bool max) {
    double max_ns = 0.0;
    double sum_ns = 0.0;
    for (const std::uint64_t ns : s.result.busy_ns) {
      max_ns = std::max(max_ns, static_cast<double>(ns));
      sum_ns += static_cast<double>(ns);
    }
    return (max ? max_ns : sum_ns) * 1e-6;
  };
  const std::size_t shards = samples.front().shards;
  const bool sharded = shards > 1;
  const double shard_count = static_cast<double>(shards);
  const auto count = [&](auto&& field) {
    return over([&](const Sample& s) { return static_cast<double>(field(s.result)); });
  };

  std::vector<double> refresh_ms, rest_ms;
  core::MemoryAudit peak;
  for (const Round& round : rounds) {
    const TracedRun& t = *round.traced;
    refresh_ms.insert(refresh_ms.end(), t.refresh_ms.begin(), t.refresh_ms.end());
    rest_ms.insert(rest_ms.end(), t.rest_ms.begin(), t.rest_ms.end());
    if (t.peak_audit.total() > peak.total()) peak = t.peak_audit;
  }
  if (rest_ms.empty()) rest_ms.push_back(0.0);
  const double audit_peers = static_cast<double>(std::max<std::size_t>(peak.peers, 1));

  return {
      {"core.setup.add_peer_us", over([](const Sample& s) {
         return s.add_peer_s * 1e6 / static_cast<double>(s.initial_peers);
       }), "us"},
      {"core.refresh_tick_ms.p50", quantile(refresh_ms, 0.5), "ms"},
      {"core.refresh_tick_ms.p90", quantile(refresh_ms, 0.9), "ms"},
      {"core.epoch_rest_ms.p50", quantile(rest_ms, 0.5), "ms"},
      {"core.epoch_rest_ms.p90", quantile(rest_ms, 0.9), "ms"},
      {"core.ticks_executed", count([](const Harvest& h) {
         return h.outcome.end_tick - h.outcome.ticks_skipped;
       }), "count"},
      {"core.ticks_skipped", count([](const Harvest& h) { return h.outcome.ticks_skipped; }),
       "count"},
      {"core.span_coverage", median_over(rounds, [](const Round& r) {
         return r.traced->covered_s / r.traced->total_s;
       }), "ratio"},
      {"core.trace_overhead", median_over(rounds, [](const Round& r) {
         return r.traced->drive_s / r.untraced->run_s - 1.0;
       }), "ratio"},
      {"planner.queue_ops_per_tick", over([](const Sample& s) {
         return ratio(static_cast<double>(s.result.planner.ops()),
                      static_cast<double>(s.result.outcome.end_tick));
       }), "ops/tick"},
      {"planner.stale_share", over([](const Sample& s) {
         return ratio(static_cast<double>(s.result.planner.stale_skipped),
                      static_cast<double>(s.result.planner.ops()));
       }), "ratio"},
      {"planner.full_rebuilds", count([](const Harvest& h) { return h.planner.full_rebuilds; }),
       "count"},
      {"planner.events_processed", count([](const Harvest& h) { return h.events_processed; }),
       "count"},
      {"planner.op_ns", probes.planner_op_ns, "ns"},
      {"admission.select_us", probes.select_us, "us"},
      {"sketch.resemblance_ns", probes.resemblance_ns, "ns"},
      {"endpoint.failed_sessions",
       count([](const Harvest& h) { return h.outcome.failed_sessions; }), "count"},
      {"wire.data_frames", count([](const Harvest& h) { return h.totals.data_frames; }),
       "count"},
      {"wire.control_frames",
       count([](const Harvest& h) { return h.totals.control_frames; }), "count"},
      {"wire.control_share", over([](const Sample& s) {
         const auto& totals = s.result.totals;
         return ratio(static_cast<double>(totals.control_bytes),
                      static_cast<double>(totals.control_bytes + totals.data_bytes));
       }), "ratio"},
      {"wire.frames_per_s", over([](const Sample& s) {
         return static_cast<double>(s.result.totals.data_frames +
                                    s.result.totals.control_frames) /
                s.run_s;
       }), "1/s"},
      {"wire.frames_refused",
       count([](const Harvest& h) { return h.totals.frames_refused; }), "count"},
      {"wire.symbol_frame_encode_ns", probes.frame_encode_ns, "ns"},
      {"wire.symbol_frame_decode_ns", probes.frame_decode_ns, "ns"},
      {"shard.busy_ms.max", over([&](const Sample& s) { return busy(s, true); }), "ms"},
      {"shard.busy_ms.sum", over([&](const Sample& s) { return busy(s, false); }), "ms"},
      {"shard.parallel_wall_ms", over([](const Sample& s) {
         return static_cast<double>(s.result.parallel_wall_ns) * 1e-6;
       }), "ms"},
      {"shard.barrier_wait_share", over([&](const Sample& s) {
         const double wall_ms = static_cast<double>(s.result.parallel_wall_ns) * 1e-6;
         return wall_ms > 0.0 ? 1.0 - busy(s, false) / (shard_count * wall_ms) : 0.0;
       }), "ratio"},
      {"shard.cost_imbalance", over([&](const Sample& s) {
         if (!sharded) return 0.0;
         double max_units = 0.0;
         double sum_units = 0.0;
         for (const std::uint64_t units : s.result.cost_units) {
           max_units = std::max(max_units, static_cast<double>(units));
           sum_units += static_cast<double>(units);
         }
         return ratio(max_units, sum_units / shard_count);
       }), "ratio"},
      {"shard.cpu_over_wall", over([&](const Sample& s) {
         return sharded ? s.cpu_s / s.run_s : 0.0;
       }), "ratio"},
      {"codec.equations_added",
       count([](const Harvest& h) { return h.decoder.equations_added; }), "count"},
      {"codec.substitutions", count([](const Harvest& h) { return h.decoder.substitutions; }),
       "count"},
      {"codec.row_reductions",
       count([](const Harvest& h) { return h.decoder.row_reductions; }), "count"},
      {"codec.redundant_share", over([](const Sample& s) {
         return ratio(static_cast<double>(s.result.decoder.redundant),
                      static_cast<double>(s.result.decoder.equations_added));
       }), "ratio"},
      {"codec.recode_us", probes.recode_us, "us"},
      {"codec.decode_us_per_symbol", probes.decode_us_per_symbol, "us"},
      {"filter.bloom_summary_us", probes.bloom_summary_us, "us"},
      {"reconcile.set_difference_us", probes.set_difference_us, "us"},
      {"mem.audit_peak_bytes_per_peer", static_cast<double>(peak.total()) / audit_peers,
       "B"},
      {"mem.decoder_bytes_per_peer", static_cast<double>(peak.decoder_bytes) / audit_peers,
       "B"},
      {"mem.endpoint_bytes_per_peer",
       static_cast<double>(peak.endpoint_bytes) / audit_peers, "B"},
      {"mem.link_bytes_per_peer", static_cast<double>(peak.link_bytes) / audit_peers, "B"},
      {"mem.audit_share_of_rss", static_cast<double>(peak.total()) / peak_rss_bytes(),
       "ratio"},
  };
}

int run(const Args& args) {
  Checks checks{args};
  std::vector<Sample> samples;
  std::vector<TracedRun> traces;
  std::unique_ptr<Setup> probe_swarm;  // the last traced instance's finished swarm
  std::size_t attempted = 0;
  std::size_t failed = 0;

  // Instances run while another one fits in the time budget, each after a
  // host probe. With --trace 1 each instance runs twice, untraced then
  // traced, and the two runs must follow the same trajectory.
  const std::size_t probe_threads = workload_shards(args);
  std::vector<double> probe_s;
  const auto start = Clock::now();
  double last_s = 0.0;
  do {
    const auto round = Clock::now();
    probe_s.push_back(host_probe(probe_threads));
    const std::size_t instance = samples.size();
    const std::uint64_t seed = instance_seed(args, instance);
    const std::string name = "instance " + std::to_string(instance);
    probe_swarm.reset();  // one swarm alive at a time keeps peak RSS honest
    samples.push_back(untraced_run(args, seed));
    const Sample& sample = samples.back();
    checks.delivery(sample.result, name + " untraced");
    attempted += sample.result.attempted;
    failed += sample.result.failed;
    if (args.trace) {
      TracedRun traced = traced_run(args, seed);
      checks.delivery(traced.result, name + " traced");
      checks.same_trajectory(sample.result, traced.result, name + " traced");
      attempted += traced.result.attempted;
      failed += traced.result.failed;
      probe_swarm = std::make_unique<Setup>(std::move(traced.setup));
      traces.push_back(std::move(traced));
    }
    last_s = since(round);
    std::fprintf(stderr,
                 "swarm_bench: %s instance %zu: probe %.4f s, setup %.4f s, "
                 "run %.4f s, %zu peers, %zu ticks\n",
                 args.workload.c_str(), instance, probe_s.back(), sample.setup_s,
                 sample.run_s, sample.result.outcome.peer_count,
                 static_cast<std::size_t>(sample.result.outcome.end_tick));
  } while (since(start) + last_s <= args.seconds);
  probe_s.push_back(host_probe(probe_threads));
  if (samples.front().shards != probe_threads) {
    throw std::logic_error("host probe thread count differs from the shard count");
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].scale =
        reference_probe_s(probe_threads) / ((probe_s[i] + probe_s[i + 1]) / 2.0);
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    const Probes probes = run_probes(*probe_swarm, args.seed, checks);
    std::vector<Round> rounds;
    for (std::size_t i = 0; i < traces.size(); ++i) rounds.push_back({&samples[i], &traces[i]});
    metrics = per_layer(samples, rounds, probes);
  } else {
    metrics = end_to_end(samples, attempted, failed);
  }

  std::string out = "{\"workload\": " + json_string(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"instances\": " + std::to_string(samples.size()) +
                    ", \"host_probe_s\": " + json_number(median(probe_s)) +
                    ", \"unscaled\": {\"setup_s\": " +
                    json_number(iq_mean_over(samples, [](const Sample& s) {
                      return s.setup_s;
                    })) +
                    ", \"run_s\": " +
                    json_number(iq_mean_over(samples, [](const Sample& s) {
                      return s.run_s;
                    })) +
                    "}" +
                    ", \"compiler\": " + json_string(__VERSION__) +
                    ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
                    ", \"correct\": " + (checks.ok ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + json_string(metrics[i].name) +
           ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return checks.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "swarm_bench: %s\n", error.what());
    return 2;
  }
}
