#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "util/random.hpp"
#include "util/ring.hpp"
#include "wire/transport.hpp"

/// A bidirectional link whose two ends live on different shard threads.
///
/// Same role as ChannelLink, but thread-crossing: each direction is a pair
/// of FIFO queues — a frame queue carrying datagrams toward the peer shard,
/// and a recycle queue carrying spent buffers back so the steady-state send
/// path stays allocation-free even though the two ends own separate
/// BufferPools (pools are shard-local; see DESIGN.md, "Threading model").
/// The queues are plain util::RingBuffers (no slots until the first push,
/// growth by doubling), bounded logically at kRingFrames entries. They
/// carry no atomics because the engine's two-phase tick never lets a
/// queue's producer and consumer run at once: the sending (a) end acts in
/// the send phase, the receiving (b) end in the receive phase, and the
/// barrier between the phases orders every handoff. The one cross-phase
/// call, commit_b_through(), runs on the a end's thread in the send phase,
/// when the b end is idle. A coordinator may stand in for either end
/// while the workers are parked at a barrier (session refresh, teardown).
///
/// Channel shaping is applied on the sending side, single-threaded per
/// direction: Bernoulli loss and an adjacent-swap reorder (one frame held
/// back, with probability reorder_rate it departs behind its successor)
/// from the direction's own ChannelConfig-seeded RNG. LossyChannel's
/// one-hop residency clock is emulated producer-side: the most recently
/// sent frame stays held until the next send displaces it or the owning
/// end's next advance_*_to() completes the hop — which, through the
/// engine's two-phase tick pattern, reproduces the exact per-tick
/// delivery schedule a local ChannelLink gives the same download. That
/// schedule equivalence is what lets the sharded engine treat peer
/// placement (and hence the cost rebalance) as a planning concern: with
/// deterministic shaping (no loss/jitter/reorder draws) a download's
/// trajectory is bit-for-bit identical over either link type. Stochastic
/// shaping stays deterministic per placement but draws its RNG streams in
/// link-local order, so moving a peer re-rolls them — exactly like
/// changing the edge seed. A full frame queue drops the frame (counted;
/// the protocol absorbs it as loss).
///
/// Timed configs (ChannelConfig delay/jitter/rate) are shaped sender-side
/// too: frames are paced through a wire::LinkShaper token bucket, held in
/// a sender-local delay line until their arrival tick, and pushed onto the
/// frame queue by the owning shard's advance_*_to() call — so the two-phase
/// barrier remains the commit point for every cross-shard event, and the
/// consuming shard only ever sees frames that have "arrived". In timed
/// mode reorder_rate draws swap adjacent arrival times in the delay line
/// (exactly LossyChannel's timed semantics; jitter reorders organically
/// on top) instead of using the event-clock holdback.
namespace icd::wire {

class ShardLink {
 public:
  /// Same shaping in both directions; the reverse direction gets a
  /// decorrelated seed (mirroring ChannelLink).
  explicit ShardLink(ChannelConfig both_ways);
  ShardLink(ChannelConfig a_to_b, ChannelConfig b_to_a);

  /// The ends hold references into this object's queues: copying or moving
  /// would silently alias (then dangle) them.
  ShardLink(const ShardLink&) = delete;
  ShardLink& operator=(const ShardLink&) = delete;

  Transport& a() { return a_; }
  Transport& b() { return b_; }

  /// Makes both directions' held-back (reorder) and delay-line frames
  /// deliverable — the teardown analogue of ChannelLink::flush(). Caller
  /// must stand in for both ends (i.e. run while the workers are parked).
  void flush();

  // --- Virtual clock (timed configs; no-ops otherwise) --------------------

  /// Either direction carries simulated-time shaping.
  bool timed() const { return a_.timed() || b_.timed(); }

  /// Advances one end's virtual clock, pushing frames whose arrival tick
  /// has passed onto the frame queue. Each call belongs to that end's
  /// owning shard thread (it produces onto the end's outgoing queue).
  void advance_a_to(std::uint64_t t) { a_.advance_to(t); }
  void advance_b_to(std::uint64_t t) { b_.advance_to(t); }

  /// Send-credit probe for the serving (a -> b) direction.
  std::uint64_t a_send_ready_at(std::size_t bytes) const {
    return a_.send_ready_at(bytes);
  }

  /// Timed reverse-direction commit: pushes b's delay-line frames with
  /// arrival <= t onto the queue *without* advancing b's clock. The b end
  /// acts in the receive phase, after the a end's drain — so the a-side
  /// owner calls this at the top of its send phase with t = now, making
  /// a frame arriving at tick T drainable in phase T, exactly when a
  /// local ChannelLink's advance_to(T) would surface it. Keying off the
  /// draining tick (not a look-ahead from the previous one) keeps jumped
  /// runs identical to lockstep. Phase-safe despite the a-side call: the
  /// b owner only touches this queue (and b's delay line) in the receive
  /// phase, behind the barrier. No-op for untimed directions (their
  /// residency holdback releases through advance_b_to instead).
  void commit_b_through(std::uint64_t t) { b_.commit_through(t); }

  /// The earliest virtual time at which either direction can deliver
  /// anything — the event-loop planning surface, mirroring
  /// ChannelLink::next_event_time(). Frames already committed to a queue
  /// ("arrived", awaiting the consumer's drain) report 0 (due
  /// immediately); otherwise the earliest delay-line arrival in either
  /// direction; nullopt = provably drained. Coordinator-only, like every
  /// between-ticks inspection: the workers must be parked at a barrier.
  std::optional<std::uint64_t> next_event_time() const {
    if (!a_to_b_.frames.empty() || !b_to_a_.frames.empty()) {
      return 0;
    }
    const auto forward = a_.delayed_next_arrival();
    const auto reverse = b_.delayed_next_arrival();
    if (!forward) return reverse;
    if (!reverse) return forward;
    return std::min(*forward, *reverse);
  }

  /// Frames dropped because a frame queue held kRingFrames (distinct from
  /// the configured Bernoulli loss).
  std::size_t overflow_drops() const {
    return a_.overflow_drops() + b_.overflow_drops();
  }

  /// Link blackout (fault injection): while set, both directions eat every
  /// send before any RNG draw — mirroring ChannelLink::set_blackout so the
  /// sharded engine drops the identical frame set. Coordinator-only, like
  /// every cross-shard configuration call (workers parked at a barrier).
  void set_blackout(bool active) {
    a_.set_blackout(active);
    b_.set_blackout(active);
  }

  /// Heap bytes the whole edge pins: both ends (transport scratch, private
  /// per-end pool, delay line, holdback), the slot arrays the four queues
  /// have grown so far (a fresh link has none), and the buffers queued in
  /// them — at rest, the spent buffers parked in the recycle queues.
  /// Coordinator-only, like every between-ticks inspection.
  std::size_t memory_bytes() const {
    return a_.memory_bytes() + b_.memory_bytes() +
           queue_bytes(a_to_b_.frames) + queue_bytes(a_to_b_.recycle) +
           queue_bytes(b_to_a_.frames) + queue_bytes(b_to_a_.recycle);
  }

  /// Frames per queue a burst can hold before overflow; handshake
  /// fragment trains (multi-KB ART summaries) set the floor.
  static constexpr std::size_t kRingFrames = 1024;

 private:
  using Queue = util::RingBuffer<std::vector<std::uint8_t>>;

  struct Direction {
    Queue frames;
    Queue recycle;
  };

  static std::size_t queue_bytes(const Queue& queue) {
    std::size_t bytes = queue.capacity() * sizeof(std::vector<std::uint8_t>);
    for (std::size_t i = 0; i < queue.size(); ++i) {
      bytes += queue[i].capacity();
    }
    return bytes;
  }

  class End : public Transport {
   public:
    End(ChannelConfig config, Direction& out, Direction& in);

    std::size_t overflow_drops() const { return overflow_drops_; }
    void flush_held();
    void set_blackout(bool active) { blackout_ = active; }

    bool timed() const { return config_.timed(); }
    void advance_to(std::uint64_t t);
    void commit_through(std::uint64_t t);
    std::uint64_t send_ready_at(std::size_t bytes) const {
      return shaper_.send_ready_at(bytes);
    }
    /// Earliest arrival still waiting in this end's outgoing delay line.
    /// The event-clock residency holdback completes its hop at the owning
    /// end's first advance past the hold tick.
    std::optional<std::uint64_t> delayed_next_arrival() const {
      if (held_) return held_tick_ + 1;
      return delayed_.next_arrival();
    }

    /// Heap bytes this end pins beyond the base Transport accounting: its
    /// private BufferPool (ends do not share pools across the thread
    /// seam, so each end charges its own), the reorder holdback, and the
    /// timed delay line.
    std::size_t memory_bytes() const {
      return Transport::memory_bytes() + pool().memory_bytes() +
             (held_ ? held_->capacity() : 0) + delayed_.memory_bytes();
    }

   protected:
    bool send_datagram(std::vector<std::uint8_t> frame) override;
    std::optional<std::vector<std::uint8_t>> next_datagram() override;
    std::vector<std::uint8_t> acquire_buffer() override;
    void release_buffer(std::vector<std::uint8_t> buffer) override;

   private:
    void enqueue(std::vector<std::uint8_t> frame);
    /// Pushes delay-line frames whose arrival tick has passed to the queue.
    void release_arrived();

    Direction& out_;
    Direction& in_;
    ChannelConfig config_;
    util::Xoshiro256 rng_;
    LinkShaper shaper_;
    /// Gilbert-Elliott chain replacing the Bernoulli loss draw when the
    /// config enables it (see wire::GilbertElliott).
    std::optional<GilbertElliott> ge_;
    bool blackout_ = false;
    /// One-hop residency holdback (event-clock configs only; timed
    /// configs pace through the delay line instead): the most recently
    /// sent frame, "in flight" until the next send displaces it or the
    /// owner's next advance completes the hop — LossyChannel's event
    /// clock, seen from the producing side of the queue. Reorder swaps the
    /// departing predecessor with the frame replacing it.
    std::optional<std::vector<std::uint8_t>> held_;
    std::uint64_t held_tick_ = 0;
    /// Timed configs: sender-local delay line, sorted by (arrival, seq).
    TimedFrameQueue delayed_;
    std::uint64_t next_seq_ = 0;
    std::size_t overflow_drops_ = 0;
  };

  Direction a_to_b_;
  Direction b_to_a_;
  End a_;
  End b_;
};

}  // namespace icd::wire
