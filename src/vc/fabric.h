// The interconnect of the virtual cluster. Routes messages from sender to
// the destination rank's mailbox. With a zero-latency config (the default)
// delivery is immediate; with a configured latency/bandwidth a background
// delivery thread holds each message until its arrival time, preserving
// per-(src,dst) FIFO ordering like a real network conduit.
//
// For stress testing the runtime's termination protocol the fabric can also
// inject faults: seeded, per-link message drops, duplications and reordering
// jitter. Every fault is counted, so a test can reconcile what entered the
// fabric against what came out the other side.
//
// Beyond per-message faults the fabric models two whole-endpoint failures
// for the rank-failure-tolerance work (DESIGN.md §10):
//   - crashes: a rank can be killed — by API (kill_rank) or by a seeded
//     CrashPlan that fires when the fabric has accepted a chosen number of
//     messages, which makes "rank dies mid-run" exactly reproducible. A
//     dead endpoint blackholes all traffic to and from it (fail-stop);
//     messages already on the wire still deliver.
//   - one-sided partitions: partition(src, dst) silently swallows every
//     src->dst message while the reverse direction keeps flowing, the
//     classic asymmetric-connectivity case a failure detector must not
//     misread as a crash.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "support/rng.h"
#include "vc/mailbox.h"
#include "vc/message.h"

namespace mp::vc {

/// Fault-injection knobs for one link (or, as `FabricConfig::faults`, the
/// default for every link). All probabilities are evaluated per message
/// from a seeded RNG, so a given seed reproduces the exact fault pattern.
struct FaultConfig {
  /// Probability a message is silently lost in transit.
  double drop_prob = 0.0;
  /// Probability a message is delivered twice.
  double dup_prob = 0.0;
  /// Extra per-message delay drawn uniformly from [0, reorder_jitter_us),
  /// breaking the fabric's per-link FIFO ordering.
  double reorder_jitter_us = 0.0;
};

/// A seeded rank-kill: when the fabric has accepted `after_messages`
/// messages in total, `victim` crashes (fail-stop). Deterministic for a
/// deterministic message schedule, and monotone regardless: the kill always
/// fires at the same point of the fabric's accept stream.
struct CrashPlan {
  int victim = -1;
  uint64_t after_messages = 0;
};

struct FabricConfig {
  /// One-way latency added to every message, microseconds.
  double latency_us = 0.0;
  /// Per-link bandwidth in bytes/second (0 = infinite).
  double bandwidth_Bps = 0.0;
  /// Faults applied to every link unless overridden in `link_faults`.
  FaultConfig faults;
  /// Per-(src,dst) fault overrides; a present entry fully replaces `faults`
  /// for that link.
  std::map<std::pair<int, int>, FaultConfig> link_faults;
  /// Seed for the fault RNG; identical seeds reproduce identical faults.
  uint64_t fault_seed = 0x5eedfab51cULL;
  /// Scheduled rank crashes (see CrashPlan). Each fires at most once.
  std::vector<CrashPlan> crash_plans;
  /// Controlled-scheduler mode (mp-explore, DESIGN.md §12): send() stamps
  /// and accepts messages exactly as usual but parks them on an in-order
  /// pending list instead of delivering. An exploration engine then decides
  /// the fate of every message — deliver / drop / duplicate, in any order —
  /// through the pending_*() APIs, and crash plans never self-fire (the
  /// engine kills ranks as explicit choice points). Mutually exclusive with
  /// latency/bandwidth/jitter (the engine's choice sequence is the clock)
  /// and with the probabilistic drop/dup faults (faults become choices).
  bool controlled = false;
};

/// Snapshot of the fabric's counters. `messages_sent` counts messages the
/// fabric accepted (including ones later lost to injected faults);
/// `messages_dropped` counts messages the fabric refused outright (sent
/// after shutdown began, or destined for a closed mailbox); the `faults_*`
/// block counts injected fault events.
struct FabricStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t messages_dropped = 0;
  uint64_t bytes_dropped = 0;
  uint64_t faults_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_reordered = 0;
  /// Messages blackholed because their source or destination rank is dead.
  uint64_t faults_crashed = 0;
  /// Messages swallowed by a one-sided partition.
  uint64_t faults_partitioned = 0;
  /// Ranks killed so far (API calls + fired crash plans).
  uint64_t ranks_killed = 0;

  /// Internal-consistency self check. The increment/snapshot ordering in
  /// Fabric (release on the second counter of each pair, paired acquire
  /// loads in stats()) makes these hold even for a mid-run snapshot:
  ///   - every injected drop/dup fault belongs to an accepted message,
  ///     so faults_dropped <= messages_sent and
  ///     faults_duplicated <= messages_sent;
  ///   - bytes are only counted alongside a message, so a nonzero byte
  ///     counter implies a nonzero message counter.
  /// Returns an empty string when consistent, else a description of the
  /// violated invariant (stress tests assert on this).
  std::string validate() const {
    if (faults_dropped > messages_sent) {
      return "FabricStats: faults_dropped (" +
             std::to_string(faults_dropped) + ") > messages_sent (" +
             std::to_string(messages_sent) + ")";
    }
    if (faults_duplicated > messages_sent) {
      return "FabricStats: faults_duplicated (" +
             std::to_string(faults_duplicated) + ") > messages_sent (" +
             std::to_string(messages_sent) + ")";
    }
    if (bytes_sent > 0 && messages_sent == 0) {
      return "FabricStats: bytes_sent (" + std::to_string(bytes_sent) +
             ") > 0 with messages_sent == 0";
    }
    if (bytes_dropped > 0 && messages_dropped == 0) {
      return "FabricStats: bytes_dropped (" + std::to_string(bytes_dropped) +
             ") > 0 with messages_dropped == 0";
    }
    if (faults_crashed > messages_sent) {
      return "FabricStats: faults_crashed (" + std::to_string(faults_crashed) +
             ") > messages_sent (" + std::to_string(messages_sent) + ")";
    }
    if (faults_partitioned > messages_sent) {
      return "FabricStats: faults_partitioned (" +
             std::to_string(faults_partitioned) + ") > messages_sent (" +
             std::to_string(messages_sent) + ")";
    }
    if (faults_crashed > 0 && ranks_killed == 0) {
      return "FabricStats: faults_crashed (" + std::to_string(faults_crashed) +
             ") > 0 with ranks_killed == 0";
    }
    return {};
  }
};

class Fabric {
 public:
  Fabric(std::vector<Mailbox>* mailboxes, FabricConfig cfg);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Post a message for delivery. dst must be a valid rank.
  void send(Message m);

  /// Total messages and bytes that have passed through the fabric. Bytes
  /// are serialized sizes (Message::wire_bytes): a segment counts its
  /// doubles although the in-process fabric only moves its handle.
  uint64_t messages_sent() const {
    return messages_sent_.load(std::memory_order_acquire);
  }
  uint64_t bytes_sent() const {
    return bytes_sent_.load(std::memory_order_acquire);
  }
  /// Messages the fabric refused (shutdown in progress / mailbox closed).
  uint64_t messages_dropped() const {
    return messages_dropped_.load(std::memory_order_acquire);
  }

  /// Full counter snapshot, including the fault-injection block.
  FabricStats stats() const;

  // -- endpoint failures (crashes and partitions) --

  /// Kill `rank` (fail-stop): every subsequent message to or from it is
  /// blackholed and counted as faults_crashed. Messages already on the wire
  /// (in the delayed-delivery queue) still deliver — they were sent before
  /// the crash. Idempotent. Also invoked internally when a CrashPlan fires.
  void kill_rank(int rank);
  /// Undo kill_rank for tests that model a rank coming back. Restarts the
  /// rank's wire sequence at 0 — the revived rank is a *new incarnation*,
  /// which is exactly why receivers must Mailbox::reset_source() it.
  void revive_rank(int rank);
  bool is_dead(int rank) const {
    return rank >= 0 && rank < 64 &&
           (dead_mask_.load(std::memory_order_acquire) & (1ULL << rank)) != 0;
  }

  /// One-sided partition: silently swallow every src->dst message (counted
  /// as faults_partitioned) until heal(). The reverse link is unaffected.
  void partition(int src, int dst);
  void heal(int src, int dst);
  bool partitioned(int src, int dst) const;

  /// Callback invoked (once per victim, outside all fabric locks) when a
  /// CrashPlan fires or kill_rank is called; the Cluster uses it to close
  /// the victim's mailbox and mark the rank dead cluster-wide.
  void set_kill_callback(std::function<void(int)> cb) {
    kill_cb_ = std::move(cb);
  }

  /// Stop the delivery thread promptly (does not wait for simulated
  /// delivery deadlines) and flush still-pending messages to their
  /// destination mailboxes so nothing already accepted is lost.
  void shutdown();

  /// Deliver everything still sitting in the delayed queue NOW (ignoring
  /// simulated deadlines) without stopping the delivery thread. Meaningful
  /// only at a quiescent point where no rank is sending — e.g. between
  /// persistent-runtime submissions, after a job's closing barrier: a
  /// quiesce then guarantees the mailboxes hold every message the finished
  /// job will ever produce, so a reset can drain them completely.
  void quiesce();

  // -- controlled-scheduler mode (FabricConfig::controlled; mp-explore) --
  // In this mode the fabric is a passive in-flight message set: accepted
  // messages park until the exploration engine delivers, drops, or
  // duplicates them by index. Indices are positional (0 .. count-1) into
  // the current pending list; delivering or dropping compacts the list.

  bool controlled() const { return cfg_.controlled; }
  /// Number of parked messages.
  size_t pending_count() const;
  /// Copy of the i-th parked message (the engine inspects src/dst/tag/seq
  /// to name its choice points).
  Message pending_peek(size_t i) const;
  /// Deliver the i-th parked message now: push it to the destination
  /// mailbox (whose dedup window may still filter it) and remove it.
  void deliver_pending(size_t i);
  /// Drop the i-th parked message (an explicit fault choice, counted as
  /// faults_dropped).
  void drop_pending(size_t i);
  /// Park a copy — same wire seq, same segment handles — of the i-th
  /// message at the tail (counted as faults_duplicated). The engine
  /// delivers both copies separately; the mailbox's exactly-once window is
  /// what must make the second one invisible.
  void duplicate_pending(size_t i);
  /// Next wire sequence number the fabric would stamp for `src` (i.e. one
  /// past the last stamped seq). The engine encodes window and pending
  /// seqs relative to this so its state fingerprints are invariant under
  /// the monotone seq drift of equivalent protocol states.
  uint64_t wire_seq_next(int src) const;

 private:
  struct Pending {
    std::chrono::steady_clock::time_point deliver_at;
    uint64_t seq;  // tie-break to keep FIFO order for equal times
    Message msg;
    bool operator>(const Pending& o) const {
      if (deliver_at != o.deliver_at) return deliver_at > o.deliver_at;
      return seq > o.seq;
    }
  };

  void delivery_loop();
  /// Pops the earliest pending message; caller holds mu_. The pending
  /// queue is an MP_ANALYSIS channel from the sender to the thread that
  /// delivers, so a segment's object keeps its happens-before edge.
  Message take_pending_locked();
  const FaultConfig& fault_for(int src, int dst) const;
  /// Push to the destination mailbox, counting a refused push as dropped.
  void deliver(Message m);
  void count_sent(const Message& m);
  /// Fire any CrashPlan whose accept-count threshold has been reached.
  /// Called at the end of send() with no fabric lock held, so the kill
  /// callback is free to close mailboxes / take cluster locks.
  void maybe_trigger_crash();

  std::vector<Mailbox>* mailboxes_;
  FabricConfig cfg_;
  bool delayed_;

  std::atomic<uint64_t> messages_sent_{0};
  std::atomic<uint64_t> bytes_sent_{0};
  std::atomic<uint64_t> messages_dropped_{0};
  std::atomic<uint64_t> bytes_dropped_{0};
  std::atomic<uint64_t> faults_dropped_{0};
  std::atomic<uint64_t> faults_duplicated_{0};
  std::atomic<uint64_t> faults_reordered_{0};
  std::atomic<uint64_t> faults_crashed_{0};
  std::atomic<uint64_t> faults_partitioned_{0};
  std::atomic<uint64_t> ranks_killed_{0};

  /// Bitmask of dead ranks (fail-stop model supports up to 64 ranks; the
  /// real clusters in the tests and the paper are far smaller). Lock-free
  /// so the send() fast path stays cheap.
  std::atomic<uint64_t> dead_mask_{0};
  /// 0 until any partition exists; keeps the common no-partition send()
  /// path from taking part_mu_.
  std::atomic<int> has_partitions_{0};
  mutable std::mutex part_mu_;
  std::set<std::pair<int, int>> partitioned_links_;
  /// One "fired" latch per configured CrashPlan.
  std::vector<std::atomic<uint8_t>> crash_fired_;
  std::function<void(int)> kill_cb_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending_;
  /// Controlled-mode parked messages, in accept order (guarded by mu_).
  std::deque<Message> ctrl_pending_;
  Rng rng_;  // fault RNG, guarded by mu_
  /// Per-source wire sequence counters (index = src rank). Each accepted
  /// message is stamped with the next value before any fault is drawn, so
  /// an injected duplicate is an identical copy, seq included.
  std::vector<std::atomic<uint64_t>> wire_seq_;
  uint64_t next_seq_ = 0;
  bool stopping_ = false;
  std::thread delivery_thread_;
};

}  // namespace mp::vc
