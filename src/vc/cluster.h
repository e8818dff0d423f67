// An in-process virtual cluster: R ranks executed SPMD on R threads, a
// message fabric between them, and the handful of collectives the CC code
// needs (barrier, allreduce). This substitutes for MPI at real-execution
// scale; the discrete-event simulator (src/sim) models network *performance*
// at paper scale, while this module provides network *semantics* for
// correctness runs.
#pragma once

#include <atomic>
#include <barrier>
#include <functional>
#include <memory>
#include <vector>

#include "vc/fabric.h"
#include "vc/mailbox.h"

namespace mp::vc {

class Cluster;

/// Per-rank handle passed to the SPMD function. All members are safe to call
/// concurrently from different ranks.
class RankCtx {
 public:
  RankCtx(Cluster* cluster, int rank) : cluster_(cluster), rank_(rank) {}

  int rank() const { return rank_; }
  int nranks() const;

  /// Point-to-point send to `dst`'s mailbox: header bytes plus optional
  /// shared segments (see Message).
  void send(int dst, int tag, Payload header,
            std::vector<DataBuf> segments = {});

  /// This rank's inbound mailbox.
  Mailbox& mailbox();

  /// Collective: all ranks must call.
  void barrier();

  /// Drop out of all future barriers. A killed rank calls this instead of
  /// its final barrier() so the survivors' collectives keep completing.
  void barrier_drop();

  /// Collective sum-reduce; every rank receives the global sum.
  double allreduce_sum(double x);

  /// Collective max-reduce.
  double allreduce_max(double x);

  /// True once this rank has been crash-injected (fail-stop). The runtime
  /// polls this on its comm thread and, when set, stops executing — the
  /// thread itself keeps running (it is a thread of the test process), it
  /// just goes silent, which is what a crashed rank looks like on the wire.
  bool is_dead() const;

  Cluster& cluster() { return *cluster_; }

 private:
  Cluster* cluster_;
  int rank_;
};

class Cluster {
 public:
  explicit Cluster(int nranks, FabricConfig fabric_cfg = {});
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int nranks() const { return nranks_; }
  Fabric& fabric() { return *fabric_; }
  Mailbox& mailbox(int rank) { return mailboxes_[static_cast<size_t>(rank)]; }

  /// Run `fn(ctx)` once per rank, each on its own thread, and join.
  /// Exceptions thrown by any rank are rethrown (first one wins).
  void run(const std::function<void(RankCtx&)>& fn);

  /// A process-wide shared counter (the Global Arrays NXTVAL primitive is
  /// built on this). Returns the pre-increment value.
  long fetch_add_counter(int which, long delta);
  void reset_counter(int which, long value);
  static constexpr int kNumCounters = 8;

  // --- rank failure (fail-stop model, DESIGN.md §10) ---

  /// Kill `rank`: mark it dead cluster-wide, blackhole its fabric traffic,
  /// and close its mailbox (pending messages stay drainable). Idempotent.
  /// Also runs as the fabric's kill callback when a CrashPlan fires.
  void kill_rank(int rank);
  /// Bring a killed rank back as a new incarnation: clears the dead flag,
  /// reopens its mailbox, and resets every survivor's dedup window for it
  /// (see Mailbox::reset_source).
  void revive_rank(int rank);
  bool is_dead(int rank) const {
    return dead_[static_cast<size_t>(rank)].load(std::memory_order_acquire) !=
           0;
  }

  // --- internal, used by RankCtx collectives ---
  void barrier_wait();
  void barrier_arrive_and_drop();
  double allreduce(double x, int rank, bool max_mode);

 private:
  int nranks_;
  std::vector<Mailbox> mailboxes_;
  std::unique_ptr<Fabric> fabric_;
  std::barrier<> barrier_;
  std::vector<std::atomic<long>> counters_;
  /// Cluster-wide liveness flags, one per rank (uint8_t: vector<atomic<bool>>
  /// is fine but this keeps the element trivially copyable for resize-free
  /// construction).
  std::vector<std::atomic<uint8_t>> dead_;

  // allreduce scratch: contributions land in slots, rank 0 combines.
  std::vector<double> reduce_slots_;
  double reduce_result_ = 0.0;
};

}  // namespace mp::vc
