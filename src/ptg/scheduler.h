// The ready queue of one rank: task priorities plus intra-node work
// stealing, as in the paper's PaRSEC scheduler (§IV-C, §IV-D).
//
// Every worker owns a mutex-guarded binary heap ordered by priority
// (highest first), then by the global insertion sequence (oldest first). A
// worker pushes the successors it activates onto its own heap and pops from
// it first. Pushes from other threads (startup enumeration, the comm
// thread, steal replies, recovery re-pushes) go round-robin over the heaps.
// A worker whose heap is empty takes the top of the next non-empty peer
// heap. With one worker there is one heap, so a one-worker rank runs in
// strict (priority, seq) order; with every priority equal that is FIFO,
// exactly the paper's v2 behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ptg/types.h"

namespace mp::ptg {

struct ReadyTask {
  double priority = 0.0;
  uint64_t seq = 0;  ///< global insertion order, for deterministic ties
  /// Home rank of a task migrated here by inter-node stealing; -1 for a
  /// locally-owned task. The executor credits the origin rank instead of
  /// counting the completion locally (see Context).
  int origin = -1;
  TaskKey key;
  std::vector<DataBuf> inputs;
};

/// Contention/steal counters, cheap relaxed atomics kept on the hot paths.
/// `contended_*` counts heap-lock acquisitions that had to wait (try_lock
/// failed first).
struct SchedStats {
  uint64_t steals = 0;          ///< tasks a worker took from a peer's heap
  uint64_t steal_attempts = 0;  ///< peer heaps probed by idle workers
  uint64_t contended_pushes = 0;
  uint64_t contended_pops = 0;

  /// Internal-consistency self check: a successful steal is always preceded
  /// by the attempt that found it, so steals can never exceed
  /// steal_attempts in an acquire-ordered snapshot. Returns an empty string
  /// when consistent, else a description of the violated invariant (used as
  /// a stress-test assertion message).
  std::string validate() const {
    if (steals > steal_attempts) {
      return "SchedStats: steals (" + std::to_string(steals) +
             ") > steal_attempts (" + std::to_string(steal_attempts) + ")";
    }
    return {};
  }
};

class Scheduler {
 public:
  explicit Scheduler(int num_workers);

  /// Enqueue a ready task on worker `worker`'s heap, or on the next heap in
  /// round-robin order when `worker` is -1 (a non-worker thread). Any
  /// thread may push with any id.
  void push(ReadyTask t, int worker);

  /// Enqueue several sibling activations at once (a completed task waking
  /// its successors): one lock round trip per heap instead of per task.
  /// With `worker` = -1, task i goes to the i-th heap of the round robin.
  void push_batch(std::vector<ReadyTask>&& ts, int worker);

  /// Dequeue the best task of `worker`'s own heap, else steal the top of
  /// the next non-empty peer heap; false if none was found.
  bool try_pop(ReadyTask& out, int worker);

  /// Remove up to `max_n` ready tasks for migration to another node (the
  /// victim side of an inter-node steal), best first from heap 0, then
  /// heap 1, and so on. Any thread may call it, and it counts no steal;
  /// tasks the caller decides not to migrate can be re-pushed with
  /// worker = -1. Returns the number harvested.
  size_t harvest(std::vector<ReadyTask>& out, size_t max_n);

  /// Approximate number of queued tasks, O(1): a relaxed atomic counter
  /// maintained on push/pop, never a sweep over the heap locks. Exact once
  /// the heaps are quiescent.
  size_t size() const { return size_.load(std::memory_order_acquire); }

  /// Snapshot of the contention and steal counters.
  SchedStats stats() const;

 private:
  struct alignas(64) Heap {
    std::mutex mu;
    std::vector<ReadyTask> tasks;  ///< std::push_heap order, best in front
  };

  /// The heap a push by `worker` starts at; -1 advances the round robin
  /// by `count` tasks.
  size_t first_heap(int worker, size_t count);
  /// Pops the top of `h` into `out`; false if `h` is empty.
  bool pop_from(Heap& h, ReadyTask& out);

  std::vector<Heap> heaps_;
  std::atomic<size_t> next_heap_{0};
  std::atomic<size_t> size_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> steal_attempts_{0};
  std::atomic<uint64_t> contended_pushes_{0};
  std::atomic<uint64_t> contended_pops_{0};
};

}  // namespace mp::ptg
