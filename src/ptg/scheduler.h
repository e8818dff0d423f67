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

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "ptg/types.h"

namespace mp::ptg {

/// A ready task names its FlatGraph id only: its inputs stay where the
/// deposits put them (the Submission's input slots, or the migrated-in
/// table for a task stolen from another rank).
struct ReadyTask {
  double priority = 0.0;
  uint64_t seq = 0;  ///< global insertion order, for deterministic ties
  int32_t id = -1;   ///< the task's FlatGraph id
  /// Home rank of a task migrated here by inter-node stealing; -1 for a
  /// locally-owned task. The executor credits the origin rank instead of
  /// counting the completion locally (see Context).
  int32_t origin = -1;
};

/// Heap order: true when `a` runs after `b` (lower priority, or the same
/// priority and pushed later), so the heap's front is the task to run next.
bool runs_after(const ReadyTask& a, const ReadyTask& b);

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
  /// Leaves `ts` empty with its capacity.
  void push_batch(std::vector<ReadyTask>&& ts, int worker) {
    push_generated(
        ts.size(), [&ts](size_t i) { return std::move(ts[i]); }, worker);
    ts.clear();
  }

  /// push_batch() of the `n` tasks make(0) .. make(n - 1), built in place
  /// under each heap's lock instead of in a vector first (a rank's startup
  /// batch can hold tens of thousands of tasks).
  template <class Make>
  void push_generated(size_t n, Make&& make, int worker);

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
  /// Locks `h`, counting a lock that had to wait in contended_pushes_.
  std::unique_lock<std::mutex> lock_for_push(Heap& h);
  /// Publishes `added` tasks pushed onto `h` (lock held).
  void pushed(Heap& h, size_t added);
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

template <class Make>
void Scheduler::push_generated(size_t n, Make&& make, int worker) {
  if (n == 0) return;
  // A worker keeps the whole batch; otherwise task i goes to heap first + i.
  const size_t heaps = worker >= 0 ? 1 : std::min(n, heaps_.size());
  const size_t first = first_heap(worker, n);
  for (size_t j = 0; j < heaps; ++j) {
    Heap& h = heaps_[(first + j) % heaps_.size()];
    auto lock = lock_for_push(h);
    // Room for the whole share at once, still growing geometrically.
    const size_t need = h.tasks.size() + (n - j + heaps - 1) / heaps;
    if (need > h.tasks.capacity()) {
      h.tasks.reserve(std::max(need, 2 * h.tasks.capacity()));
    }
    size_t added = 0;
    for (size_t i = j; i < n; i += heaps, ++added) {
      h.tasks.push_back(make(i));
      std::push_heap(h.tasks.begin(), h.tasks.end(), runs_after);
    }
    pushed(h, added);
  }
}

}  // namespace mp::ptg
