// The ready queue of one rank: task priorities plus intra-node work
// stealing, as in the paper's PaRSEC scheduler (§IV-C, §IV-D).
//
// Every worker owns a mutex-guarded binary heap ordered by priority
// (highest first), then by the heap's insertion sequence (oldest first).
// A worker pushes the successors it activates onto its own heap and pops
// from it first. Pushes from other threads (the comm thread, steal
// replies, recovery re-pushes) go round-robin over the heaps. A worker
// whose heap is empty takes the top of the next non-empty peer heap.
//
// A rank's startup tasks are not pushed at all. Each heap also serves a
// presorted run of startup ids (StartupRuns), and every pop takes the
// better of the heap's top and the run's head, the run winning ties: the
// startup tasks were enqueued before any other task, so they are older.
// With one worker there is one heap and one run, so a one-worker rank runs
// in strict (priority, enqueue order) order; with every priority equal that
// is FIFO, exactly the paper's v2 behaviour.
//
// Nothing here is written per task by more than one heap's lock holder:
// each heap keeps its own task count and its own sequence numbers under its
// lock, and each worker counts its own steals.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ptg/types.h"

namespace mp::ptg {

/// A ready task names its FlatGraph id only: its inputs stay where the
/// deposits put them (the Submission's input slots, or the migrated-in
/// table for a task stolen from another rank).
struct ReadyTask {
  double priority = 0.0;
  /// Insertion order within its heap, stamped by the Scheduler; a startup
  /// task carries its position in its run, which precedes every push.
  uint64_t seq = 0;
  int32_t id = -1;   ///< the task's FlatGraph id
  /// Home rank of a task migrated here by inter-node stealing; -1 for a
  /// locally-owned task. The executor credits the origin rank instead of
  /// counting the completion locally (see Context).
  int32_t origin = -1;
};

/// Heap order: true when `a` runs after `b` (lower priority, or the same
/// priority and pushed later), so the heap's front is the task to run next.
bool runs_after(const ReadyTask& a, const ReadyTask& b);

/// A rank's startup tasks dealt over the heaps as presorted runs of 4-byte
/// task ids. Built once per Context; every run() serves the same runs.
class StartupRuns {
 public:
  StartupRuns() = default;
  /// Deals `ids` (in enqueue order) round robin over `heaps` runs, the i-th
  /// id to run i % heaps, and sorts each run by (priority desc, enqueue
  /// index asc). `priorities` is indexed by task id and must outlive the
  /// runs.
  StartupRuns(std::span<const int32_t> ids,
              std::span<const double> priorities, int heaps);

  size_t heaps() const { return begin_.empty() ? 0 : begin_.size() - 1; }
  std::span<const int32_t> run(size_t h) const {
    return {ids_.data() + begin_[h], ids_.data() + begin_[h + 1]};
  }
  size_t total() const { return ids_.size(); }
  double priority(int32_t id) const {
    return priority_[static_cast<size_t>(id)];
  }

 private:
  std::vector<int32_t> ids_;
  std::vector<uint32_t> begin_;  ///< heaps + 1 offsets into ids_
  std::span<const double> priority_;
};

/// Contention/steal counters, cheap relaxed atomics kept on the hot paths.
/// `contended_*` counts heap-lock acquisitions that had to wait (try_lock
/// failed first).
struct SchedStats {
  uint64_t steals = 0;          ///< tasks a worker took from a peer's heap
  uint64_t steal_attempts = 0;  ///< non-empty peer heaps idle workers locked
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

  /// Serve `runs` beside the heaps: heap h also holds runs.run(h), popped
  /// front to back. Call once, before any push; `runs` must have one run
  /// per heap and outlive the Scheduler.
  void serve(const StartupRuns& runs);

  /// Enqueue a ready task on worker `worker`'s heap, or on the next heap in
  /// round-robin order when `worker` is -1 (a non-worker thread). Any
  /// thread may push with any id.
  void push(ReadyTask t, int worker);

  /// Enqueue several sibling activations at once (a completed task waking
  /// its successors): one lock round trip per heap instead of per task.
  /// With `worker` = -1, task i goes to the i-th heap of the round robin.
  /// Leaves `ts` empty with its capacity.
  void push_batch(std::vector<ReadyTask>&& ts, int worker);

  /// Dequeue the best task of `worker`'s own heap, else steal the best
  /// task of the next non-empty peer heap; false if none was found. Heaps
  /// whose count reads zero are skipped without taking their lock.
  bool try_pop(ReadyTask& out, int worker);

  /// Remove up to `max_n` ready tasks for migration to another node (the
  /// victim side of an inter-node steal), best first from heap 0, then
  /// heap 1, and so on. Any thread may call it, and it counts no steal;
  /// tasks the caller decides not to migrate can be re-pushed with
  /// worker = -1. Returns the number harvested.
  size_t harvest(std::vector<ReadyTask>& out, size_t max_n);

  /// Approximate number of queued tasks and startup entries: the sum of the
  /// per-heap counts, never a sweep over the heap locks. Exact once the
  /// heaps are quiescent.
  size_t size() const;

  /// Snapshot of the contention and steal counters.
  SchedStats stats() const;

 private:
  struct alignas(64) Heap {
    std::mutex mu;
    std::vector<ReadyTask> tasks;  ///< std::push_heap order, best in front
    /// The startup run this heap serves: [run, run_end), run_begin marks
    /// position 0 (a run entry's seq).
    const int32_t* run_begin = nullptr;
    const int32_t* run = nullptr;
    const int32_t* run_end = nullptr;
    uint64_t next_seq = 0;
    /// Tasks plus run entries queued here. Written under `mu` only, read
    /// without it by size() and by idle workers skipping empty heaps.
    std::atomic<size_t> count{0};
  };
  /// A worker's steal counters, written by that worker only.
  struct alignas(64) Thief {
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> attempts{0};
  };

  /// The heap a push by `worker` starts at; -1 advances the round robin
  /// by `count` tasks.
  size_t first_heap(int worker, size_t count);
  /// Appends `t` to `h` with the heap's next seq (lock held).
  static void push_locked(Heap& h, ReadyTask& t);
  /// Pops the better of the run's head and the heap's top (lock held);
  /// false if `h` holds neither.
  bool pop_locked(Heap& h, ReadyTask& out);
  /// Locks `h` and pops from it, counting a lock that had to wait.
  bool pop_from(Heap& h, ReadyTask& out);

  std::vector<Heap> heaps_;
  std::vector<Thief> thieves_;
  const StartupRuns* runs_ = nullptr;
  std::atomic<size_t> next_heap_{0};
  std::atomic<uint64_t> contended_pushes_{0};
  std::atomic<uint64_t> contended_pops_{0};
};

}  // namespace mp::ptg
