#include "ptg/scheduler.h"

#include <algorithm>

#include "support/analysis.h"
#include "support/error.h"

namespace mp::ptg {

bool runs_after(const ReadyTask& a, const ReadyTask& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq > b.seq;
}

StartupRuns::StartupRuns(std::span<const int32_t> ids,
                         std::span<const double> priorities, int heaps)
    : priority_(priorities) {
  MP_REQUIRE(heaps >= 1, "StartupRuns: need >= 1 heap");
  const auto n = static_cast<size_t>(heaps);
  ids_.reserve(ids.size());
  begin_.reserve(n + 1);
  for (size_t h = 0; h < n; ++h) {
    begin_.push_back(static_cast<uint32_t>(ids_.size()));
    for (size_t i = h; i < ids.size(); i += n) ids_.push_back(ids[i]);
    // Stable: equal priorities keep their enqueue order.
    std::stable_sort(ids_.begin() + begin_.back(), ids_.end(),
                     [this](int32_t a, int32_t b) {
                       return priority(a) > priority(b);
                     });
  }
  begin_.push_back(static_cast<uint32_t>(ids_.size()));
}

namespace {

/// Locks `mu`, counting acquisitions that had to block in `contended`.
std::unique_lock<std::mutex> counted_lock(std::mutex& mu,
                                          std::atomic<uint64_t>& contended) {
  std::unique_lock lock(mu, std::try_to_lock);
  if (!lock.owns_lock()) {
    contended.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
  }
  return lock;
}

size_t checked_workers(int num_workers) {
  MP_REQUIRE(num_workers >= 1, "Scheduler: need >= 1 worker");
  return static_cast<size_t>(num_workers);
}

/// Adds `delta` to a count only its lock holder writes: a plain store, no
/// read-modify-write.
void add_locked(std::atomic<size_t>& count, size_t delta) {
  count.store(count.load(std::memory_order_relaxed) + delta,
              std::memory_order_relaxed);
}

}  // namespace

Scheduler::Scheduler(int num_workers)
    : heaps_(checked_workers(num_workers)), thieves_(heaps_.size()) {}

void Scheduler::serve(const StartupRuns& runs) {
  MP_REQUIRE(runs.heaps() == heaps_.size(),
             "Scheduler::serve: one startup run per heap");
  MP_REQUIRE(runs_ == nullptr, "Scheduler::serve: runs already served");
  runs_ = &runs;
  for (size_t h = 0; h < heaps_.size(); ++h) {
    Heap& heap = heaps_[h];
    const std::span<const int32_t> run = runs.run(h);
    std::lock_guard lock(heap.mu);
    MP_REQUIRE(heap.tasks.empty() && heap.next_seq == 0,
               "Scheduler::serve: serve the runs before any push");
    heap.run_begin = heap.run = run.data();
    heap.run_end = run.data() + run.size();
    // Pushed tasks are younger than every startup entry.
    heap.next_seq = run.size();
    add_locked(heap.count, run.size());
    // The run hands its tasks to workers exactly like a push.
    if (!run.empty()) MP_ANNOTATE_CHANNEL_SEND(&heap);
  }
  // Round-robin pushes continue where one push per startup task would
  // have left the rotation.
  next_heap_.store(runs.total(), std::memory_order_relaxed);
}

size_t Scheduler::first_heap(int worker, size_t count) {
  const size_t i =
      worker >= 0 ? static_cast<size_t>(worker)
                  : next_heap_.fetch_add(count, std::memory_order_relaxed);
  return i % heaps_.size();
}

void Scheduler::push_locked(Heap& h, ReadyTask& t) {
  t.seq = h.next_seq++;
  h.tasks.push_back(t);
  std::push_heap(h.tasks.begin(), h.tasks.end(), runs_after);
}

void Scheduler::push(ReadyTask t, int worker) {
  Heap& h = heaps_[first_heap(worker, 1)];
  auto lock = counted_lock(h.mu, contended_pushes_);
  push_locked(h, t);
  // Counted under the heap lock, so a pop of this task (which needs the
  // same lock) always decrements after this increment: a count never
  // wraps.
  add_locked(h.count, 1);
  MP_ANNOTATE_CHANNEL_SEND(&h);
}

void Scheduler::push_batch(std::vector<ReadyTask>&& ts, int worker) {
  const size_t n = ts.size();
  if (n == 0) return;
  // A worker keeps the whole batch; otherwise task i goes to heap first + i.
  const size_t heaps = worker >= 0 ? 1 : std::min(n, heaps_.size());
  const size_t first = first_heap(worker, n);
  for (size_t j = 0; j < heaps; ++j) {
    Heap& h = heaps_[(first + j) % heaps_.size()];
    auto lock = counted_lock(h.mu, contended_pushes_);
    size_t added = 0;
    for (size_t i = j; i < n; i += heaps, ++added) push_locked(h, ts[i]);
    add_locked(h.count, added);
    MP_ANNOTATE_CHANNEL_SEND(&h);
  }
  ts.clear();
}

bool Scheduler::pop_locked(Heap& h, ReadyTask& out) {
  const bool have_run = h.run != h.run_end;
  if (have_run && (h.tasks.empty() ||
                   runs_->priority(*h.run) >= h.tasks.front().priority)) {
    // The run's head wins ties: it was enqueued before any pushed task.
    out = ReadyTask{runs_->priority(*h.run),
                    static_cast<uint64_t>(h.run - h.run_begin), *h.run, -1};
    ++h.run;
  } else if (!h.tasks.empty()) {
    std::pop_heap(h.tasks.begin(), h.tasks.end(), runs_after);
    out = h.tasks.back();
    h.tasks.pop_back();
  } else {
    return false;
  }
  h.count.store(h.count.load(std::memory_order_relaxed) - 1,
                std::memory_order_relaxed);
  MP_ANNOTATE_CHANNEL_RECV(&h);
  return true;
}

bool Scheduler::pop_from(Heap& h, ReadyTask& out) {
  auto lock = counted_lock(h.mu, contended_pops_);
  return pop_locked(h, out);
}

bool Scheduler::try_pop(ReadyTask& out, int worker) {
  const size_t n = heaps_.size();
  const size_t me = static_cast<size_t>(worker) % n;
  // A count read as zero skips the heap without its lock; a task pushed
  // meanwhile is found on the next call (pushers wake idle workers).
  if (heaps_[me].count.load(std::memory_order_relaxed) > 0 &&
      pop_from(heaps_[me], out)) {
    return true;
  }
  Thief& thief = thieves_[me];
  for (size_t i = 1; i < n; ++i) {
    Heap& peer = heaps_[(me + i) % n];
    if (peer.count.load(std::memory_order_relaxed) == 0) continue;
    thief.attempts.fetch_add(1, std::memory_order_relaxed);
    if (pop_from(peer, out)) {
      // Release pairs with the acquire in stats(): a snapshot observing
      // this steal also observes the attempt counted before it.
      thief.steals.fetch_add(1, std::memory_order_release);
      return true;
    }
  }
  return false;
}

size_t Scheduler::harvest(std::vector<ReadyTask>& out, size_t max_n) {
  size_t taken = 0;
  ReadyTask t;
  for (Heap& h : heaps_) {
    if (taken == max_n) break;
    auto lock = counted_lock(h.mu, contended_pops_);
    while (taken < max_n && pop_locked(h, t)) {
      out.push_back(t);
      ++taken;
    }
  }
  return taken;
}

size_t Scheduler::size() const {
  size_t n = 0;
  for (const Heap& h : heaps_) n += h.count.load(std::memory_order_relaxed);
  return n;
}

SchedStats Scheduler::stats() const {
  // Counters are bumped relaxed on the hot paths (monotonic, no ordering
  // needed there); the snapshot uses acquire loads. Every worker's steals
  // are read first: each increment is a release, so the load that saw S
  // steals also sees the >= S attempt increments that worker made before
  // them, and validate()'s steals <= steal_attempts holds even for a
  // mid-run snapshot.
  SchedStats s;
  for (const Thief& t : thieves_) {
    s.steals += t.steals.load(std::memory_order_acquire);
  }
  for (const Thief& t : thieves_) {
    s.steal_attempts += t.attempts.load(std::memory_order_acquire);
  }
  s.contended_pushes = contended_pushes_.load(std::memory_order_acquire);
  s.contended_pops = contended_pops_.load(std::memory_order_acquire);
  return s;
}

}  // namespace mp::ptg
