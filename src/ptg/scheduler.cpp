#include "ptg/scheduler.h"

#include <algorithm>

#include "support/analysis.h"
#include "support/error.h"

namespace mp::ptg {

bool runs_after(const ReadyTask& a, const ReadyTask& b) {
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq > b.seq;
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

}  // namespace

Scheduler::Scheduler(int num_workers)
    : heaps_(checked_workers(num_workers)) {}

size_t Scheduler::first_heap(int worker, size_t count) {
  const size_t i =
      worker >= 0 ? static_cast<size_t>(worker)
                  : next_heap_.fetch_add(count, std::memory_order_relaxed);
  return i % heaps_.size();
}

void Scheduler::push(ReadyTask t, int worker) {
  Heap& h = heaps_[first_heap(worker, 1)];
  auto lock = counted_lock(h.mu, contended_pushes_);
  h.tasks.push_back(std::move(t));
  std::push_heap(h.tasks.begin(), h.tasks.end(), runs_after);
  // Counted under the heap lock, so a pop of this task (which needs the
  // same lock) always decrements after this increment: size_ never wraps.
  size_.fetch_add(1, std::memory_order_release);
  MP_ANNOTATE_CHANNEL_SEND(&h);
}

std::unique_lock<std::mutex> Scheduler::lock_for_push(Heap& h) {
  return counted_lock(h.mu, contended_pushes_);
}

void Scheduler::pushed([[maybe_unused]] Heap& h, size_t added) {
  // Counted under the heap lock, like push().
  size_.fetch_add(added, std::memory_order_release);
  MP_ANNOTATE_CHANNEL_SEND(&h);
}

bool Scheduler::pop_from(Heap& h, ReadyTask& out) {
  auto lock = counted_lock(h.mu, contended_pops_);
  if (h.tasks.empty()) return false;
  std::pop_heap(h.tasks.begin(), h.tasks.end(), runs_after);
  out = std::move(h.tasks.back());
  h.tasks.pop_back();
  size_.fetch_sub(1, std::memory_order_relaxed);
  MP_ANNOTATE_CHANNEL_RECV(&h);
  return true;
}

bool Scheduler::try_pop(ReadyTask& out, int worker) {
  // The counter gives a lock-free empty fast path for idle polling.
  if (size() == 0) return false;
  const size_t n = heaps_.size();
  const size_t me = static_cast<size_t>(worker) % n;
  if (pop_from(heaps_[me], out)) return true;
  for (size_t i = 1; i < n; ++i) {
    steal_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (pop_from(heaps_[(me + i) % n], out)) {
      // Release pairs with the acquire in stats(): a snapshot observing
      // this steal also observes the attempt counted before it.
      steals_.fetch_add(1, std::memory_order_release);
      return true;
    }
  }
  return false;
}

size_t Scheduler::harvest(std::vector<ReadyTask>& out, size_t max_n) {
  size_t taken = 0;
  ReadyTask t;
  for (Heap& h : heaps_) {
    while (taken < max_n && pop_from(h, t)) {
      out.push_back(std::move(t));
      ++taken;
    }
  }
  return taken;
}

SchedStats Scheduler::stats() const {
  // Counters are bumped relaxed on the hot paths (monotonic, no ordering
  // needed there); the snapshot uses acquire loads. steals_ is read first:
  // its increment is a release, so the load that saw S steals also sees
  // the >= S attempt increments sequenced before them, and validate()'s
  // steals <= steal_attempts holds even for a mid-run snapshot.
  SchedStats s;
  s.steals = steals_.load(std::memory_order_acquire);
  s.steal_attempts = steal_attempts_.load(std::memory_order_acquire);
  s.contended_pushes = contended_pushes_.load(std::memory_order_acquire);
  s.contended_pops = contended_pops_.load(std::memory_order_acquire);
  return s;
}

}  // namespace mp::ptg
