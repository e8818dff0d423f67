// Aligned, grow-only workspace buffers and a thread-local workspace pool.
//
// The compute kernels (dgemm packing panels, the TCE executors' block
// staging buffers) need scratch space on every call. A fresh std::vector
// per call puts an allocator round trip and a page-fault warmup on the
// hot path; the pool below hands out 64-byte-aligned buffers
// that are owned thread-locally and only ever grow, so steady-state kernel
// invocations perform zero heap allocations.
//
// Every actual heap allocation is counted in a process-wide relaxed atomic
// (`WorkspacePool::allocation_count()`); tests use it to assert that a hot
// loop has reached steady state (see test_linalg.cpp GemmZeroSteadyStateAllocs).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "support/analysis.h"
#include "support/error.h"

namespace mp::support {

/// A 64-byte-aligned buffer of doubles that grows geometrically and never
/// shrinks. Contents are NOT preserved across reserve() and NOT zeroed.
class AlignedBuf {
 public:
  static constexpr size_t kAlign = 64;  // cache line / AVX-512 vector

  AlignedBuf() = default;
  AlignedBuf(const AlignedBuf&) = delete;
  AlignedBuf& operator=(const AlignedBuf&) = delete;
  AlignedBuf(AlignedBuf&& o) noexcept
      : data_(o.data_), cap_(o.cap_) {
    o.data_ = nullptr;
    o.cap_ = 0;
  }
  ~AlignedBuf() { ::operator delete[](data_, std::align_val_t(kAlign)); }

  /// Ensure capacity for at least `elems` doubles. Returns the (possibly
  /// relocated) data pointer. Counts one global allocation when it has to
  /// touch the heap.
  double* reserve(size_t elems) {
    if (elems > cap_) grow(elems);
    return data_;
  }

  double* data() { return data_; }
  size_t capacity() const { return cap_; }

  /// Process-wide count of heap allocations performed by all AlignedBufs.
  static uint64_t allocation_count() {
    return allocs_().load(std::memory_order_relaxed);
  }

 private:
  void grow(size_t elems) {
    size_t cap = cap_ ? cap_ : 256;
    while (cap < elems) cap *= 2;
    ::operator delete[](data_, std::align_val_t(kAlign));
    data_ = static_cast<double*>(
        ::operator new[](cap * sizeof(double), std::align_val_t(kAlign)));
    cap_ = cap;
    allocs_().fetch_add(1, std::memory_order_relaxed);
  }

  static std::atomic<uint64_t>& allocs_() {
    static std::atomic<uint64_t> count{0};
    return count;
  }

  double* data_ = nullptr;
  size_t cap_ = 0;
};

/// A small set of named thread-local workspace slots. Kernels address their
/// scratch buffers by slot id so concurrent kernels on the same thread
/// (e.g. dgemm's A and B panels) never alias each other.
class WorkspacePool {
 public:
  static constexpr int kSlots = 6;

  WorkspacePool() = default;
  ~WorkspacePool() {
    // Un-register with the lifecycle checker: a later thread's TLS block
    // may land on this address and must be able to claim it afresh.
    MP_ANNOTATE_TLS_RELEASE(this);
  }
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  // Slot assignments (documented so new users pick a free one):
  enum Slot {
    kGemmPackA = 0,   ///< dgemm packed A block (kMc x kKc)
    kGemmPackB = 1,   ///< dgemm packed B panel (kKc x kNc)
    kExecA = 2,       ///< executor A block staging
    kExecB = 3,       ///< executor B block staging
    kExecC = 4,       ///< executor C accumulator
    kExecSorted = 5,  ///< executor sorted-output staging
  };

  /// The calling thread's pool (created on first use).
  static WorkspacePool& tls() {
    thread_local WorkspacePool pool;
    return pool;
  }

  /// A buffer with room for `elems` doubles in the given slot.
  double* get(int slot, size_t elems) {
    MP_DCHECK(slot >= 0 && slot < kSlots, "WorkspacePool: bad slot");
    // Thread-local ownership check: this pool must only ever be reached
    // through tls() on its owning thread; a cached reference leaking to
    // another thread is an MPA006 finding.
    MP_ANNOTATE_TLS_GUARD(this);
    return bufs_[slot].reserve(elems);
  }

  AlignedBuf& buf(int slot) {
    MP_DCHECK(slot >= 0 && slot < kSlots, "WorkspacePool: bad slot");
    return bufs_[slot];
  }

  /// Alias of AlignedBuf::allocation_count() for test readability.
  static uint64_t allocation_count() { return AlignedBuf::allocation_count(); }

 private:
  AlignedBuf bufs_[kSlots];
};

}  // namespace mp::support
