// The data-plane buffer shared by the virtual cluster (vc), the Global
// Arrays (ga) and the PTG runtime (ptg): task outputs, task inputs and
// message segments are all the same reference-counted Buffer, so handing a
// buffer to the in-process fabric moves a refcount instead of the doubles.
//
// A Buffer has two storage modes:
//   - owned: its own vector of doubles, recycled through a thread-local
//     pool (make_buf_pooled) or not (make_buf);
//   - borrowed: a read-only view of doubles someone else owns, handed out
//     by the Global Array view factory (ga::GlobalArray::view) so a READ
//     task gives a block to its GEMM in place, the paper's ga_access.
// A view keeps nothing alive and nothing writes through it. Whoever hands
// one out guarantees that the storage outlives every read and is not
// written while a reader may run; for a GA block that is the submission
// whose READ task made the view.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "support/analysis.h"
#include "support/error.h"

namespace mp {

class Buffer;

/// A reference-counted data buffer. Whoever holds the only handle to an
/// owned buffer may mutate it in place; a handle held anywhere else (a
/// fan-out sibling, a message still in flight, a retained recovery copy)
/// makes it read-only for everybody, and a view is read-only whoever holds
/// it — see ptg::TaskCtx::take_input.
using DataBuf = std::shared_ptr<Buffer>;

inline DataBuf make_buf_pooled(size_t n, double fill = 0.0);
inline DataBuf make_view(const double* data, size_t n);

class Buffer {
 public:
  /// An owned buffer of `n` copies of `fill`. Handles come from make_buf,
  /// make_buf_pooled or the GA view factory, never from constructing a
  /// Buffer directly (tools/lint.py: raw-databuf-new).
  explicit Buffer(size_t n = 0, double fill = 0.0) : owned_(n, fill) {
    own();
  }
  // The object's address is its identity to the lifecycle checker, and an
  // owned buffer's data_ points into its own vector.
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;

  size_t size() const { return size_; }
  const double* data() const { return data_; }
  const double* begin() const { return data_; }
  const double* end() const { return data_ + size_; }
  const double& operator[](size_t i) const { return data_[i]; }

  /// True for a view of storage owned elsewhere.
  bool borrowed() const { return borrowed_; }

  /// Writable access to an owned buffer's doubles. Raises StateError on a
  /// view: nothing writes through a borrowed buffer.
  double* mutable_data() {
    require_owned();
    return owned_.data();
  }

  /// Replace an owned buffer's contents (raises StateError on a view).
  void assign(const double* first, const double* last) {
    require_owned();
    owned_.assign(first, last);
    own();
  }
  void assign(std::vector<double>&& v) {
    require_owned();
    owned_ = std::move(v);
    own();
  }

 private:
  friend DataBuf make_buf_pooled(size_t n, double fill);
  friend DataBuf make_view(const double* data, size_t n);

  void own() {
    data_ = owned_.data();
    size_ = owned_.size();
    borrowed_ = false;
  }
  void require_owned() const {
    if (borrowed_) throw StateError("Buffer: a borrowed view is read-only");
  }

  std::vector<double> owned_;  ///< kept (with its capacity) while borrowed
  const double* data_ = nullptr;
  size_t size_ = 0;
  bool borrowed_ = false;
};

/// An owned buffer that bypasses the pool.
inline DataBuf make_buf(size_t n, double fill = 0.0) {
#if defined(MP_ANALYSIS) && MP_ANALYSIS
  // Annotating deleter so the lifecycle checker tracks ALL task-flow
  // buffers uniformly, pooled or not (an unannotated buffer would make
  // every MP_ANNOTATE_BUF_READ/WRITE on it a silent no-op).
  auto* b = new Buffer(n, fill);
  MP_ANNOTATE_BUF_CREATE(b);
  return DataBuf(b, [](Buffer* p) {
    MP_ANNOTATE_BUF_DESTROY(p);
    delete p;
  });
#else
  return std::make_shared<Buffer>(n, fill);
#endif
}

namespace pool_detail {

/// Tracks whether this thread's BufPool is still alive. Kept at namespace
/// scope and trivially destructible so a buffer deleter running during
/// thread teardown (after the pool's own destructor) sees `false` and
/// falls back to plain delete instead of touching a dead pool.
inline thread_local bool tls_pool_alive = false;

struct BufPool {
  static constexpr size_t kMaxCached = 64;
  std::vector<Buffer*> free;
  BufPool() { tls_pool_alive = true; }
  ~BufPool() {
    tls_pool_alive = false;
    for (auto* b : free) delete b;
  }
};

inline BufPool& tls_pool() {
  static thread_local BufPool pool;
  return pool;
}

/// A Buffer from this thread's free list, or a new one.
inline Buffer* acquire() {
  auto& pool = tls_pool();
  if (pool.free.empty()) return new Buffer;
  Buffer* b = pool.free.back();
  pool.free.pop_back();
  return b;
}

/// Hands `b` out as a DataBuf that returns it to the releasing thread's
/// pool. Lifecycle tracking happens at the pool boundary, not the heap
/// boundary: a recycled handout is a *new* object to the checker, so a
/// stale reference to the previous incarnation at the same address is
/// reported as use-after-release — the exact bug class address-based tools
/// (TSan, ASan) lose once the pool recycles storage. Views and owned
/// buffers share the pool and the annotations.
inline DataBuf hand_out(Buffer* b) {
  MP_ANNOTATE_BUF_CREATE(b);
  return DataBuf(b, [](Buffer* p) {
    MP_ANNOTATE_BUF_DESTROY(p);
    if (tls_pool_alive) {
      auto& pool = tls_pool();
      if (pool.free.size() < BufPool::kMaxCached) {
        pool.free.push_back(p);
        return;
      }
    }
    delete p;
  });
}

}  // namespace pool_detail

/// Like make_buf, but recycles the Buffer (and its vector's capacity)
/// through a thread-local free list: a task-grain allocation pattern (every
/// GEMM/SORT body makes one buffer per task) reaches a steady state with no
/// heap traffic for the doubles. The buffer may be released on a different
/// thread than it was acquired on; it simply joins the releasing thread's
/// pool.
inline DataBuf make_buf_pooled(size_t n, double fill) {
  Buffer* b = pool_detail::acquire();
  b->owned_.assign(n, fill);
  b->own();
  return pool_detail::hand_out(b);
}

/// A borrowed, read-only view of [data, data + n), from the same pool as
/// make_buf_pooled. Only the Global Array view factory calls this
/// (tools/lint.py: raw-databuf-new); see the file comment for the lifetime
/// contract.
inline DataBuf make_view(const double* data, size_t n) {
  Buffer* b = pool_detail::acquire();
  b->data_ = data;
  b->size_ = n;
  b->borrowed_ = true;
  return pool_detail::hand_out(b);
}

}  // namespace mp
