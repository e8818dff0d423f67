// Core vocabulary types of the PTG runtime.
//
// A task instance is identified by (task-class id, parameter vector); the
// parameter vector plays the role of PaRSEC's symbolic task parameters
// (e.g. GEMM(L1, L2)). Data moves between tasks as reference-counted
// buffers ("data copies" in PaRSEC terminology).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "support/analysis.h"
#include "support/data_buf.h"

namespace mp::ptg {

/// Up to three integer parameters per task instance (the CC PTGs use at
/// most (L1, L2, i)). Unused slots must be zero so keys compare equal.
using Params = std::array<int32_t, 3>;

inline constexpr Params params_of(int32_t a, int32_t b = 0, int32_t c = 0) {
  return Params{a, b, c};
}

/// Identifies one task instance across the whole distributed run.
struct TaskKey {
  int16_t cls = -1;
  Params p{0, 0, 0};

  friend bool operator==(const TaskKey&, const TaskKey&) = default;
};

struct TaskKeyHash {
  size_t operator()(const TaskKey& k) const {
    // FNV-style mix of the four ints.
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<uint64_t>(static_cast<uint16_t>(k.cls)));
    for (int32_t x : k.p) mix(static_cast<uint64_t>(static_cast<uint32_t>(x)));
    return static_cast<size_t>(h);
  }
};

/// A reference-counted data buffer flowing between tasks (support/
/// data_buf.h). A consumer that wants to mutate an input calls
/// TaskCtx::take_input, which hands over the buffer itself when the task
/// holds its only handle (the serial-chain RW flow of matrix C) and a copy
/// when anyone else still does (fan-out siblings, retained recovery state).
using mp::DataBuf;

inline DataBuf make_buf(size_t n, double fill = 0.0) {
#if defined(MP_ANALYSIS) && MP_ANALYSIS
  // Annotating deleter so the lifecycle checker tracks ALL task-flow
  // buffers uniformly, pooled or not (an unannotated buffer would make
  // every MP_ANNOTATE_BUF_READ/WRITE on it a silent no-op).
  auto* v = new std::vector<double>(n, fill);
  MP_ANNOTATE_BUF_CREATE(v);
  return DataBuf(v, [](std::vector<double>* p) {
    MP_ANNOTATE_BUF_DESTROY(p);
    delete p;
  });
#else
  return std::make_shared<std::vector<double>>(n, fill);
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
  std::vector<std::vector<double>*> free;
  BufPool() { tls_pool_alive = true; }
  ~BufPool() {
    tls_pool_alive = false;
    for (auto* v : free) delete v;
  }
};

inline BufPool& tls_pool() {
  static thread_local BufPool pool;
  return pool;
}

}  // namespace pool_detail

/// Like make_buf, but recycles the underlying vector through a thread-local
/// free list: a task-grain allocation pattern (every READ/GEMM/SORT body
/// makes one buffer per task) reaches a steady state with no heap traffic.
/// The buffer may be released on a different thread than it was acquired
/// on; it simply joins the releasing thread's pool.
inline DataBuf make_buf_pooled(size_t n, double fill = 0.0) {
  auto& pool = pool_detail::tls_pool();
  std::vector<double>* v;
  if (!pool.free.empty()) {
    v = pool.free.back();
    pool.free.pop_back();
    v->assign(n, fill);
  } else {
    v = new std::vector<double>(n, fill);
  }
  // Lifecycle tracking happens at the pool boundary, not the heap boundary:
  // a recycled handout is a *new* object to the checker, so a stale
  // reference to the previous incarnation at the same address is reported
  // as use-after-release — the exact bug class address-based tools (TSan,
  // ASan) lose once the pool recycles storage.
  MP_ANNOTATE_BUF_CREATE(v);
  return DataBuf(v, [](std::vector<double>* p) {
    MP_ANNOTATE_BUF_DESTROY(p);
    if (pool_detail::tls_pool_alive) {
      auto& pool = pool_detail::tls_pool();
      if (pool.free.size() < pool_detail::BufPool::kMaxCached) {
        pool.free.push_back(p);
        return;
      }
    }
    delete p;
  });
}

/// One routed output edge: after the producer runs, its output buffer in
/// slot `out_slot` is deposited into `consumer`'s input slot `in_slot`.
struct OutRoute {
  TaskKey consumer;
  int8_t in_slot = 0;
  int8_t out_slot = 0;
};

}  // namespace mp::ptg
