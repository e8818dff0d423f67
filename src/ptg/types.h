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
#include <vector>

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
/// data_buf.h): owned doubles, or a read-only view of a Global Array block
/// that a READ task hands out in place. A consumer that wants to mutate an
/// input calls TaskCtx::take_input, which hands over the buffer itself when
/// the task holds the only handle to an owned buffer (the serial-chain RW
/// flow of matrix C) and a copy otherwise (a view, fan-out siblings,
/// retained recovery state).
using mp::DataBuf;
using mp::make_buf;
using mp::make_buf_pooled;

/// One routed output edge: after the producer runs, its output buffer in
/// slot `out_slot` is deposited into `consumer`'s input slot `in_slot`.
struct OutRoute {
  TaskKey consumer;
  int8_t in_slot = 0;
  int8_t out_slot = 0;
};

}  // namespace mp::ptg
