// A Global Arrays (GA) style distributed array over the virtual cluster.
//
// Mirrors the subset of the GA toolkit that NWChem's TCE-generated code
// uses: one-sided get/put/accumulate, distribution/access queries
// (ga_distribution / ga_access), a collective sync, and the NXTVAL shared
// counter that TCE's dynamic load balancing is built on.
//
// Storage is one process-wide buffer partitioned into contiguous per-rank
// chunks; one-sided operations touch the owner's chunk directly, with
// striped locks making accumulates atomic — the same semantics GA provides
// over a real network, minus the transfer cost (which src/sim models).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "support/data_buf.h"
#include "vc/cluster.h"

namespace mp::ga {

/// Owner rank of element `idx` of an array of `nelems` elements in GA's
/// block distribution over `nranks` ranks: contiguous chunks of
/// ceil(nelems / nranks) elements. GlobalArray::owner_of, the PTG builder
/// and the simulators all place by this one formula, so a graph can be
/// placed from array sizes alone.
int block_owner(int64_t idx, int64_t nelems, int nranks);

class GlobalArray {
 public:
  /// Create an array of `nelems` doubles distributed over the cluster's
  /// ranks in contiguous blocks (GA's default "block" distribution).
  /// Collective in spirit; in-process it is safe to construct from one
  /// thread before the SPMD region starts.
  GlobalArray(vc::Cluster* cluster, int64_t nelems);

  int64_t size() const { return nelems_; }
  int nranks() const { return cluster_->nranks(); }

  /// ga_get: copy [lo, lo+count) into out.
  void get(int64_t lo, int64_t count, double* out) const;

  /// ga_access for a range: a borrowed, read-only DataBuf over
  /// [lo, lo+count) of this array's storage, without a copy. Counts no get
  /// and no bytes moved. The view keeps nothing alive: read it only while
  /// the array lives and nobody writes the range (a PTG submission's READ
  /// tasks hand out views of operand blocks, which no task of that
  /// submission writes).
  DataBuf view(int64_t lo, int64_t count) const;

  /// ga_put: overwrite [lo, lo+count) with in.
  void put(int64_t lo, int64_t count, const double* in);

  /// ga_acc: data[lo+i] += alpha * in[i], atomically with respect to any
  /// other concurrent acc (NWChem's ADD_HASH_BLOCK maps to this).
  void acc(int64_t lo, int64_t count, const double* in, double alpha = 1.0);

  /// ga_distribution: the [lo, hi) range owned by `rank` (hi exclusive).
  std::pair<int64_t, int64_t> distribution(int rank) const;

  /// Owner rank of element `idx`.
  int owner_of(int64_t idx) const;

  /// ga_access: direct view of the chunk owned by `rank`. The caller is
  /// responsible for synchronization when mixing access() with one-sided
  /// updates (same contract as GA itself).
  std::span<double> access(int rank);
  std::span<const double> access(int rank) const;

  /// ga_zero.
  void zero();

  /// Collective sync (barrier + make all previous one-sided ops visible).
  void sync(vc::RankCtx& ctx) const;

  /// Operation counters, used by tests and the benchmark harnesses.
  uint64_t ops_get() const { return ops_get_.load(); }
  uint64_t ops_put() const { return ops_put_.load(); }
  uint64_t ops_acc() const { return ops_acc_.load(); }
  uint64_t bytes_moved() const { return bytes_moved_.load(); }

 private:
  void check_range(int64_t lo, int64_t count) const;

  static constexpr int64_t kStripe = 2048;  // elements per lock stripe

  vc::Cluster* cluster_;
  int64_t nelems_;
  int64_t chunk_;  // elements per rank (last rank may own less)
  std::vector<double> data_;
  std::unique_ptr<std::mutex[]> stripe_locks_;
  size_t num_stripes_;

  mutable std::atomic<uint64_t> ops_get_{0};
  std::atomic<uint64_t> ops_put_{0};
  std::atomic<uint64_t> ops_acc_{0};
  mutable std::atomic<uint64_t> bytes_moved_{0};
};

/// The NXTVAL shared counter: every call returns a unique, monotonically
/// increasing ticket. In NWChem this is the global work-stealing primitive
/// whose contention the paper identifies as unscalable.
class NxtVal {
 public:
  explicit NxtVal(vc::Cluster* cluster, int counter_slot = 0)
      : cluster_(cluster), slot_(counter_slot) {
    cluster_->reset_counter(slot_, 0);
  }

  /// Next ticket (starts at 0).
  long next() { return cluster_->fetch_add_counter(slot_, 1); }

  /// Collective reset between work levels.
  void reset() { cluster_->reset_counter(slot_, 0); }

 private:
  vc::Cluster* cluster_;
  int slot_;
};

}  // namespace mp::ga
