#include "ga/global_array.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"

namespace mp::ga {

GlobalArray::GlobalArray(vc::Cluster* cluster, int64_t nelems)
    : cluster_(cluster), nelems_(nelems) {
  MP_REQUIRE(cluster != nullptr, "GlobalArray: null cluster");
  MP_REQUIRE(nelems >= 0, "GlobalArray: negative size");
  const int64_t r = cluster->nranks();
  chunk_ = (nelems + r - 1) / r;
  if (chunk_ == 0) chunk_ = 1;
  data_.assign(static_cast<size_t>(nelems), 0.0);
  num_stripes_ = static_cast<size_t>((nelems + kStripe - 1) / kStripe);
  if (num_stripes_ == 0) num_stripes_ = 1;
  stripe_locks_ = std::make_unique<std::mutex[]>(num_stripes_);
}

void GlobalArray::check_range(int64_t lo, int64_t count) const {
  MP_REQUIRE(lo >= 0 && count >= 0 && lo + count <= nelems_,
             "GlobalArray: range out of bounds");
}

void GlobalArray::get(int64_t lo, int64_t count, double* out) const {
  check_range(lo, count);
  std::memcpy(out, data_.data() + lo,
              static_cast<size_t>(count) * sizeof(double));
  ops_get_.fetch_add(1, std::memory_order_relaxed);
  bytes_moved_.fetch_add(static_cast<uint64_t>(count) * sizeof(double),
                         std::memory_order_relaxed);
}

DataBuf GlobalArray::view(int64_t lo, int64_t count) const {
  check_range(lo, count);
  return make_view(data_.data() + lo, static_cast<size_t>(count));
}

void GlobalArray::put(int64_t lo, int64_t count, const double* in) {
  check_range(lo, count);
  std::memcpy(data_.data() + lo, in,
              static_cast<size_t>(count) * sizeof(double));
  ops_put_.fetch_add(1, std::memory_order_relaxed);
  bytes_moved_.fetch_add(static_cast<uint64_t>(count) * sizeof(double),
                         std::memory_order_relaxed);
}

void GlobalArray::acc(int64_t lo, int64_t count, const double* in,
                      double alpha) {
  check_range(lo, count);
  // Walk the range stripe by stripe, holding exactly one stripe lock at a
  // time (ascending order => no deadlock, per-element atomicity preserved).
  int64_t pos = lo;
  const int64_t hi = lo + count;
  while (pos < hi) {
    const int64_t stripe = pos / kStripe;
    const int64_t stripe_end = std::min((stripe + 1) * kStripe, hi);
    {
      std::lock_guard lock(stripe_locks_[static_cast<size_t>(stripe)]);
      double* dst = data_.data() + pos;
      const double* src = in + (pos - lo);
      const int64_t n = stripe_end - pos;
      for (int64_t i = 0; i < n; ++i) dst[i] += alpha * src[i];
    }
    pos = stripe_end;
  }
  ops_acc_.fetch_add(1, std::memory_order_relaxed);
  bytes_moved_.fetch_add(static_cast<uint64_t>(count) * sizeof(double),
                         std::memory_order_relaxed);
}

std::pair<int64_t, int64_t> GlobalArray::distribution(int rank) const {
  MP_REQUIRE(rank >= 0 && rank < nranks(), "GlobalArray: bad rank");
  const int64_t lo = std::min<int64_t>(rank * chunk_, nelems_);
  const int64_t hi = std::min<int64_t>(lo + chunk_, nelems_);
  return {lo, hi};
}

int block_owner(int64_t idx, int64_t nelems, int nranks) {
  MP_REQUIRE(idx >= 0 && idx < nelems && nranks >= 1,
             "block_owner: bad index or rank count");
  const int64_t chunk = (nelems + nranks - 1) / nranks;
  return static_cast<int>(std::min<int64_t>(idx / chunk, nranks - 1));
}

int GlobalArray::owner_of(int64_t idx) const {
  MP_REQUIRE(idx >= 0 && idx < nelems_, "GlobalArray: bad index");
  return block_owner(idx, nelems_, nranks());
}

std::span<double> GlobalArray::access(int rank) {
  const auto [lo, hi] = distribution(rank);
  return {data_.data() + lo, static_cast<size_t>(hi - lo)};
}

std::span<const double> GlobalArray::access(int rank) const {
  const auto [lo, hi] = distribution(rank);
  return {data_.data() + lo, static_cast<size_t>(hi - lo)};
}

void GlobalArray::zero() { std::fill(data_.begin(), data_.end(), 0.0); }

void GlobalArray::sync(vc::RankCtx& ctx) const { ctx.barrier(); }

}  // namespace mp::ga
