// Tests for the Global Arrays substrate: one-sided ops, distribution and
// access queries, accumulate atomicity under concurrency, the hash-block
// index / GET_HASH_BLOCK / ADD_HASH_BLOCK pair, and NXTVAL.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "ga/global_array.h"
#include "ga/hash_block.h"
#include "vc/cluster.h"

namespace mp::ga {
namespace {

TEST(GlobalArray, StartsZeroed) {
  vc::Cluster c(2);
  GlobalArray ga(&c, 100);
  std::vector<double> buf(100, 1.0);
  ga.get(0, 100, buf.data());
  for (double v : buf) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(GlobalArray, PutThenGetRoundTrip) {
  vc::Cluster c(3);
  GlobalArray ga(&c, 64);
  std::vector<double> in(64);
  std::iota(in.begin(), in.end(), 0.0);
  ga.put(0, 64, in.data());
  std::vector<double> out(64);
  ga.get(0, 64, out.data());
  EXPECT_EQ(in, out);
}

TEST(GlobalArray, PartialRangeOps) {
  vc::Cluster c(2);
  GlobalArray ga(&c, 10);
  std::vector<double> in{1.0, 2.0, 3.0};
  ga.put(4, 3, in.data());
  std::vector<double> out(3);
  ga.get(4, 3, out.data());
  EXPECT_EQ(in, out);
  double untouched;
  ga.get(0, 1, &untouched);
  EXPECT_DOUBLE_EQ(untouched, 0.0);
}

TEST(GlobalArray, AccAddsWithAlpha) {
  vc::Cluster c(2);
  GlobalArray ga(&c, 4);
  std::vector<double> ones(4, 1.0);
  ga.put(0, 4, ones.data());
  ga.acc(0, 4, ones.data(), 2.5);
  std::vector<double> out(4);
  ga.get(0, 4, out.data());
  for (double v : out) EXPECT_DOUBLE_EQ(v, 3.5);
}

TEST(GlobalArray, RangeValidation) {
  vc::Cluster c(2);
  GlobalArray ga(&c, 8);
  double x = 0.0;
  EXPECT_THROW(ga.get(-1, 1, &x), InvalidArgument);
  EXPECT_THROW(ga.get(8, 1, &x), InvalidArgument);
  EXPECT_THROW(ga.get(7, 2, &x), InvalidArgument);
  EXPECT_NO_THROW(ga.get(7, 1, &x));
  EXPECT_THROW(ga.view(7, 2), InvalidArgument);
}

TEST(GlobalArray, DistributionCoversArrayExactly) {
  vc::Cluster c(4);
  GlobalArray ga(&c, 103);  // deliberately not divisible by 4
  int64_t covered = 0;
  int64_t prev_hi = 0;
  for (int r = 0; r < 4; ++r) {
    const auto [lo, hi] = ga.distribution(r);
    EXPECT_EQ(lo, prev_hi);
    EXPECT_LE(lo, hi);
    covered += hi - lo;
    prev_hi = hi;
  }
  EXPECT_EQ(covered, 103);
}

TEST(GlobalArray, OwnerMatchesDistribution) {
  vc::Cluster c(3);
  GlobalArray ga(&c, 50);
  for (int64_t i = 0; i < 50; ++i) {
    const int o = ga.owner_of(i);
    const auto [lo, hi] = ga.distribution(o);
    EXPECT_GE(i, lo);
    EXPECT_LT(i, hi);
  }
}

TEST(GlobalArray, AccessGivesWritableLocalChunk) {
  vc::Cluster c(2);
  GlobalArray ga(&c, 10);
  auto span0 = ga.access(0);
  ASSERT_FALSE(span0.empty());
  span0[0] = 42.0;
  double v;
  ga.get(0, 1, &v);
  EXPECT_DOUBLE_EQ(v, 42.0);
}

TEST(GlobalArray, ConcurrentAccIsAtomic) {
  // Many threads accumulate overlapping ranges; the final content must be
  // the exact sum (no lost updates). This is the property ADD_HASH_BLOCK
  // depends on.
  vc::Cluster c(4);
  const int64_t n = 5000;  // spans multiple lock stripes
  GlobalArray ga(&c, n);
  const int threads = 8, reps = 50;
  std::vector<double> ones(static_cast<size_t>(n), 1.0);
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; ++t) {
    ts.emplace_back([&] {
      for (int i = 0; i < reps; ++i) ga.acc(0, n, ones.data(), 1.0);
    });
  }
  for (auto& t : ts) t.join();
  std::vector<double> out(static_cast<size_t>(n));
  ga.get(0, n, out.data());
  for (double v : out) EXPECT_DOUBLE_EQ(v, threads * reps);
}

TEST(GlobalArray, OpCountersTrack) {
  vc::Cluster c(2);
  GlobalArray ga(&c, 4);
  double buf[4] = {0, 0, 0, 0};
  ga.get(0, 4, buf);
  ga.put(0, 4, buf);
  ga.acc(0, 4, buf);
  EXPECT_EQ(ga.ops_get(), 1u);
  EXPECT_EQ(ga.ops_put(), 1u);
  EXPECT_EQ(ga.ops_acc(), 1u);
  EXPECT_EQ(ga.bytes_moved(), 3u * 4u * sizeof(double));
}

TEST(GlobalArray, ZeroClears) {
  vc::Cluster c(2);
  GlobalArray ga(&c, 8);
  std::vector<double> in(8, 5.0);
  ga.put(0, 8, in.data());
  ga.zero();
  std::vector<double> out(8);
  ga.get(0, 8, out.data());
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(NxtVal, TicketsAreDense) {
  vc::Cluster c(2);
  NxtVal nv(&c);
  EXPECT_EQ(nv.next(), 0);
  EXPECT_EQ(nv.next(), 1);
  nv.reset();
  EXPECT_EQ(nv.next(), 0);
}

TEST(NxtVal, ConcurrentTicketsUnique) {
  vc::Cluster c(4);
  NxtVal nv(&c, 1);
  std::mutex mu;
  std::vector<long> got;
  c.run([&](vc::RankCtx&) {
    for (int i = 0; i < 200; ++i) {
      const long t = nv.next();
      std::lock_guard lock(mu);
      got.push_back(t);
    }
  });
  std::sort(got.begin(), got.end());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], static_cast<long>(i));
}

// ---- hash blocks ----

TEST(HashBlockIndex, Key4IsInjectiveOnSmallIndices) {
  EXPECT_NE(HashBlockIndex::key4(0, 0, 0, 1), HashBlockIndex::key4(0, 0, 1, 0));
  EXPECT_NE(HashBlockIndex::key4(1, 2, 3, 4), HashBlockIndex::key4(4, 3, 2, 1));
  EXPECT_EQ(HashBlockIndex::key4(1, 2, 3, 4), HashBlockIndex::key4(1, 2, 3, 4));
}

TEST(HashBlockIndex, OffsetsAreDense) {
  HashBlockIndex idx;
  const auto e1 = idx.add(HashBlockIndex::key4(0, 0, 0, 0), 10);
  const auto e2 = idx.add(HashBlockIndex::key4(0, 0, 0, 1), 6);
  EXPECT_EQ(e1.offset, 0);
  EXPECT_EQ(e2.offset, 10);
  EXPECT_EQ(idx.total_size(), 16);
  EXPECT_EQ(idx.num_blocks(), 2u);
}

TEST(HashBlockIndex, DuplicateKeyRejected) {
  HashBlockIndex idx;
  idx.add(1, 4);
  EXPECT_THROW(idx.add(1, 4), InvalidArgument);
}

TEST(HashBlockIndex, FindUnknownReturnsNullopt) {
  HashBlockIndex idx;
  EXPECT_FALSE(idx.find(99).has_value());
}

TEST(HashBlock, GetAddRoundTrip) {
  vc::Cluster c(2);
  HashBlockIndex idx;
  idx.add(HashBlockIndex::key4(1, 1, 0, 0), 8);
  idx.add(HashBlockIndex::key4(1, 1, 0, 1), 8);
  GlobalArray ga(&c, idx.total_size());

  std::vector<double> block(8, 2.0);
  add_hash_block(ga, idx, HashBlockIndex::key4(1, 1, 0, 1), block.data());
  add_hash_block(ga, idx, HashBlockIndex::key4(1, 1, 0, 1), block.data(), 0.5);

  std::vector<double> out(8);
  get_hash_block(ga, idx, HashBlockIndex::key4(1, 1, 0, 1), out.data());
  for (double v : out) EXPECT_DOUBLE_EQ(v, 3.0);
  // The other block must be untouched.
  get_hash_block(ga, idx, HashBlockIndex::key4(1, 1, 0, 0), out.data());
  for (double v : out) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(HashBlock, PutOverwrites) {
  vc::Cluster c(2);
  HashBlockIndex idx;
  idx.add(7, 4);
  GlobalArray ga(&c, idx.total_size());
  std::vector<double> a(4, 1.0), b(4, 9.0), out(4);
  put_hash_block(ga, idx, 7, a.data());
  put_hash_block(ga, idx, 7, b.data());
  get_hash_block(ga, idx, 7, out.data());
  for (double v : out) EXPECT_DOUBLE_EQ(v, 9.0);
}

TEST(HashBlock, ViewIsTheBlockInPlaceAndMovesNothing) {
  vc::Cluster c(2);
  HashBlockIndex idx;
  idx.add(3, 4);
  idx.add(7, 5);
  GlobalArray ga(&c, idx.total_size());
  std::vector<double> in(5);
  std::iota(in.begin(), in.end(), 1.0);
  put_hash_block(ga, idx, 7, in.data());
  std::vector<double> copy(5);
  get_hash_block(ga, idx, 7, copy.data());
  const uint64_t gets = ga.ops_get();
  const uint64_t bytes = ga.bytes_moved();

  const DataBuf view = view_hash_block(ga, idx, 7);
  EXPECT_TRUE(view->borrowed());
  EXPECT_EQ(std::vector<double>(view->begin(), view->end()), copy);
  EXPECT_EQ(ga.ops_get(), gets);
  EXPECT_EQ(ga.bytes_moved(), bytes);
  // In place: a later put shows through the view already handed out.
  std::vector<double> next(5, -2.0);
  put_hash_block(ga, idx, 7, next.data());
  EXPECT_EQ(std::vector<double>(view->begin(), view->end()), next);
  // Read-only: nothing writes through it.
  EXPECT_THROW(view->mutable_data(), StateError);
  EXPECT_THROW(view->assign(in.data(), in.data() + in.size()), StateError);
  EXPECT_THROW(view_hash_block(ga, idx, 999), DataError);
}

TEST(HashBlock, UnknownKeyThrowsDataError) {
  vc::Cluster c(2);
  HashBlockIndex idx;
  idx.add(1, 2);
  GlobalArray ga(&c, idx.total_size());
  double buf[2];
  EXPECT_THROW(get_hash_block(ga, idx, 999, buf), DataError);
  EXPECT_THROW(add_hash_block(ga, idx, 999, buf), DataError);
}

}  // namespace
}  // namespace mp::ga
