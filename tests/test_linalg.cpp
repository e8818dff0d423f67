// Unit + property tests for src/linalg: GEMM against a naive reference over
// all transpose combinations and a size sweep on every microkernel tier the
// host supports, sort_4 permutation algebra, and the BLAS-1 helpers.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
#include <thread>
#include <tuple>
#include <vector>

#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "linalg/sort4.h"
#include "support/aligned_buf.h"
#include "support/rng.h"

namespace mp::linalg {
namespace {

// Naive triple-loop reference GEMM (column-major, same semantics as dgemm).
void ref_gemm(bool ta, bool tb, size_t m, size_t n, size_t k, double alpha,
              const double* a, size_t lda, const double* b, size_t ldb,
              double beta, double* c, size_t ldc) {
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (size_t kk = 0; kk < k; ++kk) {
        const double av = ta ? a[i * lda + kk] : a[kk * lda + i];
        const double bv = tb ? b[kk * ldb + j] : b[j * ldb + kk];
        acc += av * bv;
      }
      c[j * ldc + i] = alpha * acc + beta * c[j * ldc + i];
    }
  }
}

std::vector<double> random_vec(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

constexpr GemmTier kAllTiers[] = {GemmTier::kScalar, GemmTier::kSse2,
                                  GemmTier::kAvx2, GemmTier::kAvx512};

// Every microkernel tier this build compiles and this CPU can run, narrowest
// first; dgemm() itself runs only the last one. The GEMM tests below loop
// over all of them so the narrower kernels stay tested on wide hosts.
std::vector<GemmTier> host_tiers() {
  std::vector<GemmTier> tiers;
  for (GemmTier t : kAllTiers) {
    if (gemm_tier_supported(t)) tiers.push_back(t);
  }
  return tiers;
}

// gtest names each case by dumping the parameter's bytes. The padding after
// the flags is therefore an explicit, zeroed member: implicit padding would
// put uninitialised bytes into the test names and change them every build.
struct GemmCase {
  char ta, tb;
  std::array<char, 6> pad{};
  size_t m, n, k;
};
static_assert(sizeof(GemmCase) == 2 + 6 + 3 * sizeof(size_t));

class GemmVsReference : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsReference, Matches) {
  const GemmCase& p = GetParam();
  const char ta = p.ta, tb = p.tb;
  const size_t m = p.m, n = p.n, k = p.k;
  const bool is_ta = (ta == 'T');
  const bool is_tb = (tb == 'T');
  // op(A) is m x k: stored as (m x k) if 'N', (k x m) if 'T'.
  const size_t lda = is_ta ? k : m;
  const size_t ldb = is_tb ? n : k;
  const size_t ldc = m;
  const auto a = random_vec(lda * (is_ta ? m : k), 1);
  const auto b = random_vec(ldb * (is_tb ? k : n), 2);
  const auto c0 = random_vec(ldc * n, 3);
  auto c2 = c0;

  const double alpha = 1.25, beta = -0.5;
  ref_gemm(is_ta, is_tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
           c2.data(), ldc);
  for (GemmTier tier : host_tiers()) {
    SCOPED_TRACE(to_string(tier));
    auto c1 = c0;
    dgemm_on_tier(tier, ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb,
                  beta, c1.data(), ldc);
    for (size_t i = 0; i < c1.size(); ++i) {
      EXPECT_NEAR(c1[i], c2[i], 1e-11) << "at " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllShapes, GemmVsReference,
    ::testing::Values(
        GemmCase{'N', 'N', {}, 1, 1, 1}, GemmCase{'N', 'N', {}, 5, 7, 3},
        GemmCase{'N', 'N', {}, 64, 64, 64},
        GemmCase{'N', 'N', {}, 65, 63, 129}, GemmCase{'T', 'N', {}, 5, 7, 3},
        GemmCase{'T', 'N', {}, 64, 48, 130}, GemmCase{'N', 'T', {}, 5, 7, 3},
        GemmCase{'N', 'T', {}, 33, 65, 17}, GemmCase{'T', 'T', {}, 5, 7, 3},
        GemmCase{'T', 'T', {}, 70, 70, 70},
        GemmCase{'T', 'N', {}, 128, 1, 128},
        GemmCase{'N', 'N', {}, 1, 128, 128}),
    [](const auto& info) {
      const auto& p = info.param;
      return std::string(1, p.ta) + p.tb + "_" + std::to_string(p.m) + "x" +
             std::to_string(p.n) + "x" + std::to_string(p.k);
    });

TEST(Gemm, BetaZeroOverwritesNaN) {
  // beta == 0 must overwrite even NaN garbage in C (BLAS convention).
  std::vector<double> a{1.0}, b{1.0};
  std::vector<double> c{std::nan("")};
  dgemm('N', 'N', 1, 1, 1, 1.0, a.data(), 1, b.data(), 1, 0.0, c.data(), 1);
  EXPECT_DOUBLE_EQ(c[0], 1.0);
}

TEST(Gemm, AlphaZeroOnlyScalesC) {
  auto a = random_vec(16, 4);
  auto b = random_vec(16, 5);
  std::vector<double> c(16, 2.0);
  dgemm('N', 'N', 4, 4, 4, 0.0, a.data(), 4, b.data(), 4, 0.5, c.data(), 4);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Gemm, EmptyKIsScaleOnly) {
  std::vector<double> c(4, 3.0);
  dgemm('N', 'N', 2, 2, 0, 1.0, nullptr, 2, nullptr, 2, 2.0, c.data(), 2);
  for (double v : c) EXPECT_DOUBLE_EQ(v, 6.0);
}

TEST(Gemm, RejectsBadTransposeFlag) {
  std::vector<double> x(1, 0.0);
  EXPECT_THROW(
      dgemm('X', 'N', 1, 1, 1, 1.0, x.data(), 1, x.data(), 1, 0.0, x.data(), 1),
      InvalidArgument);
}

TEST(Gemm, AccumulatesAcrossCalls) {
  // The CC chains rely on C += A*B across many calls: check associativity
  // of the accumulation against a single big reference GEMM.
  const size_t m = 12, n = 10, k = 40, pieces = 4;
  const auto a = random_vec(m * k, 6);
  const auto b = random_vec(k * n, 7);
  std::vector<double> c_once(m * n, 0.0);
  ref_gemm(false, false, m, n, k, 1.0, a.data(), m, b.data(), k, 1.0,
           c_once.data(), m);
  const size_t kb = k / pieces;
  for (GemmTier tier : host_tiers()) {
    SCOPED_TRACE(to_string(tier));
    std::vector<double> c_chain(m * n, 0.0);
    for (size_t p = 0; p < pieces; ++p) {
      dgemm_on_tier(tier, 'N', 'N', m, n, kb, 1.0, a.data() + p * kb * m, m,
                    b.data() + p * kb, k, 1.0, c_chain.data(), m);
    }
    for (size_t i = 0; i < c_chain.size(); ++i) {
      EXPECT_NEAR(c_chain[i], c_once[i], 1e-11);
    }
  }
}

TEST(Gemm, DispatchesToTheWidestSupportedTier) {
  const std::vector<GemmTier> tiers = host_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(gemm_tier(), tiers.back());
#if defined(__x86_64__)
  // Independent oracle: what the CPU reports, not what gemm.cpp decided.
  GemmTier want = GemmTier::kSse2;
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    want = GemmTier::kAvx2;
  }
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    want = GemmTier::kAvx512;
  }
  EXPECT_EQ(gemm_tier(), want) << to_string(gemm_tier());
  EXPECT_FALSE(gemm_tier_supported(GemmTier::kScalar));
#else
  EXPECT_EQ(gemm_tier(), GemmTier::kScalar);
#endif
  for (GemmTier t : kAllTiers) {
    if (gemm_tier_supported(t)) continue;
    std::vector<double> x(1, 1.0);
    EXPECT_THROW(dgemm_on_tier(t, 'N', 'N', 1, 1, 1, 1.0, x.data(), 1,
                               x.data(), 1, 0.0, x.data(), 1),
                 InvalidArgument)
        << to_string(t);
  }

  // dgemm() is the selected tier, bit for bit (tiers differ in rounding:
  // SSE2 multiplies then adds, the wider tiers fuse).
  const size_t m = 37, n = 29, k = 300;
  const auto a = random_vec(m * k, 8);
  const auto b = random_vec(k * n, 9);
  const auto c0 = random_vec(m * n, 10);
  auto c_dispatched = c0, c_selected = c0;
  dgemm('N', 'T', m, n, k, 0.75, a.data(), m, b.data(), n, -0.5,
        c_dispatched.data(), m);
  dgemm_on_tier(gemm_tier(), 'N', 'T', m, n, k, 0.75, a.data(), m, b.data(),
                n, -0.5, c_selected.data(), m);
  EXPECT_EQ(c_dispatched, c_selected);
}

TEST(Blas1, DfillSetsAll) {
  std::vector<double> x(100, 1.0);
  dfill(x.size(), -2.5, x.data());
  for (double v : x) EXPECT_DOUBLE_EQ(v, -2.5);
}

TEST(Blas1, DaxpyAccumulates) {
  std::vector<double> x{1.0, 2.0, 3.0}, y{10.0, 20.0, 30.0};
  daxpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 12.0);
  EXPECT_DOUBLE_EQ(y[1], 24.0);
  EXPECT_DOUBLE_EQ(y[2], 36.0);
}

TEST(Blas1, DdotMatchesManual) {
  std::vector<double> x{1.0, -2.0, 3.0}, y{4.0, 5.0, -6.0};
  EXPECT_DOUBLE_EQ(ddot(3, x.data(), y.data()), 4.0 - 10.0 - 18.0);
}

TEST(Matrix, IndexingIsColumnMajor) {
  Matrix m(3, 2);
  m(2, 1) = 7.0;
  EXPECT_DOUBLE_EQ(m.data()[1 * 3 + 2], 7.0);
}

TEST(Matrix, NormAndDiff) {
  Matrix a(2, 2), b(2, 2);
  a(0, 0) = 3.0;
  a(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  b(0, 0) = 3.5;
  b(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 0.5);
}

TEST(Matrix, DiffRejectsShapeMismatch) {
  Matrix a(2, 2), b(2, 3);
  EXPECT_THROW(Matrix::max_abs_diff(a, b), InvalidArgument);
}

// ---- sort_4 ----

using Perm = std::array<int, 4>;
using Dims = std::array<size_t, 4>;

// All 24 permutations of {0,1,2,3}.
std::vector<Perm> all_perms() {
  Perm p{0, 1, 2, 3};
  std::vector<Perm> out;
  do {
    out.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  return out;
}

size_t lin4(const Dims& d, size_t i0, size_t i1, size_t i2, size_t i3) {
  return ((i0 * d[1] + i1) * d[2] + i2) * d[3] + i3;
}

class Sort4AllPerms : public ::testing::TestWithParam<int> {};

TEST_P(Sort4AllPerms, PermutesCorrectly) {
  const Perm perm = all_perms()[static_cast<size_t>(GetParam())];
  const Dims d{3, 4, 2, 5};
  const auto in = random_vec(sort4_elems(d), 42);
  std::vector<double> out(in.size(), 0.0);
  sort_4(in.data(), out.data(), d, perm, 2.0);

  Dims od;
  for (int j = 0; j < 4; ++j) od[static_cast<size_t>(j)] = d[static_cast<size_t>(perm[static_cast<size_t>(j)])];
  for (size_t i0 = 0; i0 < d[0]; ++i0)
    for (size_t i1 = 0; i1 < d[1]; ++i1)
      for (size_t i2 = 0; i2 < d[2]; ++i2)
        for (size_t i3 = 0; i3 < d[3]; ++i3) {
          const std::array<size_t, 4> idx{i0, i1, i2, i3};
          const size_t o = lin4(od, idx[static_cast<size_t>(perm[0])],
                                idx[static_cast<size_t>(perm[1])],
                                idx[static_cast<size_t>(perm[2])],
                                idx[static_cast<size_t>(perm[3])]);
          EXPECT_DOUBLE_EQ(out[o], 2.0 * in[lin4(d, i0, i1, i2, i3)]);
        }
}

INSTANTIATE_TEST_SUITE_P(All24, Sort4AllPerms, ::testing::Range(0, 24));

TEST(Sort4, IdentityPermIsScaledCopy) {
  const Dims d{2, 3, 4, 5};
  const auto in = random_vec(sort4_elems(d), 1);
  std::vector<double> out(in.size());
  sort_4(in.data(), out.data(), d, {0, 1, 2, 3}, -1.5);
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_DOUBLE_EQ(out[i], -1.5 * in[i]);
  }
}

TEST(Sort4, InverseRoundTrip) {
  // Applying a permutation then its inverse restores the input.
  const Dims d{4, 3, 5, 2};
  const Perm p{2, 0, 3, 1};
  Perm pinv{};
  for (int j = 0; j < 4; ++j) pinv[static_cast<size_t>(p[static_cast<size_t>(j)])] = j;
  const auto in = random_vec(sort4_elems(d), 2);
  std::vector<double> mid(in.size()), back(in.size());
  sort_4(in.data(), mid.data(), d, p, 2.0);
  Dims dmid;
  for (int j = 0; j < 4; ++j) dmid[static_cast<size_t>(j)] = d[static_cast<size_t>(p[static_cast<size_t>(j)])];
  sort_4(mid.data(), back.data(), dmid, pinv, 0.5);
  for (size_t i = 0; i < in.size(); ++i) EXPECT_DOUBLE_EQ(back[i], in[i]);
}

TEST(Sort4, AccumulatingFlavourAdds) {
  const Dims d{2, 2, 2, 2};
  const auto in = random_vec(16, 3);
  std::vector<double> out(16, 1.0);
  sort_4_acc(in.data(), out.data(), d, {0, 1, 2, 3}, 1.0);
  for (size_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(out[i], 1.0 + in[i]);
}

TEST(Sort4, RejectsNonPermutation) {
  const Dims d{2, 2, 2, 2};
  std::vector<double> in(16), out(16);
  EXPECT_THROW(sort_4(in.data(), out.data(), d, {0, 0, 1, 2}, 1.0),
               InvalidArgument);
  EXPECT_THROW(sort_4(in.data(), out.data(), d, {0, 1, 2, 4}, 1.0),
               InvalidArgument);
}

TEST(Sort4, PreservesSumUnderPermutation) {
  const Dims d{3, 5, 2, 4};
  const auto in = random_vec(sort4_elems(d), 5);
  std::vector<double> out(in.size());
  sort_4(in.data(), out.data(), d, {3, 1, 0, 2}, 1.0);
  const double s_in = std::accumulate(in.begin(), in.end(), 0.0);
  const double s_out = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_NEAR(s_in, s_out, 1e-12);
}

// Every perm, both flavours, must agree bit-for-bit with the generic
// reference path — the rotation fast paths reorder only the iteration, not
// the arithmetic (one multiply per element), so exact equality is required.
TEST_P(Sort4AllPerms, FastPathsMatchReferenceBitForBit) {
  const Perm perm = all_perms()[static_cast<size_t>(GetParam())];
  // Mixed dims so rows/cols of the rotation transposes exercise tile edges.
  const Dims d{5, 8, 3, 33};
  const auto in = random_vec(sort4_elems(d), 77);
  const auto seed = random_vec(sort4_elems(d), 78);

  std::vector<double> got(in.size()), want(in.size());
  sort_4(in.data(), got.data(), d, perm, -1.75);
  sort_4_reference(in.data(), want.data(), d, perm, -1.75);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "plain flavour at " << i;
  }

  got = seed;
  want = seed;
  sort_4_acc(in.data(), got.data(), d, perm, 0.375);
  sort_4_acc_reference(in.data(), want.data(), d, perm, 0.375);
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << "accumulate flavour at " << i;
  }
}

TEST(Sort4, FastPathPredicateCoversExactlyTheRotations) {
  int fast = 0;
  for (const Perm& p : all_perms()) fast += sort4_is_fast_path(p) ? 1 : 0;
  EXPECT_EQ(fast, 4);  // identity + the three rotations
  EXPECT_TRUE(sort4_is_fast_path({0, 1, 2, 3}));
  EXPECT_TRUE(sort4_is_fast_path({1, 2, 3, 0}));
  EXPECT_TRUE(sort4_is_fast_path({2, 3, 0, 1}));
  EXPECT_TRUE(sort4_is_fast_path({3, 0, 1, 2}));
  EXPECT_FALSE(sort4_is_fast_path({1, 0, 3, 2}));
}

// ---- exhaustive GEMM sweep --------------------------------------------------

// All transpose combos x odd/prime sizes x alpha/beta grid against the
// naive reference: catches packing edge cases (partial register tiles,
// kb < kKc) and the beta=0 / beta=1 store fast paths.
TEST(Gemm, ExhaustiveShapeAndScalarSweep) {
  const size_t sizes[] = {1, 3, 7, 17, 63, 65};
  const double scalars[] = {0.0, 1.0, -0.5};
  const char flags[] = {'N', 'T'};
  const std::vector<GemmTier> tiers = host_tiers();
  for (char ta : flags) {
    for (char tb : flags) {
      for (size_t m : sizes) {
        for (size_t n : sizes) {
          for (size_t k : sizes) {
            const size_t lda = (ta == 'T') ? k : m;
            const size_t ldb = (tb == 'T') ? n : k;
            const auto a = random_vec(lda * ((ta == 'T') ? m : k),
                                      1000 + m * 7 + n * 3 + k);
            const auto b = random_vec(ldb * ((tb == 'T') ? k : n),
                                      2000 + m + n * 5 + k * 11);
            const auto c0 = random_vec(m * n, 3000 + m + n + k);
            for (double alpha : scalars) {
              for (double beta : scalars) {
                std::vector<double> c2 = c0;
                ref_gemm(ta == 'T', tb == 'T', m, n, k, alpha, a.data(), lda,
                         b.data(), ldb, beta, c2.data(), m);
                for (GemmTier tier : tiers) {
                  std::vector<double> c1 = c0;
                  dgemm_on_tier(tier, ta, tb, m, n, k, alpha, a.data(), lda,
                                b.data(), ldb, beta, c1.data(), m);
                  for (size_t i = 0; i < c1.size(); ++i) {
                    ASSERT_NEAR(c1[i], c2[i], 1e-11)
                        << to_string(tier) << " " << ta << tb << " m=" << m
                        << " n=" << n << " k=" << k << " alpha=" << alpha
                        << " beta=" << beta << " at " << i;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
}

// The tier is detected on first use, and the workers of a fresh runtime
// reach that first dgemm together: every thread must see one tier and
// compute the same, reference-matching result.
TEST(Gemm, ConcurrentFirstCallsAgree) {
  const size_t n = 48;
  const auto a = random_vec(n * n, 13);
  const auto b = random_vec(n * n, 14);
  std::vector<double> want(n * n, 0.0);
  ref_gemm(false, false, n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
           want.data(), n);
  constexpr size_t kThreads = 4;
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(n * n, 0.0));
  std::vector<GemmTier> tiers(kThreads, GemmTier::kScalar);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      dgemm('N', 'N', n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
            got[t].data(), n);
      tiers[t] = gemm_tier();
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(tiers[t], tiers[0]);
    EXPECT_EQ(got[t], got[0]);
  }
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(got[0][i], want[i], 1e-11) << "at " << i;
  }
}

// Shapes that cross the cache blocks kMc=128 (m), kKc=256 (k) and kNc=768
// (n): the multi-MC-block path, a second KC block that must accumulate
// onto C after beta was applied once by the first, and a second B panel.
// 256x36x256 is the t2_7 ladder's own GEMM shape. Leading dimensions are
// padded so the rows past m must come through untouched.
TEST(Gemm, CacheBlockEdges) {
  const struct {
    size_t m, n, k;
  } shapes[] = {
      {129, 7, 257}, {257, 36, 300}, {5, 769, 3}, {256, 36, 256},
      {131, 770, 513},
  };
  const double betas[] = {0.0, 1.0, -0.5};
  const char flags[] = {'N', 'T'};
  const size_t pad = 3;
  const std::vector<GemmTier> tiers = host_tiers();
  for (const auto& shape : shapes) {
    const size_t m = shape.m, n = shape.n, k = shape.k;
    for (char ta : flags) {
      for (char tb : flags) {
        const size_t lda = ((ta == 'T') ? k : m) + pad;
        const size_t ldb = ((tb == 'T') ? n : k) + pad;
        const size_t ldc = m + pad;
        const auto a = random_vec(lda * ((ta == 'T') ? m : k), 4000 + m + k);
        const auto b = random_vec(ldb * ((tb == 'T') ? k : n), 5000 + n + k);
        const auto c0 = random_vec(ldc * n, 6000 + m + n);
        for (double beta : betas) {
          std::vector<double> c2 = c0;
          ref_gemm(ta == 'T', tb == 'T', m, n, k, 1.25, a.data(), lda,
                   b.data(), ldb, beta, c2.data(), ldc);
          for (GemmTier tier : tiers) {
            std::vector<double> c1 = c0;
            dgemm_on_tier(tier, ta, tb, m, n, k, 1.25, a.data(), lda,
                          b.data(), ldb, beta, c1.data(), ldc);
            for (size_t i = 0; i < c1.size(); ++i) {
              // Padding rows are never written, so compare them exactly.
              if (i % ldc >= m) {
                ASSERT_EQ(c1[i], c0[i]) << "padding row written at " << i;
                continue;
              }
              ASSERT_NEAR(c1[i], c2[i], 1e-10)
                  << to_string(tier) << " " << ta << tb << " m=" << m
                  << " n=" << n << " k=" << k << " beta=" << beta << " at "
                  << i;
            }
          }
        }
      }
    }
  }
}

// The packing workspaces come from the thread-local pool: after warm-up, a
// long GEMM loop must perform no heap allocations at all (the regression
// this guards against is a per-call pack-buffer malloc on the hot path).
TEST(Gemm, ZeroSteadyStateAllocations) {
  const size_t n = 96;
  const auto a = random_vec(n * n, 11);
  const auto b = random_vec(n * n, 12);
  std::vector<double> c(n * n, 0.0);
  for (GemmTier tier : host_tiers()) {
    SCOPED_TRACE(to_string(tier));
    // Warm-up sizes the pool slots for this shape.
    dgemm_on_tier(tier, 'N', 'N', n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                  c.data(), n);
    dgemm_on_tier(tier, 'T', 'T', n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                  c.data(), n);

    const uint64_t before = support::WorkspacePool::allocation_count();
    for (int iter = 0; iter < 1000; ++iter) {
      dgemm_on_tier(tier, 'N', 'N', n, n, n, 1.0, a.data(), n, b.data(), n,
                    1.0, c.data(), n);
    }
    EXPECT_EQ(support::WorkspacePool::allocation_count(), before)
        << "dgemm allocated on the steady-state hot path";
  }
}

}  // namespace
}  // namespace mp::linalg
