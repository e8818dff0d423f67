// Tests for the CC module: model Hamiltonian integrity, MP2, CCSD
// convergence, exactness against FCI for two-electron systems, DIIS, the
// dense ladder kernel, and the paper's headline correctness claim (C9):
// CCSD driven through the distributed t2_7 kernel — original executor and
// all five PTG variants — reproduces the dense correlation energy to the
// 14th digit.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "cc/ccsd.h"
#include "cc/integration.h"
#include "cc/model.h"
#include "linalg/solve.h"
#include "support/rng.h"

namespace mp::cc {
namespace {

TEST(Model, SyntheticIntegralsAreValid) {
  const auto sys = make_synthetic(2, 3, 1.5, 0.08, 7);
  EXPECT_NO_THROW(sys.check_integrals());
  EXPECT_EQ(sys.n_occ(), 4);
  EXPECT_EQ(sys.n_virt(), 6);
  EXPECT_EQ(sys.n_spin_orbitals(), 10);
}

TEST(Model, PairingIntegralsAreValid) {
  const auto sys = make_pairing(4, 2, 1.0, 0.4);
  EXPECT_NO_THROW(sys.check_integrals());
  EXPECT_EQ(sys.n_occ(), 4);
  EXPECT_EQ(sys.n_virt(), 4);
}

TEST(Model, SpinLabelsFollowLayout) {
  const auto sys = make_synthetic(2, 2, 1.0, 0.05, 1);
  // occ: [0,1] alpha, [2,3] beta; virt: [4,5] alpha, [6,7] beta.
  EXPECT_EQ(sys.spin_of(0), 0);
  EXPECT_EQ(sys.spin_of(2), 1);
  EXPECT_EQ(sys.spin_of(4), 0);
  EXPECT_EQ(sys.spin_of(6), 1);
}

TEST(Model, FockIsCanonicalForPairing) {
  const auto sys = make_pairing(5, 2, 1.0, 0.3);
  // Occupied levels are shifted down by the pairing self-energy.
  EXPECT_DOUBLE_EQ(sys.f(0), 0.0 - 0.3);
  EXPECT_DOUBLE_EQ(sys.f(1), 1.0 - 0.3);
  // HOMO below LUMO.
  EXPECT_LT(sys.f(sys.n_occ() - 1), sys.f(sys.n_occ()));
}

TEST(Model, DeterministicInSeed) {
  const auto a = make_synthetic(2, 3, 1.5, 0.08, 42);
  const auto b = make_synthetic(2, 3, 1.5, 0.08, 42);
  EXPECT_EQ(a.eri, b.eri);
  const auto c = make_synthetic(2, 3, 1.5, 0.08, 43);
  EXPECT_NE(a.eri, c.eri);
}

TEST(Model, RejectsBadArguments) {
  EXPECT_THROW(make_synthetic(0, 3, 1.0, 0.1, 1), InvalidArgument);
  EXPECT_THROW(make_pairing(3, 3, 1.0, 0.1), InvalidArgument);
}

TEST(Mp2, NegativeCorrelationEnergy) {
  const auto sys = make_synthetic(2, 4, 1.5, 0.1, 3);
  EXPECT_LT(mp2_energy(sys), 0.0);
}

TEST(Mp2, ZeroCouplingGivesZero) {
  const auto sys = make_synthetic(2, 3, 1.5, 0.0, 3);
  EXPECT_DOUBLE_EQ(mp2_energy(sys), 0.0);
}

TEST(Mp2, ScalesQuadraticallyWithCoupling) {
  const auto weak = make_synthetic(2, 3, 2.0, 0.01, 5);
  const auto strong = make_synthetic(2, 3, 2.0, 0.02, 5);
  const double ratio = mp2_energy(strong) / mp2_energy(weak);
  EXPECT_NEAR(ratio, 4.0, 1e-9);  // same random stream scaled by 2
}

TEST(Ccsd, ConvergesOnSyntheticSystem) {
  const auto sys = make_synthetic(2, 4, 1.5, 0.1, 3);
  const auto res = run_ccsd(sys);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.e_corr, 0.0);
  EXPECT_NEAR(res.e_mp2, mp2_energy(sys), 1e-12);
}

TEST(Ccsd, MatchesMp2ForWeakCoupling) {
  // In the perturbative regime CCSD ~ MP2 to leading order.
  const auto sys = make_synthetic(2, 3, 2.0, 0.005, 9);
  const auto res = run_ccsd(sys);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.e_corr / res.e_mp2, 1.0, 0.05);
}

TEST(Ccsd, ExactForTwoElectrons_Synthetic) {
  // CCSD == FCI for 2-electron systems: the strongest end-to-end check of
  // the amplitude equations.
  const auto sys = make_synthetic(1, 4, 1.2, 0.15, 21);
  const auto res = run_ccsd(sys);
  ASSERT_TRUE(res.converged);
  const double e_fci = fci_two_electron_energy(sys);
  const double e_hf = sys.hf_energy();
  EXPECT_NEAR(e_hf + res.e_corr, e_fci, 1e-9);
}

TEST(Ccsd, ExactForTwoElectrons_Pairing) {
  const auto sys = make_pairing(4, 1, 1.0, 0.5);
  const auto res = run_ccsd(sys);
  ASSERT_TRUE(res.converged);
  const double e_fci = fci_two_electron_energy(sys);
  EXPECT_NEAR(sys.hf_energy() + res.e_corr, e_fci, 1e-9);
}

TEST(Ccsd, PairingModelConverges) {
  const auto sys = make_pairing(6, 3, 1.0, 0.4);
  const auto res = run_ccsd(sys);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.e_corr, 0.0);
}

TEST(Ccsd, DiisAcceleratesConvergence) {
  const auto sys = make_synthetic(2, 4, 1.2, 0.12, 13);
  CcsdOptions with, without;
  with.use_diis = true;
  without.use_diis = false;
  const auto r1 = run_ccsd(sys, with);
  const auto r2 = run_ccsd(sys, without);
  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_NEAR(r1.e_corr, r2.e_corr, 1e-9);
  EXPECT_LE(r1.iterations, r2.iterations);
}

TEST(Ccd, ConvergesWithZeroSingles) {
  const auto sys = make_synthetic(2, 4, 1.5, 0.12, 19);
  CcsdOptions opts;
  opts.ccd_only = true;
  const auto ccd = run_ccsd(sys, opts);
  ASSERT_TRUE(ccd.converged);
  for (double t : ccd.t1) EXPECT_EQ(t, 0.0);
  // CCD differs from CCSD (singles contribute), but both are correlation
  // energies of the same order.
  const auto ccsd = run_ccsd(sys);
  ASSERT_TRUE(ccsd.converged);
  EXPECT_NE(ccd.e_corr, ccsd.e_corr);
  EXPECT_NEAR(ccd.e_corr / ccsd.e_corr, 1.0, 0.2);
}

TEST(Ccd, DistributedLadderWorksInCcdToo) {
  const auto sys = make_synthetic(2, 3, 1.5, 0.1, 61);
  CcsdOptions dense_opts;
  dense_opts.ccd_only = true;
  const auto dense = run_ccsd(sys, dense_opts);
  ASSERT_TRUE(dense.converged);

  DistributedLadder ladder(sys, 2, 2);
  CcsdOptions opts;
  opts.ccd_only = true;
  LadderRunOptions l;
  l.kind = ExecKind::kPtg;
  opts.ladder = ladder.make_kernel(l);
  const auto res = run_ccsd(sys, opts);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.e_corr, dense.e_corr, 1e-13);
}

/// FNV-1a over the bit patterns of `v`: equal iff bit-identical.
uint64_t bits_fingerprint(const std::vector<double>& v) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const double x : v) {
    const auto u = std::bit_cast<uint64_t>(x);
    for (int i = 0; i < 8; ++i) {
      h ^= (u >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

// The dense driver's results, recorded before the t1/tau part of Wabef was
// hoisted out of the (i, j) loop: the hoist keeps every floating-point
// operation in its order, so energies and amplitudes stay bit-identical.
// The synthetic model is the one ccsd_fine solves (2 occupied and 6
// virtual spatial orbitals, seed 1).
TEST(Ccsd, ResultsArePinnedBitForBit) {
  struct Case {
    const char* name;
    SpinOrbitalSystem sys;
    uint64_t e_corr_bits, t1_bits, t2_bits;
  };
  const Case cases[] = {
      {"synthetic", make_synthetic(2, 6, 1.5, 0.1, 1), 13817750426697510536u,
       11531843846691577548u, 13049144370462308858u},
      {"pairing", make_pairing(6, 3, 1.0, 0.4), 13824725238884383865u,
       4656000475824556453u, 12952508718165321957u},
  };
  for (const Case& c : cases) {
    const auto res = run_ccsd(c.sys);
    ASSERT_TRUE(res.converged) << c.name;
    EXPECT_EQ(std::bit_cast<uint64_t>(res.e_corr), c.e_corr_bits)
        << c.name << " e_corr " << res.e_corr;
    EXPECT_EQ(bits_fingerprint(res.t1), c.t1_bits) << c.name << " t1";
    EXPECT_EQ(bits_fingerprint(res.t2), c.t2_bits) << c.name << " t2";
  }
}

TEST(Ccsd, EnergyHistoryIsRecorded) {
  const auto sys = make_synthetic(1, 3, 1.5, 0.1, 2);
  const auto res = run_ccsd(sys);
  EXPECT_EQ(static_cast<int>(res.iteration_energies.size()), res.iterations);
}

TEST(DenseLadder, MatchesBruteForce) {
  const auto sys = make_synthetic(2, 3, 1.5, 0.1, 17);
  const int O = sys.n_occ(), V = sys.n_virt();
  const size_t n2 = static_cast<size_t>(V) * V * O * O;
  std::vector<double> tau(n2);
  Rng rng(5);
  for (auto& x : tau) x = rng.uniform(-1.0, 1.0);
  std::vector<double> out(n2, 0.0);
  dense_ladder(sys, tau, out);
  // spot check a few entries
  auto t2i = [&](int a, int b, int i, int j) {
    return ((static_cast<size_t>(a) * V + b) * O + i) * O + j;
  };
  for (int a : {0, 2}) {
    for (int i : {0, 3}) {
      double s = 0.0;
      for (int e = 0; e < V; ++e)
        for (int f = 0; f < V; ++f) {
          s += 0.5 * sys.v(O + e, O + f, O + a, O + 1) *
               tau[t2i(e, f, i, 2)];
        }
      EXPECT_NEAR(out[t2i(a, 1, i, 2)], s, 1e-12);
    }
  }
}

// --- distributed integration (paper Fig. 3 + claim C9) ---

class DistributedLadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = make_synthetic(2, 3, 1.5, 0.1, 23);
    ladder_ = std::make_unique<DistributedLadder>(sys_, /*tile_size=*/2,
                                                  /*nranks=*/2);
    const int O = sys_.n_occ(), V = sys_.n_virt();
    tau_.resize(static_cast<size_t>(V) * V * O * O);
    // Use a physically-shaped tau: the MP2 doubles (antisymmetric), which
    // the reconstruction of canonical blocks relies on.
    for (int a = 0; a < V; ++a)
      for (int b = 0; b < V; ++b)
        for (int i = 0; i < O; ++i)
          for (int j = 0; j < O; ++j) {
            const double d = sys_.f(i) + sys_.f(j) - sys_.f(O + a) -
                             sys_.f(O + b);
            tau_[((static_cast<size_t>(a) * V + b) * O + i) * O + j] =
                sys_.v(i, j, O + a, O + b) / d;
          }
    expected_.assign(tau_.size(), 0.0);
    dense_ladder(sys_, tau_, expected_);
  }

  double max_diff(const std::vector<double>& got) const {
    double m = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
      m = std::max(m, std::fabs(got[i] - expected_[i]));
    }
    return m;
  }

  SpinOrbitalSystem sys_;
  std::unique_ptr<DistributedLadder> ladder_;
  std::vector<double> tau_;
  std::vector<double> expected_;
};

TEST_F(DistributedLadderTest, PlanIsNonTrivial) {
  EXPECT_GT(ladder_->plan().chains.size(), 4u);
}

TEST_F(DistributedLadderTest, ReferenceExecutorMatchesDense) {
  LadderRunOptions opts;
  opts.kind = ExecKind::kReference;
  const auto res = ladder_->run(tau_, opts);
  EXPECT_LT(max_diff(res.r_dense), 1e-12);
}

TEST_F(DistributedLadderTest, OriginalExecutorMatchesDense) {
  LadderRunOptions opts;
  opts.kind = ExecKind::kOriginal;
  opts.workers_per_rank = 2;
  const auto res = ladder_->run(tau_, opts);
  EXPECT_LT(max_diff(res.r_dense), 1e-12);
}

TEST_F(DistributedLadderTest, AllPtgVariantsMatchDense) {
  for (const auto& variant : tce::VariantConfig::all()) {
    LadderRunOptions opts;
    opts.kind = ExecKind::kPtg;
    opts.variant = variant;
    const auto res = ladder_->run(tau_, opts);
    EXPECT_LT(max_diff(res.r_dense), 1e-12) << "variant " << variant.name;
  }
}

TEST_F(DistributedLadderTest, RepeatedRunsAreIndependent) {
  LadderRunOptions opts;
  opts.kind = ExecKind::kPtg;
  opts.variant = tce::VariantConfig::v5();
  const auto r1 = ladder_->run(tau_, opts);
  const auto r2 = ladder_->run(tau_, opts);
  for (size_t i = 0; i < r1.r_dense.size(); ++i) {
    EXPECT_NEAR(r1.r_dense[i], r2.r_dense[i], 1e-13);
  }
}

// The paper's C9: the full CC iteration gives the same correlation energy
// no matter which executor computes the ported subroutine.
TEST(CcsdIntegration, AllExecutorsGiveSameEnergyTo14Digits) {
  const auto sys = make_synthetic(2, 3, 1.5, 0.1, 31);
  const auto dense = run_ccsd(sys);
  ASSERT_TRUE(dense.converged);

  DistributedLadder ladder(sys, /*tile_size=*/2, /*nranks=*/2);

  std::vector<LadderRunOptions> configs;
  {
    LadderRunOptions o;
    o.kind = ExecKind::kReference;
    configs.push_back(o);
    o.kind = ExecKind::kOriginal;
    configs.push_back(o);
    for (const auto& v : tce::VariantConfig::all()) {
      o.kind = ExecKind::kPtg;
      o.variant = v;
      configs.push_back(o);
    }
  }

  for (const auto& cfg : configs) {
    CcsdOptions copts;
    copts.ladder = ladder.make_kernel(cfg);
    const auto res = run_ccsd(sys, copts);
    ASSERT_TRUE(res.converged);
    EXPECT_NEAR(res.e_corr, dense.e_corr, 1e-13)
        << "executor kind " << static_cast<int>(cfg.kind) << " variant "
        << cfg.variant.name;
  }
}

TEST(LinalgSolve, SolvesKnownSystem) {
  linalg::Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const auto x = linalg::solve_linear(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LinalgSolve, ThrowsOnSingular) {
  linalg::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 2.0;
  a(1, 1) = 4.0;
  EXPECT_THROW(linalg::solve_linear(a, {1.0, 2.0}), DataError);
}

TEST(LinalgSolve, JacobiEigenvaluesOfDiagonal) {
  linalg::Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = 1.0;
  a(2, 2) = 2.0;
  const auto ev = linalg::symmetric_eigenvalues(a);
  EXPECT_NEAR(ev[0], 1.0, 1e-12);
  EXPECT_NEAR(ev[1], 2.0, 1e-12);
  EXPECT_NEAR(ev[2], 3.0, 1e-12);
}

TEST(LinalgSolve, JacobiMatchesCharacteristicPolynomial) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  linalg::Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  linalg::Matrix vecs;
  const auto ev = linalg::symmetric_eigenvalues(a, &vecs);
  EXPECT_NEAR(ev[0], 1.0, 1e-12);
  EXPECT_NEAR(ev[1], 3.0, 1e-12);
  // Eigenvector of eigenvalue 1 is (1,-1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::fabs(vecs(0, 0)), 1.0 / std::sqrt(2.0), 1e-10);
}

}  // namespace
}  // namespace mp::cc
