// Tests for the persistent-runtime + template-cache path (DESIGN.md §11):
// repeated cache-hit submissions through one parked runtime must reproduce
// the serial reference to 1e-12 (claim C9 under resubmission) — including
// the stealing and failure-detection runtime variants — the mp-verify pass
// must run once per template rather than once per submission, and the
// between-submission reset must leave no per-submission state behind.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <vector>

#include "cc/ccsd.h"
#include "cc/integration.h"
#include "cc/model.h"
#include "support/rng.h"
#include "tce/template_cache.h"

namespace mp::cc {
namespace {

/// Enough iterations that any per-submission state leaking across the reset
/// (stale dependency counters, undrained mailboxes, leftover ready tasks)
/// would corrupt a later result or trip a runtime invariant.
constexpr int kIterations = 4;

class ResubmitLadder : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = make_synthetic(2, 3, 1.5, 0.1, 23);
    ladder_ = std::make_unique<DistributedLadder>(sys_, /*tile_size=*/2,
                                                  /*nranks=*/2);
    const int O = sys_.n_occ(), V = sys_.n_virt();
    tau_.resize(static_cast<size_t>(V) * V * O * O);
    // Physically-shaped tau (MP2 doubles): antisymmetric, as the canonical
    // block reconstruction relies on.
    for (int a = 0; a < V; ++a)
      for (int b = 0; b < V; ++b)
        for (int i = 0; i < O; ++i)
          for (int j = 0; j < O; ++j) {
            const double d =
                sys_.f(i) + sys_.f(j) - sys_.f(O + a) - sys_.f(O + b);
            tau_[((static_cast<size_t>(a) * V + b) * O + i) * O + j] =
                sys_.v(i, j, O + a, O + b) / d;
          }
    pp_expected_.assign(tau_.size(), 0.0);
    dense_ladder(sys_, tau_, pp_expected_);
    hh_expected_.assign(tau_.size(), 0.0);
    dense_hh_ladder(sys_, tau_, hh_expected_);
  }

  static double max_diff(const std::vector<double>& got,
                         const std::vector<double>& want) {
    double m = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
      m = std::max(m, std::fabs(got[i] - want[i]));
    }
    return m;
  }

  /// kIterations cache-hit submissions under `opts`; every one must match
  /// the dense reference for the selected contraction to 1e-12.
  void run_iterations(LadderRunOptions opts, const char* what) {
    opts.kind = ExecKind::kPtg;
    opts.reuse_runtime = true;
    const auto& want =
        opts.contraction == Contraction::kHhLadder ? hh_expected_ : pp_expected_;
    for (int it = 0; it < kIterations; ++it) {
      const auto res = ladder_->run(tau_, opts);
      EXPECT_LT(max_diff(res.r_dense, want), 1e-12)
          << what << " iteration " << it;
    }
  }

  SpinOrbitalSystem sys_;
  std::unique_ptr<DistributedLadder> ladder_;
  std::vector<double> tau_;
  std::vector<double> pp_expected_, hh_expected_;
};

// Claim C9 under resubmission: every PTG variant, executed repeatedly
// through one cached template and parked runtime, reproduces the dense
// particle-particle ladder each time.
TEST_F(ResubmitLadder, AllVariantsMatchDenseAcrossCacheHits) {
  for (const auto& variant : tce::VariantConfig::all()) {
    LadderRunOptions opts;
    opts.variant = variant;
    run_iterations(opts, variant.name.c_str());
  }
  const auto st = ladder_->template_cache_stats();
  // One build per variant; every later iteration is a hit.
  EXPECT_EQ(st.misses, tce::VariantConfig::all().size());
  EXPECT_EQ(st.hits,
            tce::VariantConfig::all().size() * (kIterations - 1));
}

TEST_F(ResubmitLadder, HhLadderMatchesDenseAcrossCacheHits) {
  LadderRunOptions opts;
  opts.contraction = Contraction::kHhLadder;
  run_iterations(opts, "hh_ladder");
}

TEST_F(ResubmitLadder, StealingRuntimeMatchesDenseAcrossCacheHits) {
  LadderRunOptions opts;
  opts.enable_stealing = true;
  run_iterations(opts, "stealing");
}

TEST_F(ResubmitLadder, FailureDetectionRuntimeMatchesDenseAcrossCacheHits) {
  LadderRunOptions opts;
  opts.enable_failure_detection = true;
  opts.on_rank_failure = ptg::FailurePolicy::kRetry;
  run_iterations(opts, "failure-detection");
}

// Acceptance: cache-hit and cache-miss submissions are numerically
// indistinguishable for every variant.
TEST_F(ResubmitLadder, CacheHitAndColdPathsAgreeForEveryVariant) {
  for (const auto& variant : tce::VariantConfig::all()) {
    LadderRunOptions opts;
    opts.kind = ExecKind::kPtg;
    opts.variant = variant;
    opts.reuse_runtime = false;
    const auto cold = ladder_->run(tau_, opts);
    opts.reuse_runtime = true;
    const auto warm = ladder_->run(tau_, opts);   // miss: builds template
    const auto warm2 = ladder_->run(tau_, opts);  // hit: parked runtime
    ASSERT_EQ(cold.r_dense.size(), warm.r_dense.size());
    for (size_t i = 0; i < cold.r_dense.size(); ++i) {
      EXPECT_NEAR(cold.r_dense[i], warm.r_dense[i], 1e-12)
          << "variant " << variant.name << " elem " << i;
      EXPECT_NEAR(cold.r_dense[i], warm2.r_dense[i], 1e-12)
          << "variant " << variant.name << " elem " << i;
    }
  }
}

// The between-submission reset must reclaim every piece of per-submission
// state (this is what bounds retention to one submission) and the parked
// runtime must be reused rather than respawned.
TEST_F(ResubmitLadder, ResetReclaimsAllPerSubmissionState) {
  LadderRunOptions opts;
  opts.kind = ExecKind::kPtg;
  opts.reuse_runtime = true;
  // Failure tolerance on: its activation-dedup set and lineage log are the
  // documented O(total activations) retention the reset exists to bound.
  opts.enable_failure_detection = true;
  opts.on_rank_failure = ptg::FailurePolicy::kRetry;
  for (int it = 0; it < 3; ++it) ladder_->run(tau_, opts);

  auto& ses = ladder_->session_for(opts);
  EXPECT_EQ(ses.submissions(), 3u);
  bool any_activated = false, any_lineage = false;
  for (int r = 0; r < ses.nranks(); ++r) {
    const auto& ctx = ses.context(r);
    EXPECT_EQ(ctx.submissions(), 3u) << "rank " << r;
    const auto& rep = ctx.last_reset_report();
    // The reset before submission 3 ran over submission 2's state.
    EXPECT_EQ(rep.submission, 2u) << "rank " << r;
    // The retention being reclaimed: one submission's worth, not three.
    any_activated = any_activated || rep.activated_keys > 0;
    any_lineage = any_lineage || rep.lineage_entries > 0;
    // Everything else must have fully drained at the end of the previous
    // submission: leftovers here are per-submission state leaks.
    EXPECT_EQ(rep.pending_deposits, 0u) << "rank " << r;
    EXPECT_EQ(rep.held_ready, 0u) << "rank " << r;
    EXPECT_EQ(rep.adopted_keys, 0u) << "rank " << r;
    EXPECT_EQ(rep.outstanding_migrations, 0u) << "rank " << r;
    EXPECT_EQ(rep.outbox_messages, 0u) << "rank " << r;
    // Heartbeats keep flying until the closing barrier, so a handful may
    // land after the run and be drained by the reset; a pile of them (or
    // any data-plane traffic) would be a leak.
    EXPECT_LE(rep.stale_messages, 64u) << "rank " << r;
  }
  EXPECT_TRUE(any_activated)
      << "fault-tolerant runs must have dedup entries for the reset to free";
  EXPECT_TRUE(any_lineage)
      << "fault-tolerant runs must have lineage entries for the reset to free";
}

// mp-verify runs once per template (at build), not once per submission.
TEST_F(ResubmitLadder, VerifyRunsOncePerTemplate) {
  ::setenv("MP_VERIFY", "1", 1);
  struct Unset {
    ~Unset() { ::unsetenv("MP_VERIFY"); }
  } unset_on_exit;

  // Fresh ladder so the fixture's env-off state cannot be cached.
  DistributedLadder ladder(sys_, /*tile_size=*/2, /*nranks=*/2);
  LadderRunOptions opts;
  opts.kind = ExecKind::kPtg;
  opts.reuse_runtime = true;
  const auto& want = pp_expected_;
  for (int it = 0; it < 3; ++it) {
    const auto res = ladder.run(tau_, opts);
    EXPECT_LT(max_diff(res.r_dense, want), 1e-12) << "iteration " << it;
  }
  const auto st = ladder.template_cache_stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 2u);
  EXPECT_EQ(st.verifies_run, 1u)
      << "the static verifier must run exactly once per template";
}

// The full CC iteration through the persistent runtime: same energy as the
// dense kernel to the 14th digit, with the cache amortizing every iteration
// after the first.
TEST(ResubmitCcsd, EnergyMatchesDenseAndIterationsHitTheCache) {
  const auto sys = make_synthetic(2, 3, 1.5, 0.1, 31);
  const auto dense = run_ccsd(sys);
  ASSERT_TRUE(dense.converged);

  DistributedLadder ladder(sys, /*tile_size=*/2, /*nranks=*/2);
  LadderRunOptions lopts;
  lopts.kind = ExecKind::kPtg;
  lopts.reuse_runtime = true;
  CcsdOptions copts;
  copts.ladder = ladder.make_kernel(lopts);
  const auto res = run_ccsd(sys, copts);
  ASSERT_TRUE(res.converged);
  EXPECT_NEAR(res.e_corr, dense.e_corr, 1e-13);

  const auto st = ladder.template_cache_stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_GE(st.hits, static_cast<uint64_t>(res.iterations - 1))
      << "every CCSD iteration after the first must reuse the template";
}

// --- template-cache unit tests (no runtime) ---

TEST(TemplateKey, FingerprintDistinguishesEverySpecField) {
  tce::TileSpaceSpec base;
  base.n_occ_alpha = 3;
  base.n_occ_beta = 3;
  base.n_virt_alpha = 5;
  base.n_virt_beta = 5;
  base.tile_size = 2;
  const uint64_t fp = tce::fingerprint_tile_space(base);
  EXPECT_EQ(fp, tce::fingerprint_tile_space(base)) << "must be deterministic";

  auto differs = [&](tce::TileSpaceSpec s) {
    return tce::fingerprint_tile_space(s) != fp;
  };
  tce::TileSpaceSpec s = base;
  s.n_occ_alpha = 4;
  EXPECT_TRUE(differs(s));
  s = base;
  s.n_occ_beta = 2;
  EXPECT_TRUE(differs(s));
  s = base;
  s.n_virt_alpha = 6;
  EXPECT_TRUE(differs(s));
  s = base;
  s.n_virt_beta = 4;
  EXPECT_TRUE(differs(s));
  s = base;
  s.tile_size = 3;
  EXPECT_TRUE(differs(s));
}

TEST(TemplateKey, VariantSignatureSeparatesAllVariantsAndFlagTweaks) {
  std::vector<std::string> sigs;
  for (const auto& v : tce::VariantConfig::all()) {
    sigs.push_back(tce::variant_signature(v));
  }
  for (size_t i = 0; i < sigs.size(); ++i) {
    for (size_t j = i + 1; j < sigs.size(); ++j) {
      EXPECT_NE(sigs[i], sigs[j]);
    }
  }
  // A hand-built config reusing a stock name must not alias it.
  tce::VariantConfig forged = tce::VariantConfig::v5();
  forged.priorities = !forged.priorities;
  EXPECT_NE(tce::variant_signature(forged),
            tce::variant_signature(tce::VariantConfig::v5()));
  // Nor may two chain segment heights share a template.
  tce::VariantConfig h2 = tce::VariantConfig::v5();
  h2.segment_height = 2;
  tce::VariantConfig h3 = h2;
  h3.segment_height = 3;
  EXPECT_NE(tce::variant_signature(h2), tce::variant_signature(h3));
  for (const auto& sig : sigs) {
    EXPECT_NE(tce::variant_signature(h2), sig);
    EXPECT_NE(tce::variant_signature(h3), sig);
  }
  EXPECT_EQ(tce::variant_signature(tce::VariantConfig::v5()), "v5:g1s0w0p1");
  EXPECT_EQ(tce::variant_signature(h3), "v5:g3s0w0p1");
}

TEST(TemplateKey, KeyEqualityAndHashRespectEveryField) {
  tce::TemplateKey a{"t2_7", 42u, "v5:g1s0w0p1", 8};
  tce::TemplateKey b = a;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(tce::TemplateKeyHash{}(a), tce::TemplateKeyHash{}(b));
  b = a;
  b.subroutine = "hh_ladder";
  EXPECT_FALSE(a == b);
  b = a;
  b.tile_fingerprint = 43u;
  EXPECT_FALSE(a == b);
  b = a;
  b.variant = "v1:g0s1w1p1";
  EXPECT_FALSE(a == b);
  b = a;
  b.nranks = 4;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace mp::cc
