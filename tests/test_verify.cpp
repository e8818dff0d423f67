// Tests for the mp-verify static passes (analysis/): positive runs over
// every variant and workload must verify clean, and seeded corruptions —
// dropped edges, duplicate writers, broken reduction fan-in, leaked
// buffers, cycles, duplicate tasks — must each be detected with their
// distinct stable diagnostic code.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/graph_verify.h"
#include "analysis/plan_verify.h"
#include "analysis/tce_verify.h"
#include "ga/global_array.h"
#include "ptg/context.h"
#include "support/error.h"
#include "tce/inspector.h"
#include "tce/ptg_build.h"
#include "tce/ptg_exec.h"
#include "tce/storage.h"
#include "tce/variants.h"
#include "vc/cluster.h"

namespace mp {
namespace {

using analysis::has_code;
using tce::RangeKind;

tce::TileSpaceSpec small_spec() {
  tce::TileSpaceSpec s;
  s.n_occ_alpha = 3;
  s.n_occ_beta = 3;
  s.n_virt_alpha = 5;
  s.n_virt_beta = 5;
  s.tile_size = 2;
  return s;
}

/// Owns the t2_7 workload every test verifies against: tile space, shapes,
/// (unfilled) Global Arrays, inspected plan. Cheap enough to build per test.
struct Workload {
  explicit Workload(int nranks = 3, tce::TileSpaceSpec spec = small_spec())
      : cluster(nranks),
        space(spec),
        v(space, {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kVirt,
                  RangeKind::kVirt}),
        t(space, {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                  RangeKind::kOcc}),
        r(space,
          {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
           RangeKind::kOcc},
          true, true),
        v_ga(&cluster, v.ga_size()),
        t_ga(&cluster, t.ga_size()),
        r_ga(&cluster, r.ga_size()),
        plan(tce::inspect_t2_7(space, {&v, &t, &r})),
        stores({{&v, &v_ga}, {&t, &t_ga}, {&r, &r_ga}}) {}

  vc::Cluster cluster;
  tce::TileSpace space;
  tce::BlockTensor4 v, t, r;
  ga::GlobalArray v_ga, t_ga, r_ga;
  tce::ChainPlan plan;
  tce::StoreList stores;
};

/// First chain with at least two GEMMs (needed by the corruption tests).
const tce::Chain& long_chain(const tce::ChainPlan& plan) {
  for (const auto& ch : plan.chains) {
    if (ch.gemms.size() >= 2) return ch;
  }
  throw StateError("test workload has no multi-GEMM chain");
}

// ---- positive: every variant of every workload verifies clean -------------

TEST(VerifyClean, AllVariantsOnT27) {
  Workload w;
  for (const auto& var : tce::VariantConfig::all()) {
    const auto rep = analysis::verify_variant(w.plan, w.stores, var, 3);
    EXPECT_TRUE(rep.clean()) << var.name << ":\n"
                             << analysis::render(rep.diags);
    EXPECT_GT(rep.num_tasks, 0u) << var.name;
    EXPECT_GT(rep.num_edges, 0u) << var.name;
  }
}

TEST(VerifyClean, AllVariantsOnIrrepsWorkload) {
  tce::TileSpaceSpec spec = small_spec();
  spec.n_virt_alpha = 6;
  spec.n_virt_beta = 6;
  spec.num_irreps = 4;
  Workload w(3, spec);
  for (const auto& var : tce::VariantConfig::all()) {
    const auto rep = analysis::verify_variant(w.plan, w.stores, var, 3);
    EXPECT_TRUE(rep.clean()) << var.name << ":\n"
                             << analysis::render(rep.diags);
  }
}

TEST(VerifyClean, HhLadderAndFused) {
  Workload base;
  tce::BlockTensor4 wshape(base.space, {RangeKind::kOcc, RangeKind::kOcc,
                                        RangeKind::kOcc, RangeKind::kOcc});
  ga::GlobalArray w_ga(&base.cluster, wshape.ga_size());
  const auto hh =
      tce::inspect_hh_ladder(base.space, {&wshape, &base.t, &base.r});
  const tce::StoreList hh_stores = {
      {&wshape, &w_ga}, {&base.t, &base.t_ga}, {&base.r, &base.r_ga}};

  const auto fused = tce::fuse_plans(base.plan, hh, {3, 1, 2});
  tce::StoreList fused_stores = base.stores;
  fused_stores.push_back({&wshape, &w_ga});

  for (const auto& var : tce::VariantConfig::all()) {
    const auto hh_rep = analysis::verify_variant(hh, hh_stores, var, 3);
    EXPECT_TRUE(hh_rep.clean()) << "hh_ladder " << var.name << ":\n"
                                << analysis::render(hh_rep.diags);
    const auto fu_rep = analysis::verify_variant(fused, fused_stores, var, 3);
    EXPECT_TRUE(fu_rep.clean()) << "fused " << var.name << ":\n"
                                << analysis::render(fu_rep.diags);
  }
}

// Chain segments of h GEMMs (VariantConfig::segment_height) on every
// workload: h = 2..4 chain each segment's GEMMs behind a DFILL and reduce
// over the segments, and the TCE closed forms (MPT001/MPT005) follow h.
TEST(VerifyClean, SegmentHeightsOnEveryWorkload) {
  Workload base;
  tce::BlockTensor4 wshape(base.space, {RangeKind::kOcc, RangeKind::kOcc,
                                        RangeKind::kOcc, RangeKind::kOcc});
  ga::GlobalArray w_ga(&base.cluster, wshape.ga_size());
  const auto hh =
      tce::inspect_hh_ladder(base.space, {&wshape, &base.t, &base.r});
  const tce::StoreList hh_stores = {
      {&wshape, &w_ga}, {&base.t, &base.t_ga}, {&base.r, &base.r_ga}};
  const auto fused = tce::fuse_plans(base.plan, hh, {3, 1, 2});
  tce::StoreList fused_stores = base.stores;
  fused_stores.push_back({&wshape, &w_ga});

  for (const int h : {2, 3, 4}) {
    for (auto var : tce::VariantConfig::all()) {
      var.segment_height = h;
      using Case = std::tuple<const char*, const tce::ChainPlan*,
                              const tce::StoreList*>;
      for (const auto& [name, plan, stores] :
           {Case{"t2_7", &base.plan, &base.stores},
            Case{"hh_ladder", &hh, &hh_stores},
            Case{"fused", &fused, &fused_stores}}) {
        const auto rep = analysis::verify_variant(*plan, *stores, var, 3);
        EXPECT_TRUE(rep.clean()) << name << " " << var.name << " h=" << h
                                 << ":\n" << analysis::render(rep.diags);
      }
    }
  }
}

// The graph built without stores is the same graph, and the verifier
// materializes it, but it has no bodies: a Context refuses to run it.
TEST(VerifyClean, GraphWithoutStoresVerifiesButCannotRun) {
  Workload w;
  for (const auto& var : tce::VariantConfig::all()) {
    const auto with = tce::build_ptg(w.plan, w.stores, var, 3);
    const auto bare = tce::build_ptg(w.plan, var, 3);
    const auto g_with = ptg::FlatGraph::compile(with.pool, 3);
    const auto g_bare = ptg::FlatGraph::compile(bare.pool, 3);
    ASSERT_EQ(g_bare.size(), g_with.size()) << var.name;
    for (int32_t i = 0; i < g_bare.size(); ++i) {
      EXPECT_EQ(g_bare.key(i), g_with.key(i)) << var.name;
      EXPECT_EQ(g_bare.owner(i), g_with.owner(i)) << var.name;
      const auto sb = g_bare.successors(i);
      const auto sw = g_with.successors(i);
      ASSERT_EQ(sb.size(), sw.size()) << var.name;
      for (size_t e = 0; e < sb.size(); ++e) {
        EXPECT_EQ(sb[e].consumer, sw[e].consumer) << var.name;
      }
    }
    const auto diags = analysis::verify_graph(g_bare);
    EXPECT_TRUE(diags.empty()) << var.name << ":\n" << analysis::render(diags);
  }
  const auto bare = tce::build_ptg(w.plan, tce::VariantConfig::v5(), 3);
  w.cluster.run([&](vc::RankCtx& rctx) {
    EXPECT_THROW(ptg::Context(rctx, bare.pool), InvalidArgument);
  });
}

TEST(VerifyClean, VariousRankCounts) {
  Workload w(1);
  for (int nranks : {1, 2, 5}) {
    const auto rep = analysis::verify_variant(w.plan, w.stores,
                                              tce::VariantConfig::v5(), nranks);
    EXPECT_TRUE(rep.clean()) << "nranks=" << nranks << ":\n"
                             << analysis::render(rep.diags);
  }
}

// ---- plan-layer corruptions ----------------------------------------------

TEST(VerifyNegative, DroppedGemmLinkIsMPP003) {
  Workload w;
  tce::ChainPlan bad = w.plan;
  for (auto& ch : bad.chains) {
    if (ch.gemms.size() >= 2) {
      ch.gemms.erase(ch.gemms.begin() + 1);  // L2 sequence now 0,2,3,...
      break;
    }
  }
  const auto diags = analysis::verify_plan(bad);
  ASSERT_FALSE(diags.empty());
  EXPECT_TRUE(has_code(diags, "MPP003")) << analysis::render(diags);
  EXPECT_TRUE(analysis::verify_plan(w.plan).empty()) << "pristine plan dirty";
}

TEST(VerifyNegative, DuplicateChainWriterIsMPP002) {
  Workload w;
  tce::ChainPlan bad = w.plan;
  tce::Chain dup = bad.chains.front();  // same c_key, same store triple
  dup.id = static_cast<int>(bad.chains.size());
  bad.chains.push_back(dup);
  const auto diags = analysis::verify_plan(bad);
  EXPECT_TRUE(has_code(diags, "MPP002")) << analysis::render(diags);
}

// ---- graph-layer corruptions ---------------------------------------------

TEST(VerifyNegative, DroppedEdgeIsMPV007) {
  Workload w;
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v3(), 3);
  // Drop one READ_A instance outright: its GEMM's slot 0 is never fed.
  const auto victim = ptg::params_of(long_chain(w.plan).id, 0);
  auto& cls = build.pool.mutable_cls(build.ids.read_a);
  const auto old_enum = cls.enumerate_rank;
  cls.enumerate_rank = [old_enum, victim](int rank) {
    auto out = old_enum(rank);
    std::erase(out, victim);
    return out;
  };
  const auto diags = analysis::verify_graph(build.pool, 3);
  EXPECT_TRUE(has_code(diags, "MPV007")) << analysis::render(diags);
  EXPECT_FALSE(has_code(diags, "MPV001")) << "dropped edge is not a cycle";
}

TEST(VerifyNegative, DuplicateEdgeIsMPV006) {
  Workload w;
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v3(), 3);
  // READ_A of one instance deposits its output twice into the same slot.
  const auto victim = ptg::params_of(long_chain(w.plan).id, 0);
  auto& cls = build.pool.mutable_cls(build.ids.read_a);
  const auto old_routes = cls.route_outputs;
  cls.route_outputs = [old_routes, victim](const ptg::Params& p,
                                           std::vector<ptg::OutRoute>& r) {
    old_routes(p, r);
    if (p == victim) old_routes(p, r);  // duplicate deposit
  };
  const auto diags = analysis::verify_graph(build.pool, 3);
  EXPECT_TRUE(has_code(diags, "MPV006")) << analysis::render(diags);
}

TEST(VerifyNegative, LeakedDataBufIsMPV010) {
  Workload w;
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v2(), 3);
  // One SORT instance declares an output but routes it nowhere: its DataBuf
  // retain would never be released by a consumer.
  const auto victim = ptg::params_of(long_chain(w.plan).id);
  auto& cls = build.pool.mutable_cls(build.ids.sort);
  const auto old_routes = cls.route_outputs;
  cls.route_outputs = [old_routes, victim](const ptg::Params& p,
                                           std::vector<ptg::OutRoute>& r) {
    if (p == victim) return;  // leak: declared output, no consumer
    old_routes(p, r);
  };
  const auto diags = analysis::verify_graph(build.pool, 3);
  EXPECT_TRUE(has_code(diags, "MPV010")) << analysis::render(diags);
}

TEST(VerifyNegative, CycleIsMPV001) {
  Workload w;
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v2(), 3);
  // Close a loop: READ_A(c,0) now waits on an input that SORT(c) provides,
  // so READ_A -> GEMM -> ... -> SORT -> READ_A can never start. Every slot
  // is fed (no dropped edge), so this must be reported as a cycle.
  const auto ra_victim = ptg::params_of(long_chain(w.plan).id, 0);
  auto& ra = build.pool.mutable_cls(build.ids.read_a);
  const auto old_inputs = ra.num_task_inputs;
  ra.num_task_inputs = [old_inputs, ra_victim](const ptg::Params& p) {
    return p == ra_victim ? 1 : old_inputs(p);
  };
  auto& sort = build.pool.mutable_cls(build.ids.sort);
  const auto old_routes = sort.route_outputs;
  const auto read_a_id = build.ids.read_a;
  sort.route_outputs = [old_routes, ra_victim, read_a_id](
                           const ptg::Params& p,
                           std::vector<ptg::OutRoute>& r) {
    old_routes(p, r);
    if (p[0] == ra_victim[0]) {
      r.push_back({ptg::TaskKey{read_a_id, ra_victim}, 0, 0});
    }
  };
  const auto diags = analysis::verify_graph(build.pool, 3);
  EXPECT_TRUE(has_code(diags, "MPV001")) << analysis::render(diags);
}

TEST(VerifyNegative, DuplicateTaskIsMPV002) {
  Workload w;
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v5(), 3);
  auto& cls = build.pool.mutable_cls(build.ids.gemm);
  const auto old_enum = cls.enumerate_rank;
  cls.enumerate_rank = [old_enum](int rank) {
    auto out = old_enum(rank);
    if (rank == 0 && !out.empty()) out.push_back(out.front());
    return out;
  };
  const auto diags = analysis::verify_graph(build.pool, 3);
  EXPECT_TRUE(has_code(diags, "MPV002")) << analysis::render(diags);
}

// ---- TCE-layer corruption ------------------------------------------------

TEST(VerifyNegative, BadReductionFanInIsMPT001) {
  Workload w;
  const auto var = tce::VariantConfig::v3();
  auto build = tce::build_ptg(w.plan, w.stores, var, 3);
  // Drop one REDUCE node of a multi-GEMM chain: the reduction tree no
  // longer matches the chain's segmentation (len leaves need len-1 nodes).
  const auto victim = ptg::params_of(long_chain(w.plan).id, 0);
  auto& cls = build.pool.mutable_cls(build.ids.reduce);
  const auto old_enum = cls.enumerate_rank;
  cls.enumerate_rank = [old_enum, victim](int rank) {
    auto out = old_enum(rank);
    std::erase(out, victim);
    return out;
  };
  const auto graph = ptg::FlatGraph::compile(build.pool, 3);
  const auto diags = analysis::verify_tce_graph(w.plan, var, build, graph);
  EXPECT_TRUE(has_code(diags, "MPT001")) << analysis::render(diags);
}

// ---- runtime integration: Context::validate_plan + the MP_VERIFY gate ----

TEST(MpVerifyGate, ValidatePlanIsCleanOnHealthyGraph) {
  Workload w(1);
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v5(), 1);
  w.cluster.run([&](vc::RankCtx& rctx) {
    ptg::Context ctx(rctx, build.pool);
    const auto diags = ctx.validate_plan();
    EXPECT_TRUE(diags.empty()) << analysis::render(diags);
  });
}

TEST(MpVerifyGate, RunAbortsOnCorruptGraphWhenEnvSet) {
  Workload w(1);
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v5(), 1);
  // Same corruption as DroppedEdgeIsMPV007: without the gate this graph
  // would deadlock the runtime (GEMM waits forever); with MP_VERIFY set
  // run() must refuse to start executing at all.
  const auto victim = ptg::params_of(long_chain(w.plan).id, 0);
  auto& cls = build.pool.mutable_cls(build.ids.read_a);
  const auto old_enum = cls.enumerate_rank;
  cls.enumerate_rank = [old_enum, victim](int rank) {
    auto out = old_enum(rank);
    std::erase(out, victim);
    return out;
  };
  ::setenv("MP_VERIFY", "1", 1);
  w.cluster.run([&](vc::RankCtx& rctx) {
    ptg::Context ctx(rctx, build.pool);
    EXPECT_THROW(ctx.run(), StateError);
  });
  ::unsetenv("MP_VERIFY");
}

// A failed MP_VERIFY pass is latched: the second run() of the same Context
// raises the same StateError and runs no body, instead of executing the
// malformed graph (which would starve a GEMM until the watchdog fires).
TEST(MpVerifyGate, FailedVerificationFailsEveryLaterRun) {
  Workload w(1);
  auto build = tce::build_ptg(w.plan, w.stores, tce::VariantConfig::v5(), 1);
  const auto victim = ptg::params_of(long_chain(w.plan).id, 0);
  auto& cls = build.pool.mutable_cls(build.ids.read_a);
  const auto old_enum = cls.enumerate_rank;
  cls.enumerate_rank = [old_enum, victim](int rank) {
    auto out = old_enum(rank);
    std::erase(out, victim);
    return out;
  };
  std::atomic<int> bodies{0};
  for (size_t ci = 0; ci < build.pool.num_classes(); ++ci) {
    auto& c = build.pool.mutable_cls(static_cast<int16_t>(ci));
    c.body = [&bodies, inner = c.body](ptg::TaskCtx& t) {
      ++bodies;
      inner(t);
    };
  }
  ::setenv("MP_VERIFY", "1", 1);
  struct Unset {
    ~Unset() { ::unsetenv("MP_VERIFY"); }
  } unset_on_exit;
  ptg::Options opts;
  opts.watchdog_timeout_ms = 500;
  w.cluster.run([&](vc::RankCtx& rctx) {
    ptg::Context ctx(rctx, build.pool, opts);
    for (int run = 0; run < 2; ++run) {
      try {
        ctx.run();
        ADD_FAILURE() << "run " << run << " executed a malformed graph";
      } catch (const StateError& e) {
        EXPECT_NE(std::string(e.what()).find("MP_VERIFY"), std::string::npos)
            << "run " << run << ": " << e.what();
      }
    }
  });
  EXPECT_EQ(bodies.load(), 0);
}

TEST(MpVerifyGate, HealthyExecutionPassesWithEnvSet) {
  Workload w(2);
  ::setenv("MP_VERIFY", "1", 1);
  tce::PtgExecOptions opts;
  opts.variant = tce::VariantConfig::v3();
  opts.workers_per_rank = 2;
  w.cluster.run([&](vc::RankCtx& rctx) {
    const auto res = tce::execute_ptg(rctx, w.plan, w.stores, opts);
    EXPECT_GT(res.tasks_executed, 0u);
  });
  ::unsetenv("MP_VERIFY");
}

}  // namespace
}  // namespace mp
