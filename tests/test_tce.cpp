// Tests for the mini-TCE: tile spaces, block tensors, the inspection phase,
// and — most importantly — the equivalence of every executor (serial
// reference, original NXTVAL-style, all five PTG variants) on the same
// ChainPlan: the paper's claim that all variants compute identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <latch>
#include <set>
#include <thread>
#include <unordered_map>

#include "cc/integration.h"
#include "ga/global_array.h"
#include "ptg/flat_graph.h"
#include "support/rng.h"
#include "tce/block_tensor.h"
#include "tce/imbalance.h"
#include "tce/inspector.h"
#include "tce/original_exec.h"
#include "tce/ptg_build.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/reference_exec.h"
#include "tce/template_cache.h"
#include "tce/tiles.h"
#include "tce/variants.h"
#include "vc/cluster.h"

namespace mp::tce {
namespace {

TileSpaceSpec small_spec() {
  TileSpaceSpec s;
  s.n_occ_alpha = 3;
  s.n_occ_beta = 3;
  s.n_virt_alpha = 5;
  s.n_virt_beta = 5;
  s.tile_size = 2;
  return s;
}

TEST(TileSpace, TileCountsAndSizes) {
  TileSpace space(small_spec());
  // occ: 3 alpha -> tiles of 2+1, 3 beta -> 2+1 => 4 tiles
  EXPECT_EQ(space.num_occ_tiles(), 4);
  // virt: 5 -> 2+2+1 per spin => 6 tiles
  EXPECT_EQ(space.num_virt_tiles(), 6);
  EXPECT_EQ(space.n_occ(), 6);
  EXPECT_EQ(space.n_virt(), 10);
  int total = 0;
  for (const Tile& t : space.occ_tiles()) total += t.size;
  EXPECT_EQ(total, 6);
}

TEST(TileSpace, SpinLabelsPartition) {
  TileSpace space(small_spec());
  int alpha_orbs = 0, beta_orbs = 0;
  for (const Tile& t : space.virt_tiles()) {
    (t.spin == Spin::kAlpha ? alpha_orbs : beta_orbs) += t.size;
  }
  EXPECT_EQ(alpha_orbs, 5);
  EXPECT_EQ(beta_orbs, 5);
}

TEST(TileSpace, DenseOffsetsAreDisjointAndOrdered) {
  TileSpace space(small_spec());
  std::set<int> seen;
  for (int t = 0; t < space.num_virt_tiles(); ++t) {
    const int off = space.virt_dense_offset(t);
    const int sz = space.virt_tiles()[static_cast<size_t>(t)].size;
    for (int k = 0; k < sz; ++k) {
      EXPECT_TRUE(seen.insert(off + k).second) << "overlap at " << off + k;
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), space.n_virt());
}

TEST(TileSpace, RejectsBadSpec) {
  TileSpaceSpec s = small_spec();
  s.tile_size = 0;
  EXPECT_THROW(TileSpace{s}, InvalidArgument);
}

TEST(BlockTensor, SpinGuardFiltersBlocks) {
  TileSpace space(small_spec());
  BlockTensor4 t(space, {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                         RangeKind::kOcc});
  const auto& vt = space.virt_tiles();
  const auto& ot = space.occ_tiles();
  for (const Tile& a : vt)
    for (const Tile& b : vt)
      for (const Tile& i : ot)
        for (const Tile& j : ot) {
          const bool expect =
              spin_conserving(a.spin, b.spin, i.spin, j.spin);
          EXPECT_EQ(t.has_block(a.index, b.index, i.index, j.index), expect);
        }
}

TEST(BlockTensor, TriangularRestrictionApplies) {
  TileSpace space(small_spec());
  BlockTensor4 r(space,
                 {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                  RangeKind::kOcc},
                 true, true);
  EXPECT_FALSE(r.has_block(1, 0, 0, 0));
  EXPECT_FALSE(r.has_block(0, 1, 1, 0));
  EXPECT_TRUE(r.has_block(0, 1, 0, 1));
}

TEST(BlockTensor, GaSizeMatchesSumOfBlocks) {
  TileSpace space(small_spec());
  BlockTensor4 t(space, {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                         RangeKind::kOcc});
  int64_t total = 0;
  for (const uint64_t k : t.index().keys()) {
    total += t.index().find(k)->size;
  }
  EXPECT_EQ(total, t.ga_size());
  EXPECT_GT(total, 0);
}

TEST(BlockTensor, ScatterGatherRoundTrip) {
  TileSpace space(small_spec());
  vc::Cluster cluster(2);
  BlockTensor4 t(space, {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                         RangeKind::kOcc});
  ga::GlobalArray gga(&cluster, t.ga_size());

  const auto nd = t.dense_dims();
  std::vector<double> dense(
      static_cast<size_t>(nd[0]) * nd[1] * nd[2] * nd[3]);
  Rng rng(3);
  for (auto& x : dense) x = rng.uniform(-1.0, 1.0);

  t.scatter_dense(dense, gga);
  const auto back = t.gather_dense(gga);
  // Existing blocks round-trip; spin-forbidden entries come back zero.
  size_t nonzero = 0;
  for (size_t i = 0; i < dense.size(); ++i) {
    if (back[i] != 0.0) {
      EXPECT_DOUBLE_EQ(back[i], dense[i]);
      ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 0u);
  EXPECT_LT(nonzero, dense.size());  // spin guard really filtered some
}

// --- inspection ---

struct PlanFixture {
  TileSpace space{small_spec()};
  BlockTensor4 v{space,
                 {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kVirt,
                  RangeKind::kVirt}};
  BlockTensor4 t{space,
                 {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                  RangeKind::kOcc}};
  BlockTensor4 r{space,
                 {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                  RangeKind::kOcc},
                 true,
                 true};
  ChainPlan plan = inspect_t2_7(space, {&v, &t, &r});
};

TEST(Inspector, ProducesChains) {
  PlanFixture fx;
  EXPECT_GT(fx.plan.chains.size(), 0u);
  const auto st = fx.plan.stats();
  EXPECT_EQ(st.num_chains, fx.plan.chains.size());
  EXPECT_GT(st.num_gemms, st.num_chains);  // chains have multiple GEMMs
  EXPECT_GT(st.total_flops, 0.0);
  EXPECT_FALSE(st.describe().empty());
}

TEST(Inspector, ChainIdsAreDense) {
  PlanFixture fx;
  for (size_t i = 0; i < fx.plan.chains.size(); ++i) {
    EXPECT_EQ(fx.plan.chains[i].id, static_cast<int>(i));
  }
}

TEST(Inspector, SortCountIsOneTwoOrFour) {
  PlanFixture fx;
  bool saw1 = false, saw2 = false, saw4 = false;
  for (const Chain& c : fx.plan.chains) {
    const size_t ns = c.sorts.size();
    EXPECT_TRUE(ns == 1 || ns == 2 || ns == 4) << "chain " << c.id;
    saw1 |= (ns == 1);
    saw2 |= (ns == 2);
    saw4 |= (ns == 4);
    // Guard structure: diagonal pairs <=> extra sorts.
    const auto& ot = c.out_tiles;
    const size_t expect = 1u + (ot[0] == ot[1] ? 1u : 0u) +
                          (ot[2] == ot[3] ? 1u : 0u) +
                          (ot[0] == ot[1] && ot[2] == ot[3] ? 1u : 0u);
    EXPECT_EQ(ns, expect);
  }
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw2);
  EXPECT_TRUE(saw4);
}

TEST(Inspector, ChainLengthsVaryWithSpin) {
  PlanFixture fx;
  const auto st = fx.plan.stats();
  EXPECT_LT(st.min_chain_len, st.max_chain_len)
      << "spin guards should make chains of different lengths";
}

TEST(Inspector, GemmDimsMatchBlocks) {
  PlanFixture fx;
  for (const Chain& c : fx.plan.chains) {
    for (const GemmOp& g : c.gemms) {
      EXPECT_EQ(g.m, c.m);
      EXPECT_EQ(g.n, c.n);
      EXPECT_GT(g.k, 0);
      EXPECT_DOUBLE_EQ(g.alpha, 0.5);
      // a block is m*k elements, b block is n*k elements
      EXPECT_EQ(fx.v.index().find(g.a_key)->size,
                static_cast<int64_t>(g.m) * g.k);
      EXPECT_EQ(fx.t.index().find(g.b_key)->size,
                static_cast<int64_t>(g.n) * g.k);
    }
    EXPECT_EQ(static_cast<int64_t>(c.c_dims[0] * c.c_dims[1]),
              static_cast<int64_t>(c.n));
    EXPECT_EQ(static_cast<int64_t>(c.c_dims[2] * c.c_dims[3]),
              static_cast<int64_t>(c.m));
  }
}

TEST(Variants, ConfigsAreConsistent) {
  for (const auto& v : VariantConfig::all()) {
    EXPECT_NO_THROW(v.validate());
  }
  EXPECT_EQ(VariantConfig::v1().segment_height, 0);
  EXPECT_EQ(VariantConfig::v5().segment_height, 1);
  EXPECT_FALSE(VariantConfig::v2().priorities);
  EXPECT_TRUE(VariantConfig::v3().parallel_writes);
  EXPECT_FALSE(VariantConfig::v5().parallel_sorts);
  VariantConfig bad = VariantConfig::v3();
  bad.parallel_sorts = false;  // parallel writes without parallel sorts
  EXPECT_THROW(bad.validate(), InvalidArgument);
}

TEST(Variants, PrioritySchemeMatchesPaperFormula) {
  const PriorityScheme p{100, 32};
  // max_L1 - L1 + offset*P
  EXPECT_DOUBLE_EQ(p.reader(10), 100 - 10 + 5 * 32);
  EXPECT_DOUBLE_EQ(p.gemm(10), 100 - 10 + 1 * 32);
  EXPECT_DOUBLE_EQ(p.other(10), 100 - 10);
  // Priorities decrease with chain number within a class.
  EXPECT_GT(p.gemm(3), p.gemm(4));
}

// --- executor equivalence (the paper's 14-digit agreement, claim C9) ---

void fill_random(ga::GlobalArray& g, Rng& rng) {
  std::vector<double> data(static_cast<size_t>(g.size()));
  for (auto& x : data) x = rng.uniform(-1.0, 1.0);
  g.put(0, g.size(), data.data());
}

std::vector<double> contents(const ga::GlobalArray& g) {
  std::vector<double> out(static_cast<size_t>(g.size()));
  g.get(0, g.size(), out.data());
  return out;
}

double max_abs_diff(const std::vector<double>& a,
                    const std::vector<double>& b) {
  double m = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a[i] - b[i]));
  }
  return m;
}

class ExecutorEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    fx_ = std::make_unique<PlanFixture>();
    cluster_ = std::make_unique<vc::Cluster>(3);
    v_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), fx_->v.ga_size());
    t_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), fx_->t.ga_size());
    r_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), fx_->r.ga_size());

    // Random (non-symmetric) data: executor equivalence must hold for any
    // inputs since all executors perform the same arithmetic.
    Rng rng(11);
    fill_random(*v_ga_, rng);
    fill_random(*t_ga_, rng);

    storage_.v = {&fx_->v, v_ga_.get()};
    storage_.t = {&fx_->t, t_ga_.get()};
    storage_.r = {&fx_->r, r_ga_.get()};

    reference_.assign(static_cast<size_t>(fx_->r.ga_size()), 0.0);
    execute_reference(fx_->plan, storage_);
    r_ga_->get(0, fx_->r.ga_size(), reference_.data());
  }

  double max_diff_vs_reference() {
    return max_abs_diff(contents(*r_ga_), reference_);
  }

  std::unique_ptr<PlanFixture> fx_;
  std::unique_ptr<vc::Cluster> cluster_;
  std::unique_ptr<ga::GlobalArray> v_ga_, t_ga_, r_ga_;
  T2_7Storage storage_;
  std::vector<double> reference_;
};

TEST_F(ExecutorEquivalence, ReferenceIsDeterministic) {
  r_ga_->zero();
  execute_reference(fx_->plan, storage_);
  EXPECT_EQ(max_diff_vs_reference(), 0.0);
}

TEST_F(ExecutorEquivalence, OriginalMatchesReference) {
  r_ga_->zero();
  ga::NxtVal nxtval(cluster_.get(), 1);
  OriginalExecOptions opts;
  opts.workers_per_rank = 2;
  cluster_->run([&](vc::RankCtx& rctx) {
    execute_original(rctx, fx_->plan, storage_, nxtval, opts);
  });
  EXPECT_LT(max_diff_vs_reference(), 1e-12);
}

class PtgVariantEquivalence
    : public ExecutorEquivalence,
      public ::testing::WithParamInterface<int> {};

TEST_P(PtgVariantEquivalence, MatchesReference) {
  const auto variant = VariantConfig::all()[static_cast<size_t>(GetParam())];
  r_ga_->zero();
  PtgExecOptions opts;
  opts.variant = variant;
  opts.workers_per_rank = 2;
  uint64_t total_tasks = 0, total_expected = 0;
  std::mutex mu;
  cluster_->run([&](vc::RankCtx& rctx) {
    const auto res = execute_ptg(rctx, fx_->plan, storage_, opts);
    std::lock_guard lock(mu);
    total_tasks += res.tasks_executed;
    total_expected += res.expected_tasks;
  });
  EXPECT_EQ(total_tasks, total_expected);
  EXPECT_LT(max_diff_vs_reference(), 1e-12)
      << "variant " << variant.name << " diverged from reference";
}

INSTANTIATE_TEST_SUITE_P(AllVariants, PtgVariantEquivalence,
                         ::testing::Range(0, 5), [](const auto& info) {
                           return VariantConfig::all()[static_cast<size_t>(
                                                           info.param)]
                               .name;
                         });

TEST_F(ExecutorEquivalence, PtgTaskCountsMatchVariantStructure) {
  // For v5: tasks = 2*gemms (reads) + gemms + (gemms - 1 per chain with
  // len>1 reduces) + 1 sort + 1 write per chain.
  const auto st = fx_->plan.stats();
  uint64_t expect = 3 * st.num_gemms + st.num_chains * 2;
  for (const Chain& c : fx_->plan.chains) {
    if (c.gemms.size() > 1) expect += c.gemms.size() - 1;
  }
  r_ga_->zero();
  PtgExecOptions opts;
  opts.variant = VariantConfig::v5();
  uint64_t total_tasks = 0;
  std::mutex mu;
  cluster_->run([&](vc::RankCtx& rctx) {
    const auto res = execute_ptg(rctx, fx_->plan, storage_, opts);
    std::lock_guard lock(mu);
    total_tasks += res.tasks_executed;
  });
  EXPECT_EQ(total_tasks, expect);
}

TEST_F(ExecutorEquivalence, TracingProducesEventsForAllClasses) {
  r_ga_->zero();
  PtgExecOptions opts;
  opts.variant = VariantConfig::v4();
  opts.enable_tracing = true;
  std::set<int16_t> classes_seen;
  std::mutex mu;
  cluster_->run([&](vc::RankCtx& rctx) {
    const auto res = execute_ptg(rctx, fx_->plan, storage_, opts);
    std::lock_guard lock(mu);
    for (const auto& e : res.trace.events()) {
      if (!e.is_comm) classes_seen.insert(e.cls);
    }
  });
  // v4: READ_A, READ_B, GEMM, REDUCE, SORT_i, WRITE_C = 6 classes.
  EXPECT_EQ(classes_seen.size(), 6u);
}

// Priorities live in the graph, not in a runtime switch: build_ptg gives
// every instance the paper's PriorityScheme value under v4 and leaves v2's
// classes without a priority function, so the runtime schedules all of
// them at 0 (Context::build_task).
TEST_F(ExecutorEquivalence, BuildPtgPrioritiesFollowTheVariant) {
  const int nranks = cluster_->nranks();
  const PriorityScheme scheme{static_cast<int>(fx_->plan.chains.size()),
                              nranks};
  const StoreList stores = storage_.stores();  // the pool captures it
  for (const auto& var : {VariantConfig::v4(), VariantConfig::v2()}) {
    const PtgBuild b = build_ptg(fx_->plan, stores, var, nranks);
    size_t instances = 0;
    for (size_t ci = 0; ci < b.pool.num_classes(); ++ci) {
      const auto id = static_cast<int16_t>(ci);
      const ptg::TaskClass& c = b.pool.cls(id);
      const bool reader = id == b.ids.read_a || id == b.ids.read_b;
      const bool gemm = id == b.ids.gemm;
      EXPECT_EQ(static_cast<bool>(c.priority), var.priorities)
          << var.name << " " << c.name;
      for (int r = 0; r < nranks; ++r) {
        for (const ptg::Params& p : c.enumerate_rank(r)) {
          ++instances;
          const double got = c.priority ? c.priority(p) : 0.0;
          const double want = !var.priorities ? 0.0
                              : reader        ? scheme.reader(p[0])
                              : gemm          ? scheme.gemm(p[0])
                                              : scheme.other(p[0]);
          ASSERT_EQ(got, want) << var.name << " " << c.name << " chain "
                               << p[0];
        }
      }
    }
    EXPECT_GT(instances, fx_->plan.chains.size()) << var.name;
  }
}

// --- the v1-v5 graphs, pinned ---

/// FNV-1a over every materialized task of `pool` in enumeration order
/// (rank, class, enumerate_rank order): its key, owner, placement, input
/// count and priority, then its out-edges (consumer key, input slot, output
/// slot) in sorted order.
uint64_t graph_fingerprint(const ptg::Taskpool& pool, int nranks) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<uint64_t>(v) >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  };
  std::vector<ptg::OutRoute> routes;
  for (int rank = 0; rank < nranks; ++rank) {
    for (size_t ci = 0; ci < pool.num_classes(); ++ci) {
      const ptg::TaskClass& c = pool.cls(static_cast<int16_t>(ci));
      for (const ptg::Params& p : c.enumerate_rank(rank)) {
        mix(c.cls);
        for (const int32_t x : p) mix(x);
        mix(rank);
        mix(c.rank_of(p));
        mix(c.num_task_inputs(p));
        mix(std::bit_cast<int64_t>(c.priority ? c.priority(p) : 0.0));
        routes.clear();
        if (c.route_outputs) c.route_outputs(p, routes);
        std::vector<std::array<int64_t, 6>> edges;
        for (const ptg::OutRoute& r : routes) {
          edges.push_back({r.consumer.cls, r.consumer.p[0], r.consumer.p[1],
                           r.consumer.p[2], r.in_slot, r.out_slot});
        }
        std::sort(edges.begin(), edges.end());
        mix(static_cast<int64_t>(edges.size()));
        for (const auto& e : edges) {
          for (const int64_t x : e) mix(x);
        }
      }
    }
  }
  return h;
}

// build_ptg's graphs for v1-v5 at 3 ranks, recorded before the chain
// segmentation became one variant field: every key, owner, input count,
// priority and edge must stay as it was, because these graphs are the
// paper's five variants. The skewed plan has single-GEMM
// chains, where v1 still gives the chain a DFILL.
TEST(GoldenGraphs, V1ToV5AreUnchangedOnThreeRanks) {
  PlanFixture fx;
  BlockTensor4 w(fx.space, {RangeKind::kOcc, RangeKind::kOcc,
                            RangeKind::kOcc, RangeKind::kOcc});
  vc::Cluster cluster(3);
  ga::GlobalArray v_ga(&cluster, fx.v.ga_size());
  ga::GlobalArray t_ga(&cluster, fx.t.ga_size());
  ga::GlobalArray r_ga(&cluster, fx.r.ga_size());
  ga::GlobalArray w_ga(&cluster, w.ga_size());
  const StoreList stores = {{&fx.v, &v_ga}, {&fx.t, &t_ga}, {&fx.r, &r_ga}};
  StoreList fused_stores = stores;
  fused_stores.push_back({&w, &w_ga});

  ImbalanceSpec imb;
  imb.nranks = 3;
  imb.zipf_alpha = 2.0;
  const ChainPlan skewed = make_skewed_plan(fx.plan, imb);
  size_t single = 0;
  for (const Chain& ch : skewed.chains) single += ch.gemms.size() == 1;
  ASSERT_GT(single, 0u) << "the skewed plan must have single-GEMM chains";

  const ChainPlan fused = fuse_plans(
      fx.plan, inspect_hh_ladder(fx.space, {&w, &fx.t, &fx.r}), {3, 1, 2});
  struct Case {
    const char* name;
    const ChainPlan* plan;
    const StoreList* stores;
    std::array<uint64_t, 5> want;  // v1..v5
  };
  const Case cases[] = {
      {"t2_7", &fx.plan, &stores,
       {14574843605251550350u, 8662954164709867515u,
        3039960467789910905u, 2631291854651463800u,
        445416466574548125u}},
      {"fused", &fused, &fused_stores,
       {16419672850835072129u, 979526713322179925u,
        9042230535158497970u, 4721837468346792437u,
        13525152605829888494u}},
      {"skewed", &skewed, &stores,
       {8997175566989249929u, 17777078759587593853u,
        1377044409537108304u, 5579293912539401937u,
        12444996318390886412u}},
  };
  const auto variants = VariantConfig::all();
  for (const Case& c : cases) {
    for (size_t i = 0; i < variants.size(); ++i) {
      const PtgBuild b = build_ptg(*c.plan, *c.stores, variants[i], 3);
      EXPECT_EQ(graph_fingerprint(b.pool, 3), c.want[i])
          << c.name << " " << variants[i].name;
    }
  }
}

// --- the compiled graph is the description, evaluated once ---

/// Every task of `g` against the TaskClass functions of `pool`: ids in
/// (rank, class, enumerate_rank) order, key, owner, input and output
/// counts, priority, the startup lists, and the out-edges (consumer id,
/// input slot, output slot) in route_outputs() order, with the last edge
/// of each output marked as its last use.
void expect_graph_is_the_description(const ptg::Taskpool& pool,
                                     const ptg::FlatGraph& g, int nranks,
                                     const std::string& where) {
  ASSERT_TRUE(g.placeable()) << where;
  ASSERT_EQ(g.nranks(), nranks) << where;
  std::unordered_map<ptg::TaskKey, int32_t, ptg::TaskKeyHash> ids;
  for (int32_t id = 0; id < g.size(); ++id) ids.emplace(g.key(id), id);
  ASSERT_EQ(ids.size(), static_cast<size_t>(g.size())) << where;
  int32_t id = 0;
  size_t edges = 0;
  std::vector<ptg::OutRoute> routes;
  for (int r = 0; r < nranks; ++r) {
    ASSERT_EQ(g.rank_begin(r), id) << where;
    std::vector<int32_t> startup;
    for (size_t ci = 0; ci < pool.num_classes(); ++ci) {
      const ptg::TaskClass& c = pool.cls(static_cast<int16_t>(ci));
      for (const ptg::Params& p : c.enumerate_rank(r)) {
        ASSERT_LT(id, g.size()) << where;
        const std::string at = where + " " + g.name_of(id);
        ASSERT_EQ(g.key(id), (ptg::TaskKey{c.cls, p})) << at;
        EXPECT_EQ(g.owner(id), r) << at;
        EXPECT_EQ(g.owner(id), c.rank_of(p)) << at;
        EXPECT_EQ(g.num_inputs(id), c.num_task_inputs(p)) << at;
        EXPECT_EQ(g.num_outputs(id), c.num_outputs ? c.num_outputs(p) : -1)
            << at;
        EXPECT_EQ(std::bit_cast<uint64_t>(g.task_priority(id)),
                  std::bit_cast<uint64_t>(c.priority ? c.priority(p) : 0.0))
            << at;
        if (c.num_task_inputs(p) == 0) startup.push_back(id);
        routes.clear();
        if (c.route_outputs) c.route_outputs(p, routes);
        const auto succ = g.successors(id);
        ASSERT_EQ(succ.size(), routes.size()) << at;
        std::vector<std::array<int, 3>> want, got;
        for (size_t e = 0; e < routes.size(); ++e) {
          const ptg::OutRoute& rt = routes[e];
          want.push_back({ids.at(rt.consumer), rt.in_slot, rt.out_slot});
          got.push_back({succ[e].consumer, succ[e].in_slot, succ[e].out_slot});
          const bool used_later = std::any_of(
              routes.begin() + static_cast<std::ptrdiff_t>(e) + 1,
              routes.end(), [&](const ptg::OutRoute& later) {
                return later.out_slot == rt.out_slot;
              });
          EXPECT_EQ(succ[e].last_use, !used_later) << at << " edge " << e;
        }
        EXPECT_EQ(got, want) << at;
        std::sort(got.begin(), got.end());
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << at;
        edges += routes.size();
        ++id;
      }
    }
    EXPECT_EQ(g.rank_end(r), id) << where;
    const auto su = g.startup(r);
    EXPECT_EQ(std::vector<int32_t>(su.begin(), su.end()), startup) << where;
  }
  EXPECT_EQ(id, g.size()) << where;
  EXPECT_EQ(g.num_edges(), edges) << where;
}

// The compile evaluates build_ptg's description exactly: v1-v5 and v5 with
// chain segments of 2 and 3 GEMMs, on t2_7, the hh ladder, the fused plan
// and a skewed plan, at 1, 2 and 3 ranks.
TEST(FlatGraph, MatchesTheDescription) {
  PlanFixture fx;
  BlockTensor4 w(fx.space, {RangeKind::kOcc, RangeKind::kOcc,
                            RangeKind::kOcc, RangeKind::kOcc});
  const ChainPlan hh = inspect_hh_ladder(fx.space, {&w, &fx.t, &fx.r});
  const ChainPlan fused = fuse_plans(fx.plan, hh, {3, 1, 2});
  ImbalanceSpec imb;
  imb.nranks = 3;
  imb.zipf_alpha = 2.0;
  const ChainPlan skewed = make_skewed_plan(fx.plan, imb);
  std::vector<VariantConfig> variants = VariantConfig::all();
  for (const int h : {2, 3}) {
    VariantConfig v = VariantConfig::v5();
    v.segment_height = h;
    variants.push_back(v);
  }
  const std::pair<const char*, const ChainPlan*> plans[] = {
      {"t2_7", &fx.plan}, {"hh_ladder", &hh}, {"fused", &fused},
      {"skewed", &skewed}};
  for (const auto& [name, plan] : plans) {
    for (const VariantConfig& var : variants) {
      for (const int nranks : {1, 2, 3}) {
        const PtgBuild b = build_ptg(*plan, var, nranks);
        const std::string where = std::string(name) + " " +
                                  variant_signature(var) + " nranks=" +
                                  std::to_string(nranks);
        expect_graph_is_the_description(
            b.pool, ptg::FlatGraph::compile(b.pool, nranks), nranks, where);
      }
    }
  }
}

// One worker runs ready tasks in strict (priority, sequence) order, so the
// execution order of the small t2_7 v5 graph on one rank is a function of
// the order in which tasks become ready. Recorded from the trace of the
// symbolic runtime, before tasks were compiled: the startup batch and the
// per-task successor batches keep that order.
TEST(FlatGraph, OneWorkerRunsTheRecordedSchedule) {
  PlanFixture fx;
  vc::Cluster cluster(1);
  ga::GlobalArray v_ga(&cluster, fx.v.ga_size());
  ga::GlobalArray t_ga(&cluster, fx.t.ga_size());
  ga::GlobalArray r_ga(&cluster, fx.r.ga_size());
  const StoreList stores = {{&fx.v, &v_ga}, {&fx.t, &t_ga}, {&fx.r, &r_ga}};
  PtgExecOptions opts;
  opts.variant = VariantConfig::v5();
  opts.workers_per_rank = 1;
  opts.enable_tracing = true;
  cluster.run([&](vc::RankCtx& rctx) {
    const PtgExecResult res = execute_ptg(rctx, fx.plan, stores, opts);
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](int64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (static_cast<uint64_t>(v) >> (8 * i)) & 0xffULL;
        h *= 0x100000001b3ULL;
      }
    };
    size_t tasks = 0;
    for (const ptg::TraceEvent& e : res.trace.events()) {
      if (e.is_comm) continue;
      ++tasks;
      mix(e.cls);
      for (const int32_t x : e.p) mix(x);
    }
    EXPECT_EQ(tasks, 3960u);
    EXPECT_EQ(h, 14184915423703483685u);
  });
}

// A template whose graph the compile cannot place (two GEMMs of a chain
// claim the same position, so the GEMM instance is enumerated twice:
// MPV002) is refused with InvalidArgument and never cached, also without
// MP_VERIFY.
TEST(FlatGraph, TemplateCacheRefusesWhatTheCompileCannotPlace) {
  PlanFixture fx;
  ChainPlan bad = fx.plan;
  for (Chain& ch : bad.chains) {
    if (ch.gemms.size() >= 2) {
      ch.gemms[1].l2 = ch.gemms[0].l2;
      break;
    }
  }
  vc::Cluster cluster(2);
  ga::GlobalArray v_ga(&cluster, fx.v.ga_size());
  ga::GlobalArray t_ga(&cluster, fx.t.ga_size());
  ga::GlobalArray r_ga(&cluster, fx.r.ga_size());
  const StoreList stores = {{&fx.v, &v_ga}, {&fx.t, &t_ga}, {&fx.r, &r_ga}};
  TemplateKey key;
  key.subroutine = "t2_7";
  key.tile_fingerprint = fingerprint_tile_space(fx.space.spec());
  key.variant = variant_signature(VariantConfig::v5());
  key.nranks = cluster.nranks();
  TemplateCache cache;
  try {
    cache.get_or_build(key, bad, stores, VariantConfig::v5());
    ADD_FAILURE() << "an unplaceable template was handed out";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("MPV002"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(cache.size(), 0u);
}

// --- chain segments of h GEMMs run on the runtime ---

double max_abs(const std::vector<double>& a) {
  double m = 0.0;
  for (const double x : a) m = std::max(m, std::fabs(x));
  return m;
}

/// t2_7, the hh ladder or the fused plan under v5 with chain segments of
/// h GEMMs (VariantConfig::segment_height), on three ranks.
class SegmentHeights
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  void SetUp() override {
    variant_ = VariantConfig::v5();
    variant_.segment_height = std::get<1>(GetParam());
    const std::string& kind = std::get<0>(GetParam());
    const ChainPlan hh = inspect_hh_ladder(fx_.space, {&w_, &fx_.t, &fx_.r});
    if (kind == "t2_7") {
      plan_ = fx_.plan;
      stores_ = {{&fx_.v, &v_ga_}, {&fx_.t, &t_ga_}, {&fx_.r, &r_ga_}};
    } else if (kind == "hh_ladder") {
      plan_ = hh;
      stores_ = {{&w_, &w_ga_}, {&fx_.t, &t_ga_}, {&fx_.r, &r_ga_}};
    } else {
      plan_ = fuse_plans(fx_.plan, hh, {3, 1, 2});
      stores_ = {{&fx_.v, &v_ga_},
                 {&fx_.t, &t_ga_},
                 {&fx_.r, &r_ga_},
                 {&w_, &w_ga_}};
    }
  }

  /// Relative distance of the result array from the serial reference on
  /// the current operands.
  double error_vs_reference() {
    StoreList ref = stores_;
    ref[2].ga = &ref_ga_;
    ref_ga_.zero();
    execute_reference(plan_, ref);
    const std::vector<double> want = contents(ref_ga_);
    return max_abs_diff(contents(r_ga_), want) / max_abs(want);
  }

  void fill_operands(Rng& rng) {
    for (ga::GlobalArray* g : {&v_ga_, &t_ga_, &w_ga_}) fill_random(*g, rng);
    r_ga_.zero();
  }

  PlanFixture fx_;
  BlockTensor4 w_{fx_.space,
                  {RangeKind::kOcc, RangeKind::kOcc, RangeKind::kOcc,
                   RangeKind::kOcc}};
  vc::Cluster cluster_{3};
  ga::GlobalArray v_ga_{&cluster_, fx_.v.ga_size()};
  ga::GlobalArray t_ga_{&cluster_, fx_.t.ga_size()};
  ga::GlobalArray w_ga_{&cluster_, w_.ga_size()};
  ga::GlobalArray r_ga_{&cluster_, fx_.r.ga_size()};
  ga::GlobalArray ref_ga_{&cluster_, fx_.r.ga_size()};
  VariantConfig variant_;
  ChainPlan plan_;
  StoreList stores_;
};

TEST_P(SegmentHeights, ExecutePtgMatchesReference) {
  Rng rng(41);
  fill_operands(rng);
  PtgExecOptions opts;
  opts.variant = variant_;
  opts.workers_per_rank = 2;
  cluster_.run([&](vc::RankCtx& rctx) {
    const auto res = execute_ptg(rctx, plan_, stores_, opts);
    EXPECT_EQ(res.tasks_executed, res.expected_tasks);
  });
  EXPECT_LT(error_vs_reference(), 1e-12);
}

TEST_P(SegmentHeights, SessionSubmissionsMatchReference) {
  TemplateKey key;
  key.subroutine = std::get<0>(GetParam());
  key.tile_fingerprint = fingerprint_tile_space(fx_.space.spec());
  key.variant = variant_signature(variant_);
  key.nranks = cluster_.nranks();
  PtgExecOptions opts;
  opts.variant = variant_;
  opts.workers_per_rank = 2;
  PtgSession session(
      cluster_, std::make_shared<PtgTemplate>(key, plan_, stores_, variant_),
      opts);
  Rng rng(43);
  for (int round = 0; round < 2; ++round) {
    fill_operands(rng);
    session.submit(stores_);
    EXPECT_LT(error_vs_reference(), 1e-12) << "submission " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadsAndHeights, SegmentHeights,
    ::testing::Combine(::testing::Values("t2_7", "hh_ladder", "fused"),
                       ::testing::Values(2, 3, 4)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_h" +
             std::to_string(std::get<1>(info.param));
    });

// --- the template cache publishes only verified templates ---

// Two builders race one key whose graph fails mp-verify (two GEMMs of a
// chain claim the same position, so the GEMM instance is enumerated twice:
// MPV002). Whichever builds first must throw without publishing, so the
// other builds and throws too: no call may hand out the template.
TEST(TemplateCacheVerify, RacingBuildersNeverGetAFailedTemplate) {
  PlanFixture fx;
  ChainPlan bad = fx.plan;
  for (Chain& ch : bad.chains) {
    if (ch.gemms.size() >= 2) {
      ch.gemms[1].l2 = ch.gemms[0].l2;
      break;
    }
  }
  vc::Cluster cluster(2);
  ga::GlobalArray v_ga(&cluster, fx.v.ga_size());
  ga::GlobalArray t_ga(&cluster, fx.t.ga_size());
  ga::GlobalArray r_ga(&cluster, fx.r.ga_size());
  const StoreList stores = {{&fx.v, &v_ga}, {&fx.t, &t_ga}, {&fx.r, &r_ga}};
  TemplateKey key;
  key.subroutine = "t2_7";
  key.tile_fingerprint = fingerprint_tile_space(fx.space.spec());
  key.variant = variant_signature(VariantConfig::v5());
  key.nranks = cluster.nranks();

  ::setenv("MP_VERIFY", "1", 1);
  struct Unset {
    ~Unset() { ::unsetenv("MP_VERIFY"); }
  } unset_on_exit;
  constexpr int kRepetitions = 200;
  int handed_out = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    TemplateCache cache;
    std::latch start(2);
    std::atomic<int> got{0}, refused{0};
    auto race = [&] {
      start.arrive_and_wait();
      try {
        if (cache.get_or_build(key, bad, stores, VariantConfig::v5())) ++got;
      } catch (const StateError&) {
        ++refused;
      }
    };
    std::thread a(race), b(race);
    a.join();
    b.join();
    handed_out += got.load();
    EXPECT_EQ(refused.load() + got.load(), 2);
    EXPECT_EQ(cache.size(), 0u);
  }
  EXPECT_EQ(handed_out, 0) << "of " << kRepetitions << " races";
}

// --- READ tasks hand out views of the operand blocks ---

// A plan that accumulates into an array it also reads would have its GEMMs
// read WRITE_C's partial sums through the views, so both places a StoreList
// is bound to a plan refuse it. The template's result array is as wide as
// t's so the aliased rebind passes the extent check and reaches this one.
TEST_F(ExecutorEquivalence, BindingRejectsAResultArrayThatIsAlsoAnOperand) {
  StoreList aliased = storage_.stores();
  aliased[2].ga = t_ga_.get();
  EXPECT_THROW(build_ptg(fx_->plan, aliased, VariantConfig::v5(), 3),
               InvalidArgument);

  ga::GlobalArray wide(cluster_.get(), fx_->t.ga_size());
  StoreList stores = storage_.stores();
  stores[2].ga = &wide;
  TemplateKey key;
  key.subroutine = "t2_7";
  key.tile_fingerprint = fingerprint_tile_space(fx_->space.spec());
  key.variant = variant_signature(VariantConfig::v5());
  key.nranks = 3;
  PtgTemplate tpl(key, fx_->plan, stores, VariantConfig::v5());
  EXPECT_THROW(tpl.rebind(aliased), InvalidArgument);
  EXPECT_EQ(tpl.stores()[2].ga, &wide);  // the refused binding bound nothing
  EXPECT_EQ(tpl.rebinds(), 0u);
}

/// t2_7 (v, t -> r) or the fused plan (t2_7 plus the hh ladder, w, t -> r)
/// under one variant on three ranks, driven through one PtgSession so the
/// second submission reuses the cached graph and its READ tasks.
class ReadViews : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  void SetUp() override {
    variant_ =
        VariantConfig::all()[static_cast<size_t>(std::get<1>(GetParam()))];
    plan_ = fx_.plan;
    stores_ = {{&fx_.v, &v_ga_}, {&fx_.t, &t_ga_}, {&fx_.r, &r_ga_}};
    if (std::get<0>(GetParam())) {
      plan_ = fuse_plans(
          plan_, inspect_hh_ladder(fx_.space, {&w_, &fx_.t, &fx_.r}),
          {3, 1, 2});
      stores_.push_back({&w_, &w_ga_});
    }
  }

  uint64_t operand_gets() const {
    return v_ga_.ops_get() + t_ga_.ops_get() + w_ga_.ops_get();
  }

  std::vector<double> reference() {
    StoreList stores = stores_;
    stores[2].ga = &ref_ga_;
    ref_ga_.zero();
    execute_reference(plan_, stores);
    return contents(ref_ga_);
  }

  PlanFixture fx_;
  BlockTensor4 w_{fx_.space,
                  {RangeKind::kOcc, RangeKind::kOcc, RangeKind::kOcc,
                   RangeKind::kOcc}};
  vc::Cluster cluster_{3};
  ga::GlobalArray v_ga_{&cluster_, fx_.v.ga_size()};
  ga::GlobalArray t_ga_{&cluster_, fx_.t.ga_size()};
  ga::GlobalArray w_ga_{&cluster_, w_.ga_size()};
  ga::GlobalArray r_ga_{&cluster_, fx_.r.ga_size()};
  ga::GlobalArray ref_ga_{&cluster_, fx_.r.ga_size()};
  VariantConfig variant_;
  ChainPlan plan_;
  StoreList stores_;
};

TEST_P(ReadViews, SubmissionsReadTheCurrentOperandsWithoutCopies) {
  TemplateKey key;
  key.subroutine = std::get<0>(GetParam()) ? "fused" : "t2_7";
  key.tile_fingerprint = fingerprint_tile_space(fx_.space.spec());
  key.variant = variant_signature(variant_);
  key.nranks = cluster_.nranks();
  PtgExecOptions opts;
  opts.variant = variant_;
  opts.workers_per_rank = 2;
  PtgSession session(
      cluster_, std::make_shared<PtgTemplate>(key, plan_, stores_, variant_),
      opts);
  Rng rng(29);
  std::vector<double> previous;
  for (int round = 0; round < 2; ++round) {
    // Round 1 puts new operand contents into the same arrays.
    for (ga::GlobalArray* g : {&v_ga_, &t_ga_, &w_ga_}) fill_random(*g, rng);
    r_ga_.zero();
    const uint64_t gets = operand_gets();
    session.submit(stores_);
    EXPECT_EQ(operand_gets(), gets) << "round " << round;
    if (round == 0) {
      EXPECT_EQ(gets, 0u);
    }
    const std::vector<double> got = contents(r_ga_);
    EXPECT_LT(max_abs_diff(got, reference()), 1e-12) << "round " << round;
    EXPECT_NE(got, previous) << "round " << round;
    previous = got;
  }
}

INSTANTIATE_TEST_SUITE_P(
    T2_7AndFused, ReadViews,
    ::testing::Combine(::testing::Bool(), ::testing::Range(0, 5)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "fused_" : "t2_7_") +
             VariantConfig::all()[static_cast<size_t>(std::get<1>(info.param))]
                 .name;
    });

}  // namespace
}  // namespace mp::tce
