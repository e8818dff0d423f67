// Tests for the discrete-event cluster simulator: graph construction per
// variant, owner mapping consistency with GlobalArray, engine invariants
// (determinism, conservation, monotonicity in resources), the original-code
// simulator, and the qualitative behaviours the paper's traces show
// (priorities shrink the startup bubble; the original never overlaps
// communication within a process).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/graph_verify.h"
#include "ga/global_array.h"
#include "sim/original_sim.h"
#include "sim/presets.h"
#include "sim/ptg_sim.h"
#include "sim/task_graph.h"
#include "tce/ptg_build.h"
#include "vc/cluster.h"

namespace mp::sim {
namespace {

PresetPlan tiny() { return make_preset("tiny"); }

TEST(Presets, AllNamedPresetsBuild) {
  for (const auto& name : preset_names()) {
    if (name == "beta_carotene_full") continue;  // large; covered separately
    const auto p = make_preset(name);
    EXPECT_GT(p.plan.chains.size(), 0u) << name;
    EXPECT_FALSE(p.description.empty());
  }
}

TEST(Presets, UnknownNameThrows) {
  EXPECT_THROW(make_preset("nope"), InvalidArgument);
}

TEST(BlockOwner, MatchesGlobalArrayFormula) {
  vc::Cluster cluster(5);
  ga::GlobalArray g(&cluster, 1003);
  for (int64_t i = 0; i < 1003; i += 13) {
    EXPECT_EQ(ga::block_owner(i, 1003, 5), g.owner_of(i));
  }
}

// --- graph construction ---

size_t count_kind(const SimGraph& g, SimTaskKind k) {
  size_t n = 0;
  for (const auto& t : g.tasks) n += (t.kind == k);
  return n;
}

TEST(TaskGraph, V5Structure) {
  const auto p = tiny();
  GraphOptions opts;
  opts.variant = tce::VariantConfig::v5();
  opts.nodes = 4;
  const auto g = build_graph(p.plan, opts);

  const auto st = p.plan.stats();
  EXPECT_EQ(count_kind(g, SimTaskKind::kReadA), st.num_gemms);
  EXPECT_EQ(count_kind(g, SimTaskKind::kReadB), st.num_gemms);
  EXPECT_EQ(count_kind(g, SimTaskKind::kGemm), st.num_gemms);
  EXPECT_EQ(count_kind(g, SimTaskKind::kSort), st.num_chains);   // serial sort
  EXPECT_EQ(count_kind(g, SimTaskKind::kWrite), st.num_chains);  // single write
  EXPECT_EQ(count_kind(g, SimTaskKind::kDfill), 0u);
  size_t reduces = 0;
  for (const auto& c : p.plan.chains) {
    if (c.gemms.size() > 1) reduces += c.gemms.size() - 1;
  }
  EXPECT_EQ(count_kind(g, SimTaskKind::kReduce), reduces);
}

TEST(TaskGraph, V3HasParallelWrites) {
  const auto p = tiny();
  GraphOptions opts;
  opts.variant = tce::VariantConfig::v3();
  opts.nodes = 4;
  const auto g = build_graph(p.plan, opts);
  const auto st = p.plan.stats();
  EXPECT_EQ(count_kind(g, SimTaskKind::kSort), st.num_sorts);
  EXPECT_EQ(count_kind(g, SimTaskKind::kWrite), st.num_sorts);
}

TEST(TaskGraph, V1IsSerialChainWithDfill) {
  const auto p = tiny();
  GraphOptions opts;
  opts.variant = tce::VariantConfig::v1();
  opts.nodes = 4;
  const auto g = build_graph(p.plan, opts);
  EXPECT_EQ(count_kind(g, SimTaskKind::kReduce), 0u);  // one segment
  // The runtime's v1: every chain, single-GEMM ones too, starts at a DFILL.
  EXPECT_EQ(count_kind(g, SimTaskKind::kDfill), p.plan.chains.size());
}

TEST(TaskGraph, EdgeCountMatchesDependencyCount) {
  const auto p = tiny();
  for (const auto& v : tce::VariantConfig::all()) {
    GraphOptions opts;
    opts.variant = v;
    opts.nodes = 3;
    const auto g = build_graph(p.plan, opts);
    size_t total_deps = 0;
    for (const auto& t : g.tasks) total_deps += static_cast<size_t>(t.ndeps);
    EXPECT_EQ(g.num_edges(), total_deps) << v.name;
  }
}

TEST(TaskGraph, SegmentationAblation) {
  const auto p = tiny();
  GraphOptions opts;
  opts.variant = tce::VariantConfig::v5();
  opts.nodes = 2;
  opts.variant.segment_height = 2;
  const auto g = build_graph(p.plan, opts);
  // Segments of height 2: chains of length L produce ceil(L/2) segments,
  // each headed by a DFILL.
  size_t expect_reduce = 0, expect_dfill = 0;
  for (const auto& c : p.plan.chains) {
    const size_t L = c.gemms.size();
    const size_t segs = (L + 1) / 2;
    if (segs > 1) expect_reduce += segs - 1;
    expect_dfill += segs;
  }
  EXPECT_EQ(count_kind(g, SimTaskKind::kReduce), expect_reduce);
  EXPECT_EQ(count_kind(g, SimTaskKind::kDfill), expect_dfill);
}

TEST(TaskGraph, PrioritiesFollowPaperFormula) {
  const auto p = tiny();
  GraphOptions opts;
  opts.variant = tce::VariantConfig::v4();
  opts.nodes = 8;
  const auto g = build_graph(p.plan, opts);
  const int max_l1 = static_cast<int>(p.plan.chains.size());
  for (const auto& t : g.tasks) {
    if (t.kind == SimTaskKind::kReadA || t.kind == SimTaskKind::kReadB) {
      EXPECT_DOUBLE_EQ(t.priority, max_l1 - t.l1 + 5 * 8);
    } else if (t.kind == SimTaskKind::kGemm) {
      EXPECT_DOUBLE_EQ(t.priority, max_l1 - t.l1 + 1 * 8);
    } else {
      EXPECT_DOUBLE_EQ(t.priority, max_l1 - t.l1);
    }
  }
}

// The simulator takes its graph from build_ptg: at the default offsets
// every SimTask carries its runtime class's priority and the kind of that
// class, for the paper's variants and for chain segments of h GEMMs.
TEST(TaskGraph, TasksCarryTheirRuntimeClassesPriorityAndKind) {
  const auto t = tiny();
  tce::BlockTensor4 w(*t.space, {tce::RangeKind::kOcc, tce::RangeKind::kOcc,
                                 tce::RangeKind::kOcc, tce::RangeKind::kOcc});
  const tce::ChainPlan fused = tce::fuse_plans(
      t.plan, tce::inspect_hh_ladder(*t.space, {&w, t.t.get(), t.r.get()}),
      {3, 1, 2});
  const auto skewed = make_preset("skewed_tile");
  std::vector<tce::VariantConfig> variants = tce::VariantConfig::all();
  for (const int h : {2, 4}) {
    tce::VariantConfig v = tce::VariantConfig::v5();
    v.segment_height = h;
    variants.push_back(v);
  }
  for (const auto& [name, plan] :
       {std::pair{"tiny", &t.plan}, std::pair{"fused", &fused},
        std::pair{"skewed_tile", &skewed.plan}}) {
    for (const int nodes : {3, 8}) {
      for (const auto& v : variants) {
        GraphOptions opts;
        opts.variant = v;
        opts.nodes = nodes;
        const auto g = build_graph(*plan, opts);
        const auto b = tce::build_ptg(*plan, v, nodes);
        const auto m = ptg::FlatGraph::compile(b.pool, nodes);
        ASSERT_EQ(g.tasks.size(), static_cast<size_t>(m.size()));
        for (size_t i = 0; i < g.tasks.size(); ++i) {
          const SimTask& st = g.tasks[i];
          const auto id = static_cast<int32_t>(i);
          const ptg::TaskClass& c = b.pool.cls(m.key(id).cls);
          const std::string where = std::string(name) + " " + v.name +
                                    " h=" +
                                    std::to_string(v.segment_height) +
                                    " nodes=" + std::to_string(nodes) +
                                    " " + c.name;
          ASSERT_EQ(c.name.rfind(to_string(st.kind), 0), 0u) << where;
          ASSERT_EQ(st.node, m.owner(id)) << where;
          if (c.priority) {
            ASSERT_EQ(st.priority, c.priority(m.key(id).p)) << where;
          } else {
            ASSERT_LT(st.priority, 1.0) << where;  // pseudo-random order
          }
        }
      }
    }
  }
}

TEST(TaskGraph, NoPrioritiesForV2) {
  // Without priorities the scheduler order is effectively arbitrary; the
  // builder models that with a deterministic pseudo-random key in [0, 1),
  // far below any real priority value (which are >= 1).
  const auto p = tiny();
  GraphOptions opts;
  opts.variant = tce::VariantConfig::v2();
  opts.nodes = 8;
  const auto g = build_graph(p.plan, opts);
  for (const auto& t : g.tasks) {
    EXPECT_GE(t.priority, 0.0);
    EXPECT_LT(t.priority, 1.0);
  }
  // Deterministic across builds.
  const auto g2 = build_graph(p.plan, opts);
  for (size_t i = 0; i < g.tasks.size(); ++i) {
    EXPECT_EQ(g.tasks[i].priority, g2.tasks[i].priority);
  }
}

// --- PTG simulation ---

SimResult run_sim(const tce::VariantConfig& v, int nodes, int cores,
                  bool trace = false) {
  const auto p = tiny();
  GraphOptions gopts;
  gopts.variant = v;
  gopts.nodes = nodes;
  const auto g = build_graph(p.plan, gopts);
  SimOptions sopts;
  sopts.cores_per_node = cores;
  sopts.record_trace = trace;
  return simulate_ptg(g, sopts);
}

TEST(PtgSim, CompletesWithPositiveMakespan) {
  const auto r = run_sim(tce::VariantConfig::v5(), 4, 2);
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_GT(r.core_busy_time, 0.0);
  EXPECT_GE(r.idle_fraction, 0.0);
  EXPECT_LT(r.idle_fraction, 1.0);
  EXPECT_GT(r.transfers, 0u);
}

TEST(PtgSim, IsDeterministic) {
  const auto a = run_sim(tce::VariantConfig::v4(), 4, 3);
  const auto b = run_sim(tce::VariantConfig::v4(), 4, 3);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.core_busy_time, b.core_busy_time);
  EXPECT_EQ(a.transfers, b.transfers);
}

TEST(PtgSim, MoreCoresNeverSlower) {
  for (const auto& v : tce::VariantConfig::all()) {
    const auto slow = run_sim(v, 2, 1);
    const auto fast = run_sim(v, 2, 8);
    EXPECT_LE(fast.makespan, slow.makespan * 1.01) << v.name;
  }
}

TEST(PtgSim, ComputeWorkIndependentOfVariantGemms) {
  // GEMM busy time is the same physics in every variant.
  const auto a = run_sim(tce::VariantConfig::v1(), 4, 2);
  const auto b = run_sim(tce::VariantConfig::v5(), 4, 2);
  EXPECT_NEAR(a.busy_by_kind[static_cast<size_t>(SimTaskKind::kGemm)],
              b.busy_by_kind[static_cast<size_t>(SimTaskKind::kGemm)], 1e-9);
}

TEST(PtgSim, SerialChainHasLongerMakespanAtHighCoreCount) {
  // The paper's C2/C6: v1's restricted parallelism hurts at saturation.
  const auto v1 = run_sim(tce::VariantConfig::v1(), 4, 8);
  const auto v5 = run_sim(tce::VariantConfig::v5(), 4, 8);
  EXPECT_GT(v1.makespan, v5.makespan);
}

TEST(PtgSim, TraceRecordsTasksAndTransfers) {
  const auto r = run_sim(tce::VariantConfig::v4(), 3, 2, true);
  EXPECT_GT(r.trace.size(), 0u);
  bool saw_comm = false, saw_gemm = false;
  for (const auto& e : r.trace.events()) {
    saw_comm |= e.is_comm;
    saw_gemm |= (!e.is_comm &&
                 e.cls == static_cast<int16_t>(SimTaskKind::kGemm));
  }
  EXPECT_TRUE(saw_comm);
  EXPECT_TRUE(saw_gemm);
}

TEST(PtgSim, PrioritiesShrinkStartupBubble) {
  // The paper's Figs. 10 vs 11: without priorities reads flood the network
  // in arbitrary order and compute starves; priorities pipeline reads and
  // compute. Needs a communication-intensive workload, so use the paper's
  // scaled beta-carotene structure rather than the tiny fixture.
  const auto p = make_preset("beta_carotene_32");
  auto run = [&](const tce::VariantConfig& v) {
    GraphOptions gopts;
    gopts.variant = v;
    gopts.nodes = 32;
    const auto g = build_graph(p.plan, gopts);
    SimOptions sopts;
    sopts.cores_per_node = 15;
    return simulate_ptg(g, sopts);
  };
  const auto with = run(tce::VariantConfig::v4());
  const auto without = run(tce::VariantConfig::v2());
  EXPECT_LT(with.makespan, without.makespan * 0.95);
}

TEST(PtgSim, Figure9OrderingAtSaturation) {
  // Claim C6 at 15 cores/node on 32 nodes: v1 slowest, then v2, then v3,
  // then v4, v5 fastest.
  const auto p = make_preset("beta_carotene_32");
  std::vector<double> t;
  for (const auto& v : tce::VariantConfig::all()) {
    GraphOptions gopts;
    gopts.variant = v;
    gopts.nodes = 32;
    const auto g = build_graph(p.plan, gopts);
    SimOptions sopts;
    sopts.cores_per_node = 15;
    t.push_back(simulate_ptg(g, sopts).makespan);
  }
  EXPECT_GT(t[0], t[1]);            // v1 slowest
  EXPECT_GT(t[1], t[2]);            // v2 next
  EXPECT_GE(t[2], t[3] * 0.9999);   // v3 >= v4 (small but real gap)
  EXPECT_GE(t[3], t[4] * 0.9999);   // v4 >= v5
  EXPECT_GT(t[0] / t[4], 1.3);      // fastest/slowest spread (paper: 1.73x)
}

TEST(OriginalSim, PeaksNearSevenCoresThenDegrades) {
  // Claim C1: the original improves to ~7 cores/node, then deteriorates.
  const auto p = make_preset("beta_carotene_32");
  auto run = [&](int cores) {
    OriginalSimOptions opts;
    opts.nodes = 32;
    opts.cores_per_node = cores;
    return simulate_original(p.plan, opts).makespan;
  };
  const double t1 = run(1), t3 = run(3), t7 = run(7), t15 = run(15);
  EXPECT_GT(t1 / t3, 2.0);   // paper: 2.35x by 3 cores
  EXPECT_LT(t7, t3);         // still improving to 7
  EXPECT_GT(t15, t7);        // degrades past the peak
}

TEST(PtgSim, MutexWaitHigherWithParallelWrites) {
  // v3's many small critical sections pay more lock cycles than v5's one
  // per chain (paper Section V discussion).
  const auto v3 = run_sim(tce::VariantConfig::v3(), 4, 8);
  const auto v5 = run_sim(tce::VariantConfig::v5(), 4, 8);
  const auto w3 = v3.busy_by_kind[static_cast<size_t>(SimTaskKind::kWrite)];
  const auto w5 = v5.busy_by_kind[static_cast<size_t>(SimTaskKind::kWrite)];
  EXPECT_GT(w3, w5);
}

TEST(PtgSim, RejectsBadOptions) {
  const auto p = tiny();
  GraphOptions gopts;
  gopts.nodes = 0;
  EXPECT_THROW(build_graph(p.plan, gopts), InvalidArgument);
  gopts.nodes = 2;
  const auto g = build_graph(p.plan, gopts);
  SimOptions sopts;
  sopts.cores_per_node = 0;
  EXPECT_THROW(simulate_ptg(g, sopts), InvalidArgument);
}

TEST(PtgSim, ClassNamesAndGlyphsCover) {
  EXPECT_EQ(sim_class_names().size(), 7u);
  EXPECT_EQ(sim_class_glyphs().size(), 7u);
}

// --- original-code simulation ---

OriginalSimResult run_orig(int nodes, int cores, bool trace = false,
                           bool static_dist = false) {
  const auto p = tiny();
  OriginalSimOptions opts;
  opts.nodes = nodes;
  opts.cores_per_node = cores;
  opts.record_trace = trace;
  opts.static_distribution = static_dist;
  return simulate_original(p.plan, opts);
}

TEST(OriginalSim, CompletesAndIsDeterministic) {
  const auto a = run_orig(4, 2);
  const auto b = run_orig(4, 2);
  EXPECT_GT(a.makespan, 0.0);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_GT(a.compute_time, 0.0);
  EXPECT_GT(a.blocked_comm_time, 0.0);
  EXPECT_GT(a.nxtval_time, 0.0);
}

TEST(OriginalSim, StaticDistributionSkipsCounter) {
  const auto r = run_orig(4, 2, false, true);
  EXPECT_EQ(r.nxtval_time, 0.0);
  EXPECT_GT(r.makespan, 0.0);
}

TEST(OriginalSim, CommNeverOverlapsWithinProcess) {
  // The paper's Fig. 13: blocking GETs leave no same-thread overlap.
  auto r = run_orig(2, 2, true);
  r.trace.normalize();
  EXPECT_LT(r.trace.comm_overlap_same_worker_fraction(), 1e-9);
  EXPECT_GT(r.trace.size(), 0u);
}

TEST(OriginalSim, ComputeTimeMatchesPlanPhysics) {
  // At fixed cores/node (fixed memory contention), compute (GEMM+SORT)
  // seconds must not depend on the node count.
  const auto a = run_orig(2, 2);
  const auto b = run_orig(8, 2);
  EXPECT_NEAR(a.compute_time, b.compute_time, a.compute_time * 1e-9);
  // More cores per node -> socket contention -> compute time can only grow.
  const auto c = run_orig(2, 8);
  EXPECT_GE(c.compute_time, a.compute_time);
}

TEST(OriginalSim, RejectsBadShape) {
  const auto p = tiny();
  OriginalSimOptions opts;
  opts.nodes = 0;
  EXPECT_THROW(simulate_original(p.plan, opts), InvalidArgument);
}

TEST(HybridSim, AcceleratorsSpeedUpGemmHeavyWork) {
  const auto p = make_preset("beta_carotene_32");
  GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 8;
  const auto g = build_graph(p.plan, gopts);

  SimOptions cpu;
  cpu.cores_per_node = 7;
  const auto r_cpu = simulate_ptg(g, cpu);
  EXPECT_EQ(r_cpu.offloaded_gemms, 0u);

  SimOptions gpu = cpu;
  gpu.cost.accels_per_node = 1;
  const auto r_gpu = simulate_ptg(g, gpu);
  EXPECT_GT(r_gpu.offloaded_gemms, 0u);
  EXPECT_LT(r_gpu.makespan, r_cpu.makespan);
}

TEST(HybridSim, ThresholdKeepsSmallGemmsOnCores) {
  const auto p = tiny();  // tiny blocks: every GEMM under the threshold
  GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 2;
  const auto g = build_graph(p.plan, gopts);
  SimOptions sopts;
  sopts.cores_per_node = 2;
  sopts.cost.accels_per_node = 2;
  const auto r = simulate_ptg(g, sopts);
  EXPECT_EQ(r.offloaded_gemms, 0u);
}

TEST(HybridSim, OverwhelminglyFastDeviceTakesEverything) {
  // With no threshold, free launches and a near-infinite device, the
  // opportunistic policy offloads every GEMM.
  const auto p = tiny();
  GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 2;
  const auto g = build_graph(p.plan, gopts);
  SimOptions sopts;
  sopts.cores_per_node = 2;
  sopts.cost.accels_per_node = 1;
  sopts.cost.accel_offload_threshold_flops = 0.0;
  sopts.cost.accel_launch_overhead_s = 0.0;
  sopts.cost.accel_flops_per_sec = 1e18;
  sopts.cost.accel_pcie_bw_Bps = 1e18;
  const auto r = simulate_ptg(g, sopts);
  EXPECT_EQ(r.offloaded_gemms, p.plan.stats().num_gemms);
}

TEST(HybridSim, SlowDeviceIsNeverChosen) {
  // Opportunistic selection: a device slower than a core gets no work, so
  // adding it can never hurt (the regression the naive policy had).
  const auto p = make_preset("beta_carotene_32");
  GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 8;
  const auto g = build_graph(p.plan, gopts);
  SimOptions cpu;
  cpu.cores_per_node = 4;
  const auto base = simulate_ptg(g, cpu);
  SimOptions slow = cpu;
  slow.cost.accels_per_node = 1;
  slow.cost.accel_flops_per_sec = 1e6;  // uselessly slow device
  const auto r = simulate_ptg(g, slow);
  EXPECT_EQ(r.offloaded_gemms, 0u);
  EXPECT_DOUBLE_EQ(r.makespan, base.makespan);
}

TEST(Protocol, RendezvousAddsLatencyForLargeMessages) {
  CostModel cm;
  EXPECT_EQ(cm.protocol_latency(1024.0), 0.0);
  EXPECT_GT(cm.protocol_latency(1e6), 0.0);
  EXPECT_DOUBLE_EQ(cm.protocol_latency(1e6), 2.0 * cm.net_latency_s);
}

TEST(Presets, FullBetaCaroteneStructureBuilds) {
  const auto p = make_preset("beta_carotene_full");
  const auto st = p.plan.stats();
  // The true 148o/324v tiling: thousands of chains, O(10^5) GEMMs.
  EXPECT_GT(st.num_chains, 1000u);
  EXPECT_GT(st.num_gemms, 100000u);
  EXPECT_GT(st.total_flops, 1e14);  // ~hundreds of TF, the real t2_7 scale
}

}  // namespace
}  // namespace mp::sim
