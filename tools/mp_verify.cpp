// mp-verify — static-analysis driver for the PTG dataflow verifier.
//
// Materializes the task graph of every (workload, variant) combination —
// the same taskpool execute_ptg() would run, built by build_ptg() — and
// runs all three static passes over it without executing a single task
// body:
//   1. plan layer   (MPP001-MPP007, analysis/plan_verify.h)
//   2. graph layer  (MPV001-MPV011, analysis/graph_verify.h)
//   3. TCE layer    (MPT001-MPT005, analysis/tce_verify.h)
//
// Exit status 0 when every combination verifies clean, 1 when any
// diagnostic fires, 2 on usage errors. Run with no arguments to sweep all
// workloads (t2_7, hh_ladder, fused), both tile-space specs (C1 and a
// 4-irrep C2v-style one) and all five paper variants on 3 ranks — plus the
// tiled-Cholesky app's PTG (apps/cholesky.h's build_cholesky_pool, the
// exact pool tiled_cholesky() executes) through the graph layer at several
// tile counts.
//
// Usage:
//   mp-verify [--workload=all|t2_7|hh_ladder|fused] [--spec=all|small|irreps]
//             [--variant=all|v1|v2|v3|v4|v5] [--nranks=N] [--quiet]
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analysis/graph_verify.h"
#include "analysis/tce_verify.h"
#include "apps/cholesky.h"
#include "ga/global_array.h"
#include "tce/block_tensor.h"
#include "tce/chain_plan.h"
#include "tce/imbalance.h"
#include "tce/inspector.h"
#include "tce/storage.h"
#include "tce/tiles.h"
#include "tce/variants.h"
#include "vc/cluster.h"

namespace {

using namespace mp;

tce::TileSpaceSpec small_spec() {
  tce::TileSpaceSpec s;
  s.n_occ_alpha = 3;
  s.n_occ_beta = 3;
  s.n_virt_alpha = 5;
  s.n_virt_beta = 5;
  s.tile_size = 2;
  return s;
}

tce::TileSpaceSpec irreps_spec() {
  tce::TileSpaceSpec s = small_spec();
  s.n_virt_alpha = 6;
  s.n_virt_beta = 6;
  s.num_irreps = 4;
  return s;
}

/// Owns everything a verification pass needs to stay alive: the tile
/// space, block shapes, (empty) Global Arrays, the inspected plan and the
/// store list. No tensor data is ever filled in — the passes are static.
struct Workload {
  std::string name;
  std::unique_ptr<tce::TileSpace> space;
  std::vector<std::unique_ptr<tce::BlockTensor4>> shapes;
  std::vector<std::unique_ptr<ga::GlobalArray>> gas;
  tce::ChainPlan plan;
  tce::StoreList stores;
};

using tce::RangeKind;

tce::BlockTensor4* add_shape(Workload& w, std::array<RangeKind, 4> ranges,
                             bool tri01 = false, bool tri23 = false) {
  w.shapes.push_back(std::make_unique<tce::BlockTensor4>(*w.space, ranges,
                                                         tri01, tri23));
  return w.shapes.back().get();
}

void add_store(Workload& w, vc::Cluster* cluster, tce::BlockTensor4* shape) {
  w.gas.push_back(
      std::make_unique<ga::GlobalArray>(cluster, shape->ga_size()));
  w.stores.push_back(tce::TensorStore{shape, w.gas.back().get()});
}

Workload make_workload(const std::string& kind, const std::string& spec_name,
                       const tce::TileSpaceSpec& spec, vc::Cluster* cluster,
                       int nranks) {
  Workload w;
  w.name = kind + "/" + spec_name;
  w.space = std::make_unique<tce::TileSpace>(spec);
  const auto kV = RangeKind::kVirt, kO = RangeKind::kOcc;
  auto* t = add_shape(w, {kV, kV, kO, kO});
  auto* r = add_shape(w, {kV, kV, kO, kO}, true, true);
  const bool on_t2_7 =
      kind == "t2_7" || kind == "fused" || kind == "skewed" ||
      kind == "nested";
  if (on_t2_7) {
    auto* v = add_shape(w, {kV, kV, kV, kV});
    add_store(w, cluster, v);
    add_store(w, cluster, t);
    add_store(w, cluster, r);
    w.plan = tce::inspect_t2_7(*w.space, {v, t, r});
  }
  if (kind == "skewed" || kind == "nested") {
    // Imbalanced chain-length transforms of the t2_7 plan (the work-
    // stealing workloads, DESIGN.md §9). Same stores, same block keys —
    // only the GEMM lists change, so every static pass must still hold.
    tce::ImbalanceSpec imb;
    imb.nranks = nranks;
    w.plan = kind == "skewed"
                 ? tce::make_skewed_plan(w.plan, imb)
                 : tce::make_nested_imbalance_plan(w.plan, imb);
  }
  if (kind == "hh_ladder") {
    auto* ww = add_shape(w, {kO, kO, kO, kO});
    add_store(w, cluster, ww);
    add_store(w, cluster, t);
    add_store(w, cluster, r);
    w.plan = tce::inspect_hh_ladder(*w.space, {ww, t, r});
  }
  if (kind == "fused") {
    // hh chains' A store becomes fused store 3; t and r are shared — the
    // same layout cc/integration.cpp uses for its fused runs.
    auto* ww = add_shape(w, {kO, kO, kO, kO});
    const auto hh = tce::inspect_hh_ladder(*w.space, {ww, t, r});
    w.plan = tce::fuse_plans(w.plan, hh, {3, 1, 2});
    add_store(w, cluster, ww);
  }
  return w;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workload=all|t2_7|hh_ladder|fused|skewed|nested"
               "|cholesky]\n"
               "          [--spec=all|small|irreps] "
               "[--variant=all|v1|v2|v3|v4|v5]\n"
               "          [--nranks=N] [--quiet]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string want_workload = "all";
  std::string want_spec = "all";
  std::string want_variant = "all";
  int nranks = 3;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = val("--workload=")) {
      want_workload = v;
    } else if (const char* v = val("--spec=")) {
      want_spec = v;
    } else if (const char* v = val("--variant=")) {
      want_variant = v;
    } else if (const char* v = val("--nranks=")) {
      nranks = std::atoi(v);
      if (nranks < 1) return usage(argv[0]);
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return usage(argv[0]);
    }
  }

  // The cluster only provides rank geometry for the Global Arrays; no SPMD
  // region ever starts.
  vc::Cluster cluster(nranks);

  std::vector<std::pair<std::string, tce::TileSpaceSpec>> specs;
  if (want_spec == "all" || want_spec == "small") {
    specs.emplace_back("small", small_spec());
  }
  if (want_spec == "all" || want_spec == "irreps") {
    specs.emplace_back("irreps", irreps_spec());
  }
  if (specs.empty()) return usage(argv[0]);

  std::vector<std::string> kinds;
  for (const char* k : {"t2_7", "hh_ladder", "fused", "skewed", "nested"}) {
    if (want_workload == "all" || want_workload == k) kinds.push_back(k);
  }
  const bool want_cholesky =
      want_workload == "all" || want_workload == "cholesky";
  if (kinds.empty() && !want_cholesky) return usage(argv[0]);

  size_t combos = 0, failures = 0, total_diags = 0;
  for (const auto& [spec_name, spec] : specs) {
    for (const auto& kind : kinds) {
      const Workload w =
          make_workload(kind, spec_name, spec, &cluster, nranks);
      for (const auto& variant : tce::VariantConfig::all()) {
        if (want_variant != "all" && want_variant != variant.name) continue;
        ++combos;
        const auto report =
            analysis::verify_variant(w.plan, w.stores, variant, nranks);
        if (!report.clean()) {
          ++failures;
          total_diags += report.diags.size();
          std::printf("FAIL %-16s %-3s nranks=%d: %zu diagnostic(s)\n",
                      w.name.c_str(), variant.name.c_str(), nranks,
                      report.diags.size());
          std::printf("%s", analysis::render(report.diags).c_str());
        } else if (!quiet) {
          std::printf("ok   %-16s %-3s nranks=%d: %zu tasks, %zu edges\n",
                      w.name.c_str(), variant.name.c_str(), nranks,
                      report.num_tasks, report.num_edges);
        }
      }
    }
  }
  // The Cholesky app is not a TCE workload — no plan, no variants, no tile
  // space — so it skips the plan/TCE passes and runs the graph layer
  // directly over the pool tiled_cholesky() executes (build_cholesky_pool;
  // the --spec / --variant filters do not apply).
  if (want_cholesky) {
    for (const int tiles : {2, 4, 6}) {
      ++combos;
      const ptg::Taskpool pool = apps::build_cholesky_pool(tiles, nranks);
      const ptg::FlatGraph g = ptg::FlatGraph::compile(pool, nranks);
      const std::vector<analysis::Diag> diags = analysis::verify_graph(g);
      const std::string name = "cholesky/T" + std::to_string(tiles);
      if (!diags.empty()) {
        ++failures;
        total_diags += diags.size();
        std::printf("FAIL %-16s %-3s nranks=%d: %zu diagnostic(s)\n",
                    name.c_str(), "ptg", nranks, diags.size());
        std::printf("%s", analysis::render(diags).c_str());
      } else if (!quiet) {
        std::printf("ok   %-16s %-3s nranks=%d: %zu tasks, %zu edges\n",
                    name.c_str(), "ptg", nranks, static_cast<size_t>(g.size()),
                    g.num_edges());
      }
    }
  }
  if (combos == 0) return usage(argv[0]);
  if (!quiet || failures > 0) {
    std::printf("mp-verify: %zu combination(s), %zu failed, %zu diagnostic(s)\n",
                combos, failures, total_diags);
  }
  return failures == 0 ? 0 : 1;
}
