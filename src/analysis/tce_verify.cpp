#include "analysis/tce_verify.h"

#include <algorithm>
#include <unordered_set>

#include "analysis/plan_verify.h"

namespace mp::analysis {

namespace {

struct ChainCounts {
  size_t reads_a = 0, reads_b = 0, dfills = 0, gemms = 0, reduces = 0,
         sorts = 0, writes = 0;
};

}  // namespace

std::vector<Diag> verify_tce_graph(const tce::ChainPlan& plan,
                                   const tce::VariantConfig& var,
                                   const tce::PtgBuild& build,
                                   const ptg::FlatGraph& graph) {
  std::vector<Diag> diags;
  const tce::PtgClassIds& ids = build.ids;

  std::vector<ChainCounts> per_chain(plan.chains.size());
  size_t foreign = 0;
  // WRITE instances per chain, for the fan-in check below, and every key,
  // for the GEMM feed check.
  std::vector<std::vector<int32_t>> writes(plan.chains.size());
  std::unordered_set<ptg::TaskKey, ptg::TaskKeyHash> keys;
  keys.reserve(static_cast<size_t>(graph.size()));
  for (int32_t id = 0; id < graph.size(); ++id) {
    const ptg::TaskKey& key = graph.key(id);
    keys.insert(key);
    const auto l1 = static_cast<size_t>(key.p[0]);
    if (l1 >= per_chain.size()) {
      ++foreign;
      continue;
    }
    ChainCounts& cc = per_chain[l1];
    if (key.cls == ids.read_a) ++cc.reads_a;
    else if (key.cls == ids.read_b) ++cc.reads_b;
    else if (key.cls == ids.dfill) ++cc.dfills;
    else if (key.cls == ids.gemm) ++cc.gemms;
    else if (key.cls == ids.reduce) ++cc.reduces;
    else if (key.cls == ids.sort) ++cc.sorts;
    else if (key.cls == ids.write) {
      ++cc.writes;
      writes[l1].push_back(id);
    }
  }
  if (foreign > 0) {
    diags.push_back({"MPT005",
                     std::to_string(foreign) +
                         " task instance(s) reference a chain id outside "
                         "the plan",
                     ""});
  }

  size_t expected_total = 0;
  for (const tce::Chain& ch : plan.chains) {
    const std::string name = "chain " + std::to_string(ch.id);
    const ChainCounts& cc = per_chain[static_cast<size_t>(ch.id)];
    const size_t len = ch.gemms.size();
    const size_t arms = ch.sorts.size();

    // Reduction fan-in vs chain segmentation: segments of h GEMMs (the
    // whole chain when h = 0), a DFILL heading each segment unless every
    // GEMM owns its C (h = 1), and a reduction tree over the segments.
    const auto h = static_cast<size_t>(var.segment_height);
    const size_t height = h == 0 ? std::max<size_t>(len, 1) : h;
    const size_t nsegs = (len + height - 1) / height;
    const size_t want_reduces = nsegs > 1 ? nsegs - 1 : 0;
    if (cc.reduces != want_reduces) {
      diags.push_back({"MPT001",
                       "reduction tree has " + std::to_string(cc.reduces) +
                           " node(s) for " + std::to_string(len) +
                           " GEMMs; chain segmentation requires " +
                           std::to_string(want_reduces),
                       name});
    }
    const size_t want_dfills = h == 1 ? 0 : nsegs;
    if (cc.dfills != want_dfills || cc.gemms != len ||
        cc.reads_a != len || cc.reads_b != len) {
      diags.push_back({"MPT005",
                       "chain instance counts off: " +
                           std::to_string(cc.reads_a) + "/" +
                           std::to_string(cc.reads_b) + " reads, " +
                           std::to_string(cc.dfills) + " dfills, " +
                           std::to_string(cc.gemms) + " gemms for " +
                           std::to_string(len) + " chain links",
                       name});
    }

    // Guard-consistent SORT / WRITE arms.
    const size_t want_sorts = var.parallel_sorts ? arms : 1;
    if (cc.sorts != want_sorts) {
      diags.push_back({"MPT002",
                       std::to_string(cc.sorts) + " SORT task(s) for " +
                           std::to_string(arms) +
                           " fired guard(s) under sort mode '" +
                           (var.parallel_sorts ? "parallel" : "single") + "'",
                       name});
    }
    const size_t want_writes = var.parallel_writes ? arms : 1;
    if (cc.writes != want_writes) {
      diags.push_back({"MPT003",
                       std::to_string(cc.writes) + " WRITE task(s) for " +
                           std::to_string(arms) +
                           " fired guard(s) under write mode '" +
                           (var.parallel_writes ? "parallel" : "single") + "'",
                       name});
    }
    // WRITE fan-in: single-write-over-parallel-sorts gathers every arm.
    const int want_write_fanin =
        (!var.parallel_writes && var.parallel_sorts)
            ? static_cast<int>(arms)
            : 1;
    for (const int32_t id : writes[static_cast<size_t>(ch.id)]) {
      if (graph.num_inputs(id) != want_write_fanin) {
        diags.push_back(
            {"MPT003",
             "WRITE declares fan-in " + std::to_string(graph.num_inputs(id)) +
                 " but the variant requires " +
                 std::to_string(want_write_fanin),
             graph.name_of(id)});
      }
    }

    // Every GEMM must be fed by its own READ_A/READ_B pair.
    for (const tce::GemmOp& g : ch.gemms) {
      const ptg::Params p = ptg::params_of(ch.id, g.l2);
      const bool has_a = keys.count(ptg::TaskKey{ids.read_a, p}) != 0;
      const bool has_b = keys.count(ptg::TaskKey{ids.read_b, p}) != 0;
      const bool has_g = keys.count(ptg::TaskKey{ids.gemm, p}) != 0;
      if (!has_a || !has_b || !has_g) {
        diags.push_back(
            {"MPT004",
             std::string("GEMM link missing its producers: ") +
                 (has_g ? "" : "GEMM absent; ") + (has_a ? "" : "READ_A absent; ") +
                 (has_b ? "" : "READ_B absent; ") + "for L2=" +
                 std::to_string(g.l2),
             name});
      }
    }

    expected_total += 2 * len            // READ_A + READ_B
                      + len              // GEMM
                      + want_dfills + want_reduces + want_sorts + want_writes;
  }

  if (static_cast<size_t>(graph.size()) != expected_total) {
    diags.push_back({"MPT005",
                     "materialized " + std::to_string(graph.size()) +
                         " tasks; plan + variant imply " +
                         std::to_string(expected_total),
                     ""});
  }
  return diags;
}

VerifyReport verify_variant(const tce::ChainPlan& plan,
                            const tce::StoreList& stores,
                            const tce::VariantConfig& variant, int nranks) {
  VerifyReport rep;
  rep.diags = verify_plan(plan);

  tce::PtgBuild build = tce::build_ptg(plan, stores, variant, nranks);
  const ptg::FlatGraph graph = ptg::FlatGraph::compile(build.pool, nranks);
  rep.num_tasks = static_cast<size_t>(graph.size());
  rep.num_edges = graph.num_edges();

  auto gdiags = verify_graph(graph);
  rep.diags.insert(rep.diags.end(), gdiags.begin(), gdiags.end());
  auto tdiags = verify_tce_graph(plan, variant, build, graph);
  rep.diags.insert(rep.diags.end(), tdiags.begin(), tdiags.end());
  return rep;
}

}  // namespace mp::analysis
