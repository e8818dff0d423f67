// Cross-checks between a ChainPlan and the materialized PTG of one variant
// (pass 1 of mp-verify, TCE layer). The generic graph pass proves the DAG
// is well-formed; this pass proves it is the *right* DAG for the plan:
//
//   MPT001  reduce fan-in   — reduction-tree size differs from the chain's
//                             segmentation (s segments of h GEMMs need
//                             s-1 REDUCE nodes; a serial chain needs none)
//   MPT002  sort arms       — SORT task count differs from the chain's
//                             fired guards under the variant's sort mode
//   MPT003  write arms      — WRITE task count / fan-in inconsistent with
//                             the variant's write mode
//   MPT004  gemm feed       — a GEMM instance is not fed by exactly its
//                             READ_A/READ_B producers of the same (L1,L2)
//   MPT005  task count      — total instance count differs from the closed
//                             form implied by plan + variant
#pragma once

#include "analysis/diagnostics.h"
#include "analysis/graph_verify.h"
#include "tce/chain_plan.h"
#include "tce/ptg_build.h"
#include "tce/storage.h"
#include "tce/variants.h"

namespace mp::analysis {

/// Result of the full static verification of one (plan, variant, nranks)
/// combination: plan layer + generic graph layer + TCE cross-checks.
struct VerifyReport {
  std::vector<Diag> diags;
  size_t num_tasks = 0;
  size_t num_edges = 0;
  bool clean() const { return diags.empty(); }
};

/// TCE cross-checks only, on an already-compiled graph of `build`.
std::vector<Diag> verify_tce_graph(const tce::ChainPlan& plan,
                                   const tce::VariantConfig& variant,
                                   const tce::PtgBuild& build,
                                   const ptg::FlatGraph& graph);

/// Run every static pass for one variant: verify_plan + build_ptg +
/// FlatGraph::compile + verify_graph + verify_tce_graph. This is what tools/mp-verify and the
/// analysis-label tests call per variant/workload.
VerifyReport verify_variant(const tce::ChainPlan& plan,
                            const tce::StoreList& stores,
                            const tce::VariantConfig& variant, int nranks);

}  // namespace mp::analysis
