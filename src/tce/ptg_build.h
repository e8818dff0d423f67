// Builds the Parameterized Task Graph for a ChainPlan + variant without
// executing it. Split out of execute_ptg() so the static verifier
// (analysis/tce_verify.h, tools/mp-verify) can materialize and check the
// *exact* taskpool the executor would run — same lambdas, same placement,
// same dataflow — before a single task body fires.
#pragma once

#include <cstdint>

#include "ptg/taskpool.h"
#include "tce/chain_plan.h"
#include "tce/storage.h"
#include "tce/variants.h"

namespace mp::tce {

/// Class ids of the registered task classes; -1 where the variant does not
/// instantiate the class (DFILL only exists when segments chain their GEMMs,
/// segment_height != 1; REDUCE only when a chain can have several segments,
/// segment_height != 0).
struct PtgClassIds {
  int16_t read_a = -1;
  int16_t read_b = -1;
  int16_t dfill = -1;
  int16_t gemm = -1;
  int16_t reduce = -1;
  int16_t sort = -1;
  int16_t write = -1;
};

struct PtgBuild {
  ptg::Taskpool pool;
  PtgClassIds ids;
};

/// Raises InvalidArgument when a chain's result store and any chain's
/// operand store are the same Global Array. READ tasks hand out views of
/// operand blocks in place, so a GEMM would read the partial sums WRITE_C
/// accumulates into that array (and even a copying read could tear against
/// the accumulate). build_ptg and PtgTemplate::rebind check every binding.
void require_result_not_operand(const ChainPlan& plan,
                                const StoreList& stores);

/// Construct the PTG for `plan` under `variant` on `nranks` ranks. Classes
/// carry the paper's priority functions (PriorityScheme) unless the
/// variant disables priorities, in which case they carry none. Placement
/// is a function of the plan (chain L1 on rank L1 % nranks, READ and WRITE
/// on the owner of their block under ga::block_owner), so the graph depends
/// on the plan, the variant and nranks only. The returned taskpool's
/// lambdas capture `plan` and `stores` by reference: both must outlive the
/// taskpool (and any Context running it). Prefer PtgTemplate
/// (tce/template_cache.h), which owns both and removes the lifetime hazard
/// — this raw entry point remains for execute_ptg, which keeps both alive
/// for exactly one call, and the static verifier.
PtgBuild build_ptg(const ChainPlan& plan, const StoreList& stores,
                   const VariantConfig& variant, int nranks);

/// The same graph without tensor stores: every class, instance, placement,
/// priority and edge, but no bodies, so a Context refuses to run it. The
/// simulator materializes this description at paper scale, where no Global
/// Array could be allocated. Captures `plan` by reference.
PtgBuild build_ptg(const ChainPlan& plan, const VariantConfig& variant,
                   int nranks);

}  // namespace mp::tce
