// The PaRSEC-style executor: turns a ChainPlan into a Parameterized Task
// Graph and runs it on the ptg runtime (Section III-B / IV of the paper).
//
// Task classes, by variant configuration:
//   READ_A(L1,L2), READ_B(L1,L2)  — pull input blocks from the GA; placed
//                                   on the rank owning the data, the
//                                   runtime ships the buffer to the GEMM.
//   DFILL(L1)                     — zero-initialize the chain's C buffer
//                                   (serial-chain variant only, Fig. 1).
//   GEMM(L1,L2)                   — serial chain: RW flow of C through the
//                                   chain; parallel: private partial C.
//   REDUCE(L1,node)               — binary reduction tree of partial Cs
//                                   (parallel-GEMM variants, Fig. 4).
//   SORT(L1) / SORT_i(L1,i)       — guarded index remaps (Figs. 5/6).
//   WRITE_C(L1) / WRITE_C_i(L1,i) — accumulate into the GA under the
//                                   node-level mutex (Figs. 5/6/7), placed
//                                   on the rank owning the target block
//                                   (Fig. 8).
//
// Inter-node distribution is static round-robin over chains; intra-node
// scheduling is dynamic (Section IV-D). Priorities follow the paper's
// max_L1 - L1 + offset*P scheme (Section IV-C).
#pragma once

#include <string>
#include <vector>

#include "ptg/context.h"
#include "tce/chain_plan.h"
#include "tce/storage.h"
#include "tce/variants.h"
#include "vc/cluster.h"

namespace mp::tce {

struct PtgExecOptions {
  VariantConfig variant = VariantConfig::v5();
  int workers_per_rank = 2;
  bool enable_tracing = false;
  /// Inter-node work stealing (DESIGN.md §9): idle ranks pull ready,
  /// migratable tasks from loaded victims. Static placement stays the
  /// common case; stealing only moves work once a rank runs dry.
  bool enable_stealing = false;
  /// Rank-failure tolerance (DESIGN.md §10): heartbeat failure detection on
  /// the comm thread plus policy-driven recovery of a dead rank's work.
  /// Off by default — fault-free jobs pay nothing.
  bool enable_failure_detection = false;
  ptg::FailurePolicy on_rank_failure = ptg::FailurePolicy::kAbort;
  int retry_limit = 1;
  double heartbeat_interval_ms = 20.0;
  double suspect_after_ms = 150.0;
  double confirm_after_ms = 300.0;
  /// Never-hang backstop, forwarded to ptg::Options::watchdog_timeout_ms
  /// (0 disables). Persistent sessions rely on it: a submission stalled by
  /// message loss must unwind with a StateError so the session stays
  /// usable for the next submit().
  double watchdog_timeout_ms = 30000.0;
};

struct PtgExecResult {
  ptg::Trace trace;                     ///< this rank's events
  std::vector<std::string> class_names; ///< class id -> name (for rendering)
  uint64_t tasks_executed = 0;          ///< bodies run here (incl. stolen-in)
  uint64_t tasks_completed = 0;         ///< own tasks finished anywhere
  uint64_t expected_tasks = 0;
  uint64_t remote_activations = 0;
  ptg::SchedStats sched;                ///< steal/contention counters
  ptg::StealStats steal;                ///< inter-node migration counters
  ptg::FailureStats failure;            ///< detector / recovery counters
  /// This rank was crash-injected mid-run: the runtime exited silently and
  /// every post-run collective was skipped, so every field above is
  /// meaningless here. Callers must check this before touching the result
  /// (and before issuing any further collectives on this rank).
  bool killed = false;
};

/// Map executor options onto runtime options. Shared by execute_ptg and
/// PtgSession so both configure the runtime the same way
/// (assume_verified is left at its default; PtgSession sets it, because
/// the template cache verifies each template it builds). Priorities are
/// not an option: build_ptg encodes the variant's choice in the graph.
ptg::Options runtime_options(const PtgExecOptions& opts);

/// Extract the per-rank result block from a Context whose run() returned
/// without this rank being killed.
PtgExecResult result_from_context(const ptg::Context& ctx,
                                  const ptg::Taskpool& pool);

/// Execute the plan over the PTG runtime once: build the graph, run it on
/// a fresh Context, return this rank's results. Collective across ranks.
/// Works for single-contraction plans and fused multi-subroutine plans
/// alike — `stores` must cover every store id the plan's chains reference.
/// Repeated submissions of one plan belong on a PtgSession
/// (tce/ptg_session.h), which builds once and keeps the threads parked.
PtgExecResult execute_ptg(vc::RankCtx& rctx, const ChainPlan& plan,
                          const StoreList& stores,
                          const PtgExecOptions& opts);

inline PtgExecResult execute_ptg(vc::RankCtx& rctx, const ChainPlan& plan,
                                 const T2_7Storage& s,
                                 const PtgExecOptions& opts) {
  return execute_ptg(rctx, plan, s.stores(), opts);
}

}  // namespace mp::tce
