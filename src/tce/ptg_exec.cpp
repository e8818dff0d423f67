#include "tce/ptg_exec.h"

#include "tce/ptg_build.h"

namespace mp::tce {

ptg::Options runtime_options(const PtgExecOptions& opts) {
  ptg::Options ropts;
  ropts.num_workers = opts.workers_per_rank;
  ropts.enable_tracing = opts.enable_tracing;
  ropts.enable_stealing = opts.enable_stealing;
  ropts.enable_failure_detection = opts.enable_failure_detection;
  ropts.on_rank_failure = opts.on_rank_failure;
  ropts.retry_limit = opts.retry_limit;
  ropts.heartbeat_interval_ms = opts.heartbeat_interval_ms;
  ropts.suspect_after_ms = opts.suspect_after_ms;
  ropts.confirm_after_ms = opts.confirm_after_ms;
  ropts.watchdog_timeout_ms = opts.watchdog_timeout_ms;
  return ropts;
}

PtgExecResult result_from_context(const ptg::Context& ctx,
                                  const ptg::Taskpool& pool) {
  PtgExecResult res;
  res.trace = ctx.trace();
  res.tasks_executed = ctx.tasks_executed();
  res.tasks_completed = ctx.tasks_completed();
  res.expected_tasks = ctx.expected_tasks();
  res.remote_activations = ctx.remote_activations_sent();
  res.sched = ctx.scheduler_stats();
  res.steal = ctx.steal_stats();
  res.failure = ctx.failure_stats();
  for (size_t i = 0; i < pool.num_classes(); ++i) {
    res.class_names.push_back(pool.cls(static_cast<int16_t>(i)).name);
  }
  return res;
}

PtgExecResult execute_ptg(vc::RankCtx& rctx, const ChainPlan& plan,
                          const StoreList& stores,
                          const PtgExecOptions& opts) {
  // The taskpool is rebuilt per rank from the same symbolic description;
  // every rank therefore evaluates the identical graph (ptg_build.h). The
  // static verifier can check that graph before this call ever runs — see
  // tools/mp-verify and Context::validate_plan().
  PtgBuild build = build_ptg(plan, stores, opts.variant, rctx.nranks());

  ptg::Context ctx(rctx, build.pool, runtime_options(opts));
  ctx.run();

  if (ctx.killed()) {
    // Crash-injected rank: run() already dropped out of the cluster barrier.
    // Report nothing and issue no further collectives from here.
    PtgExecResult res;
    res.killed = true;
    return res;
  }
  return result_from_context(ctx, build.pool);
}

}  // namespace mp::tce
