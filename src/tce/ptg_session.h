// Persistent submission API over a cached PTG template (DESIGN.md §11),
// in the spirit of TaskTorrent's lightweight resubmission model: one
// PtgSession owns a persistent ptg::Context per rank — worker and comm
// threads spin up once and park between runs — plus one long-lived driver
// thread per rank standing in for the SPMD region that vc::Cluster::run
// would otherwise re-create per call.
//
// submit() is the steady-state fast path of the CCSD iteration: re-bind the
// template's store pointers (usually a no-op — same GAs, new contents),
// wake the parked drivers, and collect per-rank results. No inspection, no
// graph build, no verification, no thread creation.
//
// Failure semantics: a crash-injected rank's Context drops out of the
// cluster barrier permanently (std::barrier), so its driver parks forever
// and later submissions run on the survivors; submit() keeps returning a
// result with killed=true for that rank. A submission that raises (task
// error, watchdog, failed verification) unwinds collectively inside the
// runtime — all live ranks synchronize before rethrowing — so the session
// remains usable for the next submit().
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "tce/ptg_exec.h"
#include "tce/template_cache.h"

namespace mp::tce {

class PtgSession {
 public:
  /// Builds one persistent Context per rank over the template's pool and
  /// its compiled graph (shared, not recompiled), and parks a driver
  /// thread for each. `opts.variant` must be the template's variant;
  /// stealing/failure-detection options apply to every submission.
  PtgSession(vc::Cluster& cluster, std::shared_ptr<PtgTemplate> tpl,
             const PtgExecOptions& opts);
  ~PtgSession();

  PtgSession(const PtgSession&) = delete;
  PtgSession& operator=(const PtgSession&) = delete;

  /// One collective submission: re-bind the template to `stores`, run the
  /// graph on every live rank, and return the per-rank results (indexed by
  /// rank; a dead rank's entry has killed=true). Blocks until all live
  /// ranks finish; rethrows the first error any rank raised (after every
  /// rank has unwound, so the session stays consistent). The returned
  /// reference is valid until the next submit().
  const std::vector<PtgExecResult>& submit(const StoreList& stores);

  uint64_t submissions() const { return submissions_; }
  const PtgTemplate& tpl() const { return *tpl_; }
  int nranks() const { return cluster_.nranks(); }
  /// Rank r's persistent runtime — tests read last_reset_report() here.
  const ptg::Context& context(int r) const { return *ctxs_[static_cast<size_t>(r)]; }
  bool rank_killed(int r) const;

 private:
  void driver_main(int r);

  vc::Cluster& cluster_;
  std::shared_ptr<PtgTemplate> tpl_;
  PtgExecOptions opts_;
  /// Stable per-rank handles; RankCtx must outlive its Context.
  std::vector<std::unique_ptr<vc::RankCtx>> rctxs_;
  std::vector<std::unique_ptr<ptg::Context>> ctxs_;

  /// mu_ guards the submit handshake and everything below it.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t epoch_ = 0;
  int done_count_ = 0;
  bool shutdown_ = false;
  std::exception_ptr first_error_;
  std::vector<PtgExecResult> results_;
  std::vector<uint8_t> dead_;
  uint64_t submissions_ = 0;

  std::vector<std::thread> drivers_;
};

}  // namespace mp::tce
