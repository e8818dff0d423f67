// A contraction rig: one tile space, its tensors in Global Arrays over an
// in-process virtual cluster, an inspected ChainPlan, the TemplateCache and
// a persistent PtgSession — everything a caller of the tce layer holds to
// resubmit one contraction. The ladder workloads run on a rig directly; the
// CCSD workload uses one to replay its fused ladder plan for the layer
// counters the cc integration layer does not expose (fabric, GA).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ga/global_array.h"
#include "tce/block_tensor.h"
#include "tce/chain_plan.h"
#include "tce/imbalance.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/template_cache.h"
#include "tce/tiles.h"
#include "vc/cluster.h"

namespace perfbench {

enum class PlanKind {
  kT2_7,          ///< inspect_t2_7 (stores v, t, r)
  kSkewedT2_7,    ///< make_skewed_plan over the t2_7 plan
  kFusedLadders,  ///< t2_7 fused with the hh ladder (stores v, t, r, w)
};

struct RigConfig {
  mp::tce::TileSpaceSpec spec;
  PlanKind plan = PlanKind::kT2_7;
  mp::tce::ImbalanceSpec skew;  ///< kSkewedT2_7 only
  int nranks = 4;
  int workers_per_rank = 1;
  bool enable_stealing = false;
};

/// Wall time of each set-up step of one rig, seconds.
struct SetupTimes {
  double inputs = 0.0;          ///< cluster, tensors, seeded random fill
  double inspect = 0.0;         ///< inspection (+ skew / fusion)
  double template_build = 0.0;  ///< TemplateCache::get_or_build (miss)
  double session_start = 0.0;   ///< PtgSession construction
  double cold_submit = 0.0;     ///< first submission (thread spin-up)
  double total() const {
    return inputs + inspect + template_build + session_start + cold_submit;
  }
};

/// Runtime counters of submissions, summed over ranks.
struct SubmitCounters {
  uint64_t tasks = 0;
  uint64_t remote_activations = 0;
  uint64_t sched_contended = 0;  ///< contended pushes + pops
  uint64_t sched_steals = 0;     ///< intra-rank deque steals
  uint64_t steal_requests = 0;   ///< inter-rank steal requests sent
  uint64_t steal_migrated = 0;   ///< tasks migrated between ranks
};
/// Add one submission's per-rank results to `into`.
void add_counters(const std::vector<mp::tce::PtgExecResult>& res,
                  SubmitCounters* into);

/// Operation counters summed over the rig's operand and result arrays.
struct GaCounters {
  uint64_t gets = 0;
  uint64_t accs = 0;
  uint64_t bytes = 0;  ///< computed from operation sizes
};

class Rig {
 public:
  /// Generates the inputs from `seed`, inspects, builds the template,
  /// starts the session and makes the cold first submission, timing each
  /// step into `times`.
  Rig(const RigConfig& cfg, uint64_t seed, SetupTimes* times);

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// One steady-state submission the way an iterative caller makes it: a
  /// template-cache hit re-binding the stores, then PtgSession::submit.
  const std::vector<mp::tce::PtgExecResult>& submit();

  /// Replace the session by a fresh one with tracing on or off and make its
  /// cold first submission.
  void restart_session(bool tracing);

  void zero_result() { r_ga_->zero(); }
  /// Run tce::execute_reference into a separate result array and keep its
  /// contents as the reference; returns the wall time in seconds.
  double run_reference();
  /// max |result - reference| / max |reference| (needs run_reference()).
  double reference_error() const;

  const mp::tce::ChainPlan& plan() const { return plan_; }
  const RigConfig& config() const { return cfg_; }
  mp::vc::FabricStats fabric_stats() const { return cluster_->fabric().stats(); }
  GaCounters ga_counters() const;
  mp::tce::TemplateCache::Stats cache_stats() const { return cache_.stats(); }

 private:
  mp::tce::PtgExecOptions exec_options(bool tracing) const;
  std::shared_ptr<mp::tce::PtgTemplate> lookup_template();

  RigConfig cfg_;
  std::unique_ptr<mp::tce::TileSpace> space_;
  std::unique_ptr<mp::tce::BlockTensor4> v_shape_, t_shape_, r_shape_, w_shape_;
  std::unique_ptr<mp::vc::Cluster> cluster_;
  std::unique_ptr<mp::ga::GlobalArray> v_ga_, t_ga_, r_ga_, w_ga_, ref_ga_;
  mp::tce::StoreList stores_;
  mp::tce::ChainPlan plan_;
  std::vector<double> reference_;
  mp::tce::TemplateCache cache_;
  // Declared last: the session references the cluster and the template and
  // must be destroyed first.
  std::unique_ptr<mp::tce::PtgSession> session_;
};

}  // namespace perfbench
