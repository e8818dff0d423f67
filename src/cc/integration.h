// Integration layer: runs the ladder terms of the CC iteration through the
// distributed executors, exactly mirroring the paper's structure (Fig. 3):
// the surrounding CCSD iteration is oblivious to whether a term is computed
// densely in-process, by the original NWChem-style executor, or by any PTG
// variant.
//
// Two ported subroutines are available — the paper's icsd_t2_7
// (particle-particle ladder) and the hole-hole ladder (the next subroutine
// to port, per the paper's conclusions) — plus their *fused* execution: one
// runtime context runs both subroutines' task graphs with no
// synchronization in between, the paper's future-work direction.
//
// A DistributedLadder owns the virtual cluster, the tiled tensors, their
// Global Arrays and the inspected ChainPlans. Each kernel invocation
// scatters tau into the t GA, zeroes the result GA, executes the plan SPMD
// over the cluster, gathers the canonical blocks and reconstructs the dense
// antisymmetric residual contribution.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cc/ccsd.h"
#include "cc/model.h"
#include "ga/global_array.h"
#include "ptg/trace.h"
#include "tce/block_tensor.h"
#include "tce/chain_plan.h"
#include "tce/inspector.h"
#include "tce/original_exec.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/reference_exec.h"
#include "tce/template_cache.h"
#include "tce/storage.h"
#include "tce/tiles.h"
#include "vc/cluster.h"

namespace mp::cc {

/// Which executor computes the term.
enum class ExecKind { kReference, kOriginal, kPtg };

/// Which ported subroutine(s) to run.
enum class Contraction { kT2_7, kHhLadder, kFused };

struct LadderRunOptions {
  ExecKind kind = ExecKind::kReference;
  Contraction contraction = Contraction::kT2_7;
  tce::VariantConfig variant = tce::VariantConfig::v5();  // kPtg only
  int workers_per_rank = 2;
  bool enable_tracing = false;
  /// kPtg only: route the run through the ladder's TemplateCache and a
  /// persistent PtgSession (DESIGN.md §11). The first call per
  /// (contraction, variant, runtime-config) pays graph build + thread
  /// spin-up; every later call is a cheap re-bound resubmission. Off, each
  /// call rebuilds the graph and spawns fresh threads (the pre-cache path,
  /// kept for comparison benchmarks).
  bool reuse_runtime = true;
  /// kPtg only: forwarded to the runtime (see PtgExecOptions).
  bool enable_stealing = false;
  bool enable_failure_detection = false;
  ptg::FailurePolicy on_rank_failure = ptg::FailurePolicy::kAbort;
};

struct LadderRunResult {
  std::vector<double> r_dense;  ///< VVOO, full antisymmetric reconstruction
  ptg::Trace trace;             ///< merged over ranks (if tracing)
  std::vector<std::string> class_names;
  uint64_t tasks_executed = 0;
  uint64_t remote_activations = 0;
  ptg::SchedStats sched;        ///< summed over ranks (kPtg only)
};

class DistributedLadder {
 public:
  /// Builds the tile space (tile_size orbitals per tile), the block
  /// tensors, the Global Arrays over `nranks` virtual ranks, scatters the
  /// integral tensors once, and runs the inspection phase for both
  /// subroutines (plus their fusion).
  DistributedLadder(const SpinOrbitalSystem& sys, int tile_size, int nranks);

  const tce::TileSpace& space() const { return *space_; }
  int nranks() const { return cluster_->nranks(); }

  const tce::ChainPlan& plan(Contraction c = Contraction::kT2_7) const;

  /// Execute the selected contraction(s) once for the given tau (dense
  /// VVOO); the result is the dense sum of the selected contributions.
  LadderRunResult run(const std::vector<double>& tau,
                      const LadderRunOptions& opts);

  /// Adapt to the CCSD LadderKernel interface: use contraction kT2_7 for
  /// CcsdOptions::ladder, kHhLadder for ::hh_ladder, kFused for
  /// ::combined_ladders.
  LadderKernel make_kernel(LadderRunOptions opts);

  /// Template-cache counters of this ladder's kPtg runs (hits grow once
  /// per iteration after the first when reuse_runtime is on).
  tce::TemplateCache::Stats template_cache_stats() const {
    return tpl_cache_.stats();
  }
  /// The persistent session behind `opts` (created on first use); exposed
  /// so tests can read per-rank reset reports. kPtg/reuse_runtime only.
  tce::PtgSession& session_for(const LadderRunOptions& opts);

 private:
  tce::StoreList stores_for(Contraction c) const;
  static const char* subroutine_name(Contraction c);

  const SpinOrbitalSystem* sys_;
  std::unique_ptr<vc::Cluster> cluster_;
  std::unique_ptr<tce::TileSpace> space_;
  std::unique_ptr<tce::BlockTensor4> v_shape_, t_shape_, r_shape_, w_shape_;
  std::unique_ptr<ga::GlobalArray> v_ga_, t_ga_, r_ga_, w_ga_;
  tce::ChainPlan pp_plan_, hh_plan_, fused_plan_;

  // Declared after the cluster/tensors: sessions reference both and must
  // be destroyed first (members are destroyed in reverse order).
  tce::TemplateCache tpl_cache_;
  std::mutex session_mu_;
  std::map<std::string, std::unique_ptr<tce::PtgSession>> sessions_;
};

/// Reconstruct the dense antisymmetric VVOO tensor from the canonical
/// blocks stored by the guarded-sort scheme (dividing out the 2^d factor on
/// blocks with coinciding tile pairs). Exposed for tests.
std::vector<double> reconstruct_dense_residual(const tce::TileSpace& space,
                                               const tce::BlockTensor4& r_shape,
                                               const ga::GlobalArray& r_ga);

}  // namespace mp::cc
