// Discrete-event simulation of the *original* TCE/NWChem execution
// structure on a cluster: one MPI-rank-like process per core, NXTVAL
// tickets from a single global counter, blocking GET_HASH_BLOCK right
// before each GEMM (communication interleaved but never overlapped), serial
// guarded SORT + ADD_HASH_BLOCK per chain, and a level barrier at the end.
//
// The NXTVAL counter is a single FCFS server plus a network round trip —
// the contention the paper identifies as the scalability bottleneck arises
// structurally, not from a fudge factor.
#pragma once

#include "ptg/trace.h"
#include "sim/cost_model.h"
#include "tce/chain_plan.h"

namespace mp::sim {

struct OriginalSimOptions {
  int nodes = 32;
  int cores_per_node = 8;  ///< processes per node
  CostModel cost;
  bool record_trace = false;
  /// Ablation: replace NXTVAL dynamic tickets by a static round-robin
  /// distribution (no shared counter traffic).
  bool static_distribution = false;
};

struct OriginalSimResult {
  double makespan = 0.0;
  double compute_time = 0.0;   ///< GEMM+SORT busy seconds (all processes)
  double blocked_comm_time = 0.0;  ///< seconds processes spent in blocking
                                   ///< GET/ADD (cores idle during this)
  double nxtval_time = 0.0;    ///< seconds spent acquiring tickets
  double idle_fraction = 0.0;  ///< 1 - (compute)/(makespan*processes)
  ptg::Trace trace;
};

/// Trace class ids (match tce::OriginalTraceClass ordering).
std::vector<std::string> original_class_names();
std::vector<char> original_class_glyphs();

OriginalSimResult simulate_original(const tce::ChainPlan& plan,
                                    const OriginalSimOptions& opts);

}  // namespace mp::sim
