// Static verifier for Parameterized Task Graphs (pass 1 of mp-verify).
//
// A Taskpool describes the task graph symbolically; an error in any of the
// symbolic functions (enumerate_rank, rank_of, num_task_inputs,
// route_outputs) does not crash the runtime — it silently corrupts results
// (a dropped edge starves a GEMM, a duplicate edge double-deposits a
// block). materialize_graph() evaluates the whole description for a given
// rank count without executing anything, and verify_graph() checks the DAG
// invariants the runtime relies on:
//
//   MPV001  cycle            — dependency cycle among task instances
//   MPV002  duplicate task   — instance enumerated more than once
//   MPV003  foreign task     — enumerate_rank(r) returned an instance whose
//                              rank_of() is not r
//   MPV004  unknown consumer — an output edge targets a non-existent task
//   MPV005  input slot range — edge's in_slot outside the consumer's
//                              declared input count
//   MPV006  duplicate writer — two edges feed the same (task, slot)
//   MPV007  missing input    — declared input slot never fed (dropped edge;
//                              the runtime would deadlock or under-reduce)
//   MPV008  unreachable      — task can never become ready from startup
//   MPV009  no startup       — tasks exist but none has zero inputs
//   MPV010  leaked buffer    — declared output slot routed to no consumer
//                              (its DataBuf retain is never released)
//   MPV011  output slot range— edge's out_slot outside the producer's
//                              declared output count
//
// The pass is exposed on the runtime as Context::validate_plan() and runs
// automatically inside Context::run() when the MP_VERIFY environment
// variable is set (rank 0 only; the graph is rank-independent).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/diagnostics.h"
#include "ptg/taskpool.h"
#include "ptg/types.h"

namespace mp::analysis {

/// One materialized task instance.
struct GraphTask {
  ptg::TaskKey key;
  int owner = -1;        ///< rank that enumerates (executes) it
  int num_inputs = 0;    ///< declared activation threshold
  int num_outputs = -1;  ///< declared outputs, -1 when the class is silent
  std::vector<int> producers_per_slot;  ///< edge count into each input slot
  std::vector<int> consumers_per_out;   ///< edge count out of each out slot
  std::vector<int> succ;                ///< successor task indices
};

/// The fully-evaluated task graph of a Taskpool for `nranks` ranks.
struct GraphModel {
  std::vector<GraphTask> tasks;
  std::unordered_map<ptg::TaskKey, int, ptg::TaskKeyHash> index;
  std::vector<Diag> diags;  ///< problems found while materializing
  size_t num_edges = 0;

  /// Symbolic name "GEMM(3,1)" for reports.
  static std::string name_of(const ptg::Taskpool& pool,
                             const ptg::TaskKey& key);
};

/// Evaluate every instance and edge of `pool` for `nranks` ranks.
GraphModel materialize_graph(const ptg::Taskpool& pool, int nranks);

/// Run every structural check on an already-materialized graph.
std::vector<Diag> verify_graph(const ptg::Taskpool& pool,
                               const GraphModel& g);

/// Convenience: materialize + verify in one call.
std::vector<Diag> verify_graph(const ptg::Taskpool& pool, int nranks);

/// True when the MP_VERIFY environment variable asks for the pass before
/// a graph runs (set, non-empty and not "0").
bool env_verify_enabled();

}  // namespace mp::analysis
