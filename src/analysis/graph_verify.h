// Static verifier for Parameterized Task Graphs (pass 1 of mp-verify).
//
// A Taskpool describes the task graph symbolically; an error in any of the
// symbolic functions (enumerate_rank, rank_of, num_task_inputs,
// route_outputs) does not crash the runtime — it silently corrupts results
// (a dropped edge starves a GEMM, a duplicate edge double-deposits a
// block). ptg::FlatGraph::compile() evaluates the whole description for a
// given rank count without executing anything — the same compile the
// runtime and the simulator run — and verify_graph() checks the DAG
// invariants the runtime relies on. MPV002-MPV005 are the compile's own
// findings (instances or edges it cannot place); the rest are checked here:
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

#include <vector>

#include "analysis/diagnostics.h"
#include "ptg/flat_graph.h"
#include "ptg/taskpool.h"

namespace mp::analysis {

/// Run every structural check on an already-compiled graph: the compile's
/// findings first, then MPV011, MPV006, MPV010, MPV007, MPV009 and the
/// reachability/acyclicity sweep (MPV001/MPV008).
std::vector<Diag> verify_graph(const ptg::FlatGraph& g);

/// Convenience: compile + verify in one call.
std::vector<Diag> verify_graph(const ptg::Taskpool& pool, int nranks);

/// True when the MP_VERIFY environment variable asks for the pass before
/// a graph runs (set, non-empty and not "0").
bool env_verify_enabled();

}  // namespace mp::analysis
