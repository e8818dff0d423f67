// Discrete-event simulation of a PTG-variant execution on a cluster of
// `nodes` x `cores_per_node` (plus a comm thread and NIC per node).
//
// The simulator executes exactly the task graph build_graph() materializes
// from tce::build_ptg: per-node priority scheduling of ready tasks,
// FCFS NIC injection/ejection queues with latency and bandwidth, a per-node
// comm thread with per-message overhead, and the node-level WRITE mutex.
// It produces the same Trace records as the real runtime, so the paper's
// trace figures (10/11) are regenerated from simulated schedules.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "ptg/trace.h"
#include "sim/cost_model.h"
#include "sim/task_graph.h"

namespace mp::sim {

struct SimOptions {
  int cores_per_node = 8;
  CostModel cost;
  bool record_trace = false;
  /// Inter-node work stealing (DESIGN.md §9): a node whose cores are all
  /// idle and whose ready queue is empty requests half the ready,
  /// migratable tasks of the most loaded peer. Mirrors the real runtime's
  /// steal agent: request/reply ride the comm thread + NIC like any other
  /// message, migrated inputs pay wire time, WRITE (mutex-bound) tasks
  /// never move. Deterministic: victim selection is argmax ready-count
  /// with lowest-index tie-break.
  /// The batch cap is the runtime's (ptg::Context::kStealMaxBatch); an
  /// empty-handed thief re-arms after a fixed 200 us backoff.
  bool enable_stealing = false;
  /// Fail-stop death injection (DESIGN.md §10): node `fail_node` goes
  /// silent at `fail_time_s` — running tasks are lost, queued work is
  /// dropped, in-flight messages it already sent still arrive. Survivors
  /// confirm the death `detect_delay_s` later (the heartbeat suspicion +
  /// confirmation window) and adopt every unfinished task of the dead node
  /// round-robin, re-shipping inputs whose producers already completed
  /// (lineage replay). -1 disables. Mirrors the runtime's kRetry policy.
  int fail_node = -1;
  double fail_time_s = 0.0;
  double detect_delay_s = 500e-6;
};

struct SimResult {
  double makespan = 0.0;                 ///< simulated seconds
  double core_busy_time = 0.0;           ///< sum over cores of busy seconds
  double idle_fraction = 0.0;            ///< 1 - busy/(makespan*cores)
  double comm_busy_time = 0.0;           ///< NIC-occupancy seconds (in+out)
  double mutex_wait_time = 0.0;          ///< time cores spent queued on the
                                         ///< node WRITE mutex
  uint64_t transfers = 0;                ///< cross-node messages
  double bytes_transferred = 0.0;
  uint64_t offloaded_gemms = 0;          ///< GEMMs run on accelerators
  uint64_t steal_requests = 0;           ///< STEAL_REQUEST messages issued
  uint64_t steal_hits = 0;               ///< replies carrying >= 1 task
  uint64_t tasks_migrated = 0;           ///< tasks executed off their home
  double steal_bytes = 0.0;              ///< input payload shipped by steals
  uint64_t tasks_recovered = 0;          ///< tasks adopted off a dead node
  uint64_t lineage_replays = 0;          ///< completed-producer re-shipments
  double recovery_started_at = 0.0;      ///< when survivors confirmed death
  std::array<double, 7> busy_by_kind{};  ///< indexed by SimTaskKind
  ptg::Trace trace;                      ///< populated if record_trace
};

/// Names/glyphs for rendering simulated traces (indexed by SimTaskKind).
std::vector<std::string> sim_class_names();
std::vector<char> sim_class_glyphs();

SimResult simulate_ptg(const SimGraph& graph, const SimOptions& opts);

}  // namespace mp::sim
