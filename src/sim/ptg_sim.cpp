#include "sim/ptg_sim.h"

#include <algorithm>
#include <queue>

#include "ptg/context.h"
#include "support/error.h"

namespace mp::sim {

std::vector<std::string> sim_class_names() {
  return {"DFILL", "READ_A", "READ_B", "GEMM", "REDUCE", "SORT", "WRITE"};
}

std::vector<char> sim_class_glyphs() {
  // Red GEMMs in the paper's traces -> 'G'; readers 'a'/'b'; etc.
  return {'0', 'a', 'b', 'G', 'R', 'S', 'W'};
}

namespace {

/// Re-arm delay after an empty-handed steal attempt.
constexpr double kStealBackoffS = 200e-6;

/// A single-server FCFS resource tracked by its next free time.
struct Fcfs {
  double free_at = 0.0;
  /// Serve a request arriving at `t` taking `dur`; returns completion time.
  double serve(double t, double dur) {
    const double start = free_at > t ? free_at : t;
    free_at = start + dur;
    return free_at;
  }
  /// Wait the request would incur before service starts.
  double wait(double t) const { return free_at > t ? free_at - t : 0.0; }
};

enum class EvType : int8_t {
  kFinish,
  kArrive,
  kDeposit,
  kStealReq,   ///< STEAL_REQUEST lands at the victim (task = thief node)
  kStealReply, ///< reply lands at the thief (task = batch index, -1 empty)
  kDeath,      ///< fail-stop: node `core` goes silent
  kRecover     ///< survivors confirmed the death of node `core`
};

struct Event {
  double time = 0.0;
  uint64_t seq = 0;
  EvType type = EvType::kFinish;
  int32_t task = -1;
  int32_t core = -1;     // kFinish; kStealReq/kStealReply/kDeath: dst node
  double bytes = 0.0;    // kArrive
  int32_t from_node = 0; // kArrive (trace only); kStealReply: victim
  int32_t gen = 0;       // task incarnation (stale-delivery fencing)

  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

struct ReadyEntry {
  double priority = 0.0;
  uint64_t seq = 0;
  int32_t task = -1;
  // Max-heap: higher priority first, FIFO among equals.
  bool operator<(const ReadyEntry& o) const {
    if (priority != o.priority) return priority < o.priority;
    return seq > o.seq;
  }
};

struct NodeState {
  std::vector<int32_t> idle_cores;
  std::priority_queue<ReadyEntry> ready;
  Fcfs nic_in, nic_out, comm, mutex;
  std::vector<Fcfs> accels;  ///< offload devices (hybrid future work)
  bool steal_inflight = false;   ///< a STEAL_REQUEST awaits its reply
  double next_steal_at = 0.0;    ///< backoff after an empty-handed attempt
};

}  // namespace

SimResult simulate_ptg(const SimGraph& graph, const SimOptions& opts) {
  MP_REQUIRE(opts.cores_per_node >= 1, "simulate_ptg: need >= 1 core");
  const CostModel& cm = opts.cost;
  const int P = graph.nodes;

  std::vector<NodeState> nodes(static_cast<size_t>(P));
  for (auto& n : nodes) {
    n.idle_cores.resize(static_cast<size_t>(opts.cores_per_node));
    for (int c = 0; c < opts.cores_per_node; ++c) {
      n.idle_cores[static_cast<size_t>(c)] = c;
    }
    n.accels.resize(static_cast<size_t>(cm.accels_per_node));
  }

  std::vector<int32_t> deps(graph.tasks.size());
  for (size_t i = 0; i < graph.tasks.size(); ++i) {
    deps[i] = graph.tasks[i].ndeps;
  }

  // Where each task actually runs: stealing rewrites entries away from the
  // static placement, and successor routing compares against this (a
  // migrated task's outputs travel from the node that executed it).
  std::vector<int32_t> exec_node(graph.tasks.size());
  for (size_t i = 0; i < graph.tasks.size(); ++i) {
    exec_node[i] = graph.tasks[i].node;
  }
  std::vector<std::vector<int32_t>> steal_batches;

  // Failure-recovery state. home_node is where activations are delivered
  // (static placement until recovery re-homes a dead node's tasks); gen
  // counts a task's incarnation so deliveries and finishes addressed to a
  // pre-death incarnation are fenced, exactly like the runtime dropping
  // messages from (or results for) a dead epoch.
  std::vector<int32_t> home_node(exec_node);
  std::vector<int32_t> task_gen(graph.tasks.size(), 0);
  std::vector<uint8_t> completed(graph.tasks.size(), 0);
  std::vector<uint8_t> node_dead(static_cast<size_t>(P), 0);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  uint64_t seq = 0;
  SimResult res;

  const int cores = opts.cores_per_node;
  auto task_duration = [&](const SimTask& t) {
    switch (t.kind) {
      case SimTaskKind::kGemm:
        return cm.task_overhead_s + cm.gemm_time(t.flops, t.bytes, cores);
      case SimTaskKind::kSort:
        return cm.task_overhead_s + cm.sort_overhead_s +
               cm.stream_time(t.bytes, cores);
      default:
        return cm.task_overhead_s + cm.stream_time(t.bytes, cores);
    }
  };

  auto dispatch = [&](int node_id, double now) {
    NodeState& node = nodes[static_cast<size_t>(node_id)];
    while (!node.idle_cores.empty() && !node.ready.empty()) {
      const ReadyEntry re = node.ready.top();
      node.ready.pop();
      const int32_t core = node.idle_cores.back();
      node.idle_cores.pop_back();
      const SimTask& t = graph.tasks[static_cast<size_t>(re.task)];

      double end;
      if (t.needs_mutex) {
        // The core blocks until the node mutex is free, then holds it for
        // the critical region (lock cycle + the accumulate itself).
        const double wait = node.mutex.wait(now);
        res.mutex_wait_time += wait;
        end = node.mutex.serve(now,
                               cm.mutex_cycle_s + cm.task_overhead_s +
                                   cm.stream_time(t.bytes, cores));
      } else {
        end = now + task_duration(t);
        if (t.kind == SimTaskKind::kGemm && !node.accels.empty() &&
            t.flops >= cm.accel_offload_threshold_flops) {
          // Hybrid offload (the paper's future-work direction): pick the
          // least-loaded device and offload only when it beats running on
          // this core — the runtime's opportunistic device selection.
          size_t best = 0;
          for (size_t d = 1; d < node.accels.size(); ++d) {
            if (node.accels[d].free_at < node.accels[best].free_at) best = d;
          }
          const double dur = t.flops / cm.accel_flops_per_sec +
                             (t.bytes + t.out_bytes) / cm.accel_pcie_bw_Bps;
          const double launch = now + cm.accel_launch_overhead_s;
          const double accel_end =
              (node.accels[best].free_at > launch ? node.accels[best].free_at
                                                  : launch) +
              dur;
          if (accel_end < end) {
            end = node.accels[best].serve(launch, dur);
            res.offloaded_gemms += 1;
          }
        }
      }
      events.push(Event{end, seq++, EvType::kFinish, re.task, core, 0.0, 0,
                        task_gen[static_cast<size_t>(re.task)]});

      res.core_busy_time += end - now;
      res.busy_by_kind[static_cast<size_t>(t.kind)] += end - now;
      if (opts.record_trace) {
        // node_id, not t.node: migrated tasks render on the executing node.
        res.trace.add(ptg::TraceEvent{node_id, core,
                                      static_cast<int16_t>(t.kind),
                                      ptg::params_of(t.l1, t.l2), now, end,
                                      false});
      }
    }
  };

  // Idle detection + victim selection of the steal agent: any fully idle
  // node past its backoff asks the most loaded peer (argmax ready-count,
  // lowest index wins ties — deterministic) for work. The request is a
  // zero-payload control message riding the comm thread and NIC.
  auto try_steals = [&](double tnow) {
    if (!opts.enable_stealing || P < 2) return;
    for (int thief = 0; thief < P; ++thief) {
      NodeState& tn = nodes[static_cast<size_t>(thief)];
      if (node_dead[static_cast<size_t>(thief)] || tn.steal_inflight ||
          !tn.ready.empty() ||
          tn.idle_cores.size() != static_cast<size_t>(cores) ||
          tnow < tn.next_steal_at) {
        continue;
      }
      int victim = -1;
      size_t best = 1;  // a victim needs >= 2 ready tasks to share
      for (int v = 0; v < P; ++v) {
        if (v == thief || node_dead[static_cast<size_t>(v)]) continue;
        if (nodes[static_cast<size_t>(v)].ready.size() > best) {
          best = nodes[static_cast<size_t>(v)].ready.size();
          victim = v;
        }
      }
      if (victim < 0) continue;
      tn.steal_inflight = true;
      res.steal_requests += 1;
      const double t_comm = tn.comm.serve(tnow, cm.comm_msg_overhead_s);
      const double t_out = tn.nic_out.serve(t_comm, 0.0);
      events.push(Event{t_out + cm.net_latency_s, seq++, EvType::kStealReq,
                        thief, victim, 0.0, 0});
    }
  };

  auto make_ready = [&](int32_t task_id, double now) {
    const SimTask& t = graph.tasks[static_cast<size_t>(task_id)];
    const int32_t hn = home_node[static_cast<size_t>(task_id)];
    nodes[static_cast<size_t>(hn)].ready.push(
        ReadyEntry{t.priority, seq++, task_id});
    dispatch(hn, now);
  };

  // Seed startup tasks (readers, DFILLs, dependency-free GEMMs).
  // Enqueue all before dispatching so the priority order, not the task id
  // order, decides execution — this is what Context::enumerate_startup does.
  for (const SimTask& t : graph.tasks) {
    if (t.ndeps == 0) {
      nodes[static_cast<size_t>(t.node)].ready.push(
          ReadyEntry{t.priority, seq++, t.id});
    }
  }
  for (int n = 0; n < P; ++n) dispatch(n, 0.0);
  try_steals(0.0);

  if (opts.fail_node >= 0) {
    MP_REQUIRE(opts.fail_node < P, "simulate_ptg: fail_node out of range");
    MP_REQUIRE(P >= 2, "simulate_ptg: death injection needs >= 2 nodes");
    events.push(Event{opts.fail_time_s, seq++, EvType::kDeath, -1,
                      opts.fail_node, 0.0, 0});
    events.push(Event{opts.fail_time_s + opts.detect_delay_s, seq++,
                      EvType::kRecover, -1, opts.fail_node, 0.0, 0});
  }

  double now = 0.0;
  while (!events.empty()) {
    const Event ev = events.top();
    events.pop();
    now = ev.time;

    switch (ev.type) {
      case EvType::kFinish: {
        // Stale incarnation (the task was re-homed by recovery after this
        // run started) or a core that died mid-task: the result is lost.
        if (ev.gen != task_gen[static_cast<size_t>(ev.task)]) break;
        const SimTask& t = graph.tasks[static_cast<size_t>(ev.task)];
        const int32_t xnode = exec_node[static_cast<size_t>(ev.task)];
        if (node_dead[static_cast<size_t>(xnode)]) break;
        NodeState& node = nodes[static_cast<size_t>(xnode)];
        node.idle_cores.push_back(ev.core);
        completed[static_cast<size_t>(ev.task)] = 1;
        for (const int32_t s : t.succs) {
          if (completed[static_cast<size_t>(s)]) continue;
          const int32_t hn = home_node[static_cast<size_t>(s)];
          if (hn == xnode) {
            if (deps[static_cast<size_t>(s)] > 0 &&
                --deps[static_cast<size_t>(s)] == 0) {
              make_ready(s, now);
            }
          } else {
            // Cross-node activation: comm thread hands the buffer to the
            // NIC; FCFS injection, wire latency, then ejection at the peer.
            // A dead destination blackholes the message, but the sender
            // pays the send cost anyway (it does not know yet).
            const double t_comm =
                node.comm.serve(now, cm.comm_msg_overhead_s);
            const double t_out =
                node.nic_out.serve(t_comm, cm.wire_time(t.out_bytes));
            res.comm_busy_time += cm.wire_time(t.out_bytes);
            res.transfers += 1;
            res.bytes_transferred += t.out_bytes;
            events.push(Event{t_out + cm.net_latency_s +
                                  cm.protocol_latency(t.out_bytes),
                              seq++, EvType::kArrive, s, -1, t.out_bytes,
                              xnode, task_gen[static_cast<size_t>(s)]});
          }
        }
        dispatch(xnode, now);
        try_steals(now);
        break;
      }
      case EvType::kArrive: {
        if (ev.gen != task_gen[static_cast<size_t>(ev.task)]) break;
        const SimTask& st = graph.tasks[static_cast<size_t>(ev.task)];
        const int32_t hn = home_node[static_cast<size_t>(ev.task)];
        if (node_dead[static_cast<size_t>(hn)]) break;  // blackholed
        NodeState& node = nodes[static_cast<size_t>(hn)];
        const double t_in = node.nic_in.serve(now, cm.wire_time(ev.bytes));
        const double t_dep = node.comm.serve(t_in, cm.comm_msg_overhead_s);
        res.comm_busy_time += cm.wire_time(ev.bytes);
        if (opts.record_trace) {
          res.trace.add(ptg::TraceEvent{hn, -1, -1,
                                        ptg::params_of(st.l1, st.l2), now,
                                        t_dep, true});
        }
        events.push(Event{t_dep, seq++, EvType::kDeposit, ev.task, -1, 0.0,
                          0, ev.gen});
        break;
      }
      case EvType::kDeposit: {
        if (ev.gen != task_gen[static_cast<size_t>(ev.task)]) break;
        if (completed[static_cast<size_t>(ev.task)]) break;
        if (node_dead[static_cast<size_t>(
                home_node[static_cast<size_t>(ev.task)])]) {
          break;  // deposited on the dead node, lost with it
        }
        if (deps[static_cast<size_t>(ev.task)] > 0 &&
            --deps[static_cast<size_t>(ev.task)] == 0) {
          make_ready(ev.task, now);
        }
        break;
      }
      case EvType::kStealReq: {
        // Victim side: harvest the lowest-priority half of the ready
        // queue (capped), skipping non-migratable work, and ship it with
        // its input payloads. An empty-handed reply still goes back so
        // the thief can re-arm.
        const int thief = ev.task;
        if (node_dead[static_cast<size_t>(ev.core)]) {
          // Dead victim never answers; model the thief's re-arm as an
          // empty reply after the usual round trip.
          events.push(Event{now + cm.net_latency_s, seq++,
                            EvType::kStealReply, -1, thief, 0.0, ev.core});
          break;
        }
        NodeState& victim = nodes[static_cast<size_t>(ev.core)];
        const double t_seen = victim.comm.serve(now, cm.comm_msg_overhead_s);
        std::vector<ReadyEntry> all;
        while (!victim.ready.empty()) {
          all.push_back(victim.ready.top());
          victim.ready.pop();
        }
        const size_t want =
            std::min(all.size() / 2, ptg::Context::kStealMaxBatch);
        std::vector<int32_t> batch;
        double bytes = 0.0;
        for (auto it = all.rbegin(); it != all.rend(); ++it) {
          const SimTask& t = graph.tasks[static_cast<size_t>(it->task)];
          if (batch.size() < want && t.kind != SimTaskKind::kWrite &&
              !t.needs_mutex) {
            batch.push_back(it->task);
            // Claimed by the thief the moment it leaves the victim's queue:
            // if the thief dies while the batch is on the wire, recovery
            // finds these tasks by exec_node and re-homes them.
            exec_node[static_cast<size_t>(it->task)] = thief;
            bytes += t.bytes;
          } else {
            victim.ready.push(*it);
          }
        }
        double t_ready = t_seen;
        int32_t bidx = -1;
        if (!batch.empty()) {
          t_ready = victim.nic_out.serve(t_seen, cm.wire_time(bytes));
          res.comm_busy_time += cm.wire_time(bytes);
          res.steal_bytes += bytes;
          res.steal_hits += 1;
          bidx = static_cast<int32_t>(steal_batches.size());
          steal_batches.push_back(std::move(batch));
        }
        events.push(Event{t_ready + cm.net_latency_s +
                              cm.protocol_latency(bytes),
                          seq++, EvType::kStealReply, bidx, thief, bytes,
                          ev.core});
        break;
      }
      case EvType::kStealReply: {
        const int thief = ev.core;
        if (node_dead[static_cast<size_t>(thief)]) break;
        NodeState& tn = nodes[static_cast<size_t>(thief)];
        tn.steal_inflight = false;
        if (ev.task < 0) {
          tn.next_steal_at = now + kStealBackoffS;
          break;
        }
        const double t_in = tn.nic_in.serve(now, cm.wire_time(ev.bytes));
        const double t_dep = tn.comm.serve(t_in, cm.comm_msg_overhead_s);
        for (const int32_t id : steal_batches[static_cast<size_t>(ev.task)]) {
          exec_node[static_cast<size_t>(id)] = thief;
          tn.ready.push(
              ReadyEntry{graph.tasks[static_cast<size_t>(id)].priority,
                         seq++, id});
          res.tasks_migrated += 1;
        }
        dispatch(thief, t_dep);
        break;
      }
      case EvType::kDeath: {
        // Fail-stop: cores vanish mid-task (their kFinish events are
        // fenced), the ready queue is lost, nothing is sent again.
        NodeState& dn = nodes[static_cast<size_t>(ev.core)];
        node_dead[static_cast<size_t>(ev.core)] = 1;
        dn.idle_cores.clear();
        while (!dn.ready.empty()) dn.ready.pop();
        break;
      }
      case EvType::kRecover: {
        // Survivors confirmed the death: adopt every task the dead node
        // was responsible for executing (its whole partition re-executes,
        // the runtime's kRetry model), bump incarnations so stale events
        // are fenced, and replay inputs whose producers already completed
        // elsewhere (lineage replay pays full wire cost).
        const int F = ev.core;
        res.recovery_started_at = now;
        std::vector<int> surv;
        for (int n = 0; n < P; ++n) {
          if (!node_dead[static_cast<size_t>(n)]) surv.push_back(n);
        }
        MP_REQUIRE(!surv.empty(), "simulate_ptg: every node died");
        std::vector<int32_t> lost;
        for (size_t i = 0; i < graph.tasks.size(); ++i) {
          if (exec_node[i] != F) continue;
          completed[i] = 0;
          task_gen[i] += 1;
          lost.push_back(static_cast<int32_t>(i));
        }
        size_t rr = 0;
        for (const int32_t i : lost) {
          const int nn = surv[rr++ % surv.size()];
          home_node[static_cast<size_t>(i)] = nn;
          exec_node[static_cast<size_t>(i)] = nn;
          deps[static_cast<size_t>(i)] =
              graph.tasks[static_cast<size_t>(i)].ndeps;
          res.tasks_recovered += 1;
        }
        // Lineage replay: every completed producer of a lost task re-ships
        // its output to the adopter (the adopter has none of the dead
        // node's state). Producers that are themselves lost re-execute and
        // send normally.
        std::vector<uint8_t> is_lost(graph.tasks.size(), 0);
        for (const int32_t i : lost) is_lost[static_cast<size_t>(i)] = 1;
        for (size_t u = 0; u < graph.tasks.size(); ++u) {
          if (!completed[u]) continue;
          const SimTask& t = graph.tasks[u];
          for (const int32_t s : t.succs) {
            if (!is_lost[static_cast<size_t>(s)]) continue;
            const int32_t src = exec_node[u];
            const int32_t dst = home_node[static_cast<size_t>(s)];
            res.lineage_replays += 1;
            if (src == dst) {
              events.push(Event{now + cm.comm_msg_overhead_s, seq++,
                                EvType::kDeposit, s, -1, 0.0, 0,
                                task_gen[static_cast<size_t>(s)]});
              continue;
            }
            NodeState& sn = nodes[static_cast<size_t>(src)];
            const double t_comm = sn.comm.serve(now, cm.comm_msg_overhead_s);
            const double t_out =
                sn.nic_out.serve(t_comm, cm.wire_time(t.out_bytes));
            res.comm_busy_time += cm.wire_time(t.out_bytes);
            res.transfers += 1;
            res.bytes_transferred += t.out_bytes;
            events.push(Event{t_out + cm.net_latency_s +
                                  cm.protocol_latency(t.out_bytes),
                              seq++, EvType::kArrive, s, -1, t.out_bytes,
                              src, task_gen[static_cast<size_t>(s)]});
          }
        }
        // Dependency-free lost tasks (seeds, or chains whose inputs all
        // re-execute locally) restart immediately on their adopters.
        for (const int32_t i : lost) {
          if (deps[static_cast<size_t>(i)] == 0) make_ready(i, now);
        }
        try_steals(now);
        break;
      }
    }
  }

  res.makespan = now;
  const double capacity =
      res.makespan * static_cast<double>(P) * opts.cores_per_node;
  res.idle_fraction = capacity > 0.0 ? 1.0 - res.core_busy_time / capacity
                                     : 0.0;

  // Sanity: every dependency must have been consumed.
  for (size_t i = 0; i < deps.size(); ++i) {
    MP_ASSERT(deps[i] <= 0 || graph.tasks[i].ndeps == 0,
              "simulate_ptg: task never became ready (graph bug)");
    MP_ASSERT(deps[i] <= 0, "simulate_ptg: unexecuted task at end");
  }
  return res;
}

}  // namespace mp::sim
