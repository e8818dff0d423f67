#include "sim/original_sim.h"

#include <queue>

#include "ga/global_array.h"
#include "support/error.h"

namespace mp::sim {

std::vector<std::string> original_class_names() {
  return {"GET", "GEMM", "SORT", "ADD", "NXTVAL"};
}

std::vector<char> original_class_glyphs() {
  return {'~', 'G', 'S', 'w', 'x'};
}

namespace {

constexpr int16_t kGet = 0, kGemm = 1, kSort = 2, kAdd = 3, kNxtval = 4;

struct Fcfs {
  double free_at = 0.0;
  double serve(double t, double dur) {
    const double start = free_at > t ? free_at : t;
    free_at = start + dur;
    return free_at;
  }
};

// One sequential process (an "MPI rank" of the original code).
struct Proc {
  int node = 0;
  int core = 0;
  int chain = -1;     // current chain, -1 = needs a ticket
  int gemm_idx = 0;
  int sort_idx = 0;
  bool in_sorts = false;
};

struct Continuation {
  double time = 0.0;
  uint64_t seq = 0;
  int proc = 0;
  bool operator>(const Continuation& o) const {
    if (time != o.time) return time > o.time;
    return seq > o.seq;
  }
};

}  // namespace

OriginalSimResult simulate_original(const tce::ChainPlan& plan,
                                    const OriginalSimOptions& opts) {
  MP_REQUIRE(opts.nodes >= 1 && opts.cores_per_node >= 1,
             "simulate_original: bad cluster shape");
  const CostModel& cm = opts.cost;
  const int P = opts.nodes;
  const int cores = opts.cores_per_node;
  const int nprocs = P * opts.cores_per_node;
  const int nchains = static_cast<int>(plan.chains.size());

  std::vector<Proc> procs(static_cast<size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) {
    procs[static_cast<size_t>(p)].node = p / opts.cores_per_node;
    procs[static_cast<size_t>(p)].core = p % opts.cores_per_node;
  }

  Fcfs counter;                       // the NXTVAL server (lives on node 0)
  std::vector<Fcfs> nic_out(static_cast<size_t>(P));
  std::vector<Fcfs> acc_server(static_cast<size_t>(P));  // GA accumulate
  long next_ticket = 0;
  std::vector<int> static_next(static_cast<size_t>(nprocs));
  for (int p = 0; p < nprocs; ++p) static_next[static_cast<size_t>(p)] = p;

  OriginalSimResult res;
  uint64_t seq = 0;
  std::priority_queue<Continuation, std::vector<Continuation>,
                      std::greater<>>
      queue;
  for (int p = 0; p < nprocs; ++p) queue.push({0.0, seq++, p});

  auto trace_add = [&](const Proc& pr, int16_t cls, int32_t a, double t0,
                       double t1, bool comm) {
    if (!opts.record_trace) return;
    res.trace.add(ptg::TraceEvent{pr.node, pr.core, cls, ptg::params_of(a),
                                  t0, t1, comm});
  };

  // Blocking one-sided get from `owner`: request latency, FCFS service at
  // the owner NIC, data wire time, response latency. Local gets stream
  // from memory.
  auto blocking_get = [&](int node, int owner, double bytes, double t) {
    if (owner == node) return t + cm.stream_time(bytes, cores);
    const double t_served = nic_out[static_cast<size_t>(owner)].serve(
        t + cm.net_latency_s, cm.wire_time(bytes) + cm.comm_msg_overhead_s);
    return t_served + cm.net_latency_s;
  };

  double makespan = 0.0;
  while (!queue.empty()) {
    const Continuation c = queue.top();
    queue.pop();
    Proc& pr = procs[static_cast<size_t>(c.proc)];
    const double t = c.time;
    makespan = std::max(makespan, t);

    // Acquire work if needed.
    if (pr.chain < 0) {
      double t_ticket;
      long ticket;
      if (opts.static_distribution) {
        ticket = static_next[static_cast<size_t>(c.proc)];
        static_next[static_cast<size_t>(c.proc)] += nprocs;
        t_ticket = t;  // no global communication
      } else {
        // Round trip to the shared counter + FCFS serialization there.
        t_ticket = counter.serve(t + cm.nxtval_rtt_s / 2,
                                 cm.nxtval_service_s) +
                   cm.nxtval_rtt_s / 2;
        ticket = next_ticket++;
        res.nxtval_time += t_ticket - t;
        trace_add(pr, kNxtval, static_cast<int32_t>(ticket), t, t_ticket,
                  true);
      }
      if (ticket >= nchains) {
        makespan = std::max(makespan, t_ticket);
        continue;  // this process is done (level barrier = max end time)
      }
      pr.chain = static_cast<int>(ticket);
      pr.gemm_idx = 0;
      pr.sort_idx = 0;
      pr.in_sorts = false;
      queue.push({t_ticket, seq++, c.proc});
      continue;
    }

    const tce::Chain& chain = plan.chains[static_cast<size_t>(pr.chain)];
    const double c_bytes = 8.0 * static_cast<double>(chain.c_elems());

    if (!pr.in_sorts) {
      // GET A, GET B (blocking, back to back), then the GEMM.
      const tce::GemmOp& g = chain.gemms[static_cast<size_t>(pr.gemm_idx)];
      const int owner_a =
          ga::block_owner(g.a_offset, plan.store_size(chain.a_store), P);
      const int owner_b =
          ga::block_owner(g.b_offset, plan.store_size(chain.b_store), P);
      const double ta = blocking_get(pr.node, owner_a, 8.0 * g.m * g.k, t);
      const double tb =
          blocking_get(pr.node, owner_b, 8.0 * g.n * g.k, ta);
      res.blocked_comm_time += tb - t;
      trace_add(pr, kGet, g.l2, t, tb, true);

      const double gemm_bytes =
          8.0 * (static_cast<double>(g.m) * g.k +
                 static_cast<double>(g.k) * g.n +
                 2.0 * static_cast<double>(g.m) * g.n);
      const double tg = tb + cm.gemm_time(2.0 * g.m * g.n * g.k, gemm_bytes, cores);
      res.compute_time += tg - tb;
      trace_add(pr, kGemm, g.l2, tb, tg, false);

      if (++pr.gemm_idx >= static_cast<int>(chain.gemms.size())) {
        pr.in_sorts = true;
      }
      queue.push({tg, seq++, c.proc});
      continue;
    }

    // One guarded SORT followed by its blocking ADD_HASH_BLOCK.
    const double ts =
        t + cm.sort_overhead_s + cm.stream_time(2.0 * c_bytes, cores);
    res.compute_time += ts - t;
    trace_add(pr, kSort, pr.sort_idx, t, ts, false);

    const int owner_c =
        ga::block_owner(chain.c_offset, plan.store_size(chain.r_store), P);
    double tw;
    if (owner_c == pr.node) {
      tw = acc_server[static_cast<size_t>(owner_c)].serve(
          ts, cm.stream_time(2.0 * c_bytes, cores));
    } else {
      const double arrive =
          nic_out[static_cast<size_t>(pr.node)].serve(
              ts, cm.wire_time(c_bytes) + cm.comm_msg_overhead_s) +
          cm.net_latency_s;
      tw = acc_server[static_cast<size_t>(owner_c)].serve(
               arrive, cm.stream_time(2.0 * c_bytes, cores)) +
           cm.net_latency_s;
    }
    res.blocked_comm_time += tw - ts;
    trace_add(pr, kAdd, pr.sort_idx, ts, tw, true);

    if (++pr.sort_idx >= static_cast<int>(chain.sorts.size())) {
      pr.chain = -1;  // chain complete; fetch the next ticket
    }
    queue.push({tw, seq++, c.proc});
  }

  res.makespan = makespan;
  const double capacity = makespan * static_cast<double>(nprocs);
  res.idle_fraction =
      capacity > 0.0 ? 1.0 - res.compute_time / capacity : 0.0;
  return res;
}

}  // namespace mp::sim
