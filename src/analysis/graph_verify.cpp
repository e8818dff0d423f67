#include "analysis/graph_verify.h"

#include <cstdlib>
#include <cstring>
#include <deque>

namespace mp::analysis {

std::string GraphModel::name_of(const ptg::Taskpool& pool,
                                const ptg::TaskKey& key) {
  std::ostringstream os;
  os << pool.cls(key.cls).name << "(" << key.p[0] << "," << key.p[1] << ","
     << key.p[2] << ")";
  return os.str();
}

GraphModel materialize_graph(const ptg::Taskpool& pool, int nranks) {
  GraphModel g;
  pool.validate();

  // Instances: every class, every rank. Duplicate or mis-homed instances
  // are materialization-time findings.
  for (int rank = 0; rank < nranks; ++rank) {
    for (size_t ci = 0; ci < pool.num_classes(); ++ci) {
      const ptg::TaskClass& c = pool.cls(static_cast<int16_t>(ci));
      for (const ptg::Params& p : c.enumerate_rank(rank)) {
        const ptg::TaskKey key{c.cls, p};
        auto [it, inserted] =
            g.index.emplace(key, static_cast<int>(g.tasks.size()));
        if (!inserted) {
          g.diags.push_back({"MPV002",
                             "task instance enumerated more than once "
                             "(second enumeration by rank " +
                                 std::to_string(rank) + ")",
                             GraphModel::name_of(pool, key)});
          continue;
        }
        GraphTask t;
        t.key = key;
        t.owner = rank;
        t.num_inputs = c.num_task_inputs(p);
        t.num_outputs = c.num_outputs ? c.num_outputs(p) : -1;
        t.producers_per_slot.assign(
            t.num_inputs > 0 ? static_cast<size_t>(t.num_inputs) : 0, 0);
        if (t.num_outputs > 0) {
          t.consumers_per_out.assign(static_cast<size_t>(t.num_outputs), 0);
        }
        if (c.rank_of(p) != rank) {
          g.diags.push_back(
              {"MPV003",
               "enumerated by rank " + std::to_string(rank) +
                   " but rank_of() places it on rank " +
                   std::to_string(c.rank_of(p)),
               GraphModel::name_of(pool, key)});
        }
        g.tasks.push_back(std::move(t));
      }
    }
  }

  // Edges: evaluate route_outputs per instance.
  for (size_t ti = 0; ti < g.tasks.size(); ++ti) {
    GraphTask& t = g.tasks[ti];
    const ptg::TaskClass& c = pool.cls(t.key.cls);
    if (!c.route_outputs) continue;
    std::vector<ptg::OutRoute> routes;
    c.route_outputs(t.key.p, routes);
    for (const ptg::OutRoute& r : routes) {
      ++g.num_edges;
      if (t.num_outputs >= 0) {
        if (r.out_slot < 0 || r.out_slot >= t.num_outputs) {
          g.diags.push_back(
              {"MPV011",
               "edge leaves output slot " + std::to_string(r.out_slot) +
                   " but the class declares " + std::to_string(t.num_outputs) +
                   " output(s)",
               GraphModel::name_of(pool, t.key)});
        } else {
          ++t.consumers_per_out[static_cast<size_t>(r.out_slot)];
        }
      }
      auto it = g.index.find(r.consumer);
      if (it == g.index.end()) {
        g.diags.push_back(
            {"MPV004",
             "edge targets " + GraphModel::name_of(pool, r.consumer) +
                 ", which no rank enumerates",
             GraphModel::name_of(pool, t.key)});
        continue;
      }
      GraphTask& dst = g.tasks[static_cast<size_t>(it->second)];
      if (r.in_slot < 0 || r.in_slot >= dst.num_inputs) {
        g.diags.push_back(
            {"MPV005",
             "edge from " + GraphModel::name_of(pool, t.key) +
                 " feeds input slot " + std::to_string(r.in_slot) +
                 " but the consumer declares " +
                 std::to_string(dst.num_inputs) + " input(s)",
             GraphModel::name_of(pool, r.consumer)});
        continue;
      }
      if (++dst.producers_per_slot[static_cast<size_t>(r.in_slot)] == 2) {
        g.diags.push_back(
            {"MPV006",
             "input slot " + std::to_string(r.in_slot) +
                 " is fed by more than one producer (duplicate writer; "
                 "the runtime would fault on the double deposit)",
             GraphModel::name_of(pool, r.consumer)});
      }
      t.succ.push_back(it->second);
    }
  }
  return g;
}

std::vector<Diag> verify_graph(const ptg::Taskpool& pool,
                               const GraphModel& g) {
  std::vector<Diag> diags = g.diags;

  size_t startup = 0;
  for (const GraphTask& t : g.tasks) {
    if (t.num_inputs == 0) ++startup;
    for (int slot = 0; slot < t.num_inputs; ++slot) {
      const int n = t.producers_per_slot[static_cast<size_t>(slot)];
      if (n == 0) {
        diags.push_back(
            {"MPV007",
             "declared input slot " + std::to_string(slot) +
                 " is never fed by any producer (dropped edge; the task "
                 "can never become ready)",
             GraphModel::name_of(pool, t.key)});
      }
    }
    // Refcount conservation: every declared output must reach >= 1
    // consumer, otherwise its DataBuf retain has no matching release.
    for (size_t o = 0; o < t.consumers_per_out.size(); ++o) {
      if (t.consumers_per_out[o] == 0) {
        diags.push_back(
            {"MPV010",
             "declared output slot " + std::to_string(o) +
                 " reaches no consumer (leaked DataBuf: retained by the "
                 "producer, never released to a successor)",
             GraphModel::name_of(pool, t.key)});
      }
    }
  }
  if (startup == 0 && !g.tasks.empty()) {
    diags.push_back({"MPV009",
                     "graph has " + std::to_string(g.tasks.size()) +
                         " tasks but no startup task (every instance "
                         "declares task inputs)",
                     ""});
  }

  // Reachability + acyclicity in one Kahn sweep over the *actual* edges:
  // a task fires once all edges that really exist have delivered. Seeding
  // with startup tasks, anything left either sits behind a dropped edge
  // (already reported as MPV007), is unreachable, or is on a cycle.
  std::vector<int> remaining(g.tasks.size(), 0);
  std::deque<int> ready;
  for (size_t i = 0; i < g.tasks.size(); ++i) {
    int in_edges = 0;
    for (int n : g.tasks[i].producers_per_slot) in_edges += n;
    remaining[i] = in_edges;
    if (g.tasks[i].num_inputs == 0) ready.push_back(static_cast<int>(i));
  }
  std::vector<bool> fired(g.tasks.size(), false);
  while (!ready.empty()) {
    const int i = ready.front();
    ready.pop_front();
    if (fired[static_cast<size_t>(i)]) continue;
    fired[static_cast<size_t>(i)] = true;
    for (int s : g.tasks[static_cast<size_t>(i)].succ) {
      if (--remaining[static_cast<size_t>(s)] == 0 &&
          !fired[static_cast<size_t>(s)]) {
        ready.push_back(s);
      }
    }
  }
  bool any_starved = false;
  for (const Diag& d : diags) any_starved |= (d.code == "MPV007");
  for (size_t i = 0; i < g.tasks.size(); ++i) {
    if (fired[i] || g.tasks[i].num_inputs == 0) continue;
    bool starved = false;
    for (int n : g.tasks[i].producers_per_slot) starved |= (n == 0);
    if (starved) continue;  // already reported as MPV007
    // Fully-fed but never fired. With no dropped edge anywhere in the
    // graph the only explanation is a dependency cycle; with one, the task
    // is (also) starved transitively through its producers.
    diags.push_back({any_starved ? "MPV008" : "MPV001",
                     any_starved
                         ? "task can never become ready (transitively "
                           "starved by a dropped edge, or on a cycle)"
                         : "task is part of a dependency cycle",
                     GraphModel::name_of(pool, g.tasks[i].key)});
  }
  return diags;
}

std::vector<Diag> verify_graph(const ptg::Taskpool& pool, int nranks) {
  return verify_graph(pool, materialize_graph(pool, nranks));
}

bool env_verify_enabled() {
  const char* e = std::getenv("MP_VERIFY");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}

}  // namespace mp::analysis
