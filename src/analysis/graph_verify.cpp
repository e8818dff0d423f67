#include "analysis/graph_verify.h"

#include <cstdlib>
#include <cstring>
#include <deque>

namespace mp::analysis {

std::vector<Diag> verify_graph(const ptg::FlatGraph& g) {
  std::vector<Diag> diags = g.diags();
  const int32_t n = g.size();

  // Edge counts into every input slot and out of every declared output.
  std::vector<int> fed(g.num_input_slots(), 0);
  std::vector<int> out_uses;
  for (int32_t id = 0; id < n; ++id) {
    const int outs = g.num_outputs(id);
    out_uses.assign(outs > 0 ? static_cast<size_t>(outs) : 0, 0);
    for (const ptg::FlatGraph::Edge& e : g.successors(id)) {
      if (outs >= 0) {
        if (e.out_slot < 0 || e.out_slot >= outs) {
          diags.push_back(
              {"MPV011",
               "edge leaves output slot " + std::to_string(e.out_slot) +
                   " but the class declares " + std::to_string(outs) +
                   " output(s)",
               g.name_of(id)});
        } else {
          ++out_uses[static_cast<size_t>(e.out_slot)];
        }
      }
      if (++fed[g.input_base(e.consumer) + static_cast<uint32_t>(e.in_slot)] ==
          2) {
        diags.push_back(
            {"MPV006",
             "input slot " + std::to_string(e.in_slot) +
                 " is fed by more than one producer (duplicate writer; "
                 "the runtime would fault on the double deposit)",
             g.name_of(e.consumer)});
      }
    }
    // Refcount conservation: every declared output must reach >= 1
    // consumer, otherwise its DataBuf retain has no matching release.
    for (size_t o = 0; o < out_uses.size(); ++o) {
      if (out_uses[o] == 0) {
        diags.push_back(
            {"MPV010",
             "declared output slot " + std::to_string(o) +
                 " reaches no consumer (leaked DataBuf: retained by the "
                 "producer, never released to a successor)",
             g.name_of(id)});
      }
    }
  }

  // Reachability + acyclicity in one Kahn sweep over the *actual* edges:
  // a task fires once all edges that really exist have delivered. Seeding
  // with startup tasks, anything left either sits behind a dropped edge
  // (reported as MPV007), is unreachable, or is on a cycle.
  size_t startup = 0;
  bool any_starved = false;
  std::vector<int> remaining(static_cast<size_t>(n), 0);
  std::vector<uint8_t> starved(static_cast<size_t>(n), 0);
  std::deque<int32_t> ready;
  for (int32_t id = 0; id < n; ++id) {
    const int inputs = g.num_inputs(id);
    if (inputs == 0) {
      ++startup;
      ready.push_back(id);
    }
    for (int slot = 0; slot < inputs; ++slot) {
      const int edges = fed[g.input_base(id) + static_cast<uint32_t>(slot)];
      remaining[static_cast<size_t>(id)] += edges;
      if (edges == 0) {
        starved[static_cast<size_t>(id)] = 1;
        any_starved = true;
        diags.push_back(
            {"MPV007",
             "declared input slot " + std::to_string(slot) +
                 " is never fed by any producer (dropped edge; the task "
                 "can never become ready)",
             g.name_of(id)});
      }
    }
  }
  if (startup == 0 && n > 0) {
    diags.push_back({"MPV009",
                     "graph has " + std::to_string(n) +
                         " tasks but no startup task (every instance "
                         "declares task inputs)",
                     ""});
  }
  std::vector<bool> fired(static_cast<size_t>(n), false);
  while (!ready.empty()) {
    const int32_t i = ready.front();
    ready.pop_front();
    if (fired[static_cast<size_t>(i)]) continue;
    fired[static_cast<size_t>(i)] = true;
    for (const ptg::FlatGraph::Edge& e : g.successors(i)) {
      const auto s = static_cast<size_t>(e.consumer);
      if (--remaining[s] == 0 && !fired[s]) ready.push_back(e.consumer);
    }
  }
  for (int32_t id = 0; id < n; ++id) {
    const auto i = static_cast<size_t>(id);
    if (fired[i] || g.num_inputs(id) == 0 || starved[i]) continue;
    // Fully-fed but never fired. With no dropped edge anywhere in the
    // graph the only explanation is a dependency cycle; with one, the task
    // is (also) starved transitively through its producers.
    diags.push_back({any_starved ? "MPV008" : "MPV001",
                     any_starved
                         ? "task can never become ready (transitively "
                           "starved by a dropped edge, or on a cycle)"
                         : "task is part of a dependency cycle",
                     g.name_of(id)});
  }
  return diags;
}

std::vector<Diag> verify_graph(const ptg::Taskpool& pool, int nranks) {
  return verify_graph(ptg::FlatGraph::compile(pool, nranks));
}

bool env_verify_enabled() {
  const char* e = std::getenv("MP_VERIFY");
  return e != nullptr && *e != '\0' && std::strcmp(e, "0") != 0;
}

}  // namespace mp::analysis
