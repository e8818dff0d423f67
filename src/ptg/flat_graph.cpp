#include "ptg/flat_graph.h"

#include <algorithm>
#include <bit>
#include <climits>
#include <sstream>

#include "support/error.h"

namespace mp::ptg {

namespace {

/// The compile's key index: open addressing over task ids (-1 = empty),
/// sized once to at most half full.
class KeyIndex {
 public:
  KeyIndex(const std::vector<TaskKey>& keys, size_t capacity)
      : keys_(keys),
        slots_(std::bit_ceil(std::max<size_t>(2 * capacity, 2)), -1) {}

  /// The id of `key`, or -1.
  int32_t find(const TaskKey& key) const {
    for (size_t b = bucket(key);; b = (b + 1) & mask()) {
      if (slots_[b] < 0 || keys_[static_cast<size_t>(slots_[b])] == key) {
        return slots_[b];
      }
    }
  }

  /// Index keys_[id]; false (and nothing indexed) when the key is present.
  bool insert(int32_t id) {
    const TaskKey& key = keys_[static_cast<size_t>(id)];
    size_t b = bucket(key);
    for (; slots_[b] >= 0; b = (b + 1) & mask()) {
      if (keys_[static_cast<size_t>(slots_[b])] == key) return false;
    }
    slots_[b] = id;
    return true;
  }

 private:
  size_t mask() const { return slots_.size() - 1; }
  size_t bucket(const TaskKey& key) const {
    return TaskKeyHash{}(key) & mask();
  }

  const std::vector<TaskKey>& keys_;
  std::vector<int32_t> slots_;
};

}  // namespace

std::string FlatGraph::name_of(const TaskKey& key) const {
  std::ostringstream os;
  const bool known =
      key.cls >= 0 && static_cast<size_t>(key.cls) < class_names_.size();
  os << (known ? class_names_[static_cast<size_t>(key.cls)] : std::string("?"))
     << "(" << key.p[0] << "," << key.p[1] << "," << key.p[2] << ")";
  return os.str();
}

void FlatGraph::require_placeable(const std::string& who) const {
  if (placeable()) return;
  throw InvalidArgument(who +
                        ": the task graph has instances or edges that "
                        "cannot be placed; " +
                        analysis::render(diags_));
}

FlatGraph FlatGraph::compile(const Taskpool& pool, int nranks) {
  MP_REQUIRE(nranks >= 1 && nranks <= UINT16_MAX,
             "FlatGraph::compile: rank count out of range");
  pool.validate();
  FlatGraph g;
  g.nranks_ = nranks;
  const size_t nclasses = pool.num_classes();
  g.class_names_.reserve(nclasses);
  for (size_t ci = 0; ci < nclasses; ++ci) {
    g.class_names_.push_back(pool.cls(static_cast<int16_t>(ci)).name);
  }

  // Instances, in (rank, class, enumerate_rank) order. Enumerate first so
  // every per-task array is sized exactly once.
  std::vector<std::vector<Params>> enumerated;
  enumerated.reserve(static_cast<size_t>(nranks) * nclasses);
  size_t total = 0;
  for (int rank = 0; rank < nranks; ++rank) {
    for (size_t ci = 0; ci < nclasses; ++ci) {
      enumerated.push_back(
          pool.cls(static_cast<int16_t>(ci)).enumerate_rank(rank));
      total += enumerated.back().size();
    }
  }
  MP_REQUIRE(total < static_cast<size_t>(INT32_MAX),
             "FlatGraph::compile: too many task instances");
  g.keys_.reserve(total);
  g.info_.reserve(total);
  g.priority_.reserve(total);
  KeyIndex index(g.keys_, total);
  g.rank_begin_.assign(static_cast<size_t>(nranks) + 1, 0);
  g.startup_begin_.assign(static_cast<size_t>(nranks) + 1, 0);
  uint64_t slots = 0;
  for (int rank = 0; rank < nranks; ++rank) {
    for (size_t ci = 0; ci < nclasses; ++ci) {
      const TaskClass& c = pool.cls(static_cast<int16_t>(ci));
      std::vector<Params>& ps =
          enumerated[static_cast<size_t>(rank) * nclasses + ci];
      for (const Params& p : ps) {
        const auto id = static_cast<int32_t>(g.keys_.size());
        g.keys_.push_back(TaskKey{c.cls, p});
        if (!index.insert(id)) {
          g.diags_.push_back({"MPV002",
                              "task instance enumerated more than once "
                              "(second enumeration by rank " +
                                  std::to_string(rank) + ")",
                              g.name_of(g.keys_.back())});
          g.keys_.pop_back();
          continue;
        }
        const int inputs = c.num_task_inputs(p);
        const int outputs = c.num_outputs ? c.num_outputs(p) : -1;
        MP_REQUIRE(inputs >= 0 && inputs <= UINT16_MAX,
                   "FlatGraph::compile: " + g.name_of(id) +
                       " declares an input count out of range");
        MP_REQUIRE(outputs >= -1 && outputs <= INT16_MAX,
                   "FlatGraph::compile: " + g.name_of(id) +
                       " declares an output count out of range");
        Info info;
        info.input_base = static_cast<uint32_t>(slots);
        info.owner = static_cast<uint16_t>(rank);
        info.num_inputs = static_cast<uint16_t>(inputs);
        info.num_outputs = static_cast<int16_t>(outputs);
        slots += static_cast<uint64_t>(inputs);
        MP_REQUIRE(slots <= UINT32_MAX,
                   "FlatGraph::compile: too many input slots");
        const int home = c.rank_of(p);
        if (home != rank) {
          g.diags_.push_back({"MPV003",
                              "enumerated by rank " + std::to_string(rank) +
                                  " but rank_of() places it on rank " +
                                  std::to_string(home),
                              g.name_of(id)});
        }
        if (inputs == 0) g.startup_.push_back(id);
        g.info_.push_back(info);
        g.priority_.push_back(c.priority ? c.priority(p) : 0.0);
      }
      std::vector<Params>().swap(ps);
    }
    const auto r = static_cast<size_t>(rank) + 1;
    g.rank_begin_[r] = g.size();
    g.startup_begin_[r] = static_cast<uint32_t>(g.startup_.size());
  }
  g.num_input_slots_ = static_cast<uint32_t>(slots);

  // Edges, in route_outputs() order per producer.
  g.succ_begin_.reserve(g.keys_.size() + 1);
  g.edges_.reserve(g.keys_.size());
  std::vector<OutRoute> routes;
  for (int32_t id = 0; id < g.size(); ++id) {
    g.succ_begin_.push_back(static_cast<uint32_t>(g.edges_.size()));
    const TaskKey& key = g.keys_[idx(id)];
    const TaskClass& c = pool.cls(key.cls);
    if (!c.route_outputs) continue;
    routes.clear();
    c.route_outputs(key.p, routes);
    const size_t first = g.edges_.size();
    for (const OutRoute& r : routes) {
      const int32_t dst = index.find(r.consumer);
      if (dst < 0) {
        g.diags_.push_back({"MPV004",
                            "edge targets " + g.name_of(r.consumer) +
                                ", which no rank enumerates",
                            g.name_of(key)});
        continue;
      }
      const int inputs = g.info_[idx(dst)].num_inputs;
      if (r.in_slot < 0 || r.in_slot >= inputs) {
        g.diags_.push_back({"MPV005",
                            "edge from " + g.name_of(key) +
                                " feeds input slot " +
                                std::to_string(r.in_slot) +
                                " but the consumer declares " +
                                std::to_string(inputs) + " input(s)",
                            g.name_of(r.consumer)});
        continue;
      }
      g.edges_.push_back({dst, r.in_slot, r.out_slot, true});
    }
    // An output's last edge moves the handle; every earlier one copies it.
    for (size_t i = first; i < g.edges_.size(); ++i) {
      for (size_t j = i + 1; j < g.edges_.size(); ++j) {
        if (g.edges_[j].out_slot == g.edges_[i].out_slot) {
          g.edges_[i].last_use = false;
          break;
        }
      }
    }
    MP_REQUIRE(g.edges_.size() < UINT32_MAX,
               "FlatGraph::compile: too many edges");
  }
  g.succ_begin_.push_back(static_cast<uint32_t>(g.edges_.size()));
  // The graph lives as long as its template: return the growth slack.
  g.edges_.shrink_to_fit();
  g.startup_.shrink_to_fit();
  return g;
}

}  // namespace mp::ptg
