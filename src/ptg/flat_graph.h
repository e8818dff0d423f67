// A Taskpool compiled into one flat, immutable task graph for a fixed rank
// count. The Taskpool describes its graph symbolically (rank_of, priority,
// num_task_inputs, route_outputs and enumerate_rank per class); compiling
// evaluates that description exactly once, into dense task ids:
//
//   per task   its key, owner rank, priority, input count, declared output
//              count and the offset of its first input slot;
//   per edge   a CSR successor list in route_outputs() order, each edge
//              naming the consumer id, its input slot, the producer's
//              output slot and whether it is that output's last use;
//   per rank   its own task ids (one contiguous id range, in class order,
//              then enumerate_rank order) and its startup tasks (the ones
//              without task inputs) in the same order.
//
// One FlatGraph has three readers: the runtime (ptg::Context) runs it, the
// static verifier (analysis::verify_graph) checks it, and the simulator
// (sim::build_graph) prices it, so all three see the same materialization.
// A PtgTemplate compiles its graph once and shares it read-only with every
// Context of every session; a Context given a bare pool compiles its own.
//
// Compiling never throws on a malformed description. What it cannot place
// becomes a diagnostic instead (analysis/graph_verify.h has the codes):
// MPV002 (a duplicate instance, dropped), MPV003 (an instance enumerated by
// a rank that rank_of() does not name; it stays with the enumerating rank),
// MPV004 (an edge to an instance no rank enumerates, dropped) and MPV005 (an
// edge into an input slot the consumer does not declare, dropped). A graph
// with any of them is not placeable, and the runtime refuses it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "ptg/taskpool.h"
#include "ptg/types.h"

namespace mp::ptg {

class FlatGraph {
 public:
  /// One routed output edge of a producer.
  struct Edge {
    int32_t consumer = -1;  ///< task id of the consumer
    int8_t in_slot = 0;     ///< the consumer's input slot
    int8_t out_slot = 0;    ///< the producer's output slot
    /// No later edge of the same producer reads `out_slot`: this edge may
    /// take the producer's buffer handle by move.
    bool last_use = false;
  };

  FlatGraph() = default;

  /// Evaluate every instance and edge of `pool` for `nranks` ranks. Throws
  /// only for an invalid pool (Taskpool::validate) or rank count.
  static FlatGraph compile(const Taskpool& pool, int nranks);

  int nranks() const { return nranks_; }
  /// Number of task instances; ids are 0 .. size() - 1.
  int32_t size() const { return static_cast<int32_t>(keys_.size()); }
  size_t num_edges() const { return edges_.size(); }

  const TaskKey& key(int32_t id) const { return keys_[idx(id)]; }
  int owner(int32_t id) const { return info_[idx(id)].owner; }
  double task_priority(int32_t id) const { return priority_[idx(id)]; }
  /// Every task's priority, indexed by id.
  std::span<const double> priorities() const { return priority_; }
  int num_inputs(int32_t id) const { return info_[idx(id)].num_inputs; }
  /// Declared output count; -1 when the class has no num_outputs().
  int num_outputs(int32_t id) const { return info_[idx(id)].num_outputs; }
  /// Offset of the task's first input slot among all tasks' input slots,
  /// numbered in id order (so a rank's slots are one contiguous range).
  uint32_t input_base(int32_t id) const { return info_[idx(id)].input_base; }
  /// Total input slots over all tasks.
  uint32_t num_input_slots() const { return num_input_slots_; }

  std::span<const Edge> successors(int32_t id) const {
    return {edges_.data() + succ_begin_[idx(id)],
            edges_.data() + succ_begin_[idx(id) + 1]};
  }

  /// The ids rank r owns: [rank_begin(r), rank_end(r)).
  int32_t rank_begin(int r) const {
    return rank_begin_[static_cast<size_t>(r)];
  }
  int32_t rank_end(int r) const {
    return rank_begin_[static_cast<size_t>(r) + 1];
  }
  /// Rank r's tasks without task inputs, in the order the runtime enqueues
  /// them: class order, then enumerate_rank() order.
  std::span<const int32_t> startup(int r) const {
    const auto b = static_cast<size_t>(r);
    return {startup_.data() + startup_begin_[b],
            startup_.data() + startup_begin_[b + 1]};
  }

  /// Findings of the compile (MPV002-MPV005), in evaluation order.
  const std::vector<analysis::Diag>& diags() const { return diags_; }
  /// True when the compile placed every instance and every edge.
  bool placeable() const { return diags_.empty(); }
  /// Raises InvalidArgument carrying the compile's findings unless the
  /// graph is placeable. `who` prefixes the message.
  void require_placeable(const std::string& who) const;

  /// Symbolic name "GEMM(3,1,0)" for reports; works for keys the graph
  /// does not contain (as long as the class id is known).
  std::string name_of(const TaskKey& key) const;
  std::string name_of(int32_t id) const { return name_of(key(id)); }

 private:
  struct Info {
    uint32_t input_base = 0;
    uint16_t owner = 0;
    uint16_t num_inputs = 0;
    int16_t num_outputs = -1;
  };

  static size_t idx(int32_t id) { return static_cast<size_t>(id); }

  int nranks_ = 0;
  std::vector<std::string> class_names_;
  std::vector<TaskKey> keys_;
  std::vector<Info> info_;
  std::vector<double> priority_;
  std::vector<uint32_t> succ_begin_;  ///< size() + 1 offsets into edges_
  std::vector<Edge> edges_;
  uint32_t num_input_slots_ = 0;
  std::vector<int32_t> rank_begin_;  ///< nranks + 1
  std::vector<int32_t> startup_;
  std::vector<uint32_t> startup_begin_;  ///< nranks + 1 offsets
  std::vector<analysis::Diag> diags_;
};

}  // namespace mp::ptg
