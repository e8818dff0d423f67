// The Taskpool is our Parameterized Task Graph: a set of task classes whose
// instances, dataflow and placement are given *symbolically* as functions of
// the task parameters. This mirrors the PTG abstraction of the paper
// (Fig. 1):
//   rank_of(p)        — the ":" placement line,
//   priority(p)       — the ";" priority line,
//   num_task_inputs(p)— how many input flows arrive from other tasks,
//   route_outputs(p)  — the "->" dataflow lines.
// ptg::FlatGraph::compile (ptg/flat_graph.h) evaluates the description once
// per rank count; the runtime then runs the compiled graph and calls only
// a class's body (and, after a rank death, its recovery hooks). Inputs a
// task fetches itself (e.g. READ tasks pulling from a Global Array inside
// their body) are *not* task inputs.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ptg/types.h"

namespace mp::ptg {

class Context;

/// Execution-time view handed to a task body. It reads the task's inputs
/// in place — the runtime's input slots of this task — and writes its
/// outputs into a vector the runtime reuses from task to task.
class TaskCtx {
 public:
  TaskCtx(Context* rt, const TaskKey& key, std::span<DataBuf> inputs,
          std::vector<DataBuf>& outputs, int worker)
      : rt_(rt), key_(key), inputs_(inputs), outputs_(&outputs),
        worker_(worker) {}

  const TaskKey& key() const { return key_; }
  const Params& params() const { return key_.p; }
  int worker() const { return worker_; }

  /// Input buffer deposited into `slot` by a predecessor task.
  const DataBuf& input(int slot) const;

  /// Take an input buffer over to mutate it (the RW chain flow of matrix
  /// C). Copy on write: the task gets the deposited buffer itself when it
  /// holds the only handle to an owned buffer, else a private copy — a
  /// view is read-only whoever holds it, and a received buffer may be the
  /// very object a fan-out sibling, the lineage log or a retained steal
  /// record still reads. Raises, like input(), for a slot that was never
  /// deposited or was already taken.
  DataBuf take_input(int slot);

  /// Publish an output buffer; the runtime routes it along the task's
  /// out-edges.
  void set_output(int slot, DataBuf buf);

  /// The runtime context executing this task (rank id, tracing, ...).
  Context& runtime() const { return *rt_; }

 private:
  Context* rt_;
  TaskKey key_;
  std::span<DataBuf> inputs_;
  std::vector<DataBuf>* outputs_;
  int worker_;
};

/// Symbolic description of one task class.
struct TaskClass {
  std::string name;
  int16_t cls = -1;

  /// Placement: which rank owns (executes) instance p. Required.
  std::function<int(const Params&)> rank_of;

  /// Relative priority of instance p; higher runs first among ready tasks.
  /// Optional — defaults to 0 (no priority), the paper's v2 configuration.
  std::function<double(const Params&)> priority;

  /// Number of input slots filled by predecessor tasks (the activation
  /// threshold). Instances with 0 task inputs are startup tasks. Required.
  std::function<int(const Params&)> num_task_inputs;

  /// Number of output slots instance p sets (0 for sink tasks). Optional —
  /// when present, the static verifier (analysis/graph_verify.h) checks
  /// refcount conservation: every declared output slot must reach at least
  /// one consumer and no route may leave an undeclared slot.
  std::function<int(const Params&)> num_outputs;

  /// Dataflow: append one OutRoute per "->" edge of instance p. Optional —
  /// sink tasks (e.g. WRITE_C) route nothing.
  std::function<void(const Params&, std::vector<OutRoute>&)> route_outputs;

  /// All instances of this class owned by `rank`. The compile enumerates
  /// every rank's instances; their order is the order in which a rank
  /// enqueues its startup tasks. Required.
  std::function<std::vector<Params>(int rank)> enumerate_rank;

  /// The task body. Required to run: a Context refuses a class without
  /// one. A pool without bodies still describes its graph, which the
  /// verifier and the simulator materialize.
  std::function<void(TaskCtx&)> body;

  /// Whether ready instances may be migrated to another rank by the
  /// inter-node steal agent. Classes whose body relies on rank-local state
  /// beyond their task inputs (e.g. WRITE_C serializing through a per-rank
  /// mutex onto locally-owned Global Array blocks) must opt out.
  bool migratable = true;

  // -- rank-failure recovery hooks (DESIGN.md §10); both optional --

  /// Recovery co-adoption group of instance p. When a rank dies, every lost
  /// instance with the same recovery_key is adopted by the same survivor,
  /// and on_adopt runs once per group before any of them is re-executed.
  /// Classes that accumulate into shared external state (WRITE_C adding
  /// into a Global Array block) set this to the target-block id so *all*
  /// writers of one block recover together; without it each instance is its
  /// own group.
  std::function<int64_t(const Params&)> recovery_key;

  /// Called on the adopting rank's comm thread — once per (dead rank,
  /// recovery group), before any adopted instance of the group is made
  /// ready — to reset external side effects of the group's partial pre-
  /// crash execution. WRITE_C uses this to zero its Global Array block so
  /// full re-execution accumulates exactly once.
  std::function<void(const Params&, int dead_rank)> on_adopt;
};

/// A complete PTG: an ordered set of task classes. Class ids are assigned
/// densely in registration order.
class Taskpool {
 public:
  /// Register a class; fills in tc.cls and returns it.
  int16_t add_class(TaskClass tc);

  const TaskClass& cls(int16_t id) const;

  /// Mutable access, for wiring route_outputs between classes whose ids are
  /// only known after registration (dataflow cycles in the *description*,
  /// not in the DAG).
  TaskClass& mutable_cls(int16_t id) {
    return const_cast<TaskClass&>(static_cast<const Taskpool*>(this)->cls(id));
  }

  size_t num_classes() const { return classes_.size(); }

  /// Find a class id by name; -1 if absent.
  int16_t find(const std::string& name) const;

  /// Validate that every registered class has the functions that describe
  /// its instances (name, rank_of, num_task_inputs, enumerate_rank).
  /// Throws InvalidArgument describing the first problem found.
  void validate() const;

 private:
  std::vector<TaskClass> classes_;
};

}  // namespace mp::ptg
