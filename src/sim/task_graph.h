// The simulated task graph of a ChainPlan under a variant: the graph
// tce::build_ptg describes (READ/DFILL/GEMM/REDUCE/SORT/WRITE with the
// paper's dataflow and any chain segment height, see
// VariantConfig::segment_height), compiled into the runtime's flat graph
// (ptg::FlatGraph), verified, and priced per task. The simulator therefore
// runs exactly the tasks, placement and edges the runtime would run.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/cost_model.h"
#include "tce/chain_plan.h"
#include "tce/variants.h"

namespace mp::sim {

enum class SimTaskKind : int8_t {
  kDfill = 0,
  kReadA = 1,
  kReadB = 2,
  kGemm = 3,
  kReduce = 4,
  kSort = 5,
  kWrite = 6
};

const char* to_string(SimTaskKind k);

struct SimTask {
  int32_t id = 0;
  SimTaskKind kind = SimTaskKind::kGemm;
  int32_t node = 0;        ///< placement
  int32_t l1 = 0;          ///< chain number (for priorities / tracing)
  int32_t l2 = 0;          ///< secondary parameter
  double priority = 0.0;
  int32_t ndeps = 0;       ///< predecessor count (0 = startup task)
  double flops = 0.0;      ///< GEMM work
  double bytes = 0.0;      ///< memory traffic of the body
  double out_bytes = 0.0;  ///< size of the produced buffer (transfer size)
  bool needs_mutex = false;///< WRITE critical region
  std::vector<int32_t> succs;
};

struct GraphOptions {
  tce::VariantConfig variant = tce::VariantConfig::v5();
  int nodes = 32;
  /// Priority offsets of the paper's formula (readers +5, GEMM +1). The
  /// defaults are the runtime's; only the priority ablation changes them.
  int reader_offset = tce::PriorityScheme::kReaderOffset;
  int gemm_offset = tce::PriorityScheme::kGemmOffset;
};

struct SimGraph {
  std::vector<SimTask> tasks;
  int nodes = 0;
  size_t num_edges() const;
};

/// Compiles tce::build_ptg's graph of `plan` on opts.nodes nodes
/// (SimTask::id is the task's FlatGraph id) and prices every task. Throws
/// InvalidArgument when the graph fails static verification.
SimGraph build_graph(const tce::ChainPlan& plan, const GraphOptions& opts);

}  // namespace mp::sim
