#include "sim/task_graph.h"

#include "analysis/graph_verify.h"
#include "support/error.h"
#include "tce/ptg_build.h"

namespace mp::sim {

const char* to_string(SimTaskKind k) {
  switch (k) {
    case SimTaskKind::kDfill: return "DFILL";
    case SimTaskKind::kReadA: return "READ_A";
    case SimTaskKind::kReadB: return "READ_B";
    case SimTaskKind::kGemm: return "GEMM";
    case SimTaskKind::kReduce: return "REDUCE";
    case SimTaskKind::kSort: return "SORT";
    case SimTaskKind::kWrite: return "WRITE";
  }
  return "?";
}

size_t SimGraph::num_edges() const {
  size_t n = 0;
  for (const auto& t : tasks) n += t.succs.size();
  return n;
}

SimGraph build_graph(const tce::ChainPlan& plan, const GraphOptions& opts) {
  MP_REQUIRE(opts.nodes >= 1, "build_graph: need >= 1 node");
  const tce::VariantConfig& var = opts.variant;
  const tce::PtgBuild b = tce::build_ptg(plan, var, opts.nodes);
  const ptg::FlatGraph m = ptg::FlatGraph::compile(b.pool, opts.nodes);
  const auto diags = analysis::verify_graph(m);
  MP_REQUIRE(diags.empty(),
             "build_graph: task graph failed static verification; " +
                 analysis::render(diags));

  const tce::PtgClassIds& ids = b.ids;
  const tce::PriorityScheme scheme{static_cast<int>(plan.chains.size()),
                                   opts.nodes};
  SimGraph g;
  g.nodes = opts.nodes;
  g.tasks.resize(static_cast<size_t>(m.size()));
  for (int32_t id = 0; id < m.size(); ++id) {
    const ptg::TaskKey& key = m.key(id);
    SimTask& t = g.tasks[static_cast<size_t>(id)];
    t.id = id;
    t.node = m.owner(id);
    t.l1 = key.p[0];
    t.l2 = key.p[1];
    t.ndeps = m.num_inputs(id);
    const auto succs = m.successors(id);
    t.succs.reserve(succs.size());
    for (const ptg::FlatGraph::Edge& e : succs) t.succs.push_back(e.consumer);

    const tce::Chain& ch = plan.chains[static_cast<size_t>(t.l1)];
    const double c_bytes = 8.0 * static_cast<double>(ch.c_elems());
    const int16_t cls = key.cls;
    int offset = 0;
    if (cls == ids.read_a || cls == ids.read_b) {
      const tce::GemmOp& go = ch.gemms[static_cast<size_t>(t.l2)];
      const bool a = cls == ids.read_a;
      t.kind = a ? SimTaskKind::kReadA : SimTaskKind::kReadB;
      // A READ hands out a view of its block: no local memory traffic. A
      // consumer on another node receives the block.
      t.out_bytes = 8.0 * (a ? go.m : go.n) * go.k;
      offset = opts.reader_offset;
    } else if (cls == ids.gemm) {
      const tce::GemmOp& go = ch.gemms[static_cast<size_t>(t.l2)];
      t.kind = SimTaskKind::kGemm;
      t.flops = 2.0 * go.m * go.n * go.k;
      // Working-set traffic of the kernel (A + B streamed, C read+written).
      t.bytes = 8.0 * (static_cast<double>(go.m) * go.k +
                       static_cast<double>(go.k) * go.n +
                       2.0 * static_cast<double>(go.m) * go.n);
      t.out_bytes = c_bytes;
      offset = opts.gemm_offset;
    } else if (cls == ids.dfill) {
      t.kind = SimTaskKind::kDfill;
      t.bytes = c_bytes;
      t.out_bytes = c_bytes;
    } else if (cls == ids.reduce) {
      t.kind = SimTaskKind::kReduce;
      t.bytes = 2.0 * c_bytes;
      t.out_bytes = c_bytes;
    } else if (cls == ids.sort) {
      t.kind = SimTaskKind::kSort;
      // A serial SORT reads C once and writes every guarded permutation
      // into one master buffer.
      t.bytes = var.parallel_sorts
                    ? 2.0 * c_bytes
                    : c_bytes * (1.0 + static_cast<double>(ch.sorts.size()));
      t.out_bytes = c_bytes;
    } else {
      MP_DCHECK(cls == ids.write, "build_graph: unknown task class");
      t.kind = SimTaskKind::kWrite;
      // Every input is accumulated into the GA inside the node mutex.
      t.bytes = 2.0 * c_bytes * t.ndeps;
      t.needs_mutex = true;
    }

    if (var.priorities) {
      t.priority = scheme.value(t.l1, offset);
    } else {
      // Without priorities PaRSEC's multi-queue scheduler executes ready
      // tasks in an effectively arbitrary order (per-thread queues +
      // stealing), not in submission order. Model that with a
      // deterministic pseudo-random order so the v2 behaviour (Fig. 11's
      // startup flood) emerges instead of an accidentally-optimal FIFO.
      uint64_t x = static_cast<uint64_t>(t.id) + 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      x ^= x >> 31;
      t.priority = static_cast<double>(x >> 11) * 0x1.0p-53;
    }
  }
  return g;
}

}  // namespace mp::sim
