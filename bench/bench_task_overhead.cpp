// Per-task runtime overhead of the PTG runtime on empty tasks.
//
// Workloads:
//   chains   2048 chains of 64 tasks. Each task takes its one-double input
//            over, adds one and passes it on, so the body costs next to
//            nothing and the time is the runtime's: scheduling, dependency
//            tracking, routing and, across ranks, the fabric.
//   fan-out  64 binary trees of 2047 tasks (131,008 tasks). Each inner task
//            activates its two children on its own rank, so every publish
//            hands a successor to a peer worker and takes the wake mutex.
// Every task has a priority (its chain's or tree's), as in the paper's
// v4/v5 graphs.
//
// Measurement: one persistent Context per rank runs the graph once to warm
// up, then 11 more times; each run is timed on rank 0 from a barrier to the
// end of Context::run (which ends with the job's closing barrier). Reported:
// the median, minimum and maximum of the 11 runs in microseconds per task.
//
// Shapes (ranks x workers per rank):
//   1x1          chains, one rank, one worker
//   1x4          chains, one rank, four workers
//   2x2 local    chains, two ranks of two workers (ccsd_fine's shape);
//                chain l1 lives on rank l1 % 2
//   4x1 local    chains, four ranks, one worker each; chain l1 lives on
//                rank l1 % 4
//   4x1 hop      chains, four ranks, one worker each; task (l1, l2) lives
//                on rank (l1 + l2) % 4, so every activation crosses ranks
//   1x1 fan-out  trees, one rank, one worker
//   1x4 fan-out  trees, one rank, four workers
//
// Each row also prints its speed relative to the 1x1 shape of the same
// workload (1x1 time / shape time). It prints a table and gates nothing.
//
// Usage: bench_task_overhead [--runs N]   (N steady runs, default 11)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "ptg/context.h"
#include "ptg/taskpool.h"
#include "vc/cluster.h"

namespace {

using namespace mp;
using namespace mp::ptg;
using Clock = std::chrono::steady_clock;

constexpr int kChains = 2048;
constexpr int kLen = 64;
constexpr int kTrees = 64;
constexpr int kTreeSize = 2047;  ///< a complete binary tree of depth 11

enum class Work { kChains, kFanOut };

struct Shape {
  const char* name;
  Work work;
  int ranks;
  int workers;
  bool hop;  ///< every task on another rank than its predecessor
};

double tasks_of(Work work) {
  return work == Work::kChains ? static_cast<double>(kChains) * kLen
                               : static_cast<double>(kTrees) * kTreeSize;
}

/// Chain l1 of kLen tasks; task (l1, l2) on rank l1 % nranks, or
/// (l1 + l2) % nranks with `hop`.
void add_chains(Taskpool& pool, int nranks, bool hop) {
  auto owner = [nranks, hop](const Params& p) {
    return (p[0] + (hop ? p[1] : 0)) % nranks;
  };
  TaskClass step;
  step.name = "STEP";
  step.rank_of = owner;
  step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
  step.enumerate_rank = [owner](int rank) {
    std::vector<Params> out;
    for (int l1 = 0; l1 < kChains; ++l1) {
      for (int l2 = 0; l2 < kLen; ++l2) {
        const Params p = params_of(l1, l2);
        if (owner(p) == rank) out.push_back(p);
      }
    }
    return out;
  };
  step.priority = [](const Params& p) {
    return static_cast<double>(kChains - p[0]);
  };
  step.body = [](TaskCtx& t) {
    DataBuf buf = t.params()[1] == 0 ? make_buf(1, 0.0) : t.take_input(0);
    buf->mutable_data()[0] += 1.0;
    if (t.params()[1] < kLen - 1) t.set_output(0, std::move(buf));
  };
  const auto id = pool.add_class(std::move(step));
  pool.mutable_cls(id).route_outputs = [id](const Params& p,
                                            std::vector<OutRoute>& r) {
    if (p[1] < kLen - 1) {
      r.push_back({TaskKey{id, params_of(p[0], p[1] + 1)}, 0, 0});
    }
  };
}

/// Tree t of kTreeSize tasks on rank t % nranks; node n has the children
/// 2n + 1 and 2n + 2, which both read its one output.
void add_trees(Taskpool& pool, int nranks) {
  TaskClass node;
  node.name = "NODE";
  node.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
  node.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
  node.enumerate_rank = [nranks](int rank) {
    std::vector<Params> out;
    for (int t = rank; t < kTrees; t += nranks) {
      for (int n = 0; n < kTreeSize; ++n) out.push_back(params_of(t, n));
    }
    return out;
  };
  node.priority = [](const Params& p) {
    return static_cast<double>(kTrees - p[0]);
  };
  node.body = [](TaskCtx& t) {
    const int n = t.params()[1];
    const double v = n == 0 ? 0.0 : (*t.input(0))[0];
    if (2 * n + 1 < kTreeSize) t.set_output(0, make_buf_pooled(1, v + 1.0));
  };
  const auto id = pool.add_class(std::move(node));
  pool.mutable_cls(id).route_outputs = [id](const Params& p,
                                            std::vector<OutRoute>& r) {
    for (int c = 2 * p[1] + 1; c <= 2 * p[1] + 2 && c < kTreeSize; ++c) {
      r.push_back({TaskKey{id, params_of(p[0], c)}, 0, 0});
    }
  };
}

/// Microseconds per task of `runs` steady runs (after one warm-up run).
std::vector<double> measure(const Shape& shape, int runs) {
  std::vector<double> us_per_task;
  vc::Cluster cluster(shape.ranks);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    if (shape.work == Work::kChains) {
      add_chains(pool, shape.ranks, shape.hop);
    } else {
      add_trees(pool, shape.ranks);
    }
    Options opts;
    opts.num_workers = shape.workers;
    Context ctx(rctx, pool, opts);
    ctx.run();  // warm-up: spawns the threads
    for (int i = 0; i < runs; ++i) {
      rctx.barrier();
      const auto t0 = Clock::now();
      ctx.run();
      const double s = std::chrono::duration<double>(Clock::now() - t0).count();
      if (rctx.rank() == 0) {
        us_per_task.push_back(s * 1e6 / tasks_of(shape.work));
      }
    }
  });
  return us_per_task;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace

int main(int argc, char** argv) {
  int runs = 11;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--runs") == 0 && i + 1 < argc) {
      runs = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--runs N]\n", argv[0]);
      return 2;
    }
  }
  const Shape shapes[] = {{"1x1", Work::kChains, 1, 1, false},
                          {"1x4", Work::kChains, 1, 4, false},
                          {"2x2 local", Work::kChains, 2, 2, false},
                          {"4x1 local", Work::kChains, 4, 1, false},
                          {"4x1 hop", Work::kChains, 4, 1, true},
                          {"1x1 fan-out", Work::kFanOut, 1, 1, false},
                          {"1x4 fan-out", Work::kFanOut, 1, 4, false}};
  std::printf("empty tasks: %d chains x %d, or %d trees x %d; %d steady runs "
              "per shape\n",
              kChains, kLen, kTrees, kTreeSize, runs);
  std::printf("%-12s %8s %8s %8s %8s  (us per task; vs 1x1 = 1x1 time / "
              "shape time)\n",
              "shape", "median", "min", "max", "vs 1x1");
  double one_by_one[2] = {0.0, 0.0};
  for (const Shape& s : shapes) {
    const std::vector<double> us = measure(s, runs);
    const double med = median(us);
    double& base = one_by_one[s.work == Work::kChains ? 0 : 1];
    if (s.ranks == 1 && s.workers == 1) base = med;
    std::printf("%-12s %8.3f %8.3f %8.3f %7.2fx\n", s.name, med,
                *std::min_element(us.begin(), us.end()),
                *std::max_element(us.begin(), us.end()), base / med);
  }
  std::printf("target: 1x4 >= 3x over 1x1 on chains\n");
  return 0;
}
