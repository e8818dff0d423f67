// Per-task runtime overhead of the PTG runtime on empty chains.
//
// Workload: 2048 chains of 64 tasks. Each task takes its one-double input
// over, adds one and passes it on, so the body costs next to nothing and
// the time is the runtime's: scheduling, dependency tracking, routing and,
// across ranks, the fabric. Every task has a priority (its chain's), as in
// the paper's v4/v5 graphs.
//
// Measurement: one persistent Context per rank runs the graph once to warm
// up, then 11 more times; each run is timed on rank 0 from a barrier to the
// end of Context::run (which ends with the job's closing barrier). Reported:
// the median, minimum and maximum of the 11 runs in microseconds per task.
//
// Shapes (ranks x workers per rank):
//   1x1        one rank, one worker
//   1x4        one rank, four workers
//   4x1 local  four ranks, one worker each; chain l1 lives on rank l1 % 4
//   4x1 hop    four ranks, one worker each; task (l1, l2) lives on rank
//              (l1 + l2) % 4, so every activation crosses ranks
//
// It prints a table and gates nothing.
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

struct Shape {
  const char* name;
  int ranks;
  int workers;
  bool hop;  ///< every task on another rank than its predecessor
};

/// Microseconds per task of `runs` steady runs (after one warm-up run).
std::vector<double> measure(const Shape& shape, int runs) {
  std::vector<double> us_per_task;
  vc::Cluster cluster(shape.ranks);
  cluster.run([&](vc::RankCtx& rctx) {
    const int nranks = shape.ranks;
    const bool hop = shape.hop;
    auto owner = [nranks, hop](const Params& p) {
      return (p[0] + (hop ? p[1] : 0)) % nranks;
    };
    Taskpool pool;
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
        us_per_task.push_back(s * 1e6 / (static_cast<double>(kChains) * kLen));
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
  const Shape shapes[] = {{"1x1", 1, 1, false},
                          {"1x4", 1, 4, false},
                          {"4x1 local", 4, 1, false},
                          {"4x1 hop", 4, 1, true}};
  std::printf("empty chains: %d x %d tasks, %d steady runs per shape\n",
              kChains, kLen, runs);
  std::printf("%-10s %8s %8s %8s  (us per task)\n", "shape", "median", "min",
              "max");
  double one_by_one = 0.0, one_by_four = 0.0;
  for (const Shape& s : shapes) {
    const std::vector<double> us = measure(s, runs);
    const double med = median(us);
    std::printf("%-10s %8.3f %8.3f %8.3f\n", s.name, med,
                *std::min_element(us.begin(), us.end()),
                *std::max_element(us.begin(), us.end()));
    if (s.ranks == 1 && s.workers == 1) one_by_one = med;
    if (s.ranks == 1 && s.workers == 4) one_by_four = med;
  }
  std::printf("1x4 speedup over 1x1: %.2fx (target: >= 3x)\n",
              one_by_one / one_by_four);
  return 0;
}
