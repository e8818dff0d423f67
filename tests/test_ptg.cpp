// Tests for the PTG runtime: dataflow correctness for chain and
// fan-out/reduction graphs (the paper's Fig. 1 / Fig. 2 shapes), remote
// activations across ranks (large buffers arrive as the producer's own
// object, small ones as copies; take_input copies on write), priorities,
// the per-worker ready heaps, tracing, and API misuse detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/graph_verify.h"
#include "ga/global_array.h"
#include "ptg/context.h"
#include "ptg/flat_graph.h"
#include "ptg/scheduler.h"
#include "ptg/taskpool.h"
#include "ptg/trace.h"
#include "vc/cluster.h"

namespace mp::ptg {
namespace {

std::vector<double> contents(const DataBuf& b) {
  return {b->begin(), b->end()};
}

// Helper: enumerate instances p0 in [0, n) owned by round-robin rank.
std::function<std::vector<Params>(int)> round_robin(int n, int nranks) {
  return [n, nranks](int rank) {
    std::vector<Params> out;
    for (int i = rank; i < n; i += nranks) out.push_back(params_of(i));
    return out;
  };
}

TEST(Taskpool, ValidateCatchesMissingPieces) {
  Taskpool pool;
  TaskClass c;
  c.name = "broken";
  c.rank_of = [](const Params&) { return 0; };
  c.num_task_inputs = [](const Params&) { return 0; };
  // missing enumerate_rank and body
  pool.add_class(std::move(c));
  EXPECT_THROW(pool.validate(), InvalidArgument);
}

TEST(Taskpool, FindByName) {
  Taskpool pool;
  TaskClass c;
  c.name = "alpha";
  c.rank_of = [](const Params&) { return 0; };
  c.num_task_inputs = [](const Params&) { return 0; };
  c.enumerate_rank = [](int) { return std::vector<Params>{}; };
  c.body = [](TaskCtx&) {};
  const auto id = pool.add_class(std::move(c));
  EXPECT_EQ(pool.find("alpha"), id);
  EXPECT_EQ(pool.find("beta"), -1);
}

TEST(TaskKey, HashAndEquality) {
  TaskKey a{1, params_of(2, 3, 4)};
  TaskKey b{1, params_of(2, 3, 4)};
  TaskKey c{1, params_of(2, 3, 5)};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(TaskKeyHash{}(a), TaskKeyHash{}(b));
}

// --- single-rank independent tasks ---

TEST(Context, ExecutesAllStartupTasks) {
  vc::Cluster cluster(1);
  std::atomic<int> count{0};
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "work";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(100, 1);
    c.body = [&](TaskCtx&) { count.fetch_add(1); };
    pool.add_class(std::move(c));
    Options opts;
    opts.num_workers = 4;
    Context ctx(rctx, pool, opts);
    ctx.run();
    EXPECT_EQ(ctx.tasks_executed(), 100u);
    EXPECT_EQ(ctx.expected_tasks(), 100u);
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(Context, EmptyPoolTerminates) {
  vc::Cluster cluster(2);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "none";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = [](int) { return std::vector<Params>{}; };
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Context ctx(rctx, pool);
    ctx.run();
    EXPECT_EQ(ctx.tasks_executed(), 0u);
  });
}

// --- the Fig. 1 shape: DFILL -> chain of GEMM-like steps -> SINK ---

struct ChainFixtureResult {
  std::vector<double> finals;
};

ChainFixtureResult run_chain(int nranks, int chains, int len,
                             bool spread_ranks, Options opts = {}) {
  ChainFixtureResult result;
  result.finals.assign(static_cast<size_t>(chains), 0.0);
  std::mutex mu;

  vc::Cluster cluster(nranks);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    // Ownership: whole chain on one rank, or each step on (L1+L2)%nranks.
    auto step_rank = [=](const Params& p) {
      return spread_ranks ? (p[0] + p[1]) % nranks : p[0] % nranks;
    };

    TaskClass step;
    step.name = "STEP";
    step.rank_of = step_rank;
    step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    step.enumerate_rank = [=](int rank) {
      std::vector<Params> out;
      for (int l1 = 0; l1 < chains; ++l1) {
        for (int l2 = 0; l2 < len; ++l2) {
          const Params p = params_of(l1, l2);
          if (step_rank(p) == rank) out.push_back(p);
        }
      }
      return out;
    };
    step.priority = [=](const Params& p) {
      return static_cast<double>(chains - p[0]);
    };
    step.body = [](TaskCtx& t) {
      DataBuf buf;
      if (t.params()[1] == 0) {
        buf = make_buf(1, static_cast<double>(t.params()[0]));
      } else {
        buf = t.take_input(0);
        buf->mutable_data()[0] += 1.0;
      }
      t.set_output(0, std::move(buf));
    };

    TaskClass sink;
    sink.name = "SINK";
    sink.rank_of = [=](const Params& p) { return p[0] % nranks; };
    sink.num_task_inputs = [](const Params&) { return 1; };
    sink.enumerate_rank = [=](int rank) {
      std::vector<Params> out;
      for (int l1 = rank; l1 < chains; l1 += nranks) out.push_back(params_of(l1));
      return out;
    };
    sink.body = [&](TaskCtx& t) {
      std::lock_guard lock(mu);
      result.finals[static_cast<size_t>(t.params()[0])] = (*t.input(0))[0];
    };

    const auto step_id = pool.add_class(std::move(step));
    const auto sink_id = pool.add_class(std::move(sink));
    auto& step_ref = pool.mutable_cls(step_id);
    step_ref.route_outputs = [=](const Params& p, std::vector<OutRoute>& r) {
      if (p[1] < len - 1) {
        r.push_back({TaskKey{step_id, params_of(p[0], p[1] + 1)}, 0, 0});
      } else {
        r.push_back({TaskKey{sink_id, params_of(p[0])}, 0, 0});
      }
    };

    Context ctx(rctx, pool, opts);
    ctx.run();
  });
  return result;
}

TEST(Context, ChainDataflowSingleRank) {
  const auto r = run_chain(1, 5, 10, false);
  for (int l1 = 0; l1 < 5; ++l1) {
    EXPECT_DOUBLE_EQ(r.finals[static_cast<size_t>(l1)], l1 + 9.0);
  }
}

TEST(Context, ChainDataflowMultiRankLocalChains) {
  const auto r = run_chain(4, 8, 20, false);
  for (int l1 = 0; l1 < 8; ++l1) {
    EXPECT_DOUBLE_EQ(r.finals[static_cast<size_t>(l1)], l1 + 19.0);
  }
}

TEST(Context, ChainDataflowCrossRankEveryStep) {
  // Every hop crosses ranks: stresses remote activation payloads.
  const auto r = run_chain(3, 6, 12, true);
  for (int l1 = 0; l1 < 6; ++l1) {
    EXPECT_DOUBLE_EQ(r.finals[static_cast<size_t>(l1)], l1 + 11.0);
  }
}

TEST(Context, ChainWithManyWorkersAndStealing) {
  Options opts;
  opts.num_workers = 4;
  const auto r = run_chain(2, 16, 30, false, opts);
  EXPECT_DOUBLE_EQ(r.finals[0], 29.0);
  EXPECT_DOUBLE_EQ(r.finals[1], 30.0);
}

// --- the Fig. 2 shape: parallel producers -> reduction ---

TEST(Context, FanInReduction) {
  const int nranks = 2, producers = 32;
  std::atomic<double> total{0.0};
  vc::Cluster cluster(nranks);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass prod;
    prod.name = "PROD";
    prod.rank_of = [=](const Params& p) { return p[0] % nranks; };
    prod.num_task_inputs = [](const Params&) { return 0; };
    prod.enumerate_rank = round_robin(producers, nranks);
    prod.body = [](TaskCtx& t) {
      t.set_output(0, make_buf(1, static_cast<double>(t.params()[0])));
    };

    TaskClass red;
    red.name = "RED";
    red.rank_of = [](const Params&) { return 0; };
    red.num_task_inputs = [=](const Params&) { return producers; };
    red.enumerate_rank = [](int rank) {
      return rank == 0 ? std::vector<Params>{params_of(0)}
                       : std::vector<Params>{};
    };
    red.body = [&](TaskCtx& t) {
      double s = 0.0;
      for (int i = 0; i < producers; ++i) s += (*t.input(i))[0];
      total.store(s);
    };

    const auto prod_id = pool.add_class(std::move(prod));
    const auto red_id = pool.add_class(std::move(red));
    auto& pr = pool.mutable_cls(prod_id);
    pr.route_outputs = [=](const Params& p, std::vector<OutRoute>& r) {
      r.push_back({TaskKey{red_id, params_of(0)},
                   static_cast<int8_t>(p[0]), 0});
    };

    Options opts;
    opts.num_workers = 3;
    Context ctx(rctx, pool, opts);
    ctx.run();
  });
  EXPECT_DOUBLE_EQ(total.load(), producers * (producers - 1) / 2.0);
}

// --- priorities & scheduling order ---

// Ten independent tasks; with `with_priorities` instance i has priority i,
// otherwise the class has no priority function (every instance at 0).
std::vector<int> run_priority_order(bool with_priorities) {
  std::vector<int> order;
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "T";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(10, 1);
    if (with_priorities) {
      c.priority = [](const Params& p) { return static_cast<double>(p[0]); };
    }
    c.body = [&](TaskCtx& t) { order.push_back(t.params()[0]); };
    pool.add_class(std::move(c));
    Options opts;
    opts.num_workers = 1;  // deterministic execution order
    Context ctx(rctx, pool, opts);
    ctx.run();
  });
  return order;
}

TEST(Context, PrioritySchedulerRunsHighFirst) {
  const auto order = run_priority_order(true);
  std::vector<int> expect{9, 8, 7, 6, 5, 4, 3, 2, 1, 0};
  EXPECT_EQ(order, expect);
}

TEST(Context, DisabledPrioritiesFallBackToFifo) {
  const auto order = run_priority_order(false);
  std::vector<int> expect{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expect);
}

ReadyTask ready(double priority, uint64_t seq) {
  ReadyTask t;
  t.priority = priority;
  t.seq = seq;
  t.id = static_cast<int32_t>(seq);
  return t;
}

TEST(Scheduler, StealingMovesWorkBetweenWorkers) {
  Scheduler s(2);
  s.push(ready(0.0, 0), 0);  // homed on worker 0
  ReadyTask out;
  EXPECT_TRUE(s.try_pop(out, 1));  // worker 1 steals it
  EXPECT_EQ(s.stats().steals, 1u);
  EXPECT_FALSE(s.try_pop(out, 1));
}

TEST(Scheduler, OneWorkerPopsInPriorityThenSeqOrder) {
  // Worker and non-worker pushes land on the one heap, which must pop in
  // strict (priority desc, seq asc) order: a one-worker rank keeps the
  // central queue's order.
  Scheduler s(1);
  const double prio[] = {1, 3, 2, 3, 1, 2, 3, 0, 2, 1, 3, 0};
  for (uint64_t i = 0; i < std::size(prio); ++i) {
    s.push(ready(prio[i], i), i % 2 == 0 ? 0 : -1);
  }
  std::vector<std::pair<double, uint64_t>> popped;
  ReadyTask out;
  while (s.try_pop(out, 0)) popped.emplace_back(out.priority, out.seq);
  ASSERT_EQ(popped.size(), std::size(prio));
  for (size_t i = 1; i < popped.size(); ++i) {
    const auto& [pa, sa] = popped[i - 1];
    const auto& [pb, sb] = popped[i];
    EXPECT_TRUE(pa > pb || (pa == pb && sa < sb))
        << "pop " << i << ": (" << pb << ", " << sb << ") after (" << pa
        << ", " << sa << ")";
  }
  EXPECT_EQ(s.stats().steals, 0u);
}

TEST(Scheduler, IdleWorkerStealsThePeersBestTask) {
  Scheduler s(2);
  s.push(ready(1.0, 0), 0);
  s.push(ready(5.0, 1), 0);
  s.push(ready(3.0, 2), 0);
  ReadyTask out;
  ASSERT_TRUE(s.try_pop(out, 1));  // worker 1's heap is empty
  EXPECT_EQ(out.priority, 5.0);
  EXPECT_EQ(out.seq, 1u);
  const SchedStats st = s.stats();
  EXPECT_EQ(st.steals, 1u);
  EXPECT_EQ(st.steal_attempts, 1u);
  EXPECT_EQ(s.size(), 2u);
}

TEST(Scheduler, HarvestReachesEveryHeapAndCountsNoSteal) {
  // Worker pushes pin one task to each heap, heap 0 included; a harvest
  // from a thread that is no worker must find all of them.
  Scheduler s(3);
  for (int w = 0; w < 3; ++w) s.push(ready(0.0, static_cast<uint64_t>(w)), w);
  std::vector<ReadyTask> got;
  std::thread comm([&] { s.harvest(got, 10); });
  comm.join();
  std::vector<int32_t> ids;
  for (const ReadyTask& t : got) ids.push_back(t.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<int32_t>{0, 1, 2}));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.stats().steals, 0u);
  EXPECT_EQ(s.stats().steal_attempts, 0u);
}

// --- startup runs served beside the heaps ---

/// Priorities of task ids 0..19: startup ids are 0..9, pushed ids 10..19.
const std::vector<double> kRunPrio = {2, 5, 2, 1, 5, 0, 2, 5, 1, 0,
                                      5, 2, 1, 6, 0, 2, 5, 3, 1, 0};

TEST(Scheduler, RunEntriesAndHeapTasksPopInOnePriorityThenSeqOrder) {
  // One heap: its run holds every startup id, and pushed tasks interleave
  // with it by priority. At equal priority a run entry was enqueued first,
  // so it pops first, and pushed tasks pop in push order.
  const std::vector<int32_t> startup = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const StartupRuns runs(startup, kRunPrio, 1);
  Scheduler s(1);
  s.serve(runs);
  for (int32_t id = 10; id < 20; ++id) {
    ReadyTask t;
    t.priority = kRunPrio[static_cast<size_t>(id)];
    t.id = id;
    s.push(t, id % 2 == 0 ? 0 : -1);
  }
  std::vector<ReadyTask> popped;
  ReadyTask out;
  while (s.try_pop(out, 0)) popped.push_back(out);
  ASSERT_EQ(popped.size(), 20u);
  for (size_t i = 1; i < popped.size(); ++i) {
    const ReadyTask& a = popped[i - 1];
    const ReadyTask& b = popped[i];
    EXPECT_TRUE(a.priority > b.priority ||
                (a.priority == b.priority && a.seq < b.seq))
        << "pop " << i << ": id " << b.id << " (" << b.priority << ", "
        << b.seq << ") after id " << a.id << " (" << a.priority << ", "
        << a.seq << ")";
  }
  // The exact order: (priority desc, then startup before pushed, then
  // enqueue order).
  std::vector<int32_t> ids;
  for (const ReadyTask& t : popped) ids.push_back(t.id);
  EXPECT_EQ(ids, (std::vector<int32_t>{13, 1, 4, 7, 10, 16, 17, 0, 2, 6, 11,
                                       15, 3, 8, 12, 18, 5, 9, 14, 19}));
  EXPECT_EQ(s.size(), 0u);
}

TEST(Scheduler, StartupRunsAreDealtRoundRobinAndSortedPerHeap) {
  // Id i of the startup order goes to run i % heaps, exactly where one
  // round-robin push per id would land, sorted as that heap orders them.
  const std::vector<int32_t> startup = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const StartupRuns runs(startup, kRunPrio, 3);
  ASSERT_EQ(runs.heaps(), 3u);
  EXPECT_EQ(runs.total(), 10u);
  auto ids = [&](size_t h) {
    const auto r = runs.run(h);
    return std::vector<int32_t>(r.begin(), r.end());
  };
  EXPECT_EQ(ids(0), (std::vector<int32_t>{0, 6, 3, 9}));  // ids 0 3 6 9
  EXPECT_EQ(ids(1), (std::vector<int32_t>{1, 4, 7}));     // ids 1 4 7
  EXPECT_EQ(ids(2), (std::vector<int32_t>{2, 8, 5}));     // ids 2 5 8
}

TEST(Scheduler, SizeCountsRunEntries) {
  const std::vector<int32_t> startup = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const StartupRuns runs(startup, kRunPrio, 2);
  Scheduler s(2);
  EXPECT_EQ(s.size(), 0u);
  s.serve(runs);
  EXPECT_EQ(s.size(), 10u);
  s.push(ready(1.0, 10), 1);
  EXPECT_EQ(s.size(), 11u);
  ReadyTask out;
  ASSERT_TRUE(s.try_pop(out, 0));
  EXPECT_EQ(s.size(), 10u);
  size_t popped = 1;
  while (s.try_pop(out, 1)) ++popped;
  EXPECT_EQ(popped, 11u);
  EXPECT_EQ(s.size(), 0u);
}

TEST(Scheduler, IntraRankStealTakesRunEntries) {
  // Three startup ids over two heaps: heap 0's run holds ids 0 and 2, heap
  // 1's run id 1. Worker 1 pops its own run, then steals heap 0's run
  // entries best first.
  const std::vector<int32_t> startup = {0, 1, 2};
  const std::vector<double> prio = {1.0, 4.0, 3.0};
  const StartupRuns runs(startup, prio, 2);
  Scheduler s(2);
  s.serve(runs);
  ReadyTask out;
  ASSERT_TRUE(s.try_pop(out, 1));
  EXPECT_EQ(out.id, 1);
  EXPECT_EQ(s.stats().steals, 0u);
  ASSERT_TRUE(s.try_pop(out, 1));
  EXPECT_EQ(out.id, 2);
  EXPECT_EQ(out.priority, 3.0);
  ASSERT_TRUE(s.try_pop(out, 1));
  EXPECT_EQ(out.id, 0);
  EXPECT_FALSE(s.try_pop(out, 1));
  const SchedStats st = s.stats();
  EXPECT_EQ(st.steals, 2u);
  EXPECT_EQ(st.steal_attempts, 2u);
  EXPECT_EQ(st.validate(), "");
}

TEST(Scheduler, HarvestTakesRunEntriesBesideHeapTasks) {
  // The inter-node harvest pops each heap like a worker does: the better
  // of the run's head and the heap's top, best first.
  const std::vector<int32_t> startup = {0, 1, 2, 3};
  const std::vector<double> prio = {1.0, 1.0, 5.0, 2.0};
  const StartupRuns runs(startup, prio, 2);
  Scheduler s(2);
  s.serve(runs);  // heap 0: ids 2, 0; heap 1: ids 3, 1
  s.push(ready(3.0, 10), 0);
  std::vector<ReadyTask> got;
  std::thread comm([&] { s.harvest(got, 4); });
  comm.join();
  std::vector<int32_t> ids;
  for (const ReadyTask& t : got) ids.push_back(t.id);
  EXPECT_EQ(ids, (std::vector<int32_t>{2, 10, 0, 3}));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.stats().steals, 0u);
  ReadyTask out;
  ASSERT_TRUE(s.try_pop(out, 1));
  EXPECT_EQ(out.id, 1);
}

// --- tracing ---

TEST(Context, TracingRecordsEveryTask) {
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "traced";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(25, 1);
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Options opts;
    opts.enable_tracing = true;
    opts.num_workers = 2;
    Context ctx(rctx, pool, opts);
    ctx.run();
    EXPECT_EQ(ctx.trace().size(), 25u);
    for (const auto& e : ctx.trace().events()) {
      EXPECT_LE(e.t_start, e.t_end);
      EXPECT_EQ(e.cls, 0);
      EXPECT_FALSE(e.is_comm);
    }
  });
}

TEST(Context, TracingDisabledByDefault) {
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "untraced";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = round_robin(5, 1);
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Context ctx(rctx, pool);
    ctx.run();
    EXPECT_TRUE(ctx.trace().empty());
  });
}

// --- error paths ---

// A Context is reusable without PtgSession: a second run() resets the
// per-run state collectively and executes the whole graph again on the
// threads parked since the first.
TEST(Context, RunTwiceReexecutesTheGraph) {
  constexpr int kRanks = 2, kChains = 6, kLen = 4;
  std::vector<std::atomic<int>> step_runs(kChains * kLen);
  std::vector<std::atomic<int>> sink_runs(kChains);
  std::vector<std::atomic<int>> finals(kChains);

  vc::Cluster cluster(kRanks);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    // Step (l1, l2) lives on rank (l1 + l2) % 2, so every hop of every
    // chain is a remote activation.
    auto step_rank = [](const Params& p) { return (p[0] + p[1]) % kRanks; };
    TaskClass step;
    step.name = "STEP";
    step.rank_of = step_rank;
    step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    step.enumerate_rank = [=](int rank) {
      std::vector<Params> out;
      for (int l1 = 0; l1 < kChains; ++l1) {
        for (int l2 = 0; l2 < kLen; ++l2) {
          if (step_rank(params_of(l1, l2)) == rank) {
            out.push_back(params_of(l1, l2));
          }
        }
      }
      return out;
    };
    step.body = [&](TaskCtx& t) {
      const int l1 = t.params()[0], l2 = t.params()[1];
      step_runs[static_cast<size_t>(l1 * kLen + l2)].fetch_add(1);
      DataBuf buf = l2 == 0 ? make_buf(1, static_cast<double>(l1))
                            : t.take_input(0);
      if (l2 > 0) buf->mutable_data()[0] += 1.0;
      t.set_output(0, std::move(buf));
    };

    TaskClass sink;
    sink.name = "SINK";
    sink.rank_of = [](const Params& p) { return p[0] % kRanks; };
    sink.num_task_inputs = [](const Params&) { return 1; };
    sink.enumerate_rank = round_robin(kChains, kRanks);
    sink.body = [&](TaskCtx& t) {
      const auto l1 = static_cast<size_t>(t.params()[0]);
      sink_runs[l1].fetch_add(1);
      finals[l1].store(static_cast<int>((*t.input(0))[0]));
    };

    const auto step_id = pool.add_class(std::move(step));
    const auto sink_id = pool.add_class(std::move(sink));
    pool.mutable_cls(step_id).route_outputs =
        [=](const Params& p, std::vector<OutRoute>& r) {
          if (p[1] < kLen - 1) {
            r.push_back({TaskKey{step_id, params_of(p[0], p[1] + 1)}, 0, 0});
          } else {
            r.push_back({TaskKey{sink_id, params_of(p[0])}, 0, 0});
          }
        };

    Context ctx(rctx, pool);
    for (int run = 1; run <= 2; ++run) {
      ctx.run();
      EXPECT_EQ(ctx.submissions(), static_cast<uint64_t>(run));
      EXPECT_EQ(ctx.tasks_executed(), ctx.expected_tasks()) << "run " << run;
      // run() ends with a barrier and the next run() starts with the
      // collective reset, so no body runs while rank 0 checks here.
      if (rctx.rank() == 0) {
        for (int i = 0; i < kChains * kLen; ++i) {
          EXPECT_EQ(step_runs[static_cast<size_t>(i)].load(), run)
              << "step " << i << ", run " << run;
        }
        for (int l1 = 0; l1 < kChains; ++l1) {
          EXPECT_EQ(sink_runs[static_cast<size_t>(l1)].load(), run)
              << "chain " << l1 << ", run " << run;
          EXPECT_EQ(finals[static_cast<size_t>(l1)].exchange(-1),
                    l1 + kLen - 1)
              << "chain " << l1 << ", run " << run;
        }
      }
    }
    EXPECT_EQ(ctx.last_reset_report().submission, 1u);
    EXPECT_EQ(ctx.last_reset_report().pending_deposits, 0u);
  });
}

// A run that raises leaves its per-run state torn: latches set, deposits
// and queued tasks left behind. The next run() on the same Context, on a
// lossless fabric and without PtgSession, must start from fresh state and
// execute the whole graph exactly once.
TEST(Context, RerunsCleanlyAfterATaskError) {
  constexpr int kRanks = 2, kChains = 6, kLen = 4;
  constexpr int kBadChain = 2, kBadStep = 2;  // owned by rank 0
  std::vector<std::atomic<int>> step_runs(kChains * kLen);
  std::vector<std::atomic<int>> sink_runs(kChains);
  std::vector<std::atomic<int>> finals(kChains);
  std::atomic<bool> armed{true};

  vc::Cluster cluster(kRanks);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    // Every hop of every chain crosses ranks, so the rank without the
    // failing task waits on activations that never come until the abort.
    auto step_rank = [](const Params& p) { return (p[0] + p[1]) % kRanks; };
    TaskClass step;
    step.name = "STEP";
    step.rank_of = step_rank;
    step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    step.enumerate_rank = [=](int rank) {
      std::vector<Params> out;
      for (int l1 = 0; l1 < kChains; ++l1) {
        for (int l2 = 0; l2 < kLen; ++l2) {
          if (step_rank(params_of(l1, l2)) == rank) {
            out.push_back(params_of(l1, l2));
          }
        }
      }
      return out;
    };
    step.body = [&](TaskCtx& t) {
      const int l1 = t.params()[0], l2 = t.params()[1];
      if (l1 == kBadChain && l2 == kBadStep && armed.exchange(false)) {
        throw std::runtime_error("injected task failure");
      }
      step_runs[static_cast<size_t>(l1 * kLen + l2)].fetch_add(1);
      DataBuf buf = l2 == 0 ? make_buf(1, static_cast<double>(l1))
                            : t.take_input(0);
      if (l2 > 0) buf->mutable_data()[0] += 1.0;
      t.set_output(0, std::move(buf));
    };

    TaskClass sink;
    sink.name = "SINK";
    sink.rank_of = [](const Params& p) { return p[0] % kRanks; };
    sink.num_task_inputs = [](const Params&) { return 1; };
    sink.enumerate_rank = round_robin(kChains, kRanks);
    sink.body = [&](TaskCtx& t) {
      const auto l1 = static_cast<size_t>(t.params()[0]);
      sink_runs[l1].fetch_add(1);
      finals[l1].store(static_cast<int>((*t.input(0))[0]));
    };

    const auto step_id = pool.add_class(std::move(step));
    const auto sink_id = pool.add_class(std::move(sink));
    pool.mutable_cls(step_id).route_outputs =
        [=](const Params& p, std::vector<OutRoute>& r) {
          if (p[1] < kLen - 1) {
            r.push_back({TaskKey{step_id, params_of(p[0], p[1] + 1)}, 0, 0});
          } else {
            r.push_back({TaskKey{sink_id, params_of(p[0])}, 0, 0});
          }
        };

    Context ctx(rctx, pool);
    // Rank 0 raises the body's error, rank 1 the abort it broadcast.
    EXPECT_ANY_THROW(ctx.run()) << "rank " << rctx.rank();
    EXPECT_EQ(ctx.submissions(), 0u);
    // The failed run ended with a barrier that every rank reaches only
    // once its threads are parked, and the next run() starts with the
    // collective reset, so no body runs while rank 0 clears or checks.
    if (rctx.rank() == 0) {
      for (auto& n : step_runs) n.store(0);
      for (auto& n : sink_runs) n.store(0);
      for (auto& f : finals) f.store(-1);
    }

    ASSERT_NO_THROW(ctx.run()) << "rank " << rctx.rank();
    EXPECT_EQ(ctx.submissions(), 1u);
    EXPECT_EQ(ctx.tasks_executed(), ctx.expected_tasks());
    EXPECT_EQ(ctx.last_reset_report().submission, 1u);
    const StealStats ss = ctx.steal_stats();
    for (uint64_t v : {ss.requests_sent, ss.requests_received,
                       ss.replies_sent, ss.replies_received,
                       ss.tasks_migrated_out, ss.tasks_migrated_in,
                       ss.credits_sent, ss.credits_received}) {
      EXPECT_EQ(v, 0u) << "rank " << rctx.rank();
    }
    const FailureStats fs = ctx.failure_stats();
    for (uint64_t v :
         {fs.heartbeats_sent, fs.heartbeats_received, fs.probes_sent,
          fs.probes_answered, fs.suspicions, fs.suspicions_cleared,
          fs.deaths_confirmed, fs.tasks_adopted, fs.lineage_replayed,
          fs.tasks_reinjected, fs.fenced_dropped, fs.dup_deposits_dropped,
          fs.watchdog_resets_on_death}) {
      EXPECT_EQ(v, 0u) << "rank " << rctx.rank();
    }
    if (rctx.rank() == 0) {
      for (int i = 0; i < kChains * kLen; ++i) {
        EXPECT_EQ(step_runs[static_cast<size_t>(i)].load(), 1) << "step " << i;
      }
      for (int l1 = 0; l1 < kChains; ++l1) {
        EXPECT_EQ(sink_runs[static_cast<size_t>(l1)].load(), 1)
            << "chain " << l1;
        EXPECT_EQ(finals[static_cast<size_t>(l1)].load(), l1 + kLen - 1)
            << "chain " << l1;
      }
    }
  });
  EXPECT_FALSE(armed.load());
}

// --- take_input: copy on write, and an empty slot raises ---

TEST(TaskCtx, TakeInputRaisesOnAnEmptySlot) {
  std::vector<DataBuf> in = {nullptr, make_buf(2, 1.0)}, out;
  TaskCtx t(nullptr, TaskKey{0, params_of(0)}, in, out, 0);
  EXPECT_THROW(t.take_input(0), InvalidArgument);  // never deposited
  EXPECT_THROW(t.take_input(2), InvalidArgument);  // no such slot
  ASSERT_NE(t.take_input(1), nullptr);
  EXPECT_THROW(t.take_input(1), InvalidArgument);  // already taken
  EXPECT_THROW(t.input(1), InvalidArgument);
}

TEST(TaskCtx, TakeInputCopiesOnlyWhenTheHandleIsShared) {
  DataBuf sole = make_buf(4, 2.0);
  const Buffer* sole_obj = sole.get();
  const DataBuf shared = make_buf(4, 3.0);
  vc::Cluster cluster(1);
  ga::GlobalArray array(&cluster, 8);
  const std::vector<double> block = {1.0, 2.0, 3.0, 4.0};
  array.put(2, 4, block.data());
  std::vector<DataBuf> in = {std::move(sole), shared, array.view(2, 4)}, out;
  TaskCtx t(nullptr, TaskKey{0, params_of(0)}, in, out, 0);
  // The task holds the only handle: it gets the buffer itself.
  EXPECT_EQ(t.take_input(0).get(), sole_obj);
  // Someone else still holds one: the task gets a private, equal copy.
  const DataBuf taken = t.take_input(1);
  ASSERT_NE(taken, shared);
  EXPECT_EQ(contents(taken), contents(shared));
  taken->mutable_data()[0] = -1.0;
  EXPECT_EQ((*shared)[0], 3.0);
  // The only handle to a view still gets a copy: the task owns it, and
  // writing it leaves the Global Array block as it was.
  const DataBuf mine = t.take_input(2);
  ASSERT_FALSE(mine->borrowed());
  EXPECT_EQ(contents(mine), block);
  mine->mutable_data()[0] = -1.0;
  std::vector<double> after(4);
  array.get(2, 4, after.data());
  EXPECT_EQ(after, block);
}

// --- zero-copy data plane: large buffers cross ranks as handles ---

/// PROD(i) on rank 0 -> CONS(i) on rank 1, one buffer of `elems[i]`
/// doubles each. CONS reports whether its input is PROD's own object
/// (compared through a weak_ptr, which keeps the producer's control block
/// and so its identity alive), whether take_input handed that object
/// over, and whether the contents arrived intact.
struct CrossRankSeen {
  bool same_object = false;
  bool took_same_object = false;
  bool contents_ok = false;
};

std::vector<CrossRankSeen> run_cross_rank(const std::vector<size_t>& elems) {
  const int n = static_cast<int>(elems.size());
  std::vector<std::weak_ptr<Buffer>> produced(elems.size());
  std::vector<CrossRankSeen> seen(elems.size());
  std::mutex mu;
  vc::Cluster cluster(2);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass prod;
    prod.name = "PROD";
    prod.rank_of = [](const Params&) { return 0; };
    prod.num_task_inputs = [](const Params&) { return 0; };
    prod.enumerate_rank = [n](int rank) {
      std::vector<Params> out;
      for (int i = 0; rank == 0 && i < n; ++i) out.push_back(params_of(i));
      return out;
    };
    prod.body = [&](TaskCtx& t) {
      const auto i = static_cast<size_t>(t.params()[0]);
      DataBuf buf = make_buf(elems[i]);
      std::iota(buf->mutable_data(), buf->mutable_data() + buf->size(),
                static_cast<double>(i));
      {
        std::lock_guard lock(mu);
        produced[i] = buf;
      }
      t.set_output(0, std::move(buf));
    };
    TaskClass cons;
    cons.name = "CONS";
    cons.rank_of = [](const Params&) { return 1; };
    cons.num_task_inputs = [](const Params&) { return 1; };
    cons.enumerate_rank = [n](int rank) {
      std::vector<Params> out;
      for (int i = 0; rank == 1 && i < n; ++i) out.push_back(params_of(i));
      return out;
    };
    cons.body = [&](TaskCtx& t) {
      const auto i = static_cast<size_t>(t.params()[0]);
      CrossRankSeen r;
      const Buffer* producers_obj = nullptr;
      {
        std::lock_guard lock(mu);
        const DataBuf producers = produced[i].lock();
        r.same_object = producers != nullptr && producers == t.input(0);
        producers_obj = producers.get();
      }
      std::vector<double> want(elems[i]);
      std::iota(want.begin(), want.end(), static_cast<double>(i));
      r.contents_ok = contents(t.input(0)) == want;
      // Taken while the producer's object (if it is this one) still lives,
      // so a copy cannot reuse its address.
      r.took_same_object =
          producers_obj != nullptr && t.take_input(0).get() == producers_obj;
      std::lock_guard lock(mu);
      seen[i] = r;
    };
    const auto prod_id = pool.add_class(std::move(prod));
    const auto cons_id = pool.add_class(std::move(cons));
    pool.mutable_cls(prod_id).route_outputs =
        [cons_id](const Params& p, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{cons_id, p}, 0, 0});
        };
    Context ctx(rctx, pool);
    ctx.run();
  });
  return seen;
}

TEST(ZeroCopy, ActivationAboveTheEagerLimitDeliversTheProducersBuffer) {
  const size_t limit = Context::kEagerLimit;
  const auto seen = run_cross_rank({limit + 1, 64 * limit});
  for (const CrossRankSeen& r : seen) {
    EXPECT_TRUE(r.contents_ok);
    EXPECT_TRUE(r.same_object) << "a large buffer was copied across ranks";
    EXPECT_TRUE(r.took_same_object)
        << "the consumer holds the only handle, yet take_input copied";
  }
}

TEST(ZeroCopy, ActivationAtOrBelowTheEagerLimitArrivesAsAnEqualCopy) {
  const size_t limit = Context::kEagerLimit;
  for (const CrossRankSeen& r : run_cross_rank({1, limit})) {
    EXPECT_TRUE(r.contents_ok);
    EXPECT_FALSE(r.same_object) << "a small buffer must travel inline";
  }
}

TEST(ZeroCopy, FanOutTakerGetsAPrivateCopy) {
  // PROD(i) on rank 0 routes one large output to LOCAL(i) on rank 0, which
  // takes it over and overwrites it, and to REMOTE(i) on rank 1, which
  // reads it a little later. Both received the same object; only copy-on-
  // take keeps LOCAL's writes out of what REMOTE reads.
  const int n = 32;
  const size_t elems = 4 * Context::kEagerLimit;
  std::atomic<int> bad_reads{0}, reads{0};
  vc::Cluster cluster(2);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass prod;
    prod.name = "PROD";
    prod.rank_of = [](const Params&) { return 0; };
    prod.num_task_inputs = [](const Params&) { return 0; };
    prod.enumerate_rank = [n](int rank) {
      return rank == 0 ? round_robin(n, 1)(0) : std::vector<Params>{};
    };
    prod.body = [elems](TaskCtx& t) {
      t.set_output(0, make_buf(elems, 1.0 + t.params()[0]));
    };
    TaskClass local;
    local.name = "LOCAL";
    local.rank_of = [](const Params&) { return 0; };
    local.num_task_inputs = [](const Params&) { return 1; };
    local.enumerate_rank = prod.enumerate_rank;
    local.body = [](TaskCtx& t) {
      DataBuf mine = t.take_input(0);
      std::fill_n(mine->mutable_data(), mine->size(), -1.0);
    };
    TaskClass remote;
    remote.name = "REMOTE";
    remote.rank_of = [](const Params&) { return 1; };
    remote.num_task_inputs = [](const Params&) { return 1; };
    remote.enumerate_rank = [n](int rank) {
      return rank == 1 ? round_robin(n, 1)(0) : std::vector<Params>{};
    };
    remote.body = [&](TaskCtx& t) {
      std::this_thread::sleep_for(std::chrono::microseconds(300));
      const double want = 1.0 + t.params()[0];
      for (double x : *t.input(0)) {
        if (x != want) {
          bad_reads.fetch_add(1);
          break;
        }
      }
      reads.fetch_add(1);
    };
    const auto prod_id = pool.add_class(std::move(prod));
    const auto local_id = pool.add_class(std::move(local));
    const auto remote_id = pool.add_class(std::move(remote));
    pool.mutable_cls(prod_id).route_outputs =
        [local_id, remote_id](const Params& p, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{remote_id, p}, 0, 0});
          r.push_back({TaskKey{local_id, p}, 0, 0});
        };
    Options opts;
    opts.num_workers = 2;
    Context ctx(rctx, pool, opts);
    ctx.run();
  });
  EXPECT_EQ(reads.load(), n);
  EXPECT_EQ(bad_reads.load(), 0)
      << "a local consumer mutated the buffer a remote sibling reads";
}

// --- the compiled graph: what the compile cannot place, and deposits ---

/// PROD(i) (no inputs; rank i % 2) -> CONS(i) (two inputs; rank 0). PROD
/// routes its one output along `routes(i)`; `tweak` may corrupt the rest
/// of the description. Every body bumps `bodies`.
Taskpool prod_cons_pool(
    int n, std::atomic<int>& bodies,
    std::function<void(const Params&, int16_t, std::vector<OutRoute>&)> routes,
    const std::function<void(TaskClass& prod)>& tweak = {}) {
  Taskpool pool;
  TaskClass prod;
  prod.name = "PROD";
  prod.rank_of = [](const Params& p) { return p[0] % 2; };
  prod.num_task_inputs = [](const Params&) { return 0; };
  prod.enumerate_rank = [n](int rank) {
    std::vector<Params> out;
    for (int i = rank; i < n; i += 2) out.push_back(params_of(i));
    return out;
  };
  prod.body = [&bodies](TaskCtx& t) {
    ++bodies;
    t.set_output(0, make_buf(1, 1.0));
  };
  TaskClass cons;
  cons.name = "CONS";
  cons.rank_of = [](const Params&) { return 0; };
  cons.num_task_inputs = [](const Params&) { return 2; };
  cons.enumerate_rank = [n](int rank) {
    std::vector<Params> out;
    for (int i = 0; rank == 0 && i < n; ++i) out.push_back(params_of(i));
    return out;
  };
  cons.body = [&bodies](TaskCtx& t) {
    ++bodies;
    EXPECT_EQ((*t.input(0))[0] + (*t.input(1))[0], 2.0);
  };
  const auto prod_id = pool.add_class(std::move(prod));
  const auto cons_id = pool.add_class(std::move(cons));
  pool.mutable_cls(prod_id).route_outputs =
      [cons_id, routes](const Params& p, std::vector<OutRoute>& r) {
        routes(p, cons_id, r);
      };
  if (tweak) tweak(pool.mutable_cls(prod_id));
  return pool;
}

void both_slots(const Params& p, int16_t cons, std::vector<OutRoute>& r) {
  r.push_back({TaskKey{cons, p}, 0, 0});
  r.push_back({TaskKey{cons, p}, 1, 0});
}

// The runtime runs only what the compile could place: a duplicate instance
// (MPV002), an instance on a rank rank_of() does not name (MPV003), an edge
// to no instance (MPV004) or into an undeclared slot (MPV005) makes the
// Context constructor refuse the pool before any body runs.
TEST(FlatGraph, ContextRefusesWhatTheCompileCannotPlace) {
  constexpr int kN = 4;
  struct Case {
    const char* code;
    std::function<void(const Params&, int16_t, std::vector<OutRoute>&)> routes;
    std::function<void(TaskClass&)> tweak;
  };
  const Case cases[] = {
      {"MPV002", both_slots,
       [](TaskClass& c) {
         const auto inner = c.enumerate_rank;
         c.enumerate_rank = [inner](int rank) {
           auto out = inner(rank);
           if (rank == 0) out.push_back(out.front());
           return out;
         };
       }},
      {"MPV003", both_slots,
       [](TaskClass& c) {
         c.rank_of = [](const Params& p) { return (p[0] + 1) % 2; };
       }},
      {"MPV004",
       [](const Params& p, int16_t cons, std::vector<OutRoute>& r) {
         both_slots(p, cons, r);
         r.push_back({TaskKey{cons, params_of(p[0] + kN)}, 0, 0});
       },
       {}},
      {"MPV005",
       [](const Params& p, int16_t cons, std::vector<OutRoute>& r) {
         both_slots(p, cons, r);
         r.push_back({TaskKey{cons, p}, 2, 0});
       },
       {}},
  };
  for (const Case& c : cases) {
    std::atomic<int> bodies{0};
    const Taskpool pool = prod_cons_pool(kN, bodies, c.routes, c.tweak);
    const FlatGraph g = FlatGraph::compile(pool, 2);
    EXPECT_FALSE(g.placeable()) << c.code;
    EXPECT_TRUE(analysis::has_code(g.diags(), c.code))
        << c.code << ": " << analysis::render(g.diags());
    vc::Cluster cluster(2);
    cluster.run([&](vc::RankCtx& rctx) {
      EXPECT_THROW(Context(rctx, pool), InvalidArgument) << c.code;
    });
    EXPECT_EQ(bodies.load(), 0) << c.code;
  }
}

/// Slot 0 of CONS(i) twice, then slot 1: a duplicate writer (MPV006), which
/// the compile places and the verifier reports.
void slot0_twice(const Params& p, int16_t cons, std::vector<OutRoute>& r) {
  r.push_back({TaskKey{cons, p}, 0, 0});
  both_slots(p, cons, r);
}

// Without failure detection a second deposit into a filled slot is a graph
// error the runtime raises, as it did before deposits went lock-free.
TEST(Deposit, SecondDepositIntoAFilledSlotRaises) {
  std::atomic<int> bodies{0};
  const Taskpool pool = prod_cons_pool(1, bodies, slot0_twice);
  EXPECT_TRUE(analysis::has_code(analysis::verify_graph(pool, 1), "MPV006"));
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Context ctx(rctx, pool);
    try {
      ctx.run();
      ADD_FAILURE() << "a double deposit went through";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("double deposit"),
                std::string::npos)
          << e.what();
    }
  });
  EXPECT_EQ(bodies.load(), 1);  // PROD ran, CONS never did
}

// With failure detection on, deposits are idempotent: recovery replays can
// trail the original delivery, so the second copy is dropped and counted
// and the consumer runs once with the first.
TEST(Deposit, FailureDetectionDropsAndCountsASecondDeposit) {
  std::atomic<int> bodies{0};
  const Taskpool pool = prod_cons_pool(1, bodies, slot0_twice);
  Options opts;
  opts.enable_failure_detection = true;
  std::vector<uint64_t> dropped(2, 0);
  vc::Cluster cluster(2);
  cluster.run([&](vc::RankCtx& rctx) {
    Context ctx(rctx, pool, opts);
    ctx.run();
    dropped[static_cast<size_t>(rctx.rank())] =
        ctx.failure_stats().dup_deposits_dropped;
  });
  EXPECT_EQ(bodies.load(), 2);  // PROD and CONS, once each
  EXPECT_EQ(dropped[0], 1u);
  EXPECT_EQ(dropped[1], 0u);
}

// Under failure detection two copies of one input can arrive at the same
// moment: a stand-in re-runs an adopted producer while the thief that
// stole it delivers the same output. Here two producers start together
// and sweep slot 0 of the same 2-input consumers in the same order; the
// second then fills every slot 1. Of each pair of racing copies exactly
// one may fill the slot and count, so every consumer runs once per run,
// with both inputs, and the other copy is dropped and counted.
TEST(Deposit, FailureDetectionRacingCopiesLandOnce) {
  constexpr int kCons = 256;
  constexpr int kRuns = 60;
  std::atomic<int> started{0}, cons_runs{0}, incomplete{0};
  Taskpool pool;
  TaskClass prod;
  prod.name = "PROD";
  prod.rank_of = [](const Params&) { return 0; };
  prod.num_task_inputs = [](const Params&) { return 0; };
  prod.enumerate_rank = [](int rank) {
    return rank == 0 ? std::vector<Params>{params_of(0), params_of(1)}
                     : std::vector<Params>{};
  };
  prod.body = [&started](TaskCtx& t) {
    // Wait, for at most 100 ms, until both producers of this run have
    // started, so that their deposits overlap.
    const int me = started.fetch_add(1) + 1;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
    while (started.load() < (me + 1) / 2 * 2 &&
           std::chrono::steady_clock::now() < until) {
    }
    t.set_output(0, make_buf(1, 1.0));
  };
  TaskClass cons;
  cons.name = "CONS";
  cons.rank_of = [](const Params&) { return 0; };
  cons.num_task_inputs = [](const Params&) { return 2; };
  cons.enumerate_rank = [](int rank) {
    std::vector<Params> out;
    for (int i = 0; rank == 0 && i < kCons; ++i) out.push_back(params_of(i));
    return out;
  };
  cons.body = [&](TaskCtx& t) {
    ++cons_runs;
    try {
      (void)t.input(0);
      (void)t.input(1);
    } catch (const InvalidArgument&) {
      ++incomplete;
    }
  };
  const auto prod_id = pool.add_class(std::move(prod));
  const auto cons_id = pool.add_class(std::move(cons));
  pool.mutable_cls(prod_id).route_outputs =
      [cons_id](const Params& p, std::vector<OutRoute>& r) {
        for (int i = 0; i < kCons; ++i) {
          r.push_back({TaskKey{cons_id, params_of(i)}, 0, 0});
        }
        for (int i = 0; p[0] == 1 && i < kCons; ++i) {
          r.push_back({TaskKey{cons_id, params_of(i)}, 1, 0});
        }
      };
  Options opts;
  opts.enable_failure_detection = true;
  opts.num_workers = 2;
  std::vector<uint64_t> dropped(2, 0);
  vc::Cluster cluster(2);
  cluster.run([&](vc::RankCtx& rctx) {
    Context ctx(rctx, pool, opts);
    for (int run = 0; run < kRuns; ++run) {
      ctx.run();
      dropped[static_cast<size_t>(rctx.rank())] +=
          ctx.failure_stats().dup_deposits_dropped;
    }
  });
  EXPECT_EQ(cons_runs.load(), kRuns * kCons);
  EXPECT_EQ(incomplete.load(), 0);
  EXPECT_EQ(dropped[0], uint64_t{kRuns} * kCons);
  EXPECT_EQ(dropped[1], 0u);
}

TEST(Context, MissingOutputIsDiagnosed) {
  vc::Cluster cluster(1);
  EXPECT_THROW(
      cluster.run([&](vc::RankCtx& rctx) {
        Taskpool pool;
        TaskClass a;
        a.name = "forgetful";
        a.rank_of = [](const Params&) { return 0; };
        a.num_task_inputs = [](const Params&) { return 0; };
        a.enumerate_rank = [](int) {
          return std::vector<Params>{params_of(0)};
        };
        a.body = [](TaskCtx&) { /* forgot set_output */ };

        TaskClass b;
        b.name = "victim";
        b.rank_of = [](const Params&) { return 0; };
        b.num_task_inputs = [](const Params&) { return 1; };
        b.enumerate_rank = [](int) {
          return std::vector<Params>{params_of(0)};
        };
        b.body = [](TaskCtx&) {};

        const auto a_id = pool.add_class(std::move(a));
        const auto b_id = pool.add_class(std::move(b));
        auto& ar = pool.mutable_cls(a_id);
        ar.route_outputs = [=](const Params&, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{b_id, params_of(0)}, 0, 0});
        };
        Context ctx(rctx, pool);
        ctx.run();
      }),
      InvalidArgument);
}

TEST(Context, AbortPropagationUnderHighLatencyFabric) {
  // A task fails on one rank while every activation and the abort
  // broadcast itself crawl through a high-latency fabric. All ranks must
  // still unwind promptly instead of hanging in their comm loops.
  vc::FabricConfig cfg;
  cfg.latency_us = 500.0;
  vc::Cluster cluster(3, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(
      cluster.run([&](vc::RankCtx& rctx) {
        Taskpool pool;
        TaskClass c;
        c.name = "hop";
        c.rank_of = [](const Params& p) { return p[0] % 3; };
        c.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
        c.enumerate_rank = [](int rank) {
          std::vector<Params> out;
          for (int i = rank; i < 12; i += 3) out.push_back(params_of(i));
          return out;
        };
        c.body = [](TaskCtx& t) {
          if (t.params()[0] == 4) throw std::runtime_error("injected");
          t.set_output(0, make_buf(1, 1.0));
        };
        const auto id = pool.add_class(std::move(c));
        pool.mutable_cls(id).route_outputs =
            [id](const Params& p, std::vector<OutRoute>& r) {
              if (p[0] < 11) {
                r.push_back({TaskKey{id, params_of(p[0] + 1)}, 0, 0});
              }
            };
        Context ctx(rctx, pool);
        ctx.run();
      }),
      std::exception);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(20));
}

TEST(Context, WatchdogTurnsLostActivationIntoStateError) {
  // Every cross-rank activation is dropped by the fabric, so without the
  // watchdog both ranks would wait for activations forever. The watchdog
  // must surface a StateError carrying a diagnostic dump instead.
  vc::FabricConfig cfg;
  cfg.faults.drop_prob = 1.0;
  vc::Cluster cluster(2, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Taskpool pool;
      TaskClass c;
      c.name = "hop";
      c.rank_of = [](const Params& p) { return p[0] % 2; };
      c.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
      c.enumerate_rank = [](int rank) {
        std::vector<Params> out;
        for (int i = rank; i < 6; i += 2) out.push_back(params_of(i));
        return out;
      };
      c.body = [](TaskCtx& t) {
        t.set_output(0, make_buf(1, static_cast<double>(t.params()[0])));
      };
      const auto id = pool.add_class(std::move(c));
      pool.mutable_cls(id).route_outputs =
          [id](const Params& p, std::vector<OutRoute>& r) {
            if (p[0] < 5) {
              r.push_back({TaskKey{id, params_of(p[0] + 1)}, 0, 0});
            }
          };
      Options opts;
      opts.watchdog_timeout_ms = 200.0;
      Context ctx(rctx, pool, opts);
      ctx.run();
    });
    FAIL() << "expected the watchdog to raise StateError";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("PTG watchdog"), std::string::npos) << msg;
    EXPECT_NE(msg.find("executed="), std::string::npos) << msg;
    EXPECT_NE(msg.find("pending_deposit_keys="), std::string::npos) << msg;
    EXPECT_NE(msg.find("outbox_depth="), std::string::npos) << msg;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(20));
}

TEST(Context, ZeroWorkersRejected) {
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass c;
    c.name = "x";
    c.rank_of = [](const Params&) { return 0; };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.enumerate_rank = [](int) { return std::vector<Params>{}; };
    c.body = [](TaskCtx&) {};
    pool.add_class(std::move(c));
    Options opts;
    opts.num_workers = 0;
    EXPECT_THROW(Context(rctx, pool, opts), InvalidArgument);
  });
}

// --- trace analysis unit tests ---

TEST(Trace, SpanAndBusy) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 1, 0, {0, 0, 0}, 0.5, 2.0, false});
  EXPECT_DOUBLE_EQ(tr.span(), 2.0);
  EXPECT_DOUBLE_EQ(tr.busy_time(), 2.5);
  EXPECT_EQ(tr.num_rows(), 2u);
  EXPECT_NEAR(tr.idle_fraction(), 1.0 - 2.5 / 4.0, 1e-12);
}

TEST(Trace, NormalizeShiftsToZero) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 10.0, 11.0, false});
  tr.normalize();
  EXPECT_DOUBLE_EQ(tr.events()[0].t_start, 0.0);
  EXPECT_DOUBLE_EQ(tr.events()[0].t_end, 1.0);
}

TEST(Trace, StartupIdleMeasuresLateFirstTasks) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 1, 0, {0, 0, 0}, 4.0, 5.0, false});
  EXPECT_DOUBLE_EQ(tr.mean_startup_idle(), 2.0);
}

TEST(Trace, CommOverlapFraction) {
  Trace tr;
  // comm event [0,2] on rank 0; compute [1,2] covers half of it.
  tr.add({0, -1, -1, {0, 0, 0}, 0.0, 2.0, true});
  tr.add({0, 0, 0, {0, 0, 0}, 1.0, 2.0, false});
  EXPECT_NEAR(tr.comm_overlap_fraction(), 0.5, 1e-12);
}

TEST(Trace, CommOverlapIgnoresOtherRanksCompute) {
  Trace tr;
  tr.add({0, -1, -1, {0, 0, 0}, 0.0, 2.0, true});
  tr.add({1, 0, 0, {0, 0, 0}, 0.0, 2.0, false});  // different rank
  EXPECT_DOUBLE_EQ(tr.comm_overlap_fraction(), 0.0);
}

TEST(Trace, AsciiGanttRendersRowsPerWorker) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 1, 1, {0, 0, 0}, 1.0, 2.0, false});
  tr.add({1, 0, 0, {0, 0, 0}, 0.0, 2.0, false});
  const std::string g = tr.ascii_gantt(20, {'G', 'S'});
  EXPECT_NE(g.find("node 0:"), std::string::npos);
  EXPECT_NE(g.find("node 1:"), std::string::npos);
  EXPECT_NE(g.find('G'), std::string::npos);
  EXPECT_NE(g.find('S'), std::string::npos);
}

TEST(Trace, TimeByClassAggregates) {
  Trace tr;
  tr.add({0, 0, 0, {0, 0, 0}, 0.0, 1.0, false});
  tr.add({0, 0, 0, {0, 0, 0}, 1.0, 3.0, false});
  tr.add({0, 0, 1, {0, 0, 0}, 3.0, 4.0, false});
  const auto by = tr.time_by_class();
  EXPECT_DOUBLE_EQ(by.at(0), 3.0);
  EXPECT_DOUBLE_EQ(by.at(1), 1.0);
}

TEST(Trace, JsonContainsClassNames)
{
  Trace tr;
  tr.add({0, 0, 0, {1, 2, 3}, 0.0, 1.0, false});
  std::ostringstream os;
  tr.to_json(os, {"GEMM"});
  EXPECT_NE(os.str().find("\"GEMM\""), std::string::npos);
  EXPECT_NE(os.str().find("[1,2,3]"), std::string::npos);
}

}  // namespace
}  // namespace mp::ptg
