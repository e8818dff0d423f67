// Stress and property tests for the PTG runtime:
//  * randomized layered DAGs executed distributed and checked against a
//    serial evaluation of the same graph (parameterized over cluster
//    shape, workers per rank and graph size);
//  * failure injection on a remote rank (the abort protocol must unwind
//    every rank instead of deadlocking);
//  * execution over a fabric with injected latency and bandwidth limits;
//  * termination when a rank's last tasks finish together on different
//    workers.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "ptg/context.h"
#include "support/rng.h"
#include "vc/cluster.h"

namespace mp::ptg {
namespace {

/// A reproducible random layered DAG. Task (l, i) combines its parents'
/// values; parents live in layer l-1.
struct RandomDag {
  int layers;
  int width;
  // parents[l][i] = parent indexes in layer l-1 (empty for l == 0).
  std::vector<std::vector<std::vector<int>>> parents;
  // children[l][i] = child indexes in layer l+1 with the input slot this
  // parent feeds.
  std::vector<std::vector<std::vector<std::pair<int, int>>>> children;

  static RandomDag make(int layers, int width, uint64_t seed) {
    RandomDag d;
    d.layers = layers;
    d.width = width;
    Rng rng(seed);
    d.parents.assign(static_cast<size_t>(layers),
                     std::vector<std::vector<int>>(
                         static_cast<size_t>(width)));
    d.children.assign(
        static_cast<size_t>(layers),
        std::vector<std::vector<std::pair<int, int>>>(
            static_cast<size_t>(width)));
    for (int l = 1; l < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        const int nparents = 1 + static_cast<int>(rng.next_below(3));
        for (int p = 0; p < nparents; ++p) {
          const int parent = static_cast<int>(rng.next_below(
              static_cast<uint64_t>(width)));
          auto& plist = d.parents[static_cast<size_t>(l)][static_cast<size_t>(i)];
          // avoid duplicate edges into the same slot structure
          bool dup = false;
          for (int existing : plist) dup |= (existing == parent);
          if (dup) continue;
          const int slot = static_cast<int>(plist.size());
          plist.push_back(parent);
          d.children[static_cast<size_t>(l - 1)][static_cast<size_t>(parent)]
              .emplace_back(i, slot);
        }
      }
    }
    return d;
  }

  /// Node-local combine function, deterministic in (l, i).
  static double combine(int l, int i, double input_sum) {
    return input_sum * 0.5 + static_cast<double>((l * 131 + i * 17) % 97) +
           1.0;
  }

  /// Serial evaluation of every node value.
  std::vector<std::vector<double>> evaluate() const {
    std::vector<std::vector<double>> val(
        static_cast<size_t>(layers),
        std::vector<double>(static_cast<size_t>(width), 0.0));
    for (int l = 0; l < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        double s = 0.0;
        for (int p : parents[static_cast<size_t>(l)][static_cast<size_t>(i)]) {
          s += val[static_cast<size_t>(l - 1)][static_cast<size_t>(p)];
        }
        val[static_cast<size_t>(l)][static_cast<size_t>(i)] =
            combine(l, i, s);
      }
    }
    return val;
  }
};

// gtest names each case by dumping the parameter's bytes, so the 32-byte
// layout is part of the test names. The slot a removed field left is an
// explicit, zeroed member: implicit padding would put uninitialised bytes
// into the names.
struct StressCase {
  int nranks, workers, layers, width;
  std::array<char, 8> pad{};
  uint64_t seed;
};
static_assert(sizeof(StressCase) == 4 * sizeof(int) + 8 + sizeof(uint64_t));

class RandomDagStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(RandomDagStress, DistributedMatchesSerial) {
  const auto c = GetParam();
  const RandomDag dag = RandomDag::make(c.layers, c.width, c.seed);
  const auto expected = dag.evaluate();

  std::vector<double> got(static_cast<size_t>(c.width), 0.0);
  std::mutex mu;

  vc::Cluster cluster(c.nranks);
  cluster.run([&](vc::RankCtx& rctx) {
    const int nranks = rctx.nranks();
    auto owner = [nranks](int l, int i) { return (l * 7 + i * 13) % nranks; };

    Taskpool pool;
    TaskClass node;
    node.name = "NODE";
    node.rank_of = [owner](const Params& p) { return owner(p[0], p[1]); };
    node.num_task_inputs = [&dag](const Params& p) {
      return static_cast<int>(
          dag.parents[static_cast<size_t>(p[0])][static_cast<size_t>(p[1])]
              .size());
    };
    node.enumerate_rank = [&dag, owner, &c](int rank) {
      std::vector<Params> out;
      for (int l = 0; l < c.layers; ++l) {
        for (int i = 0; i < c.width; ++i) {
          if (owner(l, i) == rank) out.push_back(params_of(l, i));
        }
      }
      return out;
    };
    node.body = [&dag, &got, &mu, &c](TaskCtx& t) {
      const int l = t.params()[0], i = t.params()[1];
      double s = 0.0;
      const auto& plist =
          dag.parents[static_cast<size_t>(l)][static_cast<size_t>(i)];
      for (size_t slot = 0; slot < plist.size(); ++slot) {
        s += (*t.input(static_cast<int>(slot)))[0];
      }
      const double v = RandomDag::combine(l, i, s);
      if (l == c.layers - 1) {
        std::lock_guard lock(mu);
        got[static_cast<size_t>(i)] = v;
      }
      t.set_output(0, make_buf(1, v));
    };
    const auto node_id = pool.add_class(std::move(node));
    pool.mutable_cls(node_id).route_outputs =
        [&dag, node_id](const Params& p, std::vector<OutRoute>& r) {
          const auto& kids = dag.children[static_cast<size_t>(p[0])]
                                         [static_cast<size_t>(p[1])];
          for (const auto& [child, slot] : kids) {
            r.push_back({TaskKey{node_id, params_of(p[0] + 1, child)},
                         static_cast<int8_t>(slot), 0});
          }
        };

    Options opts;
    opts.num_workers = c.workers;
    Context ctx(rctx, pool, opts);
    ctx.run();
    EXPECT_EQ(ctx.tasks_executed(), ctx.expected_tasks());
  });

  for (int i = 0; i < c.width; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)],
                     expected[static_cast<size_t>(c.layers - 1)]
                             [static_cast<size_t>(i)])
        << "sink " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomDagStress,
    ::testing::Values(
        StressCase{1, 1, 4, 6, {}, 1}, StressCase{1, 4, 8, 10, {}, 2},
        StressCase{2, 2, 6, 8, {}, 3}, StressCase{3, 2, 10, 12, {}, 4},
        StressCase{4, 3, 12, 16, {}, 5}, StressCase{4, 2, 20, 8, {}, 6},
        StressCase{5, 2, 5, 25, {}, 7}, StressCase{2, 4, 30, 6, {}, 8}),
    [](const auto& info) {
      const auto& c = info.param;
      return "r" + std::to_string(c.nranks) + "w" +
             std::to_string(c.workers) + "L" + std::to_string(c.layers) +
             "W" + std::to_string(c.width) + "s" + std::to_string(c.seed);
    });

// --- failure injection ---

TEST(FailureInjection, RemoteTaskFailureUnwindsAllRanks) {
  // A task on rank 1 throws mid-DAG. Without abort propagation rank 0
  // would wait forever for activations; the runtime must unwind everywhere
  // and surface an exception. This test completing (quickly) is the point.
  vc::Cluster cluster(3);
  EXPECT_THROW(
      cluster.run([&](vc::RankCtx& rctx) {
        Taskpool pool;
        TaskClass c;
        c.name = "maybe_fail";
        c.rank_of = [](const Params& p) { return p[0] % 3; };
        c.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
        c.enumerate_rank = [](int rank) {
          std::vector<Params> out;
          for (int i = rank; i < 9; i += 3) out.push_back(params_of(i));
          return out;
        };
        c.body = [](TaskCtx& t) {
          if (t.params()[0] == 1) {
            throw std::runtime_error("injected failure");
          }
          t.set_output(0, make_buf(1, 1.0));
        };
        const auto id = pool.add_class(std::move(c));
        // One chain 0 -> 1 -> ... -> 8 hopping across ranks: when task 1
        // dies on rank 1, every downstream rank would starve without the
        // abort broadcast.
        pool.mutable_cls(id).route_outputs =
            [id](const Params& p, std::vector<OutRoute>& r) {
              if (p[0] < 8) {
                r.push_back({TaskKey{id, params_of(p[0] + 1)}, 0, 0});
              }
            };
        Context ctx(rctx, pool);
        ctx.run();
      }),
      std::exception);
}

TEST(FailureInjection, FirstErrorWinsOverAbortNoise) {
  // The originating rank reports the real error, not the secondary
  // "aborted by remote" StateError.
  vc::Cluster cluster(2);
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Taskpool pool;
      TaskClass c;
      c.name = "fail0";
      c.rank_of = [](const Params&) { return 0; };
      c.num_task_inputs = [](const Params&) { return 0; };
      c.enumerate_rank = [](int rank) {
        return rank == 0 ? std::vector<Params>{params_of(0)}
                         : std::vector<Params>{};
      };
      c.body = [](TaskCtx&) { throw DataError("the real problem"); };
      pool.add_class(std::move(c));
      Context ctx(rctx, pool);
      ctx.run();
    });
    FAIL() << "expected an exception";
  } catch (const DataError& e) {
    EXPECT_STREQ(e.what(), "the real problem");
  }
}

// --- slow-fabric execution ---

TEST(SlowFabric, ChainSurvivesLatencyAndBandwidthLimits) {
  vc::FabricConfig cfg;
  cfg.latency_us = 300.0;
  cfg.bandwidth_Bps = 50e6;
  vc::Cluster cluster(3, cfg);

  std::vector<double> finals(4, 0.0);
  std::mutex mu;
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass step;
    step.name = "STEP";
    step.rank_of = [](const Params& p) { return (p[0] + p[1]) % 3; };
    step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    step.enumerate_rank = [](int rank) {
      std::vector<Params> out;
      for (int l1 = 0; l1 < 4; ++l1) {
        for (int l2 = 0; l2 < 6; ++l2) {
          if ((l1 + l2) % 3 == rank) out.push_back(params_of(l1, l2));
        }
      }
      return out;
    };
    step.body = [&](TaskCtx& t) {
      DataBuf buf = t.params()[1] == 0 ? make_buf(512, 1.0)
                                       : t.take_input(0);
      double* x = buf->mutable_data();
      for (size_t j = 0; j < buf->size(); ++j) x[j] += 1.0;
      if (t.params()[1] == 5) {
        std::lock_guard lock(mu);
        finals[static_cast<size_t>(t.params()[0])] = (*buf)[0];
      } else {
        t.set_output(0, std::move(buf));
      }
    };
    const auto id = pool.add_class(std::move(step));
    pool.mutable_cls(id).route_outputs =
        [id](const Params& p, std::vector<OutRoute>& r) {
          if (p[1] < 5) {
            r.push_back({TaskKey{id, params_of(p[0], p[1] + 1)}, 0, 0});
          }
        };
    Context ctx(rctx, pool);
    ctx.run();
  });
  for (double v : finals) EXPECT_DOUBLE_EQ(v, 7.0);  // 1.0 + 6 increments
}

// size() is a relaxed atomic counter, safe to read from any thread with no
// locks. Hammer it from a dedicated reader while workers push/pop/steal —
// TSan (the stress job) proves the absence of races, and the bounds check
// proves the counter never drifts outside [0, pushed].
TEST(SchedulerConcurrency, SizeIsLockFreeUnderConcurrentPushPop) {
  constexpr int kWorkers = 3;
  constexpr int kPerWorker = 4000;
  Scheduler sched(kWorkers);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> popped{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const size_t s = sched.size();
      ASSERT_LE(s, static_cast<size_t>(kWorkers) * kPerWorker);
    }
  });

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      ReadyTask t;
      for (int i = 0; i < kPerWorker; ++i) {
        t.priority = i & 15;
        t.seq = static_cast<uint64_t>(w * kPerWorker + i);
        t.id = w * kPerWorker + i;
        sched.push(t, w);
        ReadyTask out;
        if ((i & 3) == 0 && sched.try_pop(out, w)) {
          popped.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Drain whatever is left, cooperatively with the other workers.
      ReadyTask out;
      while (sched.try_pop(out, w)) {
        popped.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : workers) th.join();
  // Stragglers: a worker can miss tasks pushed after its drain finished.
  ReadyTask out;
  while (sched.try_pop(out, 0)) {
    popped.fetch_add(1, std::memory_order_relaxed);
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(popped.load(), static_cast<uint64_t>(kWorkers) * kPerWorker);
  EXPECT_EQ(sched.size(), 0u);
}

// Each worker counts its own tasks and a worker sums every count only when
// its pop fails. When a rank's last tasks finish on different workers at
// the same moment, at least one of those workers must see all counts, or
// the rank never completes: the run would hang until the watchdog fires.
// Per rank one FIRST task per worker activates a LAST task (across ranks
// when there are two), and the LAST tasks of a rank wait in their bodies
// until all of them have started, so they end together.
void run_last_tasks_together(int nranks, int workers, int runs) {
  std::vector<std::atomic<uint64_t>> started(static_cast<size_t>(nranks));
  vc::Cluster cluster(nranks);
  cluster.run([&](vc::RankCtx& rctx) {
    const auto width = static_cast<uint64_t>(workers);
    // FIRST(r, w) and LAST(r, w) live on rank r, one per worker.
    auto per_worker = [workers](int rank) {
      std::vector<Params> out;
      for (int w = 0; w < workers; ++w) out.push_back(params_of(rank, w));
      return out;
    };
    Taskpool pool;
    TaskClass first;
    first.name = "FIRST";
    first.rank_of = [](const Params& p) { return p[0]; };
    first.num_task_inputs = [](const Params&) { return 0; };
    first.enumerate_rank = per_worker;
    first.body = [](TaskCtx& t) { t.set_output(0, make_buf(1, 1.0)); };
    const auto first_id = pool.add_class(std::move(first));
    TaskClass last;
    last.name = "LAST";
    last.rank_of = [](const Params& p) { return p[0]; };
    last.num_task_inputs = [](const Params&) { return 1; };
    last.enumerate_rank = per_worker;
    last.body = [&started, width](TaskCtx& t) {
      // Rendezvous of this rank's LAST tasks: the ticket's generation ends
      // once all of them have arrived. Bounded, so a busy host cannot turn
      // a slow peer into a hang of this body.
      std::atomic<uint64_t>& n = started[static_cast<size_t>(t.params()[0])];
      const uint64_t target = (n.fetch_add(1) / width + 1) * width;
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(50);
      while (n.load() < target && std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
    };
    const auto last_id = pool.add_class(std::move(last));
    pool.mutable_cls(first_id).route_outputs =
        [last_id, nranks](const Params& p, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{last_id, params_of((p[0] + 1) % nranks, p[1])},
                       0, 0});
        };
    Options opts;
    opts.num_workers = workers;
    // A lost completion leaves every worker asleep with nothing queued:
    // the watchdog turns that hang into a StateError within half a second.
    opts.watchdog_timeout_ms = 500.0;
    Context ctx(rctx, pool, opts);
    for (int i = 0; i < runs; ++i) {
      ctx.run();
      ASSERT_EQ(ctx.tasks_executed(), ctx.expected_tasks())
          << "rank " << rctx.rank() << " run " << i;
      ASSERT_EQ(ctx.expected_tasks(), 2 * width);
    }
  });
}

TEST(TerminationStress, LastTasksEndingTogetherOneRankFourWorkers) {
  run_last_tasks_together(/*nranks=*/1, /*workers=*/4, /*runs=*/1000);
}

TEST(TerminationStress, LastTasksEndingTogetherTwoRanksTwoWorkers) {
  run_last_tasks_together(/*nranks=*/2, /*workers=*/2, /*runs=*/1000);
}

}  // namespace
}  // namespace mp::ptg
