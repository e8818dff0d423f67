// Work-stealing under fabric faults (ctest labels: stress, steal).
//
// The steal protocol adds five message kinds (STEAL_REQUEST, STEAL_REPLY,
// CREDIT, LOCAL_DONE, JOB_DONE) to the activation traffic, and each of
// them can be dropped, duplicated or reordered by the fault-injecting
// fabric. The contract is the same as the shutdown stress suite's:
// either the job completes with the correct result — stolen tasks
// included — or it unwinds with a clean watchdog StateError; it never
// hangs, never double-executes a duplicated steal message, and always
// leaves the fabric, scheduler and steal counters internally consistent;
// a completed job leaves no migration uncredited. Designed to run under
// -DMP_SANITIZE=thread and =address; in an MP_ANALYSIS build every run
// must also end with no lifecycle-checker finding.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "ptg/context.h"
#include "support/rng.h"
#include "vc/cluster.h"
#include "zero_findings.h"

namespace mp::ptg {
namespace {

using std::chrono::seconds;
using std::chrono::steady_clock;

/// Reproducible random layered DAG (the shutdown-stress shape, kept local
/// so this suite stays self-contained). Ownership is deliberately skewed:
/// most of each layer lands on rank 0 so the steal agent has a victim.
struct StealDag {
  int layers, width;
  std::vector<std::vector<std::vector<int>>> parents;
  std::vector<std::vector<std::vector<std::pair<int, int>>>> children;

  static StealDag make(int layers, int width, uint64_t seed) {
    StealDag d;
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
          const int parent =
              static_cast<int>(rng.next_below(static_cast<uint64_t>(width)));
          auto& plist =
              d.parents[static_cast<size_t>(l)][static_cast<size_t>(i)];
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

  /// Two thirds of every layer is homed on rank 0, the rest round-robin.
  static int owner(int l, int i, int nranks) {
    return i % 3 != 2 ? 0 : (l + i) % nranks;
  }

  static double combine(int l, int i, double input_sum) {
    return input_sum * 0.5 + static_cast<double>((l * 131 + i * 17) % 97) +
           1.0;
  }

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
        val[static_cast<size_t>(l)][static_cast<size_t>(i)] = combine(l, i, s);
      }
    }
    return val;
  }
};

/// Busy-wait so ready queues stay populated long enough to be stolen from.
void spin_for_us(int us) {
  const auto until = steady_clock::now() + std::chrono::microseconds(us);
  volatile double sink = 1.0;
  while (steady_clock::now() < until) sink = sink * 1.0000001;
  (void)sink;
}

/// Build and run the taskpool for `dag` with stealing enabled. Sink-layer
/// values land in `got`. Post-run, every rank's counter self-checks must
/// hold whether the run completed or unwound; a completed run adds its
/// uncredited migrations (Context::outstanding_migrations) to
/// `outstanding`.
void run_dag_stealing(const StealDag& dag, vc::RankCtx& rctx, Options opts,
                      std::atomic<size_t>* outstanding,
                      std::vector<double>* got, std::mutex* mu,
                      int spin_us = 100) {
  const int nranks = rctx.nranks();
  const int layers = dag.layers, width = dag.width;

  Taskpool pool;
  TaskClass node;
  node.name = "NODE";
  node.rank_of = [nranks](const Params& p) {
    return StealDag::owner(p[0], p[1], nranks);
  };
  node.num_task_inputs = [&dag](const Params& p) {
    return static_cast<int>(
        dag.parents[static_cast<size_t>(p[0])][static_cast<size_t>(p[1])]
            .size());
  };
  node.enumerate_rank = [&dag, nranks, layers, width](int rank) {
    std::vector<Params> out;
    for (int l = 0; l < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        if (StealDag::owner(l, i, nranks) == rank) {
          out.push_back(params_of(l, i));
        }
      }
    }
    return out;
  };
  node.body = [&dag, got, mu, layers, spin_us](TaskCtx& t) {
    const int l = t.params()[0], i = t.params()[1];
    spin_for_us(spin_us);
    double s = 0.0;
    const auto& plist =
        dag.parents[static_cast<size_t>(l)][static_cast<size_t>(i)];
    for (size_t slot = 0; slot < plist.size(); ++slot) {
      s += (*t.input(static_cast<int>(slot)))[0];
    }
    const double v = StealDag::combine(l, i, s);
    if (l == layers - 1) {
      std::lock_guard lock(*mu);
      (*got)[static_cast<size_t>(i)] = v;
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

  opts.enable_stealing = true;
  Context ctx(rctx, pool, opts);
  try {
    ctx.run();
  } catch (...) {
    // Even an unwound rank must leave consistent counter snapshots.
    EXPECT_EQ(ctx.scheduler_stats().validate(), "") << "rank " << rctx.rank();
    EXPECT_EQ(ctx.steal_stats().validate(), "") << "rank " << rctx.rank();
    throw;
  }
  EXPECT_EQ(ctx.scheduler_stats().validate(), "") << "rank " << rctx.rank();
  EXPECT_EQ(ctx.steal_stats().validate(), "") << "rank " << rctx.rank();
  outstanding->fetch_add(ctx.outstanding_migrations());
}

// --- mixed drop/dup/reorder faults, seed sweep: complete or unwind ---

// Completed or unwound, no run may raise a lifecycle-checker finding.
class StealStress : public ZeroFindingsTest {};
class StealFaultStress : public ZeroFindingsTest,
                         public ::testing::WithParamInterface<uint64_t> {};

TEST_P(StealFaultStress, CompletesOrUnwindsCleanly) {
  const uint64_t seed = GetParam();
  vc::FabricConfig cfg;
  cfg.latency_us = 100.0;
  cfg.faults.drop_prob = 0.02;
  cfg.faults.dup_prob = 0.03;
  cfg.faults.reorder_jitter_us = 150.0;
  cfg.fault_seed = seed;
  vc::Cluster cluster(3, cfg);
  std::atomic<size_t> outstanding{0};
  const StealDag dag = StealDag::make(9, 9, seed * 37 + 5);
  const auto expected = dag.evaluate();
  std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
  std::mutex mu;

  const auto t0 = steady_clock::now();
  bool completed = false;
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 3;
      opts.steal_cooldown_ms = 0.5;
      opts.watchdog_timeout_ms = 300.0;
      run_dag_stealing(dag, rctx, opts, &outstanding, &got, &mu);
    });
    completed = true;
  } catch (const std::exception&) {
    // A dropped activation, steal reply or credit tripped a watchdog
    // somewhere; unwinding cleanly is the contract.
  }
  EXPECT_LT(steady_clock::now() - t0, seconds(30)) << "seed " << seed;
  EXPECT_EQ(cluster.fabric().stats().validate(), "") << "seed " << seed;
  if (completed) {
    // Global completion implies every migration was credited home.
    EXPECT_EQ(outstanding.load(), 0u) << "seed " << seed;
    for (int i = 0; i < dag.width; ++i) {
      EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)],
                       expected[static_cast<size_t>(dag.layers - 1)]
                               [static_cast<size_t>(i)])
          << "sink " << i << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StealFaultStress,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

// --- duplication + reordering alone must not cost correctness ---

TEST_F(StealStress, DupAndReorderOnlyCompletesCorrectly) {
  // No drops: the wire-sequence dedup makes every duplicated message —
  // activations, steal requests, steal replies with whole task batches,
  // credits — land exactly once, so the run must complete and match the
  // serial evaluation. A double-absorbed STEAL_REPLY would double-run
  // tasks and show up here as a wrong sink value or a diagnostic.
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    vc::FabricConfig cfg;
    cfg.faults.dup_prob = 0.05;
    cfg.faults.reorder_jitter_us = 300.0;
    cfg.fault_seed = seed;
    vc::Cluster cluster(3, cfg);
    std::atomic<size_t> outstanding{0};
    const StealDag dag = StealDag::make(8, 9, seed + 70);
    const auto expected = dag.evaluate();
    std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
    std::mutex mu;

    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 3;
      opts.steal_cooldown_ms = 0.5;
      run_dag_stealing(dag, rctx, opts, &outstanding, &got, &mu);
    });
    EXPECT_EQ(cluster.fabric().stats().validate(), "") << "seed " << seed;
    EXPECT_EQ(outstanding.load(), 0u) << "seed " << seed;
    for (int i = 0; i < dag.width; ++i) {
      EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)],
                       expected[static_cast<size_t>(dag.layers - 1)]
                               [static_cast<size_t>(i)])
          << "sink " << i << " seed " << seed;
    }
  }
}

// --- heavy drops with stealing active: watchdog, never a hang ---

TEST_F(StealStress, HeavyDropsEndInCleanStateErrorNotHang) {
  // 80% drop swallows steal replies (losing migrated tasks in flight)
  // and completion credits (stranding the termination scheme); every
  // stalled rank's scaled watchdog must still end the run in seconds.
  vc::FabricConfig cfg;
  cfg.faults.drop_prob = 0.8;
  cfg.fault_seed = 17;
  vc::Cluster cluster(3, cfg);
  std::atomic<size_t> outstanding{0};
  const StealDag dag = StealDag::make(8, 9, 23);
  std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
  std::mutex mu;

  const auto t0 = steady_clock::now();
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 3;
      opts.steal_cooldown_ms = 0.5;
      opts.watchdog_timeout_ms = 250.0;
      run_dag_stealing(dag, rctx, opts, &outstanding, &got, &mu);
    });
    FAIL() << "an 80% drop rate cannot complete a cross-rank DAG";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("PTG watchdog") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
  EXPECT_LT(steady_clock::now() - t0, seconds(30));
  EXPECT_EQ(cluster.fabric().stats().validate(), "");
}

// --- concurrent shutdown: a task failure while migrations are in flight ---

TEST_F(StealStress, TaskFailureDuringActiveStealingUnwindsEveryRank) {
  // One body throws mid-job while the steal agent is moving its
  // neighbours between ranks; the abort must reach every rank whether
  // the failing task ran at home or on a thief.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    vc::FabricConfig cfg;
    cfg.latency_us = 100.0;
    cfg.faults.reorder_jitter_us = 100.0;
    cfg.fault_seed = seed;
    vc::Cluster cluster(3, cfg);
    const auto t0 = steady_clock::now();
    EXPECT_THROW(
        cluster.run([&](vc::RankCtx& rctx) {
          Taskpool pool;
          TaskClass c;
          c.name = "FLAKY";
          c.rank_of = [](const Params&) { return 0; };
          c.num_task_inputs = [](const Params&) { return 0; };
          c.enumerate_rank = [](int rank) {
            std::vector<Params> out;
            if (rank == 0) {
              for (int i = 0; i < 60; ++i) out.push_back(params_of(i));
            }
            return out;
          };
          c.body = [seed](TaskCtx& t) {
            spin_for_us(200);
            if (t.params()[0] == static_cast<int>(30 + seed)) {
              throw std::runtime_error("injected failure");
            }
            t.set_output(0, make_buf(1, 1.0));
          };
          const auto id = pool.add_class(std::move(c));
          pool.mutable_cls(id).route_outputs =
              [](const Params&, std::vector<OutRoute>&) {};
          Options opts;
          opts.num_workers = 2;
          opts.enable_stealing = true;
          opts.steal_cooldown_ms = 0.5;
          Context ctx(rctx, pool, opts);
          ctx.run();
        }),
        std::exception);
    EXPECT_LT(steady_clock::now() - t0, seconds(20)) << "seed " << seed;
    EXPECT_EQ(cluster.fabric().stats().validate(), "") << "seed " << seed;
  }
}

// --- repeated full lifecycles with stealing shake shutdown races ---

TEST_F(StealStress, RepeatedStealingLifecyclesQuiesceCleanly) {
  for (int iter = 0; iter < 8; ++iter) {
    vc::FabricConfig cfg;
    cfg.latency_us = 50.0;
    cfg.faults.reorder_jitter_us = 50.0;
    cfg.fault_seed = static_cast<uint64_t>(iter);
    vc::Cluster cluster(3, cfg);
    std::atomic<size_t> outstanding{0};
    const StealDag dag = StealDag::make(6, 7,
                                        static_cast<uint64_t>(iter) + 211);
    const auto expected = dag.evaluate();
    std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
    std::mutex mu;
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 2;
      opts.steal_cooldown_ms = 0.5;
      run_dag_stealing(dag, rctx, opts, &outstanding, &got, &mu,
                       /*spin_us=*/50);
    });
    EXPECT_EQ(cluster.fabric().stats().validate(), "") << "iter " << iter;
    EXPECT_EQ(outstanding.load(), 0u) << "iter " << iter;
    for (int i = 0; i < dag.width; ++i) {
      EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)],
                       expected[static_cast<size_t>(dag.layers - 1)]
                               [static_cast<size_t>(i)])
          << "iter " << iter << " sink " << i;
    }
    // Cluster + Fabric destructors run here; a stuck steal reply or
    // comm thread would hang the test.
  }
}

}  // namespace
}  // namespace mp::ptg
