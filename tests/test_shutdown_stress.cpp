// Termination & shutdown stress suite (ctest label: stress).
//
// Exercises the comm thread, the per-worker ready heaps and the deposit/
// activation path concurrently while the fabric injects faults — dropped,
// duplicated and reordered messages — and verifies that the runtime never
// hangs: it either completes with the correct result or unwinds with a
// clean exception (the watchdog's StateError at worst). Designed to run
// under -DMP_SANITIZE=thread and =address.
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "ptg/context.h"
#include "support/rng.h"
#include "vc/cluster.h"

namespace mp::ptg {
namespace {

using std::chrono::seconds;
using std::chrono::steady_clock;

/// A reproducible random layered DAG (same shape as test_ptg_stress, kept
/// local so this suite stays self-contained).
struct StressDag {
  int layers, width;
  std::vector<std::vector<std::vector<int>>> parents;
  std::vector<std::vector<std::vector<std::pair<int, int>>>> children;

  static StressDag make(int layers, int width, uint64_t seed) {
    StressDag d;
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

/// Build the Taskpool for `dag` inside an SPMD region and run it. Returns
/// the final-layer values via `got`.
void run_dag(const StressDag& dag, vc::RankCtx& rctx, Options opts,
             std::vector<double>* got, std::mutex* mu) {
  const int nranks = rctx.nranks();
  const int layers = dag.layers, width = dag.width;
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
  node.enumerate_rank = [&dag, owner, layers, width](int rank) {
    std::vector<Params> out;
    for (int l = 0; l < layers; ++l) {
      for (int i = 0; i < width; ++i) {
        if (owner(l, i) == rank) out.push_back(params_of(l, i));
      }
    }
    return out;
  };
  node.body = [&dag, got, mu, layers](TaskCtx& t) {
    const int l = t.params()[0], i = t.params()[1];
    double s = 0.0;
    const auto& plist =
        dag.parents[static_cast<size_t>(l)][static_cast<size_t>(i)];
    for (size_t slot = 0; slot < plist.size(); ++slot) {
      s += (*t.input(static_cast<int>(slot)))[0];
    }
    const double v = StressDag::combine(l, i, s);
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

  Context ctx(rctx, pool, opts);
  ctx.run();
  // Self-check the scheduler counters on every completed run: the snapshot
  // must satisfy the SchedStats invariants even right after quiescence.
  EXPECT_EQ(ctx.scheduler_stats().validate(), "") << "rank " << rctx.rank();
}

// --- lost activations: the watchdog must end the run, never a hang ---

TEST(ShutdownStress, DropFaultsEndInCleanStateErrorNotHang) {
  // Acceptance: with drop_prob > 0 high enough that activations are lost,
  // every stalled rank's watchdog fires and the job terminates with a
  // clean StateError carrying diagnostics — within seconds, not never.
  vc::FabricConfig cfg;
  cfg.faults.drop_prob = 0.8;
  cfg.fault_seed = 7;
  vc::Cluster cluster(3, cfg);
  const StressDag dag = StressDag::make(8, 9, 11);
  std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
  std::mutex mu;

  const auto t0 = steady_clock::now();
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 3;
      opts.watchdog_timeout_ms = 250.0;
      run_dag(dag, rctx, opts, &got, &mu);
    });
    FAIL() << "80% drop rate cannot complete an 8-layer cross-rank DAG";
  } catch (const StateError& e) {
    // Rank 0 reports either its own watchdog dump or — if another rank's
    // watchdog fired first and its abort broadcast survived the drops —
    // the relayed abort. Both are watchdog-driven clean terminations.
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("PTG watchdog") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
  EXPECT_LT(steady_clock::now() - t0, seconds(30));
  // Even a fault-riddled aborted run must leave the fabric counters
  // internally consistent (faults <= messages, bytes imply messages).
  EXPECT_EQ(cluster.fabric().stats().validate(), "");
}

// --- mixed faults: complete correctly or unwind cleanly, seed sweep ---

class MixedFaultStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MixedFaultStress, CompletesOrUnwindsCleanly) {
  const uint64_t seed = GetParam();
  vc::FabricConfig cfg;
  cfg.latency_us = 100.0;
  cfg.faults.drop_prob = 0.02;
  cfg.faults.dup_prob = 0.02;
  cfg.faults.reorder_jitter_us = 150.0;
  cfg.fault_seed = seed;
  vc::Cluster cluster(3, cfg);
  const StressDag dag = StressDag::make(10, 8, seed * 31 + 1);
  const auto expected = dag.evaluate();
  std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
  std::mutex mu;

  const auto t0 = steady_clock::now();
  bool completed = false;
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 3;
      opts.watchdog_timeout_ms = 300.0;
      run_dag(dag, rctx, opts, &got, &mu);
    });
    completed = true;
  } catch (const std::exception&) {
    // A dropped activation tripped the watchdog, or a duplicated one was
    // diagnosed as a double deposit. Unwinding cleanly is the contract.
  }
  EXPECT_LT(steady_clock::now() - t0, seconds(30));
  EXPECT_EQ(cluster.fabric().stats().validate(), "") << "seed " << seed;
  if (completed) {
    for (int i = 0; i < dag.width; ++i) {
      EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)],
                       expected[static_cast<size_t>(dag.layers - 1)]
                               [static_cast<size_t>(i)])
          << "sink " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedFaultStress,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- reordering alone must not break correctness ---

TEST(ShutdownStress, ReorderJitterOnlyComputesCorrectResult) {
  // Deposits are slot-addressed, so delivery order must not matter. Run a
  // wide DAG with heavy jitter (no drops/dups) and check against serial.
  vc::FabricConfig cfg;
  cfg.faults.reorder_jitter_us = 300.0;
  cfg.fault_seed = 99;
  vc::Cluster cluster(4, cfg);
  const StressDag dag = StressDag::make(12, 10, 21);
  const auto expected = dag.evaluate();
  std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
  std::mutex mu;

  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 4;
    run_dag(dag, rctx, opts, &got, &mu);
  });
  EXPECT_EQ(cluster.fabric().stats().validate(), "");
  for (int i = 0; i < dag.width; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)],
                     expected[static_cast<size_t>(dag.layers - 1)]
                             [static_cast<size_t>(i)])
        << "sink " << i;
  }
}

// --- abort propagation under delay + jitter ---

TEST(ShutdownStress, AbortUnderDelayedJitteryFabricUnwindsEveryRank) {
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    vc::FabricConfig cfg;
    cfg.latency_us = 200.0;
    cfg.faults.reorder_jitter_us = 100.0;
    cfg.fault_seed = seed;
    vc::Cluster cluster(3, cfg);
    const auto t0 = steady_clock::now();
    EXPECT_THROW(
        cluster.run([&](vc::RankCtx& rctx) {
          Taskpool pool;
          TaskClass c;
          c.name = "failing_hop";
          c.rank_of = [](const Params& p) { return p[0] % 3; };
          c.num_task_inputs = [](const Params& p) {
            return p[0] == 0 ? 0 : 1;
          };
          c.enumerate_rank = [](int rank) {
            std::vector<Params> out;
            for (int i = rank; i < 9; i += 3) out.push_back(params_of(i));
            return out;
          };
          c.body = [&](TaskCtx& t) {
            if (t.params()[0] == static_cast<int>(3 + seed % 3)) {
              throw std::runtime_error("injected failure");
            }
            t.set_output(0, make_buf(1, 1.0));
          };
          const auto id = pool.add_class(std::move(c));
          pool.mutable_cls(id).route_outputs =
              [id](const Params& p, std::vector<OutRoute>& r) {
                if (p[0] < 8) {
                  r.push_back({TaskKey{id, params_of(p[0] + 1)}, 0, 0});
                }
              };
          Options opts;
          opts.num_workers = 2;
          Context ctx(rctx, pool, opts);
          ctx.run();
        }),
        std::exception);
    EXPECT_LT(steady_clock::now() - t0, seconds(20)) << "seed " << seed;
  }
}

// --- repeated full lifecycles shake shutdown races (TSan's job) ---

TEST(ShutdownStress, RepeatedLifecyclesQuiesceCleanly) {
  for (int iter = 0; iter < 10; ++iter) {
    vc::FabricConfig cfg;
    cfg.latency_us = 50.0;
    cfg.faults.reorder_jitter_us = 50.0;
    cfg.fault_seed = static_cast<uint64_t>(iter);
    vc::Cluster cluster(2, cfg);
    const StressDag dag = StressDag::make(5, 6,
                                          static_cast<uint64_t>(iter) + 101);
    std::vector<double> got(static_cast<size_t>(dag.width), 0.0);
    std::mutex mu;
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 2;
      run_dag(dag, rctx, opts, &got, &mu);
    });
    EXPECT_EQ(cluster.fabric().stats().validate(), "") << "iter " << iter;
    // Cluster + Fabric destructors run here; a stuck delivery or comm
    // thread would hang the test.
  }
}

}  // namespace
}  // namespace mp::ptg
