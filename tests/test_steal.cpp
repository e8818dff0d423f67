// Inter-node work stealing: functional suite (ctest label: steal).
//
// Covers the steal protocol end to end on a healthy fabric — an
// imbalanced two-layer job whose heavy tasks all live on one rank must
// complete correctly while tasks migrate, with every cross-rank counter
// pair (migrations out/in, credits sent/received) matching exactly and
// no migration left uncredited. Large input buffers migrate as handles,
// not copies, and a stolen task's input that a sibling on the victim
// still shares stays the victim's. In an MP_ANALYSIS build every
// functional steal run must end with no lifecycle-checker finding. Also
// the watchdog regression pair for the outstanding-work deadline scaling,
// the simulator's skewed-tile acceptance gate, and the imbalance
// generators' invariants.
// The fault-injection half of the story lives in test_steal_stress.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "ptg/context.h"
#include "sim/presets.h"
#include "sim/ptg_sim.h"
#include "tce/imbalance.h"
#include "vc/cluster.h"
#include "zero_findings.h"

namespace mp::ptg {
namespace {

/// Burn wall-clock time so a rank's ready queue stays non-empty long
/// enough for thieves to ask. A sleep would do, but a spin keeps the
/// worker thread runnable, which is closer to a real GEMM body.
void spin_for_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  volatile double sink = 1.0;
  while (std::chrono::steady_clock::now() < until) sink = sink * 1.0000001;
  (void)sink;
}

double feed_val(int i) { return 0.25 * i + 3.0; }

class StealFunctional : public ZeroFindingsTest {};

/// Everything one rank reports after its Context quiesced.
struct RankReport {
  uint64_t executed = 0;   ///< bodies run here (own + stolen-in)
  uint64_t completed = 0;  ///< own tasks finished anywhere
  uint64_t expected = 0;
  StealStats steal;
  std::string sched_validate = "unset";
  std::string steal_validate = "unset";
  size_t outstanding_migrations = 0;  ///< migrated out, never credited
};

/// Two-layer imbalanced job: FEED(i) is spread round-robin over the
/// ranks; every HEAVY(i) (one input, `spin_us` of compute) is homed on
/// rank 0. With stealing enabled the other ranks should pull HEAVY work
/// over; `exec_rank` records where each HEAVY body actually ran.
void run_imbalanced(vc::RankCtx& rctx, int width, int spin_us,
                    bool heavy_migratable, Options opts,
                    std::vector<double>* got, std::vector<int>* exec_rank,
                    std::mutex* mu, std::vector<RankReport>* reports) {
  const int nranks = rctx.nranks();
  const int my_rank = rctx.rank();

  Taskpool pool;
  TaskClass feed;
  feed.name = "FEED";
  feed.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
  feed.num_task_inputs = [](const Params&) { return 0; };
  feed.enumerate_rank = [nranks, width](int rank) {
    std::vector<Params> out;
    for (int i = rank; i < width; i += nranks) out.push_back(params_of(i));
    return out;
  };
  feed.body = [](TaskCtx& t) {
    t.set_output(0, make_buf(1, feed_val(t.params()[0])));
  };
  const auto feed_id = pool.add_class(std::move(feed));

  TaskClass heavy;
  heavy.name = "HEAVY";
  heavy.migratable = heavy_migratable;
  heavy.rank_of = [](const Params&) { return 0; };
  heavy.num_task_inputs = [](const Params&) { return 1; };
  heavy.enumerate_rank = [width](int rank) {
    std::vector<Params> out;
    if (rank == 0) {
      for (int i = 0; i < width; ++i) out.push_back(params_of(i));
    }
    return out;
  };
  heavy.body = [spin_us, got, exec_rank, mu, my_rank](TaskCtx& t) {
    const int i = t.params()[0];
    spin_for_us(spin_us);
    const double v = (*t.input(0))[0] * 3.0 + i;
    {
      std::lock_guard lock(*mu);
      (*got)[static_cast<size_t>(i)] = v;
      (*exec_rank)[static_cast<size_t>(i)] = my_rank;
    }
    t.set_output(0, make_buf(1, v));
  };
  const auto heavy_id = pool.add_class(std::move(heavy));
  pool.mutable_cls(feed_id).route_outputs =
      [heavy_id](const Params& p, std::vector<OutRoute>& r) {
        r.push_back({TaskKey{heavy_id, p}, 0, 0});
      };
  pool.mutable_cls(heavy_id).route_outputs =
      [](const Params&, std::vector<OutRoute>&) {};

  Context ctx(rctx, pool, opts);
  ctx.run();

  RankReport rep;
  rep.executed = ctx.tasks_executed();
  rep.completed = ctx.tasks_completed();
  rep.expected = ctx.expected_tasks();
  rep.steal = ctx.steal_stats();
  rep.sched_validate = ctx.scheduler_stats().validate();
  rep.steal_validate = rep.steal.validate();
  rep.outstanding_migrations = ctx.outstanding_migrations();
  {
    std::lock_guard lock(*mu);
    (*reports)[static_cast<size_t>(my_rank)] = rep;
  }
}

// --- the protocol moves work, completes correctly, and every counter
//     pair matches across ranks ---

TEST_F(StealFunctional, ImbalancedJobCompletesMigratesAndCountersPair) {
  const int nranks = 4, width = 160, spin_us = 400;
  vc::Cluster cluster(nranks);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<int> exec_rank(static_cast<size_t>(width), -1);
  std::vector<RankReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;

  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 2;
    opts.enable_stealing = true;
    opts.steal_cooldown_ms = 0.5;
    opts.steal_backoff_ms = 2.0;
    run_imbalanced(rctx, width, spin_us, /*heavy_migratable=*/true, opts,
                   &got, &exec_rank, &mu, &reports);
  });

  // Correct values regardless of where each body ran.
  for (int i = 0; i < width; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)], feed_val(i) * 3.0 + i)
        << "HEAVY(" << i << ") ran on rank "
        << exec_rank[static_cast<size_t>(i)];
  }

  // Per-rank: all own tasks accounted for, all self-checks clean.
  uint64_t sum_exec = 0, sum_expected = 0;
  uint64_t out = 0, in = 0, cs = 0, cr = 0;
  for (int r = 0; r < nranks; ++r) {
    const RankReport& rep = reports[static_cast<size_t>(r)];
    EXPECT_EQ(rep.completed, rep.expected) << "rank " << r;
    EXPECT_EQ(rep.sched_validate, "") << "rank " << r;
    EXPECT_EQ(rep.steal_validate, "") << "rank " << r;
    // Global completion: every migration was credited home.
    EXPECT_EQ(rep.outstanding_migrations, 0u) << "rank " << r;
    sum_exec += rep.executed;
    sum_expected += rep.expected;
    out += rep.steal.tasks_migrated_out;
    in += rep.steal.tasks_migrated_in;
    cs += rep.steal.credits_sent;
    cr += rep.steal.credits_received;
  }
  // Every body ran exactly once somewhere; 160 FEED + 160 HEAVY.
  EXPECT_EQ(sum_expected, static_cast<uint64_t>(2 * width));
  EXPECT_EQ(sum_exec, sum_expected);

  // Cross-rank pairing on a reliable fabric: nothing shipped is lost,
  // every foreign execution was credited home.
  EXPECT_EQ(out, in);
  EXPECT_EQ(cs, cr);
  EXPECT_EQ(in, cs) << "every stolen task must send exactly one credit";
  EXPECT_GT(in, 0u) << "the imbalance is the point: work must migrate";

  // A HEAVY body off its home rank is possible only via migration.
  uint64_t off_home = 0;
  for (int i = 0; i < width; ++i) {
    if (exec_rank[static_cast<size_t>(i)] != 0) ++off_home;
  }
  EXPECT_LE(off_home, in);
}

// --- classes marked non-migratable never leave home ---

TEST_F(StealFunctional, NonMigratableClassAlwaysRunsAtHome) {
  const int nranks = 3, width = 60, spin_us = 200;
  vc::Cluster cluster(nranks);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<int> exec_rank(static_cast<size_t>(width), -1);
  std::vector<RankReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;

  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 2;
    opts.enable_stealing = true;
    opts.steal_cooldown_ms = 0.5;
    run_imbalanced(rctx, width, spin_us, /*heavy_migratable=*/false, opts,
                   &got, &exec_rank, &mu, &reports);
  });

  for (int i = 0; i < width; ++i) {
    EXPECT_DOUBLE_EQ(got[static_cast<size_t>(i)], feed_val(i) * 3.0 + i);
    EXPECT_EQ(exec_rank[static_cast<size_t>(i)], 0)
        << "non-migratable HEAVY(" << i << ") left its home rank";
  }
  for (int r = 0; r < nranks; ++r) {
    EXPECT_EQ(reports[static_cast<size_t>(r)].steal_validate, "")
        << "rank " << r;
  }
}

// --- inputs above the eager limit migrate as handles ---

/// What HEAVY(i) observed about its input in run_large_inputs.
struct LargeInputSeen {
  int exec_rank = -1;
  bool read_producers_object = false;  ///< input(0) was FEED(i)'s buffer
  bool took_producers_object = false;  ///< take_input(0) did not copy
  bool values_ok = false;
};

/// The imbalanced FEED -> HEAVY job of run_imbalanced with buffers larger
/// than Context::kEagerLimit, so activations and steal replies carry the
/// handles themselves. HEAVY takes its input over and scales it in place.
/// Each FEED(i) leaves a weak_ptr to its output in `feed_objs` (it keeps
/// the control block, so no later buffer can alias it), which HEAVY(i)
/// compares against what it received.
void run_large_inputs(vc::RankCtx& rctx, int width, size_t elems,
                      Options opts,
                      std::vector<std::weak_ptr<Buffer>>* feed_objs,
                      std::vector<LargeInputSeen>* seen, std::mutex* mu,
                      std::vector<RankReport>* reports) {
  const int nranks = rctx.nranks();
  const int my_rank = rctx.rank();

  Taskpool pool;
  TaskClass feed;
  feed.name = "FEED";
  feed.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
  feed.num_task_inputs = [](const Params&) { return 0; };
  feed.enumerate_rank = [nranks, width](int rank) {
    std::vector<Params> out;
    for (int i = rank; i < width; i += nranks) out.push_back(params_of(i));
    return out;
  };
  feed.body = [elems, feed_objs, mu](TaskCtx& t) {
    const int i = t.params()[0];
    DataBuf buf = make_buf(elems);
    double* d = buf->mutable_data();
    for (size_t j = 0; j < elems; ++j) {
      d[j] = feed_val(i) + static_cast<double>(j);
    }
    {
      std::lock_guard lock(*mu);
      (*feed_objs)[static_cast<size_t>(i)] = buf;
    }
    t.set_output(0, std::move(buf));
  };
  const auto feed_id = pool.add_class(std::move(feed));

  TaskClass heavy;
  heavy.name = "HEAVY";
  heavy.rank_of = [](const Params&) { return 0; };
  heavy.num_task_inputs = [](const Params&) { return 1; };
  heavy.enumerate_rank = [width](int rank) {
    std::vector<Params> out;
    if (rank == 0) {
      for (int i = 0; i < width; ++i) out.push_back(params_of(i));
    }
    return out;
  };
  heavy.body = [elems, feed_objs, seen, mu, my_rank](TaskCtx& t) {
    const int i = t.params()[0];
    spin_for_us(300);
    // Compare against the producer's object while it is provably alive,
    // and drop the extra handle before take_input counts the holders. A
    // copy is allocated while the original still lives, so it can never
    // come back at the original's address.
    const Buffer* producers_obj = nullptr;
    bool read_same = false;
    {
      std::lock_guard lock(*mu);
      const DataBuf producers = (*feed_objs)[static_cast<size_t>(i)].lock();
      read_same = producers != nullptr && producers == t.input(0);
      producers_obj = producers.get();
    }
    DataBuf in = t.take_input(0);
    const bool took_same = in.get() == producers_obj;
    bool ok = in->size() == elems;
    double* d = in->mutable_data();
    for (size_t j = 0; ok && j < elems; ++j) {
      ok = d[j] == feed_val(i) + static_cast<double>(j);
      d[j] = d[j] * 3.0 + i;
    }
    std::lock_guard lock(*mu);
    (*seen)[static_cast<size_t>(i)] =
        LargeInputSeen{my_rank, read_same, took_same, ok};
  };
  const auto heavy_id = pool.add_class(std::move(heavy));
  pool.mutable_cls(feed_id).route_outputs =
      [heavy_id](const Params& p, std::vector<OutRoute>& r) {
        r.push_back({TaskKey{heavy_id, p}, 0, 0});
      };

  opts.num_workers = 2;
  opts.enable_stealing = true;
  opts.steal_cooldown_ms = 0.5;
  opts.steal_backoff_ms = 2.0;
  Context ctx(rctx, pool, opts);
  ctx.run();

  RankReport rep;
  rep.steal = ctx.steal_stats();
  rep.steal_validate = rep.steal.validate();
  rep.outstanding_migrations = ctx.outstanding_migrations();
  std::lock_guard lock(*mu);
  (*reports)[static_cast<size_t>(my_rank)] = rep;
}

/// Runs run_large_inputs on 4 ranks and checks what every rank and every
/// HEAVY body reported; returns the HEAVY observations.
std::vector<LargeInputSeen> check_large_inputs(bool failure_detection) {
  const int nranks = 4, width = 96;
  const size_t elems = 8 * Context::kEagerLimit + 3;
  vc::Cluster cluster(nranks);
  std::vector<std::weak_ptr<Buffer>> feed_objs(
      static_cast<size_t>(width));
  std::vector<LargeInputSeen> seen(static_cast<size_t>(width));
  std::vector<RankReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;
  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.enable_failure_detection = failure_detection;
    run_large_inputs(rctx, width, elems, opts, &feed_objs, &seen, &mu,
                     &reports);
  });
  uint64_t migrated_in = 0;
  for (int r = 0; r < nranks; ++r) {
    const RankReport& rep = reports[static_cast<size_t>(r)];
    EXPECT_EQ(rep.steal_validate, "") << "rank " << r;
    EXPECT_EQ(rep.outstanding_migrations, 0u) << "rank " << r;
    migrated_in += rep.steal.tasks_migrated_in;
  }
  EXPECT_GT(migrated_in, 0u) << "the imbalance is the point: work must move";
  int off_home = 0;
  for (int i = 0; i < width; ++i) {
    const LargeInputSeen& s = seen[static_cast<size_t>(i)];
    EXPECT_TRUE(s.values_ok) << "HEAVY(" << i << ") on rank " << s.exec_rank;
    // Activations and steal replies alike deliver FEED(i)'s own buffer.
    EXPECT_TRUE(s.read_producers_object)
        << "HEAVY(" << i << ") on rank " << s.exec_rank
        << " read a copy of its input";
    if (s.exec_rank != 0) ++off_home;
  }
  EXPECT_GT(off_home, 0) << "no HEAVY body ran on a thief";
  return seen;
}

TEST_F(StealFunctional, LargeInputsMigrateAsHandlesAndAreTakenInPlace) {
  // Nothing else holds a handle: the producer moved it into the route, the
  // victim moved it into the reply. Every take is the producer's object.
  for (const LargeInputSeen& s : check_large_inputs(false)) {
    EXPECT_TRUE(s.took_producers_object)
        << "take_input copied an input only one task holds (rank "
        << s.exec_rank << ")";
  }
}

TEST_F(StealFunctional, LargeInputsMigrateAsHandlesUnderFailureDetection) {
  // Failure detection retains every stolen task's inputs for re-injection,
  // so a thief shares them with its victim and must take a copy.
  for (const LargeInputSeen& s : check_large_inputs(true)) {
    if (s.exec_rank != 0) {
      EXPECT_FALSE(s.took_producers_object)
          << "a thief mutated an input its victim still retains";
    }
  }
}

// --- a stolen task's input shared with a sibling that stays home ---

TEST_F(StealFunctional, StolenInputSharedWithASiblingStaysTheVictims) {
  // FEED(i) fans one above-limit buffer out to HEAVY(i), which a thief may
  // take, and to KEEP(i), which is not migratable. A harvest that pops
  // both ships HEAVY(i) and re-pushes KEEP(i), which then runs on rank 0
  // while the reply is still on the (slow) wire. The victim gave no handle
  // up, so KEEP's read is no migrated access (MPA007), and HEAVY's
  // in-place update on the thief must not reach the data KEEP reads.
  const int nranks = 4, width = 128;
  const size_t elems = 8 * Context::kEagerLimit + 3;
  auto pattern_ok = [elems](const DataBuf& b, int i) {
    if (b->size() != elems) return false;
    for (size_t j = 0; j < elems; ++j) {
      if ((*b)[j] != feed_val(i) + static_cast<double>(j)) return false;
    }
    return true;
  };
  std::vector<int> heavy_rank(static_cast<size_t>(width), -1);
  std::vector<char> heavy_ok(static_cast<size_t>(width), 0);
  std::vector<char> keep_ok(static_cast<size_t>(width), 0);
  std::atomic<uint64_t> migrated{0};
  std::mutex mu;
  vc::FabricConfig cfg;
  cfg.latency_us = 1000.0;
  vc::Cluster cluster(nranks, cfg);
  cluster.run([&](vc::RankCtx& rctx) {
    const int my_rank = rctx.rank();
    auto on_rank0 = [width](int rank) {
      std::vector<Params> out;
      if (rank == 0) {
        for (int i = 0; i < width; ++i) out.push_back(params_of(i));
      }
      return out;
    };
    Taskpool pool;
    TaskClass feed;
    feed.name = "FEED";
    feed.migratable = false;  // thieves get HEAVY tasks only
    feed.rank_of = [](const Params&) { return 0; };
    feed.num_task_inputs = [](const Params&) { return 0; };
    feed.enumerate_rank = on_rank0;
    feed.body = [elems](TaskCtx& t) {
      DataBuf buf = make_buf(elems);
      double* d = buf->mutable_data();
      for (size_t j = 0; j < elems; ++j) {
        d[j] = feed_val(t.params()[0]) + static_cast<double>(j);
      }
      t.set_output(0, std::move(buf));
    };
    const auto feed_id = pool.add_class(std::move(feed));

    TaskClass heavy;
    heavy.name = "HEAVY";
    heavy.rank_of = [](const Params&) { return 0; };
    heavy.num_task_inputs = [](const Params&) { return 1; };
    heavy.enumerate_rank = on_rank0;
    heavy.body = [&, my_rank](TaskCtx& t) {
      const int i = t.params()[0];
      spin_for_us(500);
      DataBuf in = t.take_input(0);
      const bool ok = pattern_ok(in, i);
      double* d = in->mutable_data();  // in place on whatever take_input gave
      for (size_t j = 0; j < in->size(); ++j) d[j] = -d[j];
      std::lock_guard lock(mu);
      heavy_rank[static_cast<size_t>(i)] = my_rank;
      heavy_ok[static_cast<size_t>(i)] = ok;
    };
    const auto heavy_id = pool.add_class(std::move(heavy));

    TaskClass keep;
    keep.name = "KEEP";
    keep.migratable = false;
    keep.rank_of = [](const Params&) { return 0; };
    keep.num_task_inputs = [](const Params&) { return 1; };
    keep.enumerate_rank = on_rank0;
    keep.body = [&](TaskCtx& t) {
      const int i = t.params()[0];
      const bool ok = pattern_ok(t.input(0), i);
      std::lock_guard lock(mu);
      keep_ok[static_cast<size_t>(i)] = ok;
    };
    const auto keep_id = pool.add_class(std::move(keep));
    pool.mutable_cls(feed_id).route_outputs =
        [heavy_id, keep_id](const Params& p, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{heavy_id, p}, 0, 0});
          r.push_back({TaskKey{keep_id, p}, 0, 0});
        };

    Options opts;
    opts.num_workers = 2;
    opts.enable_stealing = true;
    opts.steal_cooldown_ms = 0.5;
    opts.steal_backoff_ms = 2.0;
    Context ctx(rctx, pool, opts);
    ctx.run();
    migrated.fetch_add(ctx.steal_stats().tasks_migrated_in);
    EXPECT_EQ(ctx.outstanding_migrations(), 0u) << "rank " << my_rank;
  });

  EXPECT_GT(migrated.load(), 0u) << "no HEAVY task was stolen";
  int off_home = 0;
  for (int i = 0; i < width; ++i) {
    const auto u = static_cast<size_t>(i);
    EXPECT_TRUE(heavy_ok[u]) << "HEAVY(" << i << ") on rank " << heavy_rank[u];
    EXPECT_TRUE(keep_ok[u]) << "KEEP(" << i << ") read HEAVY's update";
    if (heavy_rank[u] != 0) ++off_home;
  }
  EXPECT_GT(off_home, 0) << "no HEAVY body ran on a thief";
}

// --- watchdog regression: the deadline scales with outstanding work ---
//
// The spurious-fire scenario the scaling exists for: rank 1 owns a batch
// of sink tasks whose single input comes from the tail of a slow serial
// chain on rank 0. While the chain grinds, rank 1 has idle workers, an
// empty queue and zero progress — indistinguishable, to a flat deadline,
// from a lost activation. The outstanding-work estimate (16 queued
// sinks) must stretch rank 1's deadline past the chain's makespan.

void run_remote_chain(vc::RankCtx& rctx, int chain_len, int sinks,
                      int sleep_ms, Options opts, std::vector<double>* got,
                      std::mutex* mu) {
  Taskpool pool;
  TaskClass chain;
  chain.name = "SLOW";
  chain.rank_of = [](const Params&) { return 0; };
  chain.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
  chain.enumerate_rank = [chain_len](int rank) {
    std::vector<Params> out;
    if (rank == 0) {
      for (int k = 0; k < chain_len; ++k) out.push_back(params_of(k));
    }
    return out;
  };
  chain.body = [sleep_ms](TaskCtx& t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    const int k = t.params()[0];
    const double v = (k == 0 ? 1.0 : (*t.input(0))[0]) + 1.0;
    t.set_output(0, make_buf(1, v));
  };
  const auto chain_id = pool.add_class(std::move(chain));

  TaskClass sink;
  sink.name = "SINK";
  sink.rank_of = [](const Params&) { return 1; };
  sink.num_task_inputs = [](const Params&) { return 1; };
  sink.enumerate_rank = [sinks](int rank) {
    std::vector<Params> out;
    if (rank == 1) {
      for (int j = 0; j < sinks; ++j) out.push_back(params_of(j));
    }
    return out;
  };
  sink.body = [got, mu](TaskCtx& t) {
    const int j = t.params()[0];
    const double v = (*t.input(0))[0] + j;
    {
      std::lock_guard lock(*mu);
      (*got)[static_cast<size_t>(j)] = v;
    }
    t.set_output(0, make_buf(1, v));
  };
  const auto sink_id = pool.add_class(std::move(sink));
  pool.mutable_cls(chain_id).route_outputs =
      [chain_id, sink_id, chain_len, sinks](const Params& p,
                                            std::vector<OutRoute>& r) {
        if (p[0] + 1 < chain_len) {
          r.push_back({TaskKey{chain_id, params_of(p[0] + 1)}, 0, 0});
        } else {
          for (int j = 0; j < sinks; ++j) {
            r.push_back({TaskKey{sink_id, params_of(j)}, 0, 0});
          }
        }
      };
  pool.mutable_cls(sink_id).route_outputs =
      [](const Params&, std::vector<OutRoute>&) {};
  Context ctx(rctx, pool, opts);
  ctx.run();
}

TEST(StealWatchdog, ScaledDeadlineToleratesSlowRemoteChain) {
  // Rank 1 waits ~400 ms (8 x 50 ms) with a 30 ms base timeout; its 16
  // outstanding sinks scale the deadline to 30 * (1 + 4 * 16) ≈ 2 s, so
  // the run must complete without a spurious fire.
  vc::Cluster cluster(2);
  std::vector<double> got(16, 0.0);
  std::mutex mu;
  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 2;
    opts.watchdog_timeout_ms = 30.0;
    opts.watchdog_scale_per_task = 4.0;
    run_remote_chain(rctx, /*chain_len=*/8, /*sinks=*/16, /*sleep_ms=*/50,
                     opts, &got, &mu);
  });
  for (int j = 0; j < 16; ++j) {
    EXPECT_DOUBLE_EQ(got[static_cast<size_t>(j)], 9.0 + j) << "sink " << j;
  }
}

TEST(StealWatchdog, FlatDeadlineFiresOnTheSameWait) {
  // Sensitivity check for the test above: with the per-task scaling off
  // the identical topology and base timeout must trip rank 1's watchdog
  // during the wait, proving the scaled deadline — not timing luck — is
  // what kept it quiet.
  vc::Cluster cluster(2);
  std::vector<double> got(16, 0.0);
  std::mutex mu;
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 2;
      opts.watchdog_timeout_ms = 30.0;
      opts.watchdog_scale_per_task = 0.0;
      run_remote_chain(rctx, /*chain_len=*/8, /*sinks=*/16, /*sleep_ms=*/50,
                       opts, &got, &mu);
    });
    FAIL() << "a flat 30 ms deadline cannot sit out a 400 ms remote chain";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("PTG watchdog") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
}

// --- simulator: the acceptance gate and the do-no-harm check ---

TEST(StealSim, SkewedTileGainsAtLeastThirtyPercentAtEightNodes) {
  const auto p = sim::make_preset("skewed_tile");
  sim::GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 8;
  const auto g = sim::build_graph(p.plan, gopts);

  sim::SimOptions base;
  base.cores_per_node = 8;
  const double t_static = sim::simulate_ptg(g, base).makespan;

  sim::SimOptions steal = base;
  steal.enable_stealing = true;
  const sim::SimResult rs = sim::simulate_ptg(g, steal);

  EXPECT_GT(rs.tasks_migrated, 0u);
  EXPECT_GE(t_static / rs.makespan, 1.3)
      << "static " << t_static << " s vs steal " << rs.makespan << " s";
}

TEST(StealSim, BalancedWorkloadIsNotHurtByStealing) {
  const auto p = sim::make_preset("tiny");
  sim::GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 4;
  const auto g = sim::build_graph(p.plan, gopts);

  sim::SimOptions base;
  base.cores_per_node = 4;
  const double t_static = sim::simulate_ptg(g, base).makespan;

  sim::SimOptions steal = base;
  steal.enable_stealing = true;
  const double t_steal = sim::simulate_ptg(g, steal).makespan;

  // Fully-idle-only thief activation: on a balanced workload stealing
  // must be near-free (small tiles make any migration a net loss, so
  // the agent should barely trigger).
  EXPECT_LE(t_steal, t_static * 1.05);
}

// --- the imbalance generators: conservation, determinism, skew ---

TEST(Imbalance, SkewedPlanConservesWorkAndConcentratesIt) {
  const auto p = sim::make_preset("tiny");
  tce::ImbalanceSpec spec;
  spec.nranks = 4;
  spec.zipf_alpha = 1.5;
  ASSERT_NO_THROW(spec.validate());

  const auto count = [](const tce::ChainPlan& plan) {
    size_t g = 0;
    for (const auto& c : plan.chains) g += c.gemms.size();
    return g;
  };

  const auto skewed = tce::make_skewed_plan(p.plan, spec);
  EXPECT_EQ(skewed.chains.size(), p.plan.chains.size());
  EXPECT_EQ(count(skewed), count(p.plan))
      << "the transform reshapes the distribution, never the total";

  // Deterministic for a fixed seed.
  const auto again = tce::make_skewed_plan(p.plan, spec);
  ASSERT_EQ(again.chains.size(), skewed.chains.size());
  for (size_t i = 0; i < skewed.chains.size(); ++i) {
    EXPECT_EQ(again.chains[i].gemms.size(), skewed.chains[i].gemms.size())
        << "chain " << i;
  }

  // The point of the exercise: one rank ends up far above the mean.
  const auto work = tce::work_per_rank(skewed, spec.nranks);
  const int64_t total =
      std::accumulate(work.begin(), work.end(), static_cast<int64_t>(0));
  const double mean =
      static_cast<double>(total) / static_cast<double>(spec.nranks);
  const int64_t peak = *std::max_element(work.begin(), work.end());
  EXPECT_GE(static_cast<double>(peak), 2.0 * mean)
      << "hot rank holds " << peak << " of " << total << " GEMMs";
}

TEST(Imbalance, NestedPlanConservesWorkAndSkewsEveryTier) {
  const auto p = sim::make_preset("tiny");
  tce::ImbalanceSpec spec;
  spec.nranks = 4;
  spec.zipf_alpha = 1.5;

  const auto count = [](const tce::ChainPlan& plan) {
    size_t g = 0;
    for (const auto& c : plan.chains) g += c.gemms.size();
    return g;
  };
  const auto nested = tce::make_nested_imbalance_plan(p.plan, spec);
  EXPECT_EQ(nested.chains.size(), p.plan.chains.size());
  EXPECT_EQ(count(nested), count(p.plan));

  const auto work = tce::work_per_rank(nested, spec.nranks);
  const int64_t total =
      std::accumulate(work.begin(), work.end(), static_cast<int64_t>(0));
  const double mean =
      static_cast<double>(total) / static_cast<double>(spec.nranks);
  const int64_t peak = *std::max_element(work.begin(), work.end());
  EXPECT_GE(static_cast<double>(peak), 1.5 * mean);

  // Inner-tier skew: within some rank the longest chain dominates the
  // rank's mean chain length (the two-tier Zipf's second tier).
  std::vector<std::vector<size_t>> by_rank(
      static_cast<size_t>(spec.nranks));
  for (const auto& c : nested.chains) {
    by_rank[static_cast<size_t>(c.id % spec.nranks)].push_back(
        c.gemms.size());
  }
  bool inner_skew = false;
  for (const auto& lens : by_rank) {
    if (lens.size() < 2) continue;
    const size_t longest = *std::max_element(lens.begin(), lens.end());
    const double avg =
        static_cast<double>(
            std::accumulate(lens.begin(), lens.end(), size_t{0})) /
        static_cast<double>(lens.size());
    inner_skew |= static_cast<double>(longest) >= 1.5 * avg;
  }
  EXPECT_TRUE(inner_skew)
      << "no rank shows a dominant chain; inner Zipf tier is flat";
}

}  // namespace
}  // namespace mp::ptg
