// Rank-failure tolerance under fabric faults (ctest labels: stress, fault).
//
// The recovery protocol's control messages (HEARTBEAT, probes, the
// dead-set-carrying LOCAL_DONE) and its replayed activations ride the same
// fault-injecting fabric as everything else, so a death can coincide with
// dropped, duplicated and reordered messages — and with work stealing
// moving tasks toward (or away from) the rank about to die. The contract
// across the whole matrix: the job either completes with the correct
// result or unwinds with a clean StateError; it never hangs, never
// double-counts a replayed deposit, and every per-rank and process-wide
// counter self-check (FailureStats, StealStats, SchedStats, FabricStats)
// holds afterwards, and a completed job leaves no migration uncredited or
// un-reinjected. Designed to run under
// -DMP_SANITIZE=thread and =address.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <vector>

#include "ptg/context.h"
#include "vc/cluster.h"
#include "vc/fabric.h"

namespace mp::ptg {
namespace {

void spin_for_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  volatile double sink = 1.0;
  while (std::chrono::steady_clock::now() < until) sink = sink * 1.0000001;
  (void)sink;
}

double feed_val(int i) { return 0.25 * i + 3.0; }

int heavy_home(int i, int nranks) { return (i * 7 + 3) % nranks; }

struct FaultReport {
  bool killed = false;
  uint64_t dead_mask = 0;
  FailureStats failure;
  StealStats steal;
  std::string sched_validate = "unset";
  size_t outstanding_migrations = 0;  ///< migrated out, never credited
};

/// The spread two-layer job from test_failure.cpp: FEED(i) round-robin,
/// HEAVY(i) homed by an affine map, so the victim owns roots and
/// dependents alike.
void run_spread(vc::RankCtx& rctx, int width, int spin_us, Options opts,
                std::vector<double>* got, std::mutex* mu,
                std::vector<FaultReport>* reports) {
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
  heavy.migratable = true;
  heavy.rank_of = [nranks](const Params& p) {
    return heavy_home(p[0], nranks);
  };
  heavy.num_task_inputs = [](const Params&) { return 1; };
  heavy.enumerate_rank = [nranks, width](int rank) {
    std::vector<Params> out;
    for (int i = 0; i < width; ++i) {
      if (heavy_home(i, nranks) == rank) out.push_back(params_of(i));
    }
    return out;
  };
  heavy.body = [spin_us, got, mu](TaskCtx& t) {
    const int i = t.params()[0];
    spin_for_us(spin_us);
    const double v = (*t.input(0))[0] * 3.0 + i;
    {
      std::lock_guard lock(*mu);
      (*got)[static_cast<size_t>(i)] = v;
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

  FaultReport rep;
  rep.killed = ctx.killed();
  rep.dead_mask = ctx.confirmed_dead_mask();
  rep.failure = ctx.failure_stats();
  rep.steal = ctx.steal_stats();
  rep.sched_validate = ctx.scheduler_stats().validate();
  rep.outstanding_migrations = ctx.outstanding_migrations();
  {
    std::lock_guard lock(*mu);
    (*reports)[static_cast<size_t>(my_rank)] = rep;
  }
}

struct StressOutcome {
  bool completed = false;       ///< cluster.run returned without throwing
  bool values_correct = false;  ///< every HEAVY value matches (if completed)
  std::string error;            ///< what() of the StateError (if any)
};

/// One stressed run: CrashPlan on `victim`, message faults per `faults`,
/// policy kRetry, optional stealing. Asserts the never-hang/never-corrupt
/// contract and every counter self-check; returns the outcome so callers
/// can assert completion on configurations where it is guaranteed.
StressOutcome stressed_run(uint64_t seed, vc::FaultConfig faults,
                           bool stealing, int width = 72,
                           uint64_t kill_after = 50) {
  const int nranks = 4, victim = 1;
  vc::FabricConfig cfg;
  cfg.faults = faults;
  cfg.fault_seed = seed;
  cfg.crash_plans.push_back({victim, kill_after});
  vc::Cluster cluster(nranks, cfg);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<FaultReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;

  StressOutcome out;
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 2;
      opts.enable_failure_detection = true;
      opts.heartbeat_interval_ms = 2.0;
      // Wide suspicion/confirmation windows: on an oversubscribed CI box
      // (this repo's reference runner has a single core) a live peer's
      // comm thread can be starved for tens of milliseconds, and a false
      // confirmation would escalate "retry limit exhausted" spuriously.
      opts.suspect_after_ms = 60.0;
      opts.confirm_after_ms = 200.0;
      opts.on_rank_failure = FailurePolicy::kRetry;
      opts.retry_limit = 1;
      opts.termination_resend_ms = 20.0;
      // Keep a real watchdog as the never-hang backstop: generous enough
      // for recovery, far below the ctest timeout.
      opts.watchdog_timeout_ms = 1500.0;
      if (stealing) {
        opts.enable_stealing = true;
        opts.steal_cooldown_ms = 0.5;
        opts.steal_backoff_ms = 2.0;
        opts.steal_reply_timeout_ms = 20.0;
      }
      run_spread(rctx, width, /*spin_us=*/400, opts, &got, &mu, &reports);
    });
    out.completed = true;
  } catch (const StateError& e) {
    out.error = e.what();
  }

  // Whether the run completed or unwound, every self-check must hold.
  EXPECT_EQ(cluster.fabric().stats().validate(), "") << "seed " << seed;
  for (int r = 0; r < nranks; ++r) {
    if (reports[static_cast<size_t>(r)].sched_validate == "unset") {
      continue;  // this rank never got to report (unwound early / killed)
    }
    EXPECT_EQ(reports[static_cast<size_t>(r)].failure.validate(), "")
        << "seed " << seed << " rank " << r;
    EXPECT_EQ(reports[static_cast<size_t>(r)].steal.validate(), "")
        << "seed " << seed << " rank " << r;
    EXPECT_EQ(reports[static_cast<size_t>(r)].sched_validate, "")
        << "seed " << seed << " rank " << r;
  }

  if (out.completed) {
    // Every migration was credited home or, its thief dead, re-injected.
    for (int r = 0; r < nranks; ++r) {
      const FaultReport& rep = reports[static_cast<size_t>(r)];
      if (rep.killed) continue;
      EXPECT_EQ(rep.outstanding_migrations, 0u)
          << "seed " << seed << " rank " << r;
    }
    out.values_correct = true;
    for (int i = 0; i < width; ++i) {
      if (got[static_cast<size_t>(i)] != feed_val(i) * 3.0 + i) {
        out.values_correct = false;
        ADD_FAILURE() << "seed " << seed << ": HEAVY(" << i
                      << ") = " << got[static_cast<size_t>(i)] << ", want "
                      << feed_val(i) * 3.0 + i;
      }
    }
  }
  return out;
}

// --- reliable links + a death: completion is guaranteed, stealing or not ---

TEST(FailureStress, CleanFabricDeathCompletesAcrossSeeds) {
  for (const uint64_t seed : {11ull, 12ull, 13ull}) {
    const StressOutcome out =
        stressed_run(seed, vc::FaultConfig{}, /*stealing=*/false);
    EXPECT_TRUE(out.completed) << "seed " << seed << ": " << out.error;
    EXPECT_TRUE(out.values_correct) << "seed " << seed;
  }
}

TEST(FailureStress, DeathDuringActiveStealingCompletes) {
  // The victim both serves steal requests and (being loaded like everyone
  // else) can hold migrated-in work when it dies; the home ranks must
  // re-inject those tasks, retiring the corpse's outstanding migrations
  // without credits.
  for (const uint64_t seed : {21ull, 22ull, 23ull}) {
    const StressOutcome out =
        stressed_run(seed, vc::FaultConfig{}, /*stealing=*/true);
    EXPECT_TRUE(out.completed) << "seed " << seed << ": " << out.error;
    EXPECT_TRUE(out.values_correct) << "seed " << seed;
  }
}

// --- duplicated and reordered messages + a death: still exactly-once ---

TEST(FailureStress, DuplicationAndReorderAcrossADeath) {
  // Dups and reordering never lose information, so completion stays
  // guaranteed; the exactly-once filters (mailbox seq window, recovery
  // dup-deposit set) must absorb replayed activations racing the
  // originals.
  vc::FaultConfig faults;
  faults.dup_prob = 0.3;
  faults.reorder_jitter_us = 300.0;
  for (const uint64_t seed : {31ull, 32ull, 33ull}) {
    for (const bool stealing : {false, true}) {
      const StressOutcome out = stressed_run(seed, faults, stealing);
      EXPECT_TRUE(out.completed)
          << "seed " << seed << " stealing=" << stealing << ": " << out.error;
      EXPECT_TRUE(out.values_correct)
          << "seed " << seed << " stealing=" << stealing;
    }
  }
}

// --- dropped messages + a death: complete or unwind cleanly, never hang ---

TEST(FailureStress, DropsAcrossADeathNeverHangOrCorrupt) {
  // A dropped activation is unrecoverable by design (lineage replay fires
  // on deaths, not on silent message loss), so the watchdog StateError is
  // an acceptable outcome; a hang or a counter inconsistency is not. When
  // the run does complete, the values must be exact.
  vc::FaultConfig faults;
  faults.drop_prob = 0.02;
  faults.dup_prob = 0.1;
  faults.reorder_jitter_us = 200.0;
  for (const uint64_t seed : {41ull, 42ull, 43ull, 44ull}) {
    const StressOutcome out = stressed_run(seed, faults, /*stealing=*/true);
    if (out.completed) {
      EXPECT_TRUE(out.values_correct) << "seed " << seed;
    } else {
      EXPECT_TRUE(out.error.find("watchdog") != std::string::npos ||
                  out.error.find("aborted") != std::string::npos ||
                  out.error.find("confirmed dead") != std::string::npos)
          << "seed " << seed << ": unexpected error: " << out.error;
    }
  }
  // No completed-count floor: which messages hit the 2% drop window
  // shifts with host timing, so whether any given seed survives is not
  // deterministic. Guaranteed completion across a death is covered by
  // the clean-fabric and dup/reorder tests above; this test's contract
  // is strictly never-hang, never-corrupt, clean unwind.
}

// --- a death while the survivors route activations to the victim ---

TEST(FailureStress, DeathWhileRoutingToTheVictimLosesNoActivation) {
  // SRC(i) runs on a survivor (rank 0 or 2) and routes its output to
  // SINK(i, 0) and SINK(i, 1), homed on the victim, rank 1. Until a rank
  // confirms the death, each SRC body spins for up to 100 us, so its workers
  // keep routing activations to the victim across the whole detection
  // window. A worker that picked the victim as destination just before the
  // comm thread confirmed the death must leave its activation either in the
  // log the recovery replays or routed to the stand-in (rank 2 under
  // kRetry); an activation that falls between the two is lost, and only the
  // watchdog ends the run.
  constexpr int kRanks = 3, kVictim = 1, kSrc = 4000, kFan = 2, kReps = 16;
  const auto width = static_cast<size_t>(kSrc) * kFan;
  for (int rep = 0; rep < kReps; ++rep) {
    vc::FabricConfig cfg;
    cfg.crash_plans.push_back({kVictim, 200});
    vc::Cluster cluster(kRanks, cfg);
    std::vector<std::atomic<int>> sunk(width);
    std::string error;
    try {
      cluster.run([&](vc::RankCtx& rctx) {
        Context* self = nullptr;
        Taskpool pool;
        TaskClass src;
        src.name = "SRC";
        src.rank_of = [](const Params& p) { return p[0] % 2 == 0 ? 0 : 2; };
        src.num_task_inputs = [](const Params&) { return 0; };
        src.enumerate_rank = [](int rank) {
          std::vector<Params> out;
          for (int i = 0; i < kSrc; ++i) {
            if ((i % 2 == 0 ? 0 : 2) == rank) out.push_back(params_of(i));
          }
          return out;
        };
        src.body = [&self](TaskCtx& t) {
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(100);
          while (self->confirmed_dead_mask() == 0 &&
                 std::chrono::steady_clock::now() < until) {
          }
          for (int k = 0; k < kFan; ++k) {
            t.set_output(k, make_buf(1, static_cast<double>(t.params()[0])));
          }
        };
        const auto src_id = pool.add_class(std::move(src));
        TaskClass sink;
        sink.name = "SINK";
        sink.rank_of = [](const Params&) { return kVictim; };
        sink.num_task_inputs = [](const Params&) { return 1; };
        sink.enumerate_rank = [](int rank) {
          std::vector<Params> out;
          if (rank != kVictim) return out;
          for (int i = 0; i < kSrc; ++i) {
            for (int k = 0; k < kFan; ++k) out.push_back(params_of(i, k));
          }
          return out;
        };
        sink.body = [&sunk](TaskCtx& t) {
          const int i = t.params()[0];
          if ((*t.input(0))[0] == static_cast<double>(i)) {
            sunk[static_cast<size_t>(i * kFan + t.params()[1])].store(1);
          }
        };
        const auto sink_id = pool.add_class(std::move(sink));
        pool.mutable_cls(src_id).route_outputs =
            [sink_id](const Params& p, std::vector<OutRoute>& r) {
              for (int k = 0; k < kFan; ++k) {
                r.push_back({TaskKey{sink_id, params_of(p[0], k)}, 0,
                             static_cast<int8_t>(k)});
              }
            };
        Options opts;
        opts.num_workers = 2;
        opts.enable_failure_detection = true;
        opts.heartbeat_interval_ms = 2.0;
        opts.suspect_after_ms = 30.0;
        opts.confirm_after_ms = 60.0;
        opts.on_rank_failure = FailurePolicy::kRetry;
        opts.retry_limit = 1;
        opts.termination_resend_ms = 20.0;
        // Recovery replays every activation sent to the victim; a lost one
        // leaves the stand-in waiting, which the watchdog reports.
        opts.watchdog_timeout_ms = 2000.0;
        Context ctx(rctx, pool, opts);
        self = &ctx;
        ctx.run();
      });
    } catch (const StateError& e) {
      error = e.what();
    }
    EXPECT_EQ(error, "") << "rep " << rep;
    EXPECT_EQ(cluster.fabric().stats().ranks_killed, 1u) << "rep " << rep;
    size_t missing = 0;
    for (const auto& s : sunk) missing += s.load() == 0 ? 1 : 0;
    EXPECT_EQ(missing, 0u) << "rep " << rep;
  }
}

// --- a second death exhausts retry_limit=1: structured escalation ---

TEST(FailureStress, SecondDeathEscalatesCleanly) {
  const int nranks = 5, width = 80;
  vc::FabricConfig cfg;
  cfg.crash_plans.push_back({1, 40});
  cfg.crash_plans.push_back({3, 120});
  vc::Cluster cluster(nranks, cfg);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<FaultReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;

  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 2;
      opts.enable_failure_detection = true;
      opts.heartbeat_interval_ms = 2.0;
      opts.suspect_after_ms = 60.0;
      opts.confirm_after_ms = 200.0;
      opts.on_rank_failure = FailurePolicy::kRetry;
      opts.retry_limit = 1;
      opts.watchdog_timeout_ms = 1500.0;
      run_spread(rctx, width, /*spin_us=*/800, opts, &got, &mu, &reports);
    });
    // Both kills fire well inside the run, so the second death must have
    // been seen — reaching here means it was tolerated, which breaks the
    // retry_limit contract.
    FAIL() << "a second death with retry_limit=1 must escalate";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("confirmed dead") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
  EXPECT_EQ(cluster.fabric().stats().validate(), "");
  EXPECT_EQ(cluster.fabric().stats().ranks_killed, 2u);
}

}  // namespace
}  // namespace mp::ptg
