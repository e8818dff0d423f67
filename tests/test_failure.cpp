// Rank-failure tolerance: functional suite (ctest label: fault).
//
// Exercises the full failure story on a healthy-until-killed fabric: a
// seeded CrashPlan kills a non-root rank mid-run and the job must either
// recover (kRetry re-homes the victim's work ring-wise, kDegrade re-hashes
// it over the survivors) and still produce bit-correct results, or unwind
// promptly with a structured StateError naming the dead rank (kAbort,
// retry-limit exhaustion) — never hang. Also the detector's
// suspicion/probe/clear path on a merely-slow peer, the watchdog
// regression pair (heartbeat chatter is not progress; exactly one deadline
// reset per confirmed death), the t2_7 numerical acceptance run at eight
// ranks, the simulator's death/recovery model, and copy-on-take of input
// buffers the lineage log still shares with their consumer. The fault x
// message-fault matrix lives in test_failure_stress.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ga/global_array.h"
#include "ptg/context.h"
#include "sim/presets.h"
#include "sim/ptg_sim.h"
#include "support/rng.h"
#include "tce/block_tensor.h"
#include "tce/inspector.h"
#include "tce/ptg_exec.h"
#include "tce/reference_exec.h"
#include "tce/tiles.h"
#include "tce/variants.h"
#include "vc/cluster.h"
#include "vc/fabric.h"

namespace mp::ptg {
namespace {

/// Burn wall-clock time keeping the worker runnable (closer to a GEMM
/// body than a sleep), so the job is still in flight when the CrashPlan
/// fires.
void spin_for_us(int us) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::microseconds(us);
  volatile double sink = 1.0;
  while (std::chrono::steady_clock::now() < until) sink = sink * 1.0000001;
  (void)sink;
}

double feed_val(int i) { return 0.25 * i + 3.0; }

int heavy_home(int i, int nranks) { return (i * 7 + 3) % nranks; }

/// Everything one rank reports after its Context returned.
struct FaultReport {
  bool killed = false;
  uint64_t executed = 0;
  uint64_t dead_mask = 0;
  FailureStats failure;
  StealStats steal;
  std::string sched_validate = "unset";
};

/// Detector timings shared by the fast tests: total detection latency
/// ~160 ms — far above the victim's post-kill quiesce window (its workers
/// notice done_ within microseconds) and above the comm-thread scheduling
/// jitter of an oversubscribed single-core CI box (a live peer must never
/// be falsely confirmed just because its comm thread was starved), yet far
/// below any test timeout.
void fast_detector(Options& opts) {
  opts.enable_failure_detection = true;
  opts.heartbeat_interval_ms = 2.0;
  opts.suspect_after_ms = 40.0;
  opts.confirm_after_ms = 120.0;
}

/// Buffer shape of run_spread: FEED(i) outputs `elems` doubles, all equal
/// to feed_val(i). With `take_in_place`, HEAVY takes its input over and
/// scales every element in place (before its spin) instead of reading it,
/// and when `kill_after_heavies` > 0 rank `victim` kills itself (fail-stop)
/// right after its kill_after_heavies-th such HEAVY body: a crash that
/// provably lands after the victim consumed some of its inputs.
struct SpreadBufs {
  size_t elems = 1;
  bool take_in_place = false;
  int victim = -1;
  int kill_after_heavies = 0;
};

/// Two-layer job where every rank owns real work: FEED(i) (no inputs) is
/// homed round-robin, HEAVY(i) (one input, `spin_us` of compute) is homed
/// by a fixed affine map so a victim rank owns both roots and dependents.
/// Values land in `got` regardless of where each body ran. When
/// `heavy_group` is given, HEAVY instances carry it as recovery_key and
/// `group_adopted` observes every on_adopt invocation (the hooks the
/// co-adoption tests below count).
void run_spread(vc::RankCtx& rctx, int width, int spin_us, Options opts,
                std::vector<double>* got, std::mutex* mu,
                std::vector<FaultReport>* reports,
                const std::function<int64_t(int)>& heavy_group = nullptr,
                const std::function<void(int64_t)>& group_adopted = nullptr,
                SpreadBufs bufs = {}) {
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
  feed.body = [elems = bufs.elems](TaskCtx& t) {
    t.set_output(0, make_buf(elems, feed_val(t.params()[0])));
  };
  const auto feed_id = pool.add_class(std::move(feed));

  TaskClass heavy;
  heavy.name = "HEAVY";
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
  std::atomic<int> heavies_taken{0};
  heavy.body = [spin_us, got, mu, bufs, my_rank, &rctx,
                &heavies_taken](TaskCtx& t) {
    const int i = t.params()[0];
    if (bufs.take_in_place) {
      DataBuf in = t.take_input(0);
      double* d = in->mutable_data();
      for (size_t j = 0; j < in->size(); ++j) d[j] = d[j] * 3.0 + i;
      spin_for_us(spin_us);
      {
        std::lock_guard lock(*mu);
        (*got)[static_cast<size_t>(i)] = (*in)[in->size() - 1];
      }
      t.set_output(0, std::move(in));
      if (my_rank == bufs.victim &&
          heavies_taken.fetch_add(1) + 1 == bufs.kill_after_heavies) {
        rctx.cluster().kill_rank(my_rank);
      }
      return;
    }
    spin_for_us(spin_us);
    const double v = (*t.input(0))[0] * 3.0 + i;
    {
      std::lock_guard lock(*mu);
      (*got)[static_cast<size_t>(i)] = v;
    }
    t.set_output(0, make_buf(1, v));
  };
  if (heavy_group) {
    heavy.recovery_key = [heavy_group](const Params& p) {
      return heavy_group(p[0]);
    };
    heavy.on_adopt = [heavy_group, group_adopted](const Params& p,
                                                  int /*dead_rank*/) {
      if (group_adopted) group_adopted(heavy_group(p[0]));
    };
  }
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
  rep.executed = ctx.tasks_executed();
  rep.dead_mask = ctx.confirmed_dead_mask();
  rep.failure = ctx.failure_stats();
  rep.steal = ctx.steal_stats();
  rep.sched_validate = ctx.scheduler_stats().validate();
  {
    std::lock_guard lock(*mu);
    (*reports)[static_cast<size_t>(my_rank)] = rep;
  }
}

/// Count of task instances homed on `victim` in the run_spread job.
int victim_instances(int width, int nranks, int victim) {
  int n = 0;
  for (int i = 0; i < width; ++i) {
    if (i % nranks == victim) ++n;
    if (heavy_home(i, nranks) == victim) ++n;
  }
  return n;
}

// --- recovery policies complete the job correctly across a seeded kill ---

void expect_values_correct(const std::vector<double>& got) {
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], feed_val(static_cast<int>(i)) * 3.0 +
                                 static_cast<double>(i))
        << "HEAVY(" << i << ")";
  }
}

void run_policy_recovery(FailurePolicy policy, SpreadBufs bufs = {}) {
  const int nranks = 4, width = 96, victim = 2;
  vc::FabricConfig cfg;
  if (bufs.kill_after_heavies > 0) {
    bufs.victim = victim;  // the victim kills itself mid-job instead
  } else {
    cfg.crash_plans.push_back({victim, /*after_messages=*/60});
  }
  vc::Cluster cluster(nranks, cfg);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<FaultReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;

  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 2;
    fast_detector(opts);
    opts.on_rank_failure = policy;
    opts.retry_limit = 1;
    run_spread(rctx, width, /*spin_us=*/500, opts, &got, &mu, &reports,
               nullptr, nullptr, bufs);
  });

  expect_values_correct(got);
  EXPECT_TRUE(reports[victim].killed) << "the crash must have fired";

  uint64_t adopted = 0, replayed = 0;
  for (int r = 0; r < nranks; ++r) {
    if (r == victim) continue;
    const FaultReport& rep = reports[static_cast<size_t>(r)];
    EXPECT_FALSE(rep.killed) << "rank " << r;
    EXPECT_EQ(rep.failure.validate(), "") << "rank " << r;
    EXPECT_EQ(rep.sched_validate, "") << "rank " << r;
    EXPECT_EQ(rep.steal.validate(), "") << "rank " << r;
    EXPECT_EQ(rep.failure.deaths_confirmed, 1u) << "rank " << r;
    EXPECT_EQ(rep.failure.watchdog_resets_on_death, 1u) << "rank " << r;
    EXPECT_EQ(rep.dead_mask, 1ULL << victim) << "rank " << r;
    adopted += rep.failure.tasks_adopted;
    replayed += rep.failure.lineage_replayed;
  }
  // Adoption is a deterministic partition of the victim's instances over
  // the survivors: every instance is adopted exactly once.
  EXPECT_EQ(adopted,
            static_cast<uint64_t>(victim_instances(width, nranks, victim)));
  // The kill fires during the activation burst, so some FEED outputs bound
  // for the victim were already logged and must be replayed.
  EXPECT_GT(replayed, 0u);
}

TEST(FailureRecovery, RetryCompletesAfterSeededCrash) {
  run_policy_recovery(FailurePolicy::kRetry);
}

TEST(FailureRecovery, DegradeCompletesAfterSeededCrash) {
  run_policy_recovery(FailurePolicy::kDegrade);
}

// --- copy-on-take keeps the lineage log's buffers intact ---
//
// FEED outputs above the eager limit reach a remote HEAVY as the sender's
// own buffer object, and the sender's lineage log keeps a handle to that
// same object for replay. HEAVY takes its input over and scales it in
// place, and the victim dies right after its third such HEAVY. Only
// copy-on-take keeps those in-place writes off the logged buffers:
// without it the replay to the stand-in delivers already-scaled inputs
// and the re-executed HEAVYs scale them twice.

constexpr SpreadBufs kInPlaceLarge{4 * Context::kEagerLimit,
                                   /*take_in_place=*/true, /*victim=*/-1,
                                   /*kill_after_heavies=*/3};

TEST(FailureRecovery, RetryReplaysUnmutatedInputsAfterInPlaceTakes) {
  run_policy_recovery(FailurePolicy::kRetry, kInPlaceLarge);
}

TEST(FailureRecovery, DegradeReplaysUnmutatedInputsAfterInPlaceTakes) {
  run_policy_recovery(FailurePolicy::kDegrade, kInPlaceLarge);
}

// --- degrade keeps every co-adoption group on exactly one adopter ---

/// Recovery group of HEAVY(i). Members share i % 4, so they share a home
/// (heavy_home depends on i mod nranks only at nranks=4) — mirroring the
/// real constraint that all accumulators into one GA block are homed on
/// the block's owner. Groups of four instances each.
int64_t co_group(int i) { return i % 4 + 4 * (i / 16); }

TEST(FailureRecovery, DegradeAdoptsEachRecoveryGroupExactlyOnce) {
  // The co-adoption invariant (taskpool.h): all lost instances sharing a
  // recovery_key must land on ONE survivor, so the group's on_adopt reset
  // runs exactly once cluster-wide. Hashing individual keys over the
  // survivor list scatters a group across adopters, and each of them runs
  // on_adopt at its own confirmation time — a late zero of the shared GA
  // block wipes contributions another adopter already re-executed. Count
  // on_adopt invocations per group across all ranks; every group with a
  // member homed on the victim must see exactly one.
  const int nranks = 4, width = 96, victim = 2;
  vc::FabricConfig cfg;
  cfg.crash_plans.push_back({victim, /*after_messages=*/60});
  vc::Cluster cluster(nranks, cfg);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<FaultReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;
  std::map<int64_t, int> adopt_counts;

  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 2;
    fast_detector(opts);
    opts.on_rank_failure = FailurePolicy::kDegrade;
    run_spread(rctx, width, /*spin_us=*/500, opts, &got, &mu, &reports,
               /*heavy_group=*/co_group,
               /*group_adopted=*/[&](int64_t g) {
                 std::lock_guard lock(mu);
                 ++adopt_counts[g];
               });
  });

  expect_values_correct(got);
  EXPECT_TRUE(reports[victim].killed) << "the CrashPlan must have fired";
  std::map<int64_t, int> expected;
  for (int i = 0; i < width; ++i) {
    if (heavy_home(i, nranks) == victim) expected[co_group(i)] = 1;
  }
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(adopt_counts, expected)
      << "a group adopted on several ranks re-runs its external-state "
         "reset once per adopter — the degrade wrong-sum seed";
}

// --- a second death re-homes work adopted by the first victim's adopter ---

TEST(FailureRecovery, RetrySurvivesDeathOfTheFirstVictimsAdopter) {
  // kRetry ring order sends all of rank 2's keys to rank 3. Kill rank 3
  // after it has started adopting: its own keys AND the re-homed keys of
  // rank 2 are both lost. The adoption sweep at the second confirmed death
  // must cover every rank in the cumulative dead mask — enumerating only
  // the just-dead rank leaves rank 2's chains parked in held_ready_
  // forever while every live rank reports done, i.e. a "successful" run
  // with silently missing results.
  const int nranks = 4, width = 96, victim1 = 2, victim2 = 3;
  vc::FabricConfig cfg;
  cfg.crash_plans.push_back({victim1, /*after_messages=*/60});
  vc::Cluster cluster(nranks, cfg);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<FaultReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;
  std::atomic<bool> first_adoption{false};

  // Second kill fires a moment after the first adoption began on rank 3
  // (on_adopt runs on the adopter's comm thread), landing mid-recovery
  // while the re-homed work is still executing there.
  std::thread second_killer([&] {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!first_adoption.load(std::memory_order_acquire)) {
      if (std::chrono::steady_clock::now() > give_up) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    cluster.kill_rank(victim2);
  });

  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 2;
    fast_detector(opts);
    opts.on_rank_failure = FailurePolicy::kRetry;
    opts.retry_limit = 2;
    run_spread(rctx, width, /*spin_us=*/4000, opts, &got, &mu, &reports,
               /*heavy_group=*/co_group,
               /*group_adopted=*/[&](int64_t) {
                 first_adoption.store(true, std::memory_order_release);
               });
  });
  second_killer.join();

  expect_values_correct(got);
  EXPECT_TRUE(reports[victim1].killed) << "the CrashPlan must have fired";
  EXPECT_TRUE(reports[victim2].killed)
      << "the second kill must land before the job finished";
  const uint64_t dead_mask = (1ULL << victim1) | (1ULL << victim2);
  for (int r = 0; r < nranks; ++r) {
    if (r == victim1 || r == victim2) continue;
    const FaultReport& rep = reports[static_cast<size_t>(r)];
    EXPECT_FALSE(rep.killed) << "rank " << r;
    EXPECT_EQ(rep.failure.validate(), "") << "rank " << r;
    EXPECT_EQ(rep.sched_validate, "") << "rank " << r;
    EXPECT_EQ(rep.failure.deaths_confirmed, 2u) << "rank " << r;
    EXPECT_EQ(rep.dead_mask, dead_mask) << "rank " << r;
  }
}

// --- escalation: structured error, never a hang ---

void expect_escalation(FailurePolicy policy, int retry_limit) {
  const int nranks = 4, width = 96, victim = 2;
  vc::FabricConfig cfg;
  cfg.crash_plans.push_back({victim, /*after_messages=*/60});
  vc::Cluster cluster(nranks, cfg);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<FaultReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;

  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 2;
      fast_detector(opts);
      opts.on_rank_failure = policy;
      opts.retry_limit = retry_limit;
      run_spread(rctx, width, /*spin_us=*/500, opts, &got, &mu, &reports);
    });
    FAIL() << "a confirmed death under policy=" << to_string(policy)
           << " (retry_limit=" << retry_limit << ") must raise a StateError";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("confirmed dead") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
}

TEST(FailureEscalation, AbortPolicyRaisesStructuredStateError) {
  expect_escalation(FailurePolicy::kAbort, /*retry_limit=*/1);
}

TEST(FailureEscalation, RetryLimitExhaustedEscalates) {
  expect_escalation(FailurePolicy::kRetry, /*retry_limit=*/0);
}

// --- detector: a slow (silent but alive) peer is probed and cleared ---

TEST(FailureDetector, SilentPeerSuspectedProbedAndCleared) {
  // Explicit heartbeats are effectively off (500 ms interval), so once a
  // rank runs out of traffic it goes silent past the 8 ms suspicion
  // threshold. The probe must clear it — confirmation (at 5 s) must never
  // be reached, and the job must complete normally.
  const int nranks = 2, width = 4;
  vc::Cluster cluster(nranks);
  std::vector<double> got(static_cast<size_t>(width), 0.0);
  std::vector<FaultReport> reports(static_cast<size_t>(nranks));
  std::mutex mu;

  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 1;
    opts.enable_failure_detection = true;
    opts.heartbeat_interval_ms = 500.0;
    opts.suspect_after_ms = 8.0;
    opts.confirm_after_ms = 5000.0;
    run_spread(rctx, width, /*spin_us=*/40000, opts, &got, &mu, &reports);
  });

  expect_values_correct(got);
  uint64_t suspicions = 0, cleared = 0, probes = 0;
  for (int r = 0; r < nranks; ++r) {
    const FaultReport& rep = reports[static_cast<size_t>(r)];
    EXPECT_EQ(rep.failure.deaths_confirmed, 0u) << "rank " << r;
    EXPECT_EQ(rep.failure.validate(), "") << "rank " << r;
    suspicions += rep.failure.suspicions;
    cleared += rep.failure.suspicions_cleared;
    probes += rep.failure.probes_sent;
  }
  EXPECT_GT(suspicions, 0u) << "40 ms silent gaps must raise suspicion";
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(cleared, suspicions)
      << "every suspicion of a live rank must clear";
}

// --- watchdog regression pair ---

/// A serial chain of `chain_len` sleeps on rank 0 feeding `sinks` tasks on
/// rank 1 (the steal suite's topology): rank 1 waits a long time with zero
/// local progress.
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

TEST(FailureWatchdog, HeartbeatChatterIsNotProgress) {
  // With 2 ms heartbeats flowing both ways throughout the wait, rank 1's
  // flat 30 ms deadline must still fire exactly as it does without the
  // detector (test_steal's FlatDeadlineFiresOnTheSameWait): inbound
  // liveness traffic refreshes the peer's aliveness, never the progress
  // counter. A regression here would let a genuinely lost activation hide
  // behind the detector's chatter forever.
  vc::Cluster cluster(2);
  std::vector<double> got(16, 0.0);
  std::mutex mu;
  try {
    cluster.run([&](vc::RankCtx& rctx) {
      Options opts;
      opts.num_workers = 2;
      opts.watchdog_timeout_ms = 30.0;
      opts.watchdog_scale_per_task = 0.0;
      opts.enable_failure_detection = true;
      opts.heartbeat_interval_ms = 2.0;
      opts.suspect_after_ms = 10000.0;  // nobody is ever suspect
      opts.confirm_after_ms = 10000.0;
      run_remote_chain(rctx, /*chain_len=*/8, /*sinks=*/16, /*sleep_ms=*/50,
                       opts, &got, &mu);
    });
    FAIL() << "heartbeat chatter must not reset the flat 30 ms deadline";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("PTG watchdog") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
}

TEST(FailureWatchdog, ScaledDeadlineStillToleratesSlowChainWithDetectorOn) {
  // Companion: the outstanding-work scaling keeps the same wait quiet with
  // the detector running, and a fault-free detector run ends with zero
  // deaths and zero death-attributed deadline resets (the exactly-once
  // pairing is enforced by FailureStats::validate on every run).
  vc::Cluster cluster(2);
  std::vector<double> got(16, 0.0);
  std::mutex mu;
  cluster.run([&](vc::RankCtx& rctx) {
    Options opts;
    opts.num_workers = 2;
    opts.watchdog_timeout_ms = 30.0;
    opts.watchdog_scale_per_task = 4.0;
    opts.enable_failure_detection = true;
    opts.heartbeat_interval_ms = 2.0;
    opts.suspect_after_ms = 10000.0;
    opts.confirm_after_ms = 10000.0;
    run_remote_chain(rctx, /*chain_len=*/8, /*sinks=*/16, /*sleep_ms=*/50,
                     opts, &got, &mu);
  });
  for (int j = 0; j < 16; ++j) {
    EXPECT_DOUBLE_EQ(got[static_cast<size_t>(j)], 9.0 + j) << "sink " << j;
  }
}

// --- t2_7 at eight ranks: the numerical acceptance run ---

tce::TileSpaceSpec small_spec() {
  tce::TileSpaceSpec s;
  s.n_occ_alpha = 3;
  s.n_occ_beta = 3;
  s.n_virt_alpha = 5;
  s.n_virt_beta = 5;
  s.tile_size = 2;
  return s;
}

/// Eight-rank t2_7 with a seeded kill of rank 5 mid-activation-burst; the
/// result must still match the serial reference to 1e-12 (recovery zeroes
/// each adopted accumulator block, then re-executes its chains, so every
/// contribution lands exactly once).
class FailureT27 : public ::testing::Test {
 protected:
  static constexpr int kVictim = 5;

  void SetUp() override {
    space_ = std::make_unique<tce::TileSpace>(small_spec());
    v_ = std::make_unique<tce::BlockTensor4>(
        *space_, std::array<tce::RangeKind, 4>{
                     tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                     tce::RangeKind::kVirt, tce::RangeKind::kVirt});
    t_ = std::make_unique<tce::BlockTensor4>(
        *space_, std::array<tce::RangeKind, 4>{
                     tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                     tce::RangeKind::kOcc, tce::RangeKind::kOcc});
    r_ = std::make_unique<tce::BlockTensor4>(
        *space_,
        std::array<tce::RangeKind, 4>{
            tce::RangeKind::kVirt, tce::RangeKind::kVirt,
            tce::RangeKind::kOcc, tce::RangeKind::kOcc},
        true, true);
    plan_ = tce::inspect_t2_7(*space_, {v_.get(), t_.get(), r_.get()});

    vc::FabricConfig cfg;
    cfg.crash_plans.push_back({kVictim, /*after_messages=*/80});
    cluster_ = std::make_unique<vc::Cluster>(8, cfg);
    v_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), v_->ga_size());
    t_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), t_->ga_size());
    r_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), r_->ga_size());

    Rng rng(11);
    fill_random(*v_ga_, rng);
    fill_random(*t_ga_, rng);

    storage_.v = {v_.get(), v_ga_.get()};
    storage_.t = {t_.get(), t_ga_.get()};
    storage_.r = {r_.get(), r_ga_.get()};

    reference_.assign(static_cast<size_t>(r_->ga_size()), 0.0);
    tce::execute_reference(plan_, storage_);
    r_ga_->get(0, r_->ga_size(), reference_.data());
  }

  static void fill_random(ga::GlobalArray& g, Rng& rng) {
    std::vector<double> data(static_cast<size_t>(g.size()));
    for (auto& x : data) x = rng.uniform(-1.0, 1.0);
    g.put(0, g.size(), data.data());
  }

  double max_diff_vs_reference() {
    std::vector<double> out(reference_.size());
    r_ga_->get(0, r_ga_->size(), out.data());
    double m = 0.0;
    for (size_t i = 0; i < out.size(); ++i) {
      m = std::max(m, std::fabs(out[i] - reference_[i]));
    }
    return m;
  }

  /// Run the PTG executor under `policy` on the crash-planned cluster.
  /// Fills per-rank kill flags and failure stats for the survivors.
  void run_with_policy(FailurePolicy policy) {
    r_ga_->zero();
    killed_.assign(8, false);
    failure_.assign(8, FailureStats{});
    std::mutex mu;
    cluster_->run([&](vc::RankCtx& rctx) {
      tce::PtgExecOptions opts;
      opts.variant = tce::VariantConfig::v5();
      opts.workers_per_rank = 2;
      opts.enable_failure_detection = true;
      opts.heartbeat_interval_ms = 2.0;
      opts.suspect_after_ms = 40.0;
      opts.confirm_after_ms = 120.0;
      opts.on_rank_failure = policy;
      opts.retry_limit = 1;
      const auto res = tce::execute_ptg(rctx, plan_, storage_, opts);
      std::lock_guard lock(mu);
      killed_[static_cast<size_t>(rctx.rank())] = res.killed;
      if (!res.killed) {
        failure_[static_cast<size_t>(rctx.rank())] = res.failure;
      }
    });
  }

  void expect_recovered_and_correct() {
    EXPECT_TRUE(killed_[kVictim]) << "the CrashPlan must have fired";
    for (int r = 0; r < 8; ++r) {
      if (r == kVictim) continue;
      EXPECT_FALSE(killed_[static_cast<size_t>(r)]) << "rank " << r;
      EXPECT_EQ(failure_[static_cast<size_t>(r)].validate(), "")
          << "rank " << r;
      EXPECT_EQ(failure_[static_cast<size_t>(r)].deaths_confirmed, 1u)
          << "rank " << r;
    }
    EXPECT_LT(max_diff_vs_reference(), 1e-12)
        << "recovery must reproduce the reference exactly";
  }

  std::unique_ptr<tce::TileSpace> space_;
  std::unique_ptr<tce::BlockTensor4> v_, t_, r_;
  tce::ChainPlan plan_;
  std::unique_ptr<vc::Cluster> cluster_;
  std::unique_ptr<ga::GlobalArray> v_ga_, t_ga_, r_ga_;
  tce::T2_7Storage storage_;
  std::vector<double> reference_;
  std::vector<bool> killed_;
  std::vector<FailureStats> failure_;
};

TEST_F(FailureT27, RetryMatchesReferenceAcrossAKill) {
  run_with_policy(FailurePolicy::kRetry);
  expect_recovered_and_correct();
}

TEST_F(FailureT27, DegradeMatchesReferenceAcrossAKill) {
  run_with_policy(FailurePolicy::kDegrade);
  expect_recovered_and_correct();
}

TEST_F(FailureT27, AbortRaisesInsteadOfHanging) {
  r_ga_->zero();
  try {
    cluster_->run([&](vc::RankCtx& rctx) {
      tce::PtgExecOptions opts;
      opts.variant = tce::VariantConfig::v5();
      opts.workers_per_rank = 2;
      opts.enable_failure_detection = true;
      opts.heartbeat_interval_ms = 2.0;
      opts.suspect_after_ms = 40.0;
      opts.confirm_after_ms = 120.0;
      opts.on_rank_failure = FailurePolicy::kAbort;
      (void)tce::execute_ptg(rctx, plan_, storage_, opts);
    });
    FAIL() << "policy=abort must raise a StateError on a confirmed death";
  } catch (const StateError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(msg.find("confirmed dead") != std::string::npos ||
                msg.find("aborted") != std::string::npos)
        << msg;
  }
}

// --- simulator: the death/recovery model ---

TEST(FailureSim, DeathMidRunRecoversEveryTask) {
  const auto p = sim::make_preset("tiny");
  sim::GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 4;
  const auto g = sim::build_graph(p.plan, gopts);

  sim::SimOptions base;
  base.cores_per_node = 4;
  const sim::SimResult clean = sim::simulate_ptg(g, base);

  sim::SimOptions fault = base;
  fault.fail_node = 2;
  fault.fail_time_s = clean.makespan * 0.5;
  const sim::SimResult rec = sim::simulate_ptg(g, fault);

  EXPECT_GT(rec.tasks_recovered, 0u);
  EXPECT_TRUE(std::isfinite(rec.makespan));
  // Re-executing a whole node's partition on the survivors costs time.
  EXPECT_GE(rec.makespan, clean.makespan * 0.999);
  // Recovery starts exactly one detection window after the death.
  EXPECT_NEAR(rec.recovery_started_at, fault.fail_time_s + fault.detect_delay_s,
              1e-9);

  // Deterministic: the same seeded death reproduces the same schedule.
  const sim::SimResult rec2 = sim::simulate_ptg(g, fault);
  EXPECT_DOUBLE_EQ(rec2.makespan, rec.makespan);
  EXPECT_EQ(rec2.tasks_recovered, rec.tasks_recovered);
  EXPECT_EQ(rec2.lineage_replays, rec.lineage_replays);
}

TEST(FailureSim, DetectDelayShiftsRecoveryStart) {
  const auto p = sim::make_preset("tiny");
  sim::GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 4;
  const auto g = sim::build_graph(p.plan, gopts);

  sim::SimOptions a;
  a.cores_per_node = 4;
  a.fail_node = 1;
  a.fail_time_s = 1e-4;
  a.detect_delay_s = 500e-6;
  sim::SimOptions b = a;
  b.detect_delay_s = 5e-3;

  const sim::SimResult ra = sim::simulate_ptg(g, a);
  const sim::SimResult rb = sim::simulate_ptg(g, b);
  EXPECT_NEAR(rb.recovery_started_at - ra.recovery_started_at,
              b.detect_delay_s - a.detect_delay_s, 1e-9);
  // A slower detector can only delay completion.
  EXPECT_GE(rb.makespan, ra.makespan * 0.999);
}

TEST(FailureSim, DeathDuringStealingStillCompletes) {
  const auto p = sim::make_preset("skewed_tile");
  sim::GraphOptions gopts;
  gopts.variant = tce::VariantConfig::v5();
  gopts.nodes = 8;
  const auto g = sim::build_graph(p.plan, gopts);

  sim::SimOptions opts;
  opts.cores_per_node = 8;
  opts.enable_stealing = true;
  const double clean = sim::simulate_ptg(g, opts).makespan;
  opts.fail_node = 3;
  opts.fail_time_s = clean * 0.3;  // during the steal-heavy ramp
  const sim::SimResult rec = sim::simulate_ptg(g, opts);
  EXPECT_GT(rec.tasks_recovered, 0u);
  EXPECT_TRUE(std::isfinite(rec.makespan));
  EXPECT_GT(rec.makespan, 0.0);
}

}  // namespace
}  // namespace mp::ptg
