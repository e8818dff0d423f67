// Tests for the dynamic lifecycle/lockset checker (support/analysis.h):
// each MPA finding class is driven directly through the LifecycleChecker
// API (so the tests work in every build, instrumented or not), a healthy
// instrumented PTG run must come out with zero findings, and the
// SchedStats/FabricStats self-checks are exercised.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "ptg/scheduler.h"
#include "support/analysis.h"
#include "tce/inspector.h"
#include "tce/ptg_exec.h"
#include "vc/cluster.h"
#include "vc/fabric.h"

namespace mp {
namespace {

using analysis::FindingKind;
using analysis::LifecycleChecker;

class CheckerTest : public ::testing::Test {
 protected:
  void SetUp() override { C().reset(); }
  void TearDown() override { C().reset(); }

  static LifecycleChecker& C() { return LifecycleChecker::instance(); }

  /// Run annotations on a separate thread (fresh dense tid, usually).
  static void in_thread(const std::function<void()>& fn) {
    std::thread t(fn);
    t.join();
  }

  /// Run `first` then `second` on two threads that are alive at the same
  /// time. Sequential std::threads routinely recycle the previous thread's
  /// id (and so its dense tid in the checker); keeping both alive forces
  /// two distinct threads, which cross-thread tests depend on.
  static void in_two_threads(const std::function<void()>& first,
                             const std::function<void()>& second) {
    std::atomic<bool> first_done{false};
    std::thread t1([&] {
      first();
      first_done.store(true, std::memory_order_release);
    });
    std::thread t2([&] {
      while (!first_done.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      second();
    });
    t1.join();
    t2.join();
  }

  /// Bump the calling thread's own vector clock so epochs recorded next are
  /// strictly newer than anything a recycled thread id may have published
  /// in an earlier test (the checker deliberately survives reset()s).
  static void fresh_epoch() {
    static const char dummy = 0;
    C().channel_send(&dummy);
  }

  static size_t count_kind(FindingKind k) {
    size_t n = 0;
    for (const auto& f : C().findings()) {
      if (f.kind == k) ++n;
    }
    return n;
  }
};

TEST_F(CheckerTest, DoubleReleaseIsMPA001) {
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  EXPECT_EQ(count_kind(FindingKind::kDoubleRelease), 1u);
  EXPECT_NE(C().report().find("MPA001"), std::string::npos);
}

TEST_F(CheckerTest, UseAfterReleaseIsMPA002) {
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  C().obj_read(&obj, "DataBuf");
  C().obj_write(&obj, "DataBuf");
  EXPECT_EQ(count_kind(FindingKind::kUseAfterRelease), 2u);
}

TEST_F(CheckerTest, PoolRecycleRearmsTracking) {
  // The pool pattern: destroy then re-create at the same address is clean,
  // and accesses to the NEW incarnation are clean too.
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  C().obj_create(&obj, "DataBuf");
  C().obj_read(&obj, "DataBuf");
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
}

TEST_F(CheckerTest, LivePoolHandoutIsMPA003) {
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_create(&obj, "DataBuf");  // handed out again while still live
  EXPECT_EQ(count_kind(FindingKind::kLivePoolHandout), 1u);
}

TEST_F(CheckerTest, UnorderedCrossThreadWriteIsMPA004) {
  int obj = 0;
  in_two_threads(
      [&] {
        fresh_epoch();
        C().obj_create(&obj, "DataBuf");
        C().obj_write(&obj, "DataBuf");
      },
      [&] {
        fresh_epoch();
        C().obj_write(&obj, "DataBuf");  // no channel, no common lock
      });
  EXPECT_GE(count_kind(FindingKind::kDataRace), 1u);
}

TEST_F(CheckerTest, ChannelHandoffSuppressesRace) {
  int obj = 0;
  int channel = 0;
  in_two_threads(
      [&] {
        fresh_epoch();
        C().obj_create(&obj, "DataBuf");
        C().obj_write(&obj, "DataBuf");
        C().channel_send(&channel);  // mailbox push / scheduler enqueue
      },
      [&] {
        C().channel_recv(&channel);  // matching pop
        C().obj_write(&obj, "DataBuf");
      });
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
}

TEST_F(CheckerTest, CommonLockSuppressesRace) {
  int obj = 0;
  int mu = 0;
  in_two_threads(
      [&] {
        fresh_epoch();
        C().lock_acquired(&mu);
        C().obj_create(&obj, "DataBuf");
        C().obj_write(&obj, "DataBuf");
        // Deliberately no release: the epochs stay unordered, only the
        // common lockset suppresses the report (the hybrid-detector branch).
      },
      [&] {
        fresh_epoch();
        C().lock_acquired(&mu);
        C().obj_write(&obj, "DataBuf");
        C().lock_released(&mu);
      });
  EXPECT_EQ(count_kind(FindingKind::kDataRace), 0u) << C().report();
}

TEST_F(CheckerTest, ForeignTlsAccessIsMPA006) {
  int pool = 0;
  in_two_threads([&] { C().tls_guard(&pool); },
                 [&] { C().tls_guard(&pool); });
  EXPECT_EQ(count_kind(FindingKind::kTlsViolation), 1u);
}

TEST_F(CheckerTest, TlsReleaseAllowsAddressReuse) {
  int pool = 0;
  in_two_threads(
      [&] {
        C().tls_guard(&pool);
        C().tls_release(&pool);  // thread-exit destructor
      },
      [&] { C().tls_guard(&pool); });
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
}

TEST_F(CheckerTest, UseAfterMigrateIsMPA007) {
  // Hand-off to the fabric is not a release: the local reference still
  // owns the allocation, but the remote side owns the *data* — any
  // later read or write here is a stale access.
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_migrate(&obj, "DataBuf");
  C().obj_read(&obj, "DataBuf");
  C().obj_write(&obj, "DataBuf");
  EXPECT_EQ(count_kind(FindingKind::kMigratedAccess), 2u);
  EXPECT_NE(C().report().find("MPA007"), std::string::npos);
}

TEST_F(CheckerTest, DoubleMigrateIsMPA007) {
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_migrate(&obj, "DataBuf");
  C().obj_migrate(&obj, "DataBuf");
  EXPECT_EQ(count_kind(FindingKind::kMigratedAccess), 1u);
}

TEST_F(CheckerTest, MigratedBufStillReleasesExactlyOnce) {
  // The victim's serialize-then-free path: migrate, then destroy the
  // local reference. Clean — and the destroy re-arms the address, so a
  // pool recycle after migration tracks the NEW incarnation cleanly.
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_migrate(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
  C().obj_create(&obj, "DataBuf");
  C().obj_read(&obj, "DataBuf");
  C().obj_write(&obj, "DataBuf");
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
}

TEST_F(CheckerTest, ReceivedHandleBelongsToTheReceiver) {
  // The zero-copy steal path: the victim hands the handle itself off
  // (migrate), the thief's decode takes it over (receive) after the
  // fabric's channel edge, and the thief's task then reads and writes the
  // very object. Only the access before the receive is MPA007.
  int obj = 0;
  int channel = 0;
  in_two_threads(
      [&] {
        fresh_epoch();
        C().obj_create(&obj, "DataBuf");
        C().obj_migrate(&obj, "DataBuf");
        C().channel_send(&channel);  // fabric delivery
      },
      [&] {
        C().channel_recv(&channel);
        C().obj_read(&obj, "DataBuf");  // before the take-over: MPA007
        C().obj_receive(&obj, "DataBuf");
        C().obj_read(&obj, "DataBuf");
        C().obj_write(&obj, "DataBuf");
      });
  EXPECT_EQ(count_kind(FindingKind::kMigratedAccess), 1u) << C().report();
  EXPECT_EQ(C().finding_count(), 1u) << C().report();
}

TEST_F(CheckerTest, UnorderedAccessAfterRehomeIsMPA008) {
  // Rank-failure recovery re-homes a buffer from a dead holder; any access
  // not ordered after the re-home may be stale pre-death machinery still
  // holding the old handout.
  int obj = 0;
  in_thread([&] {
    fresh_epoch();
    C().obj_create(&obj, "DataBuf");
    C().obj_write(&obj, "DataBuf");
    C().obj_rehome(&obj, "DataBuf");
  });
  fresh_epoch();
  C().obj_read(&obj, "DataBuf");  // no channel edge from the recovery
  EXPECT_EQ(count_kind(FindingKind::kUseAfterRecovery), 1u);
  EXPECT_NE(C().report().find("MPA008"), std::string::npos);
}

TEST_F(CheckerTest, ChannelOrderedRehomeAccessIsClean) {
  // The runtime's actual shape: the comm thread adopts + re-homes, then
  // hands the task to a worker through the scheduler (a channel edge), so
  // the worker's accesses happen-after the re-home.
  int obj = 0;
  int channel = 0;
  in_two_threads(
      [&] {
        fresh_epoch();
        C().obj_create(&obj, "DataBuf");
        C().obj_rehome(&obj, "DataBuf");
        C().channel_send(&channel);  // scheduler push
      },
      [&] {
        C().channel_recv(&channel);  // worker pop
        C().obj_read(&obj, "DataBuf");
        C().obj_write(&obj, "DataBuf");
      });
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
}

TEST_F(CheckerTest, CommonLockSuppressesRehomeReport) {
  // Hybrid-detector branch: epochs unordered, but both sides hold the same
  // lock across the re-home and the access.
  int obj = 0;
  int mu = 0;
  in_two_threads(
      [&] {
        fresh_epoch();
        C().lock_acquired(&mu);
        C().obj_create(&obj, "DataBuf");
        C().obj_rehome(&obj, "DataBuf");
        // No release: only the common lockset suppresses the report.
      },
      [&] {
        fresh_epoch();
        C().lock_acquired(&mu);
        C().obj_write(&obj, "DataBuf");
        C().lock_released(&mu);
      });
  EXPECT_EQ(count_kind(FindingKind::kUseAfterRecovery), 0u) << C().report();
}

TEST_F(CheckerTest, RehomeOfReleasedBufIsMPA008) {
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  C().obj_rehome(&obj, "DataBuf");
  EXPECT_EQ(count_kind(FindingKind::kUseAfterRecovery), 1u);
  EXPECT_NE(C().report().find("MPA008"), std::string::npos);
}

TEST_F(CheckerTest, RehomeClearsMigratedStateForTheNewOwner) {
  // A buffer migrated to a thief that then died: the home rank re-owns the
  // data, so its own (ordered) accesses are clean — no MPA007, no MPA008.
  int obj = 0;
  C().obj_create(&obj, "DataBuf");
  C().obj_migrate(&obj, "DataBuf");
  C().obj_rehome(&obj, "DataBuf");
  C().obj_read(&obj, "DataBuf");
  C().obj_write(&obj, "DataBuf");
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
}

TEST_F(CheckerTest, FindingsCarrySymbolicTaskNames) {
  int obj = 0;
  const int32_t params[2] = {3, 1};
  C().task_begin("GEMM", params, 2);
  C().obj_create(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  C().obj_destroy(&obj, "DataBuf");
  C().task_end();
  ASSERT_EQ(C().finding_count(), 1u);
  const auto f = C().findings().front();
  EXPECT_EQ(f.task, "GEMM(3,1)");
  EXPECT_NE(f.message.find("GEMM(3,1)"), std::string::npos);
}

// ---- healthy instrumented execution must be finding-free ------------------

TEST_F(CheckerTest, HealthyPtgRunHasZeroFindings) {
  // With -DMP_ANALYSIS=ON every runtime hot path is annotated and this
  // test is the "no false positives" acceptance check; without it the
  // macros are no-ops and the run must trivially stay clean.
  tce::TileSpaceSpec spec;
  spec.n_occ_alpha = 2;
  spec.n_occ_beta = 2;
  spec.n_virt_alpha = 4;
  spec.n_virt_beta = 4;
  spec.tile_size = 2;
  tce::TileSpace space(spec);
  using tce::RangeKind;
  tce::BlockTensor4 v(space, {RangeKind::kVirt, RangeKind::kVirt,
                              RangeKind::kVirt, RangeKind::kVirt});
  tce::BlockTensor4 t(space, {RangeKind::kVirt, RangeKind::kVirt,
                              RangeKind::kOcc, RangeKind::kOcc});
  tce::BlockTensor4 r(space,
                      {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                       RangeKind::kOcc},
                      true, true);
  vc::Cluster cluster(2);
  ga::GlobalArray v_ga(&cluster, v.ga_size());
  ga::GlobalArray t_ga(&cluster, t.ga_size());
  ga::GlobalArray r_ga(&cluster, r.ga_size());
  const auto plan = tce::inspect_t2_7(space, {&v, &t, &r});
  const tce::StoreList stores = {{&v, &v_ga}, {&t, &t_ga}, {&r, &r_ga}};

  tce::PtgExecOptions opts;
  opts.variant = tce::VariantConfig::v3();
  opts.workers_per_rank = 2;
  cluster.run([&](vc::RankCtx& rctx) {
    (void)tce::execute_ptg(rctx, plan, stores, opts);
  });
  EXPECT_EQ(C().finding_count(), 0u) << C().report();
}

// ---- stats self-checks ----------------------------------------------------

TEST(StatsValidate, SchedStatsCatchesInconsistentSnapshot) {
  ptg::SchedStats ok;
  ok.steal_attempts = 10;
  ok.steals = 10;
  EXPECT_EQ(ok.validate(), "");

  ptg::SchedStats bad;
  bad.steals = 3;
  bad.steal_attempts = 2;
  EXPECT_NE(bad.validate(), "");
}

TEST(StatsValidate, FabricStatsCatchesInconsistentSnapshot) {
  vc::FabricStats ok;
  ok.messages_sent = 5;
  ok.bytes_sent = 40;
  ok.faults_dropped = 2;
  EXPECT_EQ(ok.validate(), "");

  vc::FabricStats bad1;
  bad1.faults_dropped = 1;
  EXPECT_NE(bad1.validate(), "");

  vc::FabricStats bad2;
  bad2.bytes_sent = 8;
  EXPECT_NE(bad2.validate(), "");

  vc::FabricStats bad3;
  bad3.messages_sent = 1;
  bad3.faults_duplicated = 2;
  EXPECT_NE(bad3.validate(), "");
}

TEST(StatsValidate, LiveSchedulerSnapshotsAreConsistent) {
  ptg::Scheduler sched(2);
  for (int i = 0; i < 64; ++i) {
    ptg::ReadyTask t;
    t.seq = static_cast<uint64_t>(i);
    sched.push(std::move(t), -1);
  }
  ptg::ReadyTask out;
  while (sched.try_pop(out, 0)) {
  }
  EXPECT_EQ(sched.stats().validate(), "") << "live scheduler stats";
}

}  // namespace
}  // namespace mp
