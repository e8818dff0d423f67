// Tests for the virtual cluster: mailboxes, wire serialization, fabric
// routing (immediate and delayed), message segments (shared handles that
// are still charged their serialized size), SPMD execution, collectives,
// counters.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "vc/cluster.h"
#include "vc/fabric.h"
#include "vc/mailbox.h"
#include "vc/message.h"

namespace mp::vc {
namespace {

using namespace std::chrono_literals;

TEST(Wire, PodRoundTrip) {
  WireWriter w;
  w.put<int32_t>(-7);
  w.put<uint64_t>(123456789ULL);
  w.put<double>(3.5);
  const Payload p = w.take();
  WireReader r(p);
  EXPECT_EQ(r.get<int32_t>(), -7);
  EXPECT_EQ(r.get<uint64_t>(), 123456789ULL);
  EXPECT_DOUBLE_EQ(r.get<double>(), 3.5);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, DoubleArrayRoundTrip) {
  WireWriter w;
  std::vector<double> xs{1.0, -2.0, 0.25};
  w.put_doubles(xs.data(), xs.size());
  const Payload p = w.take();
  WireReader r(p);
  EXPECT_EQ(r.get_doubles(), xs);
}

TEST(Wire, TruncatedMessageThrows) {
  WireWriter w;
  w.put<int32_t>(1);
  const Payload p = w.take();
  WireReader r(p);
  EXPECT_THROW(r.get<uint64_t>(), InvalidArgument);
}

TEST(Mailbox, PushPopFifo) {
  Mailbox mb;
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.tag = i;
    EXPECT_TRUE(mb.push(std::move(m)));
  }
  for (int i = 0; i < 5; ++i) {
    auto m = mb.try_pop();
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, i);
  }
  EXPECT_FALSE(mb.try_pop().has_value());
}

TEST(Mailbox, PopWaitTimesOut) {
  Mailbox mb;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(mb.pop_wait(5ms).has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 4ms);
}

TEST(Mailbox, PopWaitWakesOnPush) {
  Mailbox mb;
  std::thread t([&] {
    std::this_thread::sleep_for(2ms);
    Message m;
    m.tag = 42;
    mb.push(std::move(m));
  });
  auto m = mb.pop_wait(500ms);
  t.join();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 42);
}

TEST(Mailbox, CloseWakesWaitersAndRejectsPush) {
  Mailbox mb;
  std::thread t([&] {
    std::this_thread::sleep_for(2ms);
    mb.close();
  });
  EXPECT_FALSE(mb.pop_wait(1s).has_value());
  t.join();
  Message m;
  EXPECT_FALSE(mb.push(std::move(m)));
  EXPECT_TRUE(mb.closed());
}

TEST(Mailbox, DrainAfterClose) {
  Mailbox mb;
  Message m;
  m.tag = 1;
  mb.push(std::move(m));
  mb.close();
  EXPECT_TRUE(mb.try_pop().has_value());
}

// --- per-source wire-sequence dedup (idempotent delivery) ---

TEST(Mailbox, DuplicateSeqFilteredButPushSucceeds) {
  Mailbox box;
  Message m;
  m.src = 1;
  m.tag = 7;
  m.seq = 5;
  EXPECT_TRUE(box.push(m));
  // The redundant copy reports success — from the fabric's point of view
  // it was delivered — but never reaches the queue.
  EXPECT_TRUE(box.push(m));
  EXPECT_EQ(box.size(), 1u);
  EXPECT_EQ(box.duplicates_filtered(), 1u);
}

TEST(Mailbox, SeqZeroIsNeverFiltered) {
  // seq 0 marks unstamped messages (tests, local control paths); they
  // bypass the exactly-once window entirely.
  Mailbox box;
  Message m;
  m.src = 1;
  m.seq = 0;
  EXPECT_TRUE(box.push(m));
  EXPECT_TRUE(box.push(m));
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.duplicates_filtered(), 0u);
}

TEST(Mailbox, OutOfOrderSeqsAcceptedOnceEach) {
  // Reordered delivery (3, 1, 2) is fine — each seq passes once — and a
  // full replay of the same window is discarded wholesale.
  Mailbox box;
  for (uint64_t seq : {3u, 1u, 2u}) {
    Message m;
    m.src = 2;
    m.seq = seq;
    EXPECT_TRUE(box.push(std::move(m)));
  }
  EXPECT_EQ(box.size(), 3u);
  for (uint64_t seq : {1u, 2u, 3u}) {
    Message m;
    m.src = 2;
    m.seq = seq;
    EXPECT_TRUE(box.push(std::move(m)));
  }
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.duplicates_filtered(), 3u);
}

TEST(Mailbox, SeqWindowsArePerSource) {
  // The same seq from two different sources is two distinct messages.
  Mailbox box;
  for (int src : {0, 1}) {
    Message m;
    m.src = src;
    m.seq = 9;
    EXPECT_TRUE(box.push(std::move(m)));
  }
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.duplicates_filtered(), 0u);
}

TEST(Fabric, InjectedDuplicateOfStampedMessageReachesRuntimeOnce) {
  // End-to-end: the fabric stamps seq before the fault draw, so a dup
  // fault produces two copies with the same seq and the destination
  // mailbox keeps exactly one. (Contrast InjectedDuplicatesDeliverTwice
  // below, whose src-less messages bypass stamping.)
  std::vector<Mailbox> boxes(2);
  FabricConfig cfg;
  cfg.faults.dup_prob = 1.0;
  Fabric f(&boxes, cfg);
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.src = 0;
    m.dst = 1;
    m.tag = i;
    f.send(std::move(m));
  }
  EXPECT_EQ(f.stats().faults_duplicated, 5u);
  EXPECT_EQ(boxes[1].size(), 5u);
  EXPECT_EQ(boxes[1].duplicates_filtered(), 5u);
}

TEST(Fabric, ImmediateDelivery) {
  std::vector<Mailbox> boxes(2);
  Fabric f(&boxes, {});
  Message m;
  m.src = 0;
  m.dst = 1;
  m.tag = 9;
  f.send(std::move(m));
  auto got = boxes[1].try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 9);
  EXPECT_EQ(f.messages_sent(), 1u);
}

TEST(Fabric, RejectsBadDestination) {
  std::vector<Mailbox> boxes(2);
  Fabric f(&boxes, {});
  Message m;
  m.dst = 5;
  EXPECT_THROW(f.send(std::move(m)), InvalidArgument);
}

TEST(Fabric, DelayedDeliveryPreservesOrder) {
  std::vector<Mailbox> boxes(1);
  FabricConfig cfg;
  cfg.latency_us = 200.0;
  Fabric f(&boxes, cfg);
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.dst = 0;
    m.tag = i;
    f.send(std::move(m));
  }
  for (int i = 0; i < 10; ++i) {
    auto m = boxes[0].pop_wait(1s);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, i);
  }
}

TEST(Fabric, DelayedDeliveryAddsLatency) {
  std::vector<Mailbox> boxes(1);
  FabricConfig cfg;
  cfg.latency_us = 3000.0;
  Fabric f(&boxes, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  Message m;
  m.dst = 0;
  f.send(std::move(m));
  auto got = boxes[0].pop_wait(1s);
  ASSERT_TRUE(got.has_value());
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 2500us);
}

TEST(Fabric, ShutdownFlushesPending) {
  std::vector<Mailbox> boxes(1);
  FabricConfig cfg;
  cfg.latency_us = 50000.0;  // long enough that shutdown happens first
  auto f = std::make_unique<Fabric>(&boxes, cfg);
  Message m;
  m.dst = 0;
  m.tag = 77;
  f->send(std::move(m));
  f->shutdown();
  auto got = boxes[0].try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 77);
}

TEST(Fabric, ShutdownReturnsPromptlyAndLosesNothing) {
  // Regression: the delivery loop used to keep sleeping until every
  // simulated delivery deadline elapsed, so shutdown() on a 2-second-latency
  // fabric took 2 seconds. It must be bounded by the flush, not the delays.
  std::vector<Mailbox> boxes(2);
  FabricConfig cfg;
  cfg.latency_us = 2e6;  // 2 s
  Fabric f(&boxes, cfg);
  const int n = 25;
  for (int i = 0; i < n; ++i) {
    Message m;
    m.dst = i % 2;
    m.tag = i;
    f.send(std::move(m));
  }
  const auto t0 = std::chrono::steady_clock::now();
  f.shutdown();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_EQ(boxes[0].size() + boxes[1].size(), static_cast<size_t>(n));
  const FabricStats s = f.stats();
  EXPECT_EQ(s.messages_sent, static_cast<uint64_t>(n));
  EXPECT_EQ(s.messages_dropped, 0u);
}

TEST(Fabric, SendAfterShutdownCountsDroppedNotSent) {
  // Regression: messages refused during shutdown were still counted as
  // sent. They must land in messages_dropped instead.
  std::vector<Mailbox> boxes(1);
  FabricConfig cfg;
  cfg.latency_us = 100.0;
  Fabric f(&boxes, cfg);
  f.shutdown();
  Message m;
  m.dst = 0;
  m.header.assign(16, 0);
  f.send(std::move(m));
  const FabricStats s = f.stats();
  EXPECT_EQ(s.messages_sent, 0u);
  EXPECT_EQ(s.bytes_sent, 0u);
  EXPECT_EQ(s.messages_dropped, 1u);
  EXPECT_EQ(s.bytes_dropped, 16u);
  EXPECT_EQ(f.messages_dropped(), 1u);
  EXPECT_FALSE(boxes[0].try_pop().has_value());
}

// --- message segments: handles move, bytes are still counted ---

/// A message from rank 0 to rank 1 with a `header_bytes`-byte header and
/// one segment per entry of `segment_elems`.
Message segment_message(size_t header_bytes,
                        const std::vector<size_t>& segment_elems) {
  Message m;
  m.src = 0;
  m.dst = 1;
  m.header.assign(header_bytes, 0x5a);
  for (size_t n : segment_elems) {
    m.segments.push_back(make_buf(n, 1.5));
  }
  return m;
}

/// Header bytes plus, per segment, its 8-byte count and its doubles.
uint64_t serialized_size(size_t header_bytes,
                         const std::vector<size_t>& segment_elems) {
  uint64_t n = header_bytes;
  for (size_t e : segment_elems) n += 8 + 8 * e;
  return n;
}

TEST(Fabric, DuplicatedSegmentMessageReachesConsumerOnceSharingTheHandle) {
  std::vector<Mailbox> boxes(2);
  FabricConfig cfg;
  cfg.faults.dup_prob = 1.0;
  cfg.latency_us = 50000.0;  // both copies sit in the fabric for a while
  Fabric f(&boxes, cfg);
  Message m = segment_message(12, {1000});
  const DataBuf buf = m.segments[0];
  f.send(std::move(m));
  EXPECT_EQ(f.stats().faults_duplicated, 1u);
  // Both in-flight copies hold the sender's handle: no deep copy was made.
  EXPECT_EQ(buf.use_count(), 3);

  auto got = boxes[1].pop_wait(2s);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->segments.size(), 1u);
  EXPECT_EQ(got->segments[0], buf);
  // The second copy carries the same wire seq and is filtered, so the
  // consumer sees the message once and the duplicate's handle is gone
  // (released just after the filter counts it, hence the wait on both).
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while ((boxes[1].duplicates_filtered() == 0 || buf.use_count() != 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(boxes[1].duplicates_filtered(), 1u);
  EXPECT_EQ(boxes[1].size(), 0u);
  EXPECT_EQ(buf.use_count(), 2);  // this test + the consumer's message
}

TEST(Fabric, BytesSentChargeHeaderPlusEachSegmentsSerializedSize) {
  std::vector<Mailbox> boxes(2);
  Fabric f(&boxes, {});
  const std::vector<size_t> elems{3, 100, 0};
  Message m = segment_message(23, elems);
  EXPECT_EQ(m.wire_bytes(), serialized_size(23, elems));
  f.send(std::move(m));
  f.send(segment_message(5, {}));
  const FabricStats s = f.stats();
  EXPECT_EQ(s.messages_sent, 2u);
  EXPECT_EQ(s.bytes_sent, serialized_size(23, elems) + 5);
  EXPECT_EQ(s.bytes_sent, 23u + (8 + 24) + (8 + 800) + 8 + 5);
}

TEST(Fabric, RefusedSegmentMessageCountsItsSerializedSizeDropped) {
  std::vector<Mailbox> boxes(2);
  FabricConfig cfg;
  cfg.latency_us = 100.0;
  Fabric f(&boxes, cfg);
  f.shutdown();
  f.send(segment_message(16, {10}));
  const FabricStats s = f.stats();
  EXPECT_EQ(s.messages_sent, 0u);
  EXPECT_EQ(s.bytes_sent, 0u);
  EXPECT_EQ(s.messages_dropped, 1u);
  EXPECT_EQ(s.bytes_dropped, serialized_size(16, {10}));
  EXPECT_FALSE(boxes[1].try_pop().has_value());
}

TEST(Fabric, BandwidthDelayChargesSegmentsTheirSerializedSize) {
  // 1 MB/s: a 12,500-double segment (100,008 serialized bytes) must take
  // ~100 ms although its header is empty — the segment is charged as if
  // it were on the wire, exactly like the same bytes in a header.
  std::vector<Mailbox> boxes(2);
  FabricConfig cfg;
  cfg.bandwidth_Bps = 1e6;
  Fabric f(&boxes, cfg);
  for (const bool as_segment : {true, false}) {
    Message m = as_segment ? segment_message(0, {12500})
                           : segment_message(100008, {});
    EXPECT_EQ(m.wire_bytes(), 100008u);
    const auto t0 = std::chrono::steady_clock::now();
    f.send(std::move(m));
    auto got = boxes[1].pop_wait(5s);
    ASSERT_TRUE(got.has_value());
    EXPECT_GE(std::chrono::steady_clock::now() - t0, 90ms)
        << (as_segment ? "segment" : "header");
  }
  EXPECT_EQ(f.stats().bytes_sent, 2u * 100008u);
}

TEST(Fabric, InjectedDropsCountedAndNotDelivered) {
  std::vector<Mailbox> boxes(1);
  FabricConfig cfg;
  cfg.faults.drop_prob = 1.0;
  Fabric f(&boxes, cfg);
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.dst = 0;
    f.send(std::move(m));
  }
  EXPECT_FALSE(boxes[0].try_pop().has_value());
  const FabricStats s = f.stats();
  EXPECT_EQ(s.messages_sent, 10u);
  EXPECT_EQ(s.faults_dropped, 10u);
  EXPECT_EQ(s.messages_dropped, 0u);  // faults are not shutdown drops
}

TEST(Fabric, InjectedDuplicatesDeliverTwice) {
  std::vector<Mailbox> boxes(1);
  FabricConfig cfg;
  cfg.faults.dup_prob = 1.0;
  Fabric f(&boxes, cfg);
  for (int i = 0; i < 5; ++i) {
    Message m;
    m.dst = 0;
    m.tag = i;
    f.send(std::move(m));
  }
  EXPECT_EQ(boxes[0].size(), 10u);
  EXPECT_EQ(f.stats().faults_duplicated, 5u);
  EXPECT_EQ(f.stats().messages_sent, 5u);
}

TEST(Fabric, FaultPatternIsSeedDeterministic) {
  auto run_once = [](uint64_t seed) {
    std::vector<Mailbox> boxes(1);
    FabricConfig cfg;
    cfg.faults.drop_prob = 0.5;
    cfg.fault_seed = seed;
    Fabric f(&boxes, cfg);
    for (int i = 0; i < 100; ++i) {
      Message m;
      m.dst = 0;
      m.tag = i;
      f.send(std::move(m));
    }
    std::vector<int> delivered;
    while (auto m = boxes[0].try_pop()) delivered.push_back(m->tag);
    return delivered;
  };
  const auto a = run_once(42), b = run_once(42), c = run_once(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_GT(a.size(), 0u);
  EXPECT_LT(a.size(), 100u);
}

TEST(Fabric, PerLinkFaultOverride) {
  std::vector<Mailbox> boxes(2);
  FabricConfig cfg;
  cfg.link_faults[{0, 1}] = FaultConfig{/*drop_prob=*/1.0, 0.0, 0.0};
  Fabric f(&boxes, cfg);
  for (int dst = 0; dst < 2; ++dst) {
    Message m;
    m.src = 0;
    m.dst = dst;
    f.send(std::move(m));
  }
  EXPECT_TRUE(boxes[0].try_pop().has_value());   // healthy link
  EXPECT_FALSE(boxes[1].try_pop().has_value());  // faulty link
  EXPECT_EQ(f.stats().faults_dropped, 1u);
}

TEST(Fabric, ReorderJitterStillDeliversEverything) {
  std::vector<Mailbox> boxes(1);
  FabricConfig cfg;
  cfg.faults.reorder_jitter_us = 500.0;  // jitter alone forces delayed mode
  Fabric f(&boxes, cfg);
  const int n = 40;
  for (int i = 0; i < n; ++i) {
    Message m;
    m.dst = 0;
    m.tag = i;
    f.send(std::move(m));
  }
  std::vector<bool> seen(n, false);
  for (int i = 0; i < n; ++i) {
    auto m = boxes[0].pop_wait(1s);
    ASSERT_TRUE(m.has_value());
    ASSERT_GE(m->tag, 0);
    ASSERT_LT(m->tag, n);
    EXPECT_FALSE(seen[static_cast<size_t>(m->tag)]);
    seen[static_cast<size_t>(m->tag)] = true;
  }
  EXPECT_GT(f.stats().faults_reordered, 0u);
}

TEST(Cluster, RunExecutesEveryRank) {
  Cluster c(4);
  std::atomic<int> mask{0};
  c.run([&](RankCtx& ctx) { mask.fetch_or(1 << ctx.rank()); });
  EXPECT_EQ(mask.load(), 0xF);
}

TEST(Cluster, SendRecvAcrossRanks) {
  Cluster c(2);
  c.run([&](RankCtx& ctx) {
    if (ctx.rank() == 0) {
      WireWriter w;
      w.put<int>(123);
      ctx.send(1, 7, w.take());
    } else {
      auto m = ctx.mailbox().pop_wait(2s);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->src, 0);
      EXPECT_EQ(m->tag, 7);
      WireReader r(m->header);
      EXPECT_EQ(r.get<int>(), 123);
    }
  });
}

TEST(Cluster, BarrierSynchronizes) {
  Cluster c(3);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  c.run([&](RankCtx& ctx) {
    before.fetch_add(1);
    ctx.barrier();
    if (before.load() != 3) violated.store(true);
  });
  EXPECT_FALSE(violated.load());
}

TEST(Cluster, AllreduceSum) {
  Cluster c(4);
  std::vector<double> results(4, 0.0);
  c.run([&](RankCtx& ctx) {
    results[static_cast<size_t>(ctx.rank())] =
        ctx.allreduce_sum(static_cast<double>(ctx.rank() + 1));
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 10.0);
}

TEST(Cluster, AllreduceMax) {
  Cluster c(3);
  std::vector<double> results(3, 0.0);
  c.run([&](RankCtx& ctx) {
    results[static_cast<size_t>(ctx.rank())] =
        ctx.allreduce_max(static_cast<double>((ctx.rank() * 7) % 5));
  });
  for (double r : results) EXPECT_DOUBLE_EQ(r, 4.0);
}

TEST(Cluster, BackToBackAllreducesDontInterfere) {
  Cluster c(4);
  std::atomic<bool> bad{false};
  c.run([&](RankCtx& ctx) {
    for (int i = 0; i < 20; ++i) {
      const double s = ctx.allreduce_sum(1.0);
      if (s != 4.0) bad.store(true);
    }
  });
  EXPECT_FALSE(bad.load());
}

TEST(Cluster, AllreduceSkipsDeadRankSlotsAfterKill) {
  // A killed rank's reduce slot keeps its contribution from the last
  // pre-crash reduction. Survivors are allowed to keep reducing after a
  // kill (only the victim stops joining collectives), so the rank-0 fold
  // must skip dead ranks' slots or every post-kill allreduce silently
  // includes the stale value.
  Cluster c(3);
  std::vector<double> pre(3, -1.0), post(3, -1.0);
  c.run([&](RankCtx& ctx) {
    pre[static_cast<size_t>(ctx.rank())] =
        ctx.allreduce_sum(static_cast<double>(ctx.rank() + 1));
    ctx.barrier();
    if (ctx.rank() == 0) c.kill_rank(2);
    ctx.barrier();  // kill visible to everyone past this point
    if (ctx.rank() == 2) {
      ctx.barrier_drop();
      return;
    }
    post[static_cast<size_t>(ctx.rank())] =
        ctx.allreduce_sum(static_cast<double>(ctx.rank() + 1));
  });
  for (double r : pre) EXPECT_DOUBLE_EQ(r, 6.0);
  EXPECT_DOUBLE_EQ(post[0], 3.0) << "stale dead-rank slot folded in";
  EXPECT_DOUBLE_EQ(post[1], 3.0) << "stale dead-rank slot folded in";
  EXPECT_DOUBLE_EQ(post[2], -1.0) << "a dead rank must not keep reducing";
}

TEST(Cluster, SharedCounterIsMonotonicAcrossRanks) {
  Cluster c(4);
  std::mutex mu;
  std::vector<long> tickets;
  c.run([&](RankCtx& ctx) {
    for (int i = 0; i < 100; ++i) {
      const long t = ctx.cluster().fetch_add_counter(0, 1);
      std::lock_guard lock(mu);
      tickets.push_back(t);
    }
  });
  std::sort(tickets.begin(), tickets.end());
  for (size_t i = 0; i < tickets.size(); ++i) {
    EXPECT_EQ(tickets[i], static_cast<long>(i));  // unique & dense
  }
}

TEST(Cluster, ExceptionInRankPropagates) {
  Cluster c(2);
  EXPECT_THROW(c.run([&](RankCtx& ctx) {
    if (ctx.rank() == 1) throw std::runtime_error("rank 1 failed");
  }),
               std::runtime_error);
}

TEST(Cluster, RejectsZeroRanks) {
  EXPECT_THROW(Cluster c(0), InvalidArgument);
}

// --- endpoint failures: crashes, partitions, incarnations ---

TEST(Mailbox, ResetSourceDropsTheDedupWindow) {
  Mailbox box;
  for (uint64_t s = 1; s <= 3; ++s) {
    Message m;
    m.src = 1;
    m.seq = s;
    EXPECT_TRUE(box.push(std::move(m)));
  }
  EXPECT_EQ(box.size(), 3u);

  // The old incarnation's seqs are now duplicates...
  Message dup;
  dup.src = 1;
  dup.seq = 2;
  EXPECT_TRUE(box.push(std::move(dup)));
  EXPECT_EQ(box.size(), 3u);
  EXPECT_EQ(box.duplicates_filtered(), 1u);

  // ...until the source is declared a new incarnation. A fresh wire
  // sequence restarting at 1 must flow, and other sources' windows are
  // untouched.
  box.reset_source(1);
  Message fresh;
  fresh.src = 1;
  fresh.seq = 1;
  EXPECT_TRUE(box.push(std::move(fresh)));
  EXPECT_EQ(box.size(), 4u);
  EXPECT_EQ(box.duplicates_filtered(), 1u);
}

TEST(Fabric, KilledRankBlackholesBothDirections) {
  std::vector<Mailbox> boxes(2);
  Fabric f(&boxes, {});
  f.kill_rank(1);
  EXPECT_TRUE(f.is_dead(1));

  Message to_dead;
  to_dead.src = 0;
  to_dead.dst = 1;
  f.send(std::move(to_dead));
  Message from_dead;
  from_dead.src = 1;
  from_dead.dst = 0;
  f.send(std::move(from_dead));

  EXPECT_FALSE(boxes[0].try_pop().has_value());
  EXPECT_FALSE(boxes[1].try_pop().has_value());
  const FabricStats s = f.stats();
  EXPECT_EQ(s.faults_crashed, 2u);
  EXPECT_EQ(s.ranks_killed, 1u);
  EXPECT_EQ(s.validate(), "");
}

TEST(Fabric, KillRankIsIdempotent) {
  std::vector<Mailbox> boxes(2);
  Fabric f(&boxes, {});
  f.kill_rank(1);
  f.kill_rank(1);
  EXPECT_EQ(f.stats().ranks_killed, 1u);
}

TEST(Fabric, CrashPlanFiresAtTheExactAcceptCount) {
  std::vector<Mailbox> boxes(2);
  FabricConfig cfg;
  cfg.crash_plans.push_back({/*victim=*/1, /*after_messages=*/3});
  Fabric f(&boxes, cfg);
  int killed = -1, calls = 0;
  f.set_kill_callback([&](int r) {
    killed = r;
    ++calls;
  });

  for (int i = 0; i < 2; ++i) {
    Message m;
    m.src = 0;
    m.dst = 1;
    f.send(std::move(m));
  }
  EXPECT_FALSE(f.is_dead(1)) << "two accepted messages must not trigger";

  Message third;
  third.src = 0;
  third.dst = 1;
  f.send(std::move(third));
  EXPECT_TRUE(f.is_dead(1));
  EXPECT_EQ(killed, 1);
  EXPECT_EQ(calls, 1);

  // Post-crash traffic to the victim is blackholed; the first three
  // messages were delivered before it fired.
  Message late;
  late.src = 0;
  late.dst = 1;
  f.send(std::move(late));
  EXPECT_EQ(boxes[1].size(), 3u);
  EXPECT_EQ(f.stats().faults_crashed, 1u);
  EXPECT_EQ(f.stats().validate(), "");
}

TEST(Fabric, OneSidedPartitionSwallowsOnlyThatDirection) {
  std::vector<Mailbox> boxes(2);
  Fabric f(&boxes, {});
  f.partition(0, 1);
  EXPECT_TRUE(f.partitioned(0, 1));
  EXPECT_FALSE(f.partitioned(1, 0));

  Message fwd;
  fwd.src = 0;
  fwd.dst = 1;
  fwd.tag = 7;
  f.send(std::move(fwd));
  Message rev;
  rev.src = 1;
  rev.dst = 0;
  rev.tag = 8;
  f.send(std::move(rev));

  EXPECT_FALSE(boxes[1].try_pop().has_value());
  auto got = boxes[0].try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 8);
  EXPECT_EQ(f.stats().faults_partitioned, 1u);
  EXPECT_EQ(f.stats().validate(), "");

  f.heal(0, 1);
  Message healed;
  healed.src = 0;
  healed.dst = 1;
  healed.tag = 9;
  f.send(std::move(healed));
  auto got2 = boxes[1].try_pop();
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(got2->tag, 9);
}

TEST(Fabric, RevivedRankIsANewIncarnationNeedingResetSource) {
  // The revived rank's wire sequence restarts, so without reset_source the
  // receiver's dedup window silently blackholes the new incarnation — the
  // exact trap the Mailbox API exists for.
  std::vector<Mailbox> boxes(2);
  Fabric f(&boxes, {});
  for (int i = 0; i < 3; ++i) {
    Message m;
    m.src = 1;
    m.dst = 0;
    f.send(std::move(m));
  }
  EXPECT_EQ(boxes[0].size(), 3u);

  f.kill_rank(1);
  f.revive_rank(1);

  Message stale;
  stale.src = 1;
  stale.dst = 0;
  f.send(std::move(stale));  // stamped seq 1 again
  EXPECT_EQ(boxes[0].size(), 3u) << "filtered as a duplicate of the corpse";
  EXPECT_EQ(boxes[0].duplicates_filtered(), 1u);

  boxes[0].reset_source(1);
  Message fresh;
  fresh.src = 1;
  fresh.dst = 0;
  f.send(std::move(fresh));
  EXPECT_EQ(boxes[0].size(), 4u);
}

TEST(Cluster, KillRankClosesMailboxAndReviveRestoresDelivery) {
  Cluster c(3);
  c.kill_rank(1);
  EXPECT_TRUE(c.is_dead(1));
  EXPECT_TRUE(c.mailbox(1).closed());
  c.kill_rank(1);  // idempotent
  EXPECT_EQ(c.fabric().stats().ranks_killed, 1u);

  // revive_rank resets every survivor's dedup window for the new
  // incarnation, so rank 1 can speak again end to end.
  c.revive_rank(1);
  EXPECT_FALSE(c.is_dead(1));
  EXPECT_FALSE(c.mailbox(1).closed());
  Message m;
  m.src = 1;
  m.dst = 0;
  m.tag = 42;
  c.fabric().send(std::move(m));
  auto got = c.mailbox(0).try_pop();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->tag, 42);
}

// ---------------------------------------------------------------------------
// SeqWindow direct property tests (the exactly-once object shared by the
// runtime mailboxes and the mp-explore model checker).

TEST(SeqWindow, AcceptsEachSeqExactlyOnce) {
  SeqWindow w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  EXPECT_FALSE(w.accept(1));
  EXPECT_FALSE(w.accept(2));
  EXPECT_EQ(w.watermark, 2u);
  EXPECT_EQ(w.backlog(), 0u);
}

TEST(SeqWindow, ReorderBeyondContiguousPrefixParksAbove) {
  SeqWindow w;
  // Arbitrary reorder: the contiguous prefix drains into the watermark,
  // everything past a gap is remembered individually.
  EXPECT_TRUE(w.accept(3));
  EXPECT_TRUE(w.accept(7));
  EXPECT_TRUE(w.accept(1));
  EXPECT_EQ(w.watermark, 1u);
  EXPECT_EQ(w.backlog(), 2u);  // 3 and 7 parked
  EXPECT_FALSE(w.accept(3));   // parked seqs are still duplicates
  EXPECT_FALSE(w.accept(7));
  EXPECT_TRUE(w.accept(2));  // fills the gap: drains 2,3 -> watermark 3
  EXPECT_EQ(w.watermark, 3u);
  EXPECT_EQ(w.backlog(), 1u);  // 7 remains
  EXPECT_TRUE(w.accept(4));
  EXPECT_TRUE(w.accept(5));
  EXPECT_TRUE(w.accept(6));
  EXPECT_EQ(w.watermark, 7u);  // 7 drained with the prefix
  EXPECT_EQ(w.backlog(), 0u);
}

TEST(SeqWindow, RebaseCollapsesGapsToHighWater) {
  SeqWindow w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(5));  // gap: 2..4 dropped by the fabric
  EXPECT_TRUE(w.accept(9));
  EXPECT_EQ(w.watermark, 1u);
  EXPECT_EQ(w.backlog(), 2u);
  w.rebase();
  EXPECT_EQ(w.watermark, 9u);
  EXPECT_EQ(w.backlog(), 0u);
  // Everything at or below the high-water mark is now a duplicate...
  EXPECT_FALSE(w.accept(3));
  EXPECT_FALSE(w.accept(9));
  // ...and fresh seqs continue from there.
  EXPECT_TRUE(w.accept(10));
  EXPECT_EQ(w.watermark, 10u);
}

TEST(SeqWindow, RebaseOnEmptyAboveIsANoOp) {
  SeqWindow w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  w.rebase();
  EXPECT_EQ(w.watermark, 2u);
  EXPECT_TRUE(w.accept(3));
}

TEST(SeqWindow, DuplicateAfterRebaseStaysFiltered) {
  SeqWindow w;
  EXPECT_TRUE(w.accept(2));  // seq 1 still in flight
  w.rebase();                // quiescent-point collapse: watermark = 2
  // The straggler arrives after the rebase. Its seq is below the new
  // watermark, so the window (conservatively, and correctly for same-
  // incarnation traffic) treats it as already seen.
  EXPECT_FALSE(w.accept(1));
  EXPECT_FALSE(w.accept(2));
  EXPECT_TRUE(w.accept(3));
}

TEST(SeqWindow, RebaseAroundWrapKeepsMonotonicity) {
  // Near the top of the 64-bit seq space the window must stay monotone:
  // rebase jumps to the maximum accepted seq and near-max arithmetic does
  // not overflow back to small watermarks.
  const uint64_t top = ~0ULL;
  SeqWindow w;
  w.watermark = top - 5;
  EXPECT_TRUE(w.accept(top - 3));  // gap at top-4
  EXPECT_TRUE(w.accept(top - 1));
  EXPECT_EQ(w.watermark, top - 5);
  EXPECT_EQ(w.backlog(), 2u);
  w.rebase();
  EXPECT_EQ(w.watermark, top - 1);
  EXPECT_EQ(w.backlog(), 0u);
  EXPECT_FALSE(w.accept(top - 4));  // the dropped seq can never re-arrive
  EXPECT_TRUE(w.accept(top));       // the last representable seq still lands
  EXPECT_EQ(w.watermark, top);
  EXPECT_FALSE(w.accept(top));
}

TEST(SeqWindow, EqualityComparesWatermarkAndBacklog) {
  SeqWindow a;
  SeqWindow b;
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(a.accept(2));
  EXPECT_FALSE(a == b);
  ASSERT_TRUE(b.accept(2));
  EXPECT_TRUE(a == b);
  a.rebase();
  b.rebase();
  EXPECT_TRUE(a == b);
}

TEST(SeqWindow, MailboxWindowSnapshotMirrorsAccepts) {
  Mailbox box;
  auto push = [&](int src, uint64_t seq) {
    Message m;
    m.src = src;
    m.dst = 0;
    m.tag = 7;
    m.seq = seq;
    return box.push(std::move(m));
  };
  EXPECT_TRUE(push(1, 1));
  EXPECT_TRUE(push(1, 3));  // out of order: parked above
  EXPECT_TRUE(push(2, 1));
  const auto snap = box.window_snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, 1);
  EXPECT_EQ(snap[0].second.watermark, 1u);
  EXPECT_EQ(snap[0].second.backlog(), 1u);
  EXPECT_EQ(snap[1].first, 2);
  EXPECT_EQ(snap[1].second.watermark, 1u);
  EXPECT_EQ(snap[1].second.backlog(), 0u);
}

}  // namespace
}  // namespace mp::vc
