// Heap allocations on the runtime's local hot path. This binary replaces
// the global operator new with a counting one: a steady run() of a pool of
// pass-it-on chains on one rank and one worker must allocate a bounded
// number of times per run, not several times per task. A task's inputs
// stay in the Submission's input slots, its successors and outputs go
// through per-worker vectors that keep their capacity, and a deposit
// writes a slot and decrements a counter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "ptg/context.h"
#include "ptg/taskpool.h"
#include "vc/cluster.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace mp::ptg {
namespace {

TEST(HotPath, SteadyRunAllocatesNothingPerLocalTask) {
  constexpr int kChains = 64;
  constexpr int kLen = 1024;
  uint64_t allocations = 0;
  uint64_t executed = 0;
  vc::Cluster cluster(1);
  cluster.run([&](vc::RankCtx& rctx) {
    Taskpool pool;
    TaskClass step;
    step.name = "STEP";
    step.rank_of = [](const Params&) { return 0; };
    step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    step.enumerate_rank = [](int) {
      std::vector<Params> out;
      for (int l1 = 0; l1 < kChains; ++l1) {
        for (int l2 = 0; l2 < kLen; ++l2) out.push_back(params_of(l1, l2));
      }
      return out;
    };
    step.priority = [](const Params& p) {
      return static_cast<double>(kChains - p[0]);
    };
    // Each task takes its one-double input over and passes it on.
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
    opts.num_workers = 1;
    Context ctx(rctx, pool, opts);
    ctx.run();  // spawns the threads; vectors reach their steady size
    g_allocations.store(0);
    g_counting.store(true);
    ctx.run();
    g_counting.store(false);
    allocations = g_allocations.load();
    executed = ctx.tasks_executed();
  });
  EXPECT_EQ(executed, static_cast<uint64_t>(kChains) * kLen);
  EXPECT_LT(allocations, 1000u)
      << allocations << " allocations in one run of " << executed << " tasks";
}

// The same chains on 2 ranks, task (l1, l2) on rank (l1 + l2) % 2, so every
// activation crosses ranks. What a remote activation allocates: its wire
// header (built with one allocation, WireWriter::reserve), the outbox and
// mailbox bookkeeping, and on the receiving side the decoded buffer.
TEST(HotPath, SteadyRemoteActivationsAllocateBoundedPerHop) {
  constexpr int kRanks = 2;
  constexpr int kChains = 64;
  constexpr int kLen = 256;
  std::atomic<uint64_t> allocations{0};
  std::atomic<uint64_t> remote{0};
  vc::Cluster cluster(kRanks);
  cluster.run([&](vc::RankCtx& rctx) {
    auto owner = [](const Params& p) { return (p[0] + p[1]) % kRanks; };
    Taskpool pool;
    TaskClass step;
    step.name = "STEP";
    step.rank_of = owner;
    step.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 0 : 1; };
    step.enumerate_rank = [owner](int rank) {
      std::vector<Params> out;
      for (int l1 = 0; l1 < kChains; ++l1) {
        for (int l2 = 0; l2 < kLen; ++l2) {
          if (owner(params_of(l1, l2)) == rank) {
            out.push_back(params_of(l1, l2));
          }
        }
      }
      return out;
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
    opts.num_workers = 1;
    Context ctx(rctx, pool, opts);
    ctx.run();  // spawns the threads; vectors reach their steady size
    rctx.barrier();
    if (rctx.rank() == 0) {
      g_allocations.store(0);
      g_counting.store(true);
    }
    rctx.barrier();
    ctx.run();
    rctx.barrier();
    if (rctx.rank() == 0) {
      g_counting.store(false);
      allocations.store(g_allocations.load());
    }
    remote.fetch_add(ctx.remote_activations_sent());
  });
  ASSERT_EQ(remote.load(), static_cast<uint64_t>(kChains) * (kLen - 1));
  const double per_hop = static_cast<double>(allocations.load()) /
                         static_cast<double>(remote.load());
  // 5.2 per hop; a header that grows geometrically instead of reserving
  // its size takes 3 more (8.2).
  EXPECT_LT(per_hop, 6.0) << allocations.load() << " allocations for "
                          << remote.load() << " remote activations";
}

}  // namespace
}  // namespace mp::ptg
