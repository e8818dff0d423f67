#include "vc/cluster.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "support/error.h"

namespace mp::vc {

int RankCtx::nranks() const { return cluster_->nranks(); }

void RankCtx::send(int dst, int tag, Payload header,
                   std::vector<DataBuf> segments) {
  Message m;
  m.src = rank_;
  m.dst = dst;
  m.tag = tag;
  m.header = std::move(header);
  m.segments = std::move(segments);
  cluster_->fabric().send(std::move(m));
}

Mailbox& RankCtx::mailbox() { return cluster_->mailbox(rank_); }

void RankCtx::barrier() { cluster_->barrier_wait(); }

void RankCtx::barrier_drop() { cluster_->barrier_arrive_and_drop(); }

bool RankCtx::is_dead() const { return cluster_->is_dead(rank_); }

double RankCtx::allreduce_sum(double x) {
  return cluster_->allreduce(x, rank_, /*max_mode=*/false);
}

double RankCtx::allreduce_max(double x) {
  return cluster_->allreduce(x, rank_, /*max_mode=*/true);
}

Cluster::Cluster(int nranks, FabricConfig fabric_cfg)
    : nranks_(nranks),
      mailboxes_(static_cast<size_t>(nranks)),
      barrier_(nranks),
      counters_(kNumCounters),
      dead_(static_cast<size_t>(nranks)),
      reduce_slots_(static_cast<size_t>(nranks), 0.0) {
  MP_REQUIRE(nranks >= 1, "Cluster: nranks must be >= 1");
  for (auto& c : counters_) c.store(0);
  fabric_ = std::make_unique<Fabric>(&mailboxes_, fabric_cfg);
  // Crash plans fire inside Fabric::send with no fabric lock held; route
  // them through kill_rank so the mailbox closes and the cluster-wide dead
  // flag is visible to every rank's runtime.
  fabric_->set_kill_callback([this](int r) { kill_rank(r); });
}

Cluster::~Cluster() {
  // Flush the fabric before closing the mailboxes: messages still in
  // flight get delivered (and remain drainable) instead of being dropped
  // against closed mailboxes.
  fabric_->shutdown();
  for (auto& mb : mailboxes_) mb.close();
}

void Cluster::run(const std::function<void(RankCtx&)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(nranks_));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(nranks_));

  for (int r = 0; r < nranks_; ++r) {
    threads.emplace_back([this, r, &fn, &errors] {
      RankCtx ctx(this, r);
      try {
        fn(ctx);
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
        // A dead rank must not deadlock the others at a collective; close
        // every mailbox so blocking pops return, and let remaining barrier
        // arrivals proceed by dropping this rank via arrive_and_drop.
        for (auto& mb : mailboxes_) mb.close();
        barrier_.arrive_and_drop();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

void Cluster::kill_rank(int rank) {
  MP_REQUIRE(rank >= 0 && rank < nranks_, "Cluster::kill_rank: bad rank");
  // Idempotent latch; also breaks the mutual recursion with the fabric's
  // kill callback (fabric kill -> callback -> here -> fabric kill ...).
  if (dead_[static_cast<size_t>(rank)].exchange(1, std::memory_order_acq_rel) !=
      0) {
    return;
  }
  fabric_->kill_rank(rank);
  // Close only the victim's mailbox: pending messages stay drainable, and a
  // blocked pop on the victim's comm thread wakes up to find itself dead.
  // Survivors' mailboxes are untouched (unlike the rank-exception path in
  // run(), which tears the whole job down).
  mailboxes_[static_cast<size_t>(rank)].close();
}

void Cluster::revive_rank(int rank) {
  MP_REQUIRE(rank >= 0 && rank < nranks_, "Cluster::revive_rank: bad rank");
  if (dead_[static_cast<size_t>(rank)].exchange(0, std::memory_order_acq_rel) ==
      0) {
    return;
  }
  fabric_->revive_rank(rank);
  mailboxes_[static_cast<size_t>(rank)].reopen();
  // New incarnation: every receiver must forget the old incarnation's wire
  // sequence window or the revived rank's messages are eaten as duplicates.
  for (auto& mb : mailboxes_) mb.reset_source(rank);
}

long Cluster::fetch_add_counter(int which, long delta) {
  MP_REQUIRE(which >= 0 && which < kNumCounters, "bad counter index");
  return counters_[static_cast<size_t>(which)].fetch_add(delta);
}

void Cluster::reset_counter(int which, long value) {
  MP_REQUIRE(which >= 0 && which < kNumCounters, "bad counter index");
  counters_[static_cast<size_t>(which)].store(value);
}

void Cluster::barrier_wait() { barrier_.arrive_and_wait(); }

void Cluster::barrier_arrive_and_drop() { barrier_.arrive_and_drop(); }

double Cluster::allreduce(double x, int rank, bool max_mode) {
  reduce_slots_[static_cast<size_t>(rank)] = x;
  barrier_wait();  // all contributions visible after this
  if (rank == 0) {
    // A killed rank's slot still holds its contribution from the last
    // pre-crash reduction (it left the barrier via arrive_and_drop and
    // never writes again); folding that stale value in would silently
    // corrupt every survivor-side allreduce issued after a kill.
    double acc = reduce_slots_[0];
    for (int r = 1; r < nranks_; ++r) {
      if (is_dead(r)) continue;
      const double v = reduce_slots_[static_cast<size_t>(r)];
      acc = max_mode ? std::max(acc, v) : acc + v;
    }
    reduce_result_ = acc;
  }
  barrier_wait();  // result visible to all
  const double out = reduce_result_;
  barrier_wait();  // protect slots/result from the next allreduce
  return out;
}

}  // namespace mp::vc
