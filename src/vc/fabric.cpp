#include "vc/fabric.h"

#include "support/analysis.h"
#include "support/error.h"

namespace mp::vc {

namespace {

/// A delivery thread is needed whenever any message can be held back: real
/// latency/bandwidth, or reordering jitter on any link.
bool needs_delivery_thread(const FabricConfig& cfg) {
  if (cfg.latency_us > 0.0 || cfg.bandwidth_Bps > 0.0) return true;
  if (cfg.faults.reorder_jitter_us > 0.0) return true;
  for (const auto& [link, fc] : cfg.link_faults) {
    if (fc.reorder_jitter_us > 0.0) return true;
  }
  return false;
}

}  // namespace

Fabric::Fabric(std::vector<Mailbox>* mailboxes, FabricConfig cfg)
    : mailboxes_(mailboxes),
      cfg_(std::move(cfg)),
      delayed_(needs_delivery_thread(cfg_)),
      rng_(cfg_.fault_seed) {
  MP_REQUIRE(mailboxes_ != nullptr && !mailboxes_->empty(),
             "Fabric: need at least one mailbox");
  MP_REQUIRE(!cfg_.controlled || !delayed_,
             "Fabric: controlled mode excludes latency/bandwidth/jitter — "
             "the exploration engine's choice sequence is the clock");
  MP_REQUIRE(!cfg_.controlled ||
                 (cfg_.faults.drop_prob == 0.0 && cfg_.faults.dup_prob == 0.0 &&
                  cfg_.link_faults.empty()),
             "Fabric: controlled mode excludes probabilistic faults — "
             "drops and duplicates are explicit engine choices");
  wire_seq_ = std::vector<std::atomic<uint64_t>>(mailboxes_->size());
  crash_fired_ = std::vector<std::atomic<uint8_t>>(cfg_.crash_plans.size());
  for (const CrashPlan& cp : cfg_.crash_plans) {
    MP_REQUIRE(cp.victim >= 0 &&
                   static_cast<size_t>(cp.victim) < mailboxes_->size() &&
                   cp.victim < 64,
               "Fabric: CrashPlan victim out of range");
  }
  if (delayed_) {
    delivery_thread_ = std::thread([this] { delivery_loop(); });
  }
}

Fabric::~Fabric() { shutdown(); }

const FaultConfig& Fabric::fault_for(int src, int dst) const {
  if (!cfg_.link_faults.empty()) {
    const auto it = cfg_.link_faults.find({src, dst});
    if (it != cfg_.link_faults.end()) return it->second;
  }
  return cfg_.faults;
}

// Counter-pair discipline (checked by FabricStats::validate()): the message
// count goes up first (relaxed), the byte count second with release. stats()
// reads the byte count first with acquire — so any snapshot that observes
// bytes also observes the messages they belong to, and "bytes > 0 with
// messages == 0" can never be seen, even mid-run.
void Fabric::count_sent(const Message& m) {
  messages_sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_sent_.fetch_add(m.wire_bytes(), std::memory_order_release);
}

void Fabric::deliver(Message m) {
  const uint64_t bytes = m.wire_bytes();
  if (!(*mailboxes_)[static_cast<size_t>(m.dst)].push(std::move(m))) {
    messages_dropped_.fetch_add(1, std::memory_order_relaxed);
    bytes_dropped_.fetch_add(bytes, std::memory_order_release);
  }
}

void Fabric::send(Message m) {
  MP_REQUIRE(m.dst >= 0 && static_cast<size_t>(m.dst) < mailboxes_->size(),
             "Fabric::send: bad destination rank");
  // Stamp the per-source wire sequence before any fault is drawn: a dup
  // fault then produces two copies with the same seq, and the destination
  // mailbox can discard the second one (idempotent delivery).
  if (m.src >= 0 && static_cast<size_t>(m.src) < wire_seq_.size()) {
    m.seq = 1 + wire_seq_[static_cast<size_t>(m.src)].fetch_add(
                    1, std::memory_order_relaxed);
  }

  // Fail-stop blackhole: traffic to or from a dead rank disappears into the
  // wire. The message still counts as accepted (the sender cannot tell),
  // and the fault counter is the release-ordered bounded half of the pair.
  if (is_dead(m.src) || is_dead(m.dst)) {
    count_sent(m);
    faults_crashed_.fetch_add(1, std::memory_order_release);
    maybe_trigger_crash();
    return;
  }
  // One-sided partition: src->dst swallowed, dst->src untouched.
  if (has_partitions_.load(std::memory_order_acquire) != 0 &&
      partitioned(m.src, m.dst)) {
    count_sent(m);
    faults_partitioned_.fetch_add(1, std::memory_order_release);
    maybe_trigger_crash();
    return;
  }

  // Controlled-scheduler mode: accept and park. Delivery, drops and
  // duplicates all become explicit engine choices (deliver_pending and
  // friends); crash plans never self-fire here.
  if (cfg_.controlled) {
    count_sent(m);
    std::lock_guard lock(mu_);
    ctrl_pending_.push_back(std::move(m));
    return;
  }

  const FaultConfig& fc = fault_for(m.src, m.dst);

  if (!delayed_) {
    // Immediate delivery. The fault RNG is shared, so draws take mu_.
    if (fc.drop_prob > 0.0 || fc.dup_prob > 0.0) {
      bool drop = false, dup = false;
      {
        std::lock_guard lock(mu_);
        drop = fc.drop_prob > 0.0 && rng_.next_double() < fc.drop_prob;
        dup = !drop && fc.dup_prob > 0.0 && rng_.next_double() < fc.dup_prob;
      }
      count_sent(m);
      // Release: a stats() snapshot that observes this fault (acquire load,
      // read before messages_sent) also observes the count_sent above, so
      // faults_* <= messages_sent holds in every snapshot.
      if (drop) {
        faults_dropped_.fetch_add(1, std::memory_order_release);
        maybe_trigger_crash();
        return;
      }
      if (dup) {
        faults_duplicated_.fetch_add(1, std::memory_order_release);
        deliver(m);  // the duplicate: copies the header, shares the segments
      }
    } else {
      count_sent(m);
    }
    deliver(std::move(m));
    maybe_trigger_crash();
    return;
  }

  using namespace std::chrono;
  const double service_us =
      cfg_.bandwidth_Bps > 0.0
          ? static_cast<double>(m.wire_bytes()) / cfg_.bandwidth_Bps * 1e6
          : 0.0;
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      // Refused, not sent: shutdown already began.
      messages_dropped_.fetch_add(1, std::memory_order_relaxed);
      bytes_dropped_.fetch_add(m.wire_bytes(), std::memory_order_release);
      return;
    }
    count_sent(m);
    if (fc.drop_prob > 0.0 && rng_.next_double() < fc.drop_prob) {
      faults_dropped_.fetch_add(1, std::memory_order_release);
      return;
    }
    int copies = 1;
    if (fc.dup_prob > 0.0 && rng_.next_double() < fc.dup_prob) {
      copies = 2;
      faults_duplicated_.fetch_add(1, std::memory_order_release);
    }
    const auto now = steady_clock::now();
    for (int i = 0; i < copies; ++i) {
      double jitter_us = 0.0;
      if (fc.reorder_jitter_us > 0.0) {
        jitter_us = rng_.uniform(0.0, fc.reorder_jitter_us);
        if (jitter_us > 0.0) {
          faults_reordered_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const auto delay = microseconds(
          static_cast<int64_t>(cfg_.latency_us + service_us + jitter_us));
      Message copy = (i + 1 < copies) ? m : std::move(m);
      pending_.push(Pending{now + delay, next_seq_++, std::move(copy)});
    }
    MP_ANNOTATE_CHANNEL_SEND(&pending_);
  }
  cv_.notify_one();
  maybe_trigger_crash();
}

Message Fabric::pending_peek(size_t i) const {
  std::lock_guard lock(mu_);
  MP_REQUIRE(i < ctrl_pending_.size(), "Fabric::pending_peek: bad index");
  return ctrl_pending_[i];
}

size_t Fabric::pending_count() const {
  std::lock_guard lock(mu_);
  return ctrl_pending_.size();
}

void Fabric::deliver_pending(size_t i) {
  MP_REQUIRE(cfg_.controlled, "Fabric::deliver_pending: not in controlled mode");
  Message m;
  {
    std::lock_guard lock(mu_);
    MP_REQUIRE(i < ctrl_pending_.size(), "Fabric::deliver_pending: bad index");
    m = std::move(ctrl_pending_[i]);
    ctrl_pending_.erase(ctrl_pending_.begin() +
                        static_cast<std::ptrdiff_t>(i));
  }
  // Outside mu_: deliver() takes the destination mailbox's lock.
  deliver(std::move(m));
}

void Fabric::drop_pending(size_t i) {
  MP_REQUIRE(cfg_.controlled, "Fabric::drop_pending: not in controlled mode");
  std::lock_guard lock(mu_);
  MP_REQUIRE(i < ctrl_pending_.size(), "Fabric::drop_pending: bad index");
  ctrl_pending_.erase(ctrl_pending_.begin() + static_cast<std::ptrdiff_t>(i));
  faults_dropped_.fetch_add(1, std::memory_order_release);
}

void Fabric::duplicate_pending(size_t i) {
  MP_REQUIRE(cfg_.controlled,
             "Fabric::duplicate_pending: not in controlled mode");
  std::lock_guard lock(mu_);
  MP_REQUIRE(i < ctrl_pending_.size(),
             "Fabric::duplicate_pending: bad index");
  // Identical copy, seq included and segments shared — exactly what the
  // probabilistic dup fault produces, so the mailbox dedup semantics under
  // test are the same.
  ctrl_pending_.push_back(ctrl_pending_[i]);
  faults_duplicated_.fetch_add(1, std::memory_order_release);
}

uint64_t Fabric::wire_seq_next(int src) const {
  MP_REQUIRE(src >= 0 && static_cast<size_t>(src) < wire_seq_.size(),
             "Fabric::wire_seq_next: bad rank");
  return 1 + wire_seq_[static_cast<size_t>(src)].load(
                 std::memory_order_acquire);
}

void Fabric::maybe_trigger_crash() {
  if (cfg_.crash_plans.empty() || cfg_.controlled) return;
  const uint64_t accepted = messages_sent_.load(std::memory_order_acquire);
  for (size_t i = 0; i < cfg_.crash_plans.size(); ++i) {
    const CrashPlan& cp = cfg_.crash_plans[i];
    if (accepted < cp.after_messages) continue;
    if (crash_fired_[i].exchange(1, std::memory_order_acq_rel) != 0) continue;
    kill_rank(cp.victim);
  }
}

void Fabric::kill_rank(int rank) {
  MP_REQUIRE(rank >= 0 && static_cast<size_t>(rank) < mailboxes_->size() &&
                 rank < 64,
             "Fabric::kill_rank: bad rank");
  const uint64_t bit = 1ULL << rank;
  // Counter-pair ordering: ranks_killed goes up BEFORE the dead bit is
  // published, so a blackholed message (which requires observing the bit)
  // can never be counted while a snapshot still reads ranks_killed == 0.
  // The loser of a concurrent double-kill backs its increment out.
  ranks_killed_.fetch_add(1, std::memory_order_release);
  if ((dead_mask_.fetch_or(bit, std::memory_order_acq_rel) & bit) != 0) {
    ranks_killed_.fetch_sub(1, std::memory_order_relaxed);
    return;  // already dead
  }
  // Outside all fabric locks: the callback may close mailboxes (which takes
  // the mailbox lock) or update cluster-wide liveness state.
  if (kill_cb_) kill_cb_(rank);
}

void Fabric::revive_rank(int rank) {
  MP_REQUIRE(rank >= 0 && static_cast<size_t>(rank) < mailboxes_->size() &&
                 rank < 64,
             "Fabric::revive_rank: bad rank");
  // A revived rank is a new incarnation: its wire sequence restarts at 1.
  // Receivers that kept SeqWindow state for the old incarnation would
  // silently discard everything the new one sends — that is the bug
  // Mailbox::reset_source() exists to fix (see test_vc).
  wire_seq_[static_cast<size_t>(rank)].store(0, std::memory_order_relaxed);
  dead_mask_.fetch_and(~(1ULL << rank), std::memory_order_acq_rel);
}

void Fabric::partition(int src, int dst) {
  std::lock_guard lock(part_mu_);
  partitioned_links_.insert({src, dst});
  has_partitions_.store(1, std::memory_order_release);
}

void Fabric::heal(int src, int dst) {
  std::lock_guard lock(part_mu_);
  partitioned_links_.erase({src, dst});
  if (partitioned_links_.empty()) {
    has_partitions_.store(0, std::memory_order_release);
  }
}

bool Fabric::partitioned(int src, int dst) const {
  std::lock_guard lock(part_mu_);
  return partitioned_links_.count({src, dst}) != 0;
}

Message Fabric::take_pending_locked() {
  Message m = std::move(const_cast<Pending&>(pending_.top()).msg);
  pending_.pop();
  MP_ANNOTATE_CHANNEL_RECV(&pending_);
  return m;
}

void Fabric::delivery_loop() {
  std::unique_lock lock(mu_);
  while (!stopping_) {
    if (pending_.empty()) {
      cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
      continue;
    }
    const auto when = pending_.top().deliver_at;
    // Wake immediately on stopping_: shutdown() flushes whatever is left,
    // so there is no reason to sit out the simulated delivery deadlines.
    if (cv_.wait_until(lock, when, [&] { return stopping_; })) {
      return;
    }
    const auto now = std::chrono::steady_clock::now();
    while (!pending_.empty() && pending_.top().deliver_at <= now) {
      Message m = take_pending_locked();
      lock.unlock();
      deliver(std::move(m));
      lock.lock();
    }
  }
}

void Fabric::quiesce() {
  if (!delayed_) return;
  // Collect under the lock, deliver outside it: deliver() takes the
  // destination mailbox's lock and fabric-lock -> mailbox-lock nesting is
  // avoidable here (nobody races new sends at a quiescent point).
  std::vector<Message> flush;
  {
    std::lock_guard lock(mu_);
    while (!pending_.empty()) flush.push_back(take_pending_locked());
  }
  for (Message& m : flush) deliver(std::move(m));
}

void Fabric::shutdown() {
  if (!delayed_) return;
  {
    std::lock_guard lock(mu_);
    if (stopping_ && !delivery_thread_.joinable()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (delivery_thread_.joinable()) delivery_thread_.join();
  // Flush anything still pending so no accepted message is lost; bounded
  // by queue length, never by simulated delivery deadlines.
  std::lock_guard lock(mu_);
  while (!pending_.empty()) deliver(take_pending_locked());
}

FabricStats Fabric::stats() const {
  // Acquire loads in dependency order: fault and byte counters first (their
  // increments are release and sequenced after the matching message-count
  // increment), message counters last. Whatever a snapshot observes, the
  // counters it is bounded by are observed too — FabricStats::validate()
  // holds on every snapshot, not just quiescent ones.
  FabricStats s;
  s.faults_dropped = faults_dropped_.load(std::memory_order_acquire);
  s.faults_duplicated = faults_duplicated_.load(std::memory_order_acquire);
  s.faults_reordered = faults_reordered_.load(std::memory_order_acquire);
  s.faults_crashed = faults_crashed_.load(std::memory_order_acquire);
  s.faults_partitioned = faults_partitioned_.load(std::memory_order_acquire);
  s.ranks_killed = ranks_killed_.load(std::memory_order_acquire);
  s.bytes_sent = bytes_sent_.load(std::memory_order_acquire);
  s.bytes_dropped = bytes_dropped_.load(std::memory_order_acquire);
  s.messages_sent = messages_sent_.load(std::memory_order_acquire);
  s.messages_dropped = messages_dropped_.load(std::memory_order_acquire);
  return s;
}

}  // namespace mp::vc
