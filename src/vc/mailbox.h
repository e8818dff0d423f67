// Blocking multi-producer multi-consumer mailbox holding inbound messages of
// one rank. Supports non-blocking polls (used by the runtime's comm thread)
// and bounded waits, plus a close() that wakes all waiters (shutdown path).
//
// Delivery is idempotent: each fabric-stamped message carries a per-source
// wire sequence number, and the mailbox keeps a per-source window (exactly-
// once filter) that discards any seq it has already accepted. A duplicated
// activation therefore reaches the runtime once, no matter how often the
// fabric's dup fault re-delivers it.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "support/analysis.h"
#include "support/error.h"
#include "vc/message.h"
#include "vc/seq_window.h"

namespace mp::vc {

class Mailbox {
 public:
  /// Enqueue a message. Returns false if the mailbox was closed. A
  /// duplicate (same src, same nonzero seq as an earlier accepted push) is
  /// silently discarded and counted, but still reports success — from the
  /// fabric's point of view the redundant copy was delivered.
  bool push(Message m) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      if (m.seq != 0 && !accept_seq_locked(m.src, m.seq)) {
        duplicates_filtered_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      queue_.push_back(std::move(m));
      // Happens-before edge for the lifecycle checker: the popper's
      // channel_recv joins this sender's clock.
      MP_ANNOTATE_CHANNEL_SEND(this);
    }
    cv_.notify_one();
    return true;
  }

  /// Non-blocking pop.
  std::optional<Message> try_pop() {
    std::lock_guard lock(mu_);
    return pop_locked();
  }

  /// Pop, waiting up to `timeout`. Returns nullopt on timeout, close or
  /// interrupt().
  std::optional<Message> pop_wait(std::chrono::microseconds timeout) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, timeout,
                 [&] { return closed_ || interrupted_ || !queue_.empty(); });
    interrupted_ = false;
    return pop_locked();
  }

  /// Hand every queued message to `out`, which must be empty, under one
  /// lock (the queues are swapped, nothing is copied); returns how many.
  /// A consumer draining a busy mailbox pays one lock round trip per batch
  /// instead of one per message.
  size_t take_all(std::deque<Message>& out) {
    std::lock_guard lock(mu_);
    return take_all_locked(out);
  }

  /// take_all(), waiting up to `timeout` for a first message. Returns 0 on
  /// timeout, close or interrupt().
  size_t take_all_wait(std::chrono::microseconds timeout,
                       std::deque<Message>& out) {
    std::unique_lock lock(mu_);
    cv_.wait_for(lock, timeout,
                 [&] { return closed_ || interrupted_ || !queue_.empty(); });
    interrupted_ = false;
    return take_all_locked(out);
  }

  /// End the current (or the next) pop_wait() early, message or not: the
  /// owner has something other than mail to look at (its run is over).
  void interrupt() {
    {
      std::lock_guard lock(mu_);
      interrupted_ = true;
    }
    cv_.notify_all();
  }

  /// Wake all waiters; subsequent pushes are rejected. Messages already
  /// enqueued can still be drained with try_pop().
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Accept pushes again after a close(). Used by Cluster::revive_rank in
  /// failure-tolerance tests; a production mailbox stays closed forever.
  void reopen() {
    std::lock_guard lock(mu_);
    closed_ = false;
  }

  /// Drop the exactly-once window kept for `src`. Required when a source
  /// rank is declared dead and a new incarnation re-appears with a fresh
  /// wire sequence (seq restarting at 1): without the reset every message
  /// of the new incarnation would be filtered as a duplicate of the old
  /// one's, silently blackholing a healthy peer.
  void reset_source(int src) {
    std::lock_guard lock(mu_);
    windows_.erase(src);
  }

  /// Collapse every per-source window to a plain high-water mark: the
  /// watermark jumps to the highest seq ever accepted and the out-of-order
  /// set is cleared. Only safe at a quiescent point where no message with a
  /// seq at or below that maximum can still arrive (between persistent-
  /// runtime submissions, after the job's closing barrier and a fabric
  /// quiesce): the gaps below the maximum belong to messages the fabric
  /// genuinely dropped, which the window would otherwise remember forever —
  /// `above` grows without bound across submissions on a lossy fabric.
  void rebase_windows() {
    std::lock_guard lock(mu_);
    for (auto& [src, w] : windows_) {
      (void)src;
      w.rebase();
    }
  }

  /// Total out-of-order seqs currently remembered across all sources (the
  /// state rebase_windows() collapses). Tests assert this stays bounded
  /// across repeated submissions instead of accumulating drop gaps.
  size_t window_backlog() const {
    std::lock_guard lock(mu_);
    size_t n = 0;
    for (const auto& [src, w] : windows_) {
      (void)src;
      n += w.backlog();
    }
    return n;
  }

  /// Copy of the per-source dedup windows, ordered by source rank. The
  /// mp-explore engine folds this into its state fingerprints; tests use
  /// it to assert window shape directly.
  std::vector<std::pair<int, SeqWindow>> window_snapshot() const {
    std::lock_guard lock(mu_);
    return {windows_.begin(), windows_.end()};
  }

  bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard lock(mu_);
    return queue_.size();
  }

  /// Messages discarded by the per-source sequence filter.
  uint64_t duplicates_filtered() const {
    return duplicates_filtered_.load(std::memory_order_relaxed);
  }

 private:
  bool accept_seq_locked(int src, uint64_t seq) {
    return windows_[src].accept(seq);
  }

  std::optional<Message> pop_locked() {
    if (queue_.empty()) return std::nullopt;
    Message m = std::move(queue_.front());
    queue_.pop_front();
    MP_ANNOTATE_CHANNEL_RECV(this);
    return m;
  }

  size_t take_all_locked(std::deque<Message>& out) {
    MP_ASSERT(out.empty(), "Mailbox::take_all: output queue not empty");
    const size_t n = queue_.size();
    if (n == 0) return 0;
    out.swap(queue_);
    MP_ANNOTATE_CHANNEL_RECV(this);
    return n;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  std::map<int, SeqWindow> windows_;
  std::atomic<uint64_t> duplicates_filtered_{0};
  bool closed_ = false;
  bool interrupted_ = false;
};

}  // namespace mp::vc
