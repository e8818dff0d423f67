#include "ptg/context.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/graph_verify.h"
#include "support/analysis.h"
#include "support/error.h"
#include "support/log.h"
#include "vc/message.h"

namespace mp::ptg {

using namespace std::chrono_literals;

namespace {

/// Max tasks migrated per STEAL_REPLY (the victim also never gives away
/// more than half of its ready queue).
constexpr size_t kStealMaxBatch = 16;
/// Seed for randomized victim selection (mixed with the rank id).
constexpr uint64_t kStealSeed = 0x57ea15eed5ULL;
/// Watchdog deadline floor, as a multiple of the base timeout, while a
/// rank is locally complete and waits for the global JOB_DONE: global
/// termination can legitimately trail the slowest rank's tail by a long
/// way.
constexpr double kWatchdogGlobalScale = 8.0;

bool env_verify_enabled() {
  const char* e = std::getenv("MP_VERIFY");
  return e != nullptr && *e != '\0' && std::string(e) != "0";
}

/// Clears a serial-entry flag when the guarded call returns or unwinds.
struct ClearOnExit {
  std::atomic<bool>& flag;
  ~ClearOnExit() { flag.store(false); }
};

// ---- the data-plane codec ---------------------------------------------------
// encode_buf/decode_buf are the only place a buffer's doubles are copied
// into or out of a message (tools/lint.py: bulk-copy-outside-codec). A
// buffer of at most Context::kEagerLimit doubles is copied inline into the
// header as an 8-byte count plus the doubles, and a larger one rides as the
// message's next segment, i.e. the handle itself. The serialized size is
// the same either way (a segment is charged its count plus its doubles), so
// the fabric's byte counts do not depend on the encoding. A view of a
// Global Array block encodes like any other buffer: above the limit the
// view handle itself is the segment, at or below it the doubles are copied
// inline and the receiver gets an owned copy.
//
// A *tagged* buffer is preceded by a BufTag byte (steal replies, whose task
// inputs may be null). An untagged one is the message's only buffer
// (activations): it is a segment iff the message carries one.

enum BufTag : uint8_t { kNoBuf = 0, kInlineBuf = 1, kSegmentBuf = 2 };

void encode_buf(vc::WireWriter& w, std::vector<DataBuf>& segments,
                DataBuf buf, bool tagged) {
  const bool segment = buf && buf->size() > Context::kEagerLimit;
  if (tagged) {
    w.put<uint8_t>(!buf ? kNoBuf : segment ? kSegmentBuf : kInlineBuf);
  }
  if (!buf) {
    MP_REQUIRE(tagged, "encode_buf: untagged buffer must not be null");
    return;
  }
  if (segment) {
    segments.push_back(std::move(buf));
  } else {
    w.put_doubles(buf->data(), buf->size());
  }
}

/// Inverse of encode_buf. Segments are moved out of `segments` (so the
/// consumer can end up holding the only handle); `next` counts the ones
/// consumed so far.
DataBuf decode_buf(vc::WireReader& r, std::vector<DataBuf>& segments,
                   size_t& next, bool tagged) {
  uint8_t tag = next < segments.size() ? kSegmentBuf : kInlineBuf;
  if (tagged) tag = r.get<uint8_t>();
  if (tag == kNoBuf) return nullptr;
  if (tag == kSegmentBuf) {
    MP_REQUIRE(next < segments.size() && segments[next] != nullptr,
               "decode_buf: missing message segment");
    DataBuf buf = std::move(segments[next++]);
    // The receiver takes the handle over: a buffer the sender handed off
    // (MP_ANNOTATE_BUF_MIGRATE) belongs to this side from here on.
    MP_ANNOTATE_BUF_RECEIVE(buf.get());
    return buf;
  }
  MP_REQUIRE(tag == kInlineBuf, "decode_buf: bad buffer tag");
  // Pooled (annotated) buffer so the lifecycle checker tracks the received
  // copy exactly like a locally-produced one.
  auto data = make_buf_pooled(0);
  data->assign(r.get_doubles());
  return data;
}

}  // namespace

Context::Context(vc::RankCtx& rank_ctx, const Taskpool& pool, Options opts)
    : rctx_(rank_ctx),
      pool_(pool),
      opts_(opts),
      epoch_(std::chrono::steady_clock::now()) {
  MP_REQUIRE(opts_.num_workers >= 1, "Context: need at least one worker");
  pool_.validate();
  sched_ = std::make_unique<Scheduler>(opts_.num_workers);
  worker_events_.resize(static_cast<size_t>(opts_.num_workers));
  load_hints_.assign(static_cast<size_t>(nranks()), -1);
  steal_rng_ = Rng(kStealSeed ^
                   (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(rank() + 1)));
  if (rank() == 0) {
    rank_done_seen_.assign(static_cast<size_t>(nranks()), 0);
    rank_done_mask_.assign(static_cast<size_t>(nranks()), 0);
  }
  if (failure_active()) {
    MP_REQUIRE(nranks() <= 64,
               "failure detection supports at most 64 ranks (dead-set mask)");
    lineage_.resize(static_cast<size_t>(nranks()));
    last_heard_.resize(static_cast<size_t>(nranks()));
    peer_suspect_.assign(static_cast<size_t>(nranks()), 0);
    suspect_since_.resize(static_cast<size_t>(nranks()));
  }
}

StealStats Context::steal_stats() const {
  // Counter-pair discipline (cf. FabricStats/SchedStats): each bounded
  // counter is read with acquire BEFORE the counter that bounds it, and its
  // increments are release-ordered after the bound's, so validate() holds
  // on a mid-run snapshot.
  StealStats s;
  s.credits_received = st_credits_received_.load(std::memory_order_acquire);
  s.credits_sent = st_credits_sent_.load(std::memory_order_acquire);
  s.tasks_migrated_out = st_migrated_out_.load(std::memory_order_acquire);
  s.tasks_migrated_in = st_migrated_in_.load(std::memory_order_acquire);
  s.replies_received = st_replies_received_.load(std::memory_order_acquire);
  s.replies_sent = st_replies_sent_.load(std::memory_order_acquire);
  s.requests_received = st_requests_received_.load(std::memory_order_acquire);
  s.requests_sent = st_requests_sent_.load(std::memory_order_acquire);
  return s;
}

FailureStats Context::failure_stats() const {
  // Recovery-work counters are read before deaths_confirmed (and are
  // incremented after it, release-ordered), so "adopted > 0 with deaths ==
  // 0" can never be observed. The equality invariants are meaningful for
  // post-run snapshots only (see the struct's comment).
  FailureStats s;
  s.tasks_adopted = fs_tasks_adopted_.load(std::memory_order_acquire);
  s.lineage_replayed = fs_lineage_replayed_.load(std::memory_order_acquire);
  s.tasks_reinjected = fs_tasks_reinjected_.load(std::memory_order_acquire);
  s.suspicions_cleared =
      fs_suspicions_cleared_.load(std::memory_order_acquire);
  s.deaths_confirmed = fs_deaths_confirmed_.load(std::memory_order_acquire);
  s.watchdog_resets_on_death =
      fs_watchdog_resets_on_death_.load(std::memory_order_acquire);
  s.suspicions = fs_suspicions_.load(std::memory_order_acquire);
  s.probes_answered = fs_probes_answered_.load(std::memory_order_acquire);
  s.probes_sent = fs_probes_sent_.load(std::memory_order_acquire);
  s.heartbeats_sent = fs_heartbeats_sent_.load(std::memory_order_acquire);
  s.heartbeats_received =
      fs_heartbeats_received_.load(std::memory_order_acquire);
  s.fenced_dropped = fs_fenced_dropped_.load(std::memory_order_acquire);
  s.dup_deposits_dropped =
      fs_dup_deposits_dropped_.load(std::memory_order_acquire);
  return s;
}

std::vector<analysis::Diag> Context::validate_plan() const {
  return analysis::verify_graph(pool_, nranks());
}

void Context::enumerate_startup() {
  for (size_t ci = 0; ci < pool_.num_classes(); ++ci) {
    const TaskClass& c = pool_.cls(static_cast<int16_t>(ci));
    for (const Params& p : c.enumerate_rank(rank())) {
      MP_DCHECK(c.rank_of(p) == rank(),
                "enumerate_rank returned instance not owned by this rank");
      expected_.fetch_add(1, std::memory_order_relaxed);
      if (c.num_task_inputs(p) == 0) {
        make_ready(TaskKey{c.cls, p}, {});
      }
    }
  }
}

void Context::wake_one() {
  // Taking wake_mu_ orders this notify against a worker's predicate check,
  // closing the lost-wakeup window between its failed try_pop and its wait.
  std::lock_guard lock(wake_mu_);
  wake_cv_.notify_one();
}

void Context::wake_all() {
  std::lock_guard lock(wake_mu_);
  wake_cv_.notify_all();
}

ReadyTask Context::build_task(const TaskKey& key,
                              std::vector<DataBuf> inputs) {
  ReadyTask t;
  t.key = key;
  t.inputs = std::move(inputs);
  t.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const TaskClass& c = pool_.cls(key.cls);
  t.priority = c.priority ? c.priority(key.p) : 0.0;
  return t;
}

void Context::make_ready(const TaskKey& key, std::vector<DataBuf> inputs) {
  sched_->push(build_task(key, std::move(inputs)), -1);
  wake_one();
}

void Context::deposit(const TaskKey& key, int slot, DataBuf buf,
                      std::vector<ReadyTask>* batch) {
  MP_REQUIRE(slot >= 0 && slot < 128, "deposit: bad input slot");
  const bool ft = failure_active();
  Shard& shard = shards_[TaskKeyHash{}(key) % kShards];
  std::vector<DataBuf> ready_inputs;
  {
    std::lock_guard lock(shard.mu);
    // Recovery re-executes whole chains, so a replayed activation can race
    // (or trail) the original delivery. With the failure machinery on,
    // deposits are idempotent: a second copy — for an already-activated key
    // or an already-filled slot — is dropped and counted, not fatal.
    if (ft && shard.activated.count(key) != 0) {
      fs_dup_deposits_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Pending& e = shard.map[key];
    if (!e.initialized) {
      e.threshold = pool_.cls(key.cls).num_task_inputs(key.p);
      e.initialized = true;
      MP_REQUIRE(e.threshold > 0,
                 "deposit into a task class with no task inputs");
    }
    if (e.inputs.size() <= static_cast<size_t>(slot)) {
      e.inputs.resize(static_cast<size_t>(slot) + 1);
    }
    if (e.inputs[static_cast<size_t>(slot)] != nullptr) {
      if (ft) {
        fs_dup_deposits_dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      MP_REQUIRE(false, "double deposit into the same input slot");
    }
    e.inputs[static_cast<size_t>(slot)] = std::move(buf);
    // The shard is a hand-off point: the depositing thread publishes the
    // buffer, the thread completing the threshold takes the whole set over.
    MP_ANNOTATE_CHANNEL_SEND(&shard);
    progress_.fetch_add(1, std::memory_order_relaxed);
    if (++e.arrived < e.threshold) return;
    MP_ANNOTATE_CHANNEL_RECV(&shard);
    ready_inputs = std::move(e.inputs);
    shard.map.erase(key);
    if (ft) shard.activated.insert(key);
  }
  if (ft) {
    // A completed key homed on another rank reached us through recovery
    // rerouting. It must not run (or count) before this rank has formally
    // adopted it — park it until handle_confirmed_death's sweep; if the
    // adoption already happened, fall through and schedule normally.
    const int home = pool_.cls(key.cls).rank_of(key.p);
    if (home != rank()) {
      std::lock_guard lock(adopt_mu_);
      if (adopted_keys_.count(key) == 0) {
        held_ready_.emplace(key, std::move(ready_inputs));
        return;
      }
    }
  }
  if (batch) {
    batch->push_back(build_task(key, std::move(ready_inputs)));
  } else {
    make_ready(key, std::move(ready_inputs));
  }
}

void Context::execute_task(ReadyTask t, int wid) {
  const TaskClass& c = pool_.cls(t.key.cls);
  TaskCtx tctx(this, t.key, std::move(t.inputs), wid);

  MP_ANNOTATE_TASK_BEGIN(c.name.c_str(), t.key.p.data(), 3);
  for (const DataBuf& in : tctx.inputs_view()) {
    if (in) MP_ANNOTATE_BUF_READ(in.get());
  }
  const double t0 = opts_.enable_tracing ? now() : 0.0;
  c.body(tctx);
  for (const DataBuf& out : tctx.outputs()) {
    if (out) MP_ANNOTATE_BUF_WRITE(out.get());
  }
  if (opts_.enable_tracing) {
    worker_events_[static_cast<size_t>(wid)].push_back(
        TraceEvent{rank(), wid, t.key.cls, t.key.p, t0, now(), false});
  }

  // Route outputs to consumers. Locally-completed activations are gathered
  // into one batch and published with a single push_batch onto this
  // worker's own heap (one lock/notify round trip for all siblings).
  if (c.route_outputs) {
    std::vector<ReadyTask> batch;
    std::vector<OutRoute> routes;
    c.route_outputs(t.key.p, routes);
    std::vector<DataBuf>& outs = tctx.outputs();
    for (size_t i = 0; i < routes.size(); ++i) {
      const OutRoute& r = routes[i];
      const auto s = static_cast<size_t>(r.out_slot);
      // Only an output's last route moves its handle, so a slot is non-null
      // at every route unless the body never set it.
      MP_REQUIRE(s < outs.size() && outs[s] != nullptr,
                 "task '" + c.name + "' routed output slot " +
                     std::to_string(r.out_slot) + " but never set it");
      // The last route of an output takes the producer's handle by move: a
      // sole consumer then holds the only handle and may mutate it in place.
      const bool last_use =
          std::none_of(routes.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                       routes.end(), [&](const OutRoute& later) {
                         return later.out_slot == r.out_slot;
                       });
      DataBuf buf = last_use ? std::move(outs[s]) : outs[s];
      // Under failure tolerance the consumer may live on a stand-in rank
      // (its home is confirmed dead); route to wherever it lives *now*.
      const int dst = failure_active()
                          ? effective_rank(r.consumer)
                          : pool_.cls(r.consumer.cls).rank_of(r.consumer.p);
      if (dst == rank()) {
        deposit(r.consumer, r.in_slot, std::move(buf), &batch);
      } else {
        if (failure_active()) record_lineage(dst, r.consumer, r.in_slot, buf);
        post_activation(dst, r.consumer, r.in_slot, std::move(buf));
      }
    }
    if (!batch.empty()) {
      const size_t n = batch.size();
      sched_->push_batch(std::move(batch), wid);
      // This worker keeps one task for itself (it pops its own heap
      // next); any extra siblings are worth waking peers for.
      if (n > 1) {
        wake_all();
      } else {
        wake_one();
      }
    }
  }

  MP_ANNOTATE_TASK_END();
  progress_.fetch_add(1, std::memory_order_relaxed);
  if (t.origin >= 0 && t.origin != rank()) {
    // A migrated-in task: its completion belongs to the home rank's
    // termination count. Send a credit instead of counting it here.
    vc::WireWriter w;
    w.put<int64_t>(static_cast<int64_t>(sched_->size()));
    w.put<int16_t>(t.key.cls);
    for (int32_t x : t.key.p) w.put<int32_t>(x);
    vc::Message m;
    m.src = rank();
    m.dst = t.origin;
    m.tag = kTagCredit;
    m.header = w.take();
    post(std::move(m));
    foreign_pending_.fetch_sub(1, std::memory_order_relaxed);
    // Release after the migrated-in count it is bounded by (the bound was
    // incremented before this task was even visible to pop).
    st_credits_sent_.fetch_add(1, std::memory_order_release);
    return;
  }
  executed_.fetch_add(1, std::memory_order_acq_rel);
  maybe_local_complete();
}

void Context::post(vc::Message m) {
  std::lock_guard lock(out_mu_);
  outbox_.push_back(std::move(m));
  // The outbox is a channel: segment buffers this worker wrote are read
  // next by the comm thread's send and then by a consumer on another rank.
  MP_ANNOTATE_CHANNEL_SEND(&outbox_);
}

void Context::post_activation(int dst, const TaskKey& consumer, int slot,
                              DataBuf buf) {
  vc::Message m;
  m.src = rank();
  m.dst = dst;
  m.tag = kTagActivate;
  vc::WireWriter w;
  // Load hint piggybacked on every activation: receivers feed it to their
  // steal agent's victim selection.
  w.put<int64_t>(static_cast<int64_t>(sched_->size()));
  w.put<int16_t>(consumer.cls);
  for (int32_t x : consumer.p) w.put<int32_t>(x);
  w.put<int8_t>(static_cast<int8_t>(slot));
  encode_buf(w, m.segments, std::move(buf), /*tagged=*/false);
  m.header = w.take();
  post(std::move(m));
  remote_sent_.fetch_add(1, std::memory_order_relaxed);
}

void Context::maybe_local_complete() {
  // Each own/adopted task bumps exactly one of executed_ /
  // st_credits_received_ (post-confirmation credits from a dead holder are
  // fenced before reaching the counter), so the sum is monotone; expected_
  // only grows (adoption), and it grows before the adopted work can run.
  // `<` rather than `!=`: after a death expands expected_, a transient
  // equality at the *old* value must not be mistaken for completion twice —
  // the latch below plus the epoch reset in handle_confirmed_death handle
  // re-reporting.
  if (executed_.load(std::memory_order_acquire) +
          st_credits_received_.load(std::memory_order_acquire) <
      expected_.load(std::memory_order_acquire)) {
    return;
  }
  if (local_complete_.exchange(true, std::memory_order_acq_rel)) return;
  if (!global_termination()) {
    done_.store(true, std::memory_order_release);
    wake_all();
    return;
  }
  // Global termination: report local completion to the coordinator, tagged
  // with this rank's confirmed-dead mask (the termination epoch). This rank
  // keeps its comm thread (steal agent, failure detector) running until
  // JOB_DONE — an idle-but-done rank still serves steals and heartbeats.
  const uint64_t mask = confirmed_dead_mask_.load(std::memory_order_acquire);
  if (rank() == 0) {
    note_rank_done(0, mask);
  } else {
    vc::WireWriter w;
    w.put<uint64_t>(mask);
    rctx_.send(0, kTagLocalDone, w.take());
  }
}

bool Context::termination_check_locked() {
  // A rank counts as done when it is dead (its lost work was adopted and is
  // counted by the adopters) or when it has reported local completion with
  // a dead-set view covering rank 0's: a pre-death report is stale — the
  // reporter has since adopted work or must re-check against replays.
  const uint64_t my_dead = confirmed_dead_mask_.load(std::memory_order_acquire);
  for (int r = 0; r < nranks(); ++r) {
    if ((my_dead >> r) & 1ULL) continue;
    if (!rank_done_seen_[static_cast<size_t>(r)]) return false;
    if ((rank_done_mask_[static_cast<size_t>(r)] & my_dead) != my_dead) {
      return false;
    }
  }
  return true;
}

bool Context::note_rank_done(int r, uint64_t dead_mask) {
  bool broadcast = false;
  bool fresh = false;
  {
    std::lock_guard lock(term_mu_);
    if (r < 0 || static_cast<size_t>(r) >= rank_done_seen_.size()) {
      return false;
    }
    fresh = rank_done_seen_[static_cast<size_t>(r)] == 0;
    rank_done_seen_[static_cast<size_t>(r)] = 1;
    rank_done_mask_[static_cast<size_t>(r)] |= dead_mask;
    if (termination_check_locked() && !job_done_broadcast_) {
      job_done_broadcast_ = true;
      broadcast = true;
    }
  }
  if (broadcast) {
    // Every live rank is locally done at the current epoch; by the credit
    // scheme no migrated task is uncounted anywhere, and by the epoch
    // reconciliation no adopted task is unexecuted — the whole DAG ran.
    for (int p = 1; p < nranks(); ++p) {
      if ((confirmed_dead_mask_.load(std::memory_order_acquire) >> p) & 1ULL) {
        continue;
      }
      rctx_.send(p, kTagJobDone, {});
    }
    done_.store(true, std::memory_order_release);
    wake_all();
  }
  return fresh;
}

namespace {

std::chrono::microseconds ms_to_us(double v) {
  return std::chrono::microseconds(static_cast<int64_t>(v * 1000.0));
}

}  // namespace

void Context::steal_agent_tick(std::chrono::steady_clock::time_point now_tp) {
  if (done_.load(std::memory_order_acquire)) return;
  if (steal_outstanding_.load(std::memory_order_relaxed) != 0) {
    if (now_tp < steal_reply_deadline_) return;
    // The reply was probably lost in the fabric; allow a fresh request. A
    // late reply, should it still arrive, is absorbed normally.
    steal_outstanding_.store(0, std::memory_order_relaxed);
  }
  if (sched_->size() > 0 ||
      active_workers_.load(std::memory_order_relaxed) > 0 ||
      now_tp < next_steal_at_) {
    return;
  }
  // Victim selection: the best (largest) load hint heard so far, falling
  // back to a seeded random peer when nobody advertised work. A hint of 1
  // is not worth a request — the victim keeps its last task. Confirmed-dead
  // peers are never victims: the request would blackhole and the reply
  // timeout would throttle stealing for everyone.
  const uint64_t dead = confirmed_dead_mask_.load(std::memory_order_acquire);
  int victim = -1;
  int64_t best = 1;
  for (int p = 0; p < nranks(); ++p) {
    if (p == rank() || ((dead >> p) & 1ULL)) continue;
    if (load_hints_[static_cast<size_t>(p)] > best) {
      best = load_hints_[static_cast<size_t>(p)];
      victim = p;
    }
  }
  if (victim < 0) {
    for (int tries = 0; tries < 4 && victim < 0; ++tries) {
      const auto off =
          1 + steal_rng_.next_below(static_cast<uint64_t>(nranks() - 1));
      const int cand = (rank() + static_cast<int>(off)) % nranks();
      if (((dead >> cand) & 1ULL) == 0) victim = cand;
    }
    if (victim < 0) return;  // everyone drawn was dead; try next tick
  }
  // Consume the hint so an empty-handed victim is not hammered while its
  // next reply (which refreshes the hint) is in flight.
  if (load_hints_[static_cast<size_t>(victim)] > 0) {
    load_hints_[static_cast<size_t>(victim)] = 0;
  }
  st_requests_sent_.fetch_add(1, std::memory_order_relaxed);
  steal_outstanding_.store(1, std::memory_order_relaxed);
  vc::WireWriter w;
  w.put<int64_t>(static_cast<int64_t>(sched_->size()));
  rctx_.send(victim, kTagStealRequest, w.take());
  next_steal_at_ = now_tp + ms_to_us(opts_.steal_cooldown_ms);
  steal_reply_deadline_ = now_tp + ms_to_us(opts_.steal_reply_timeout_ms);
}

void Context::serve_steal_request(const vc::Message& msg) {
  st_requests_received_.fetch_add(1, std::memory_order_relaxed);
  try {
    vc::WireReader r(msg.header);
    const int64_t thief_load = r.get<int64_t>();
    if (msg.src >= 0 && static_cast<size_t>(msg.src) < load_hints_.size()) {
      load_hints_[static_cast<size_t>(msg.src)] = thief_load;
    }
  } catch (...) {
    // Malformed request: answer empty-handed rather than unwind.
  }
  // Steal-half policy: give away at most half of the ready queue (capped),
  // and only tasks that are locally owned and migratable. Whatever the
  // harvest popped but cannot ship goes straight back.
  std::vector<ReadyTask> batch;
  const size_t avail = sched_->size();
  if (!done_.load(std::memory_order_acquire) && avail >= 2) {
    const size_t want = std::min<size_t>(avail / 2, kStealMaxBatch);
    std::vector<ReadyTask> popped, keep;
    sched_->harvest(popped, want);
    for (auto& t : popped) {
      const bool foreign = t.origin >= 0 && t.origin != rank();
      if (!foreign && pool_.cls(t.key.cls).migratable) {
        batch.push_back(std::move(t));
      } else {
        keep.push_back(std::move(t));
      }
    }
    if (!keep.empty()) {
      sched_->push_batch(std::move(keep), -1);
      // A worker could have observed an empty queue during the harvest
      // window and gone to sleep; the re-push must not be lost.
      wake_all();
    }
  }
  vc::WireWriter w;
  std::vector<DataBuf> segments;
  w.put<int64_t>(static_cast<int64_t>(sched_->size()));
  w.put<uint32_t>(static_cast<uint32_t>(batch.size()));
  for (ReadyTask& t : batch) {
    w.put<int16_t>(t.key.cls);
    for (int32_t x : t.key.p) w.put<int32_t>(x);
    w.put<double>(t.priority);
    w.put<uint32_t>(static_cast<uint32_t>(t.inputs.size()));
    for (DataBuf& in : t.inputs) {
      // A handle the victim gives up (its only one, shipped as a segment,
      // not retained below) now belongs to the thief: any further local
      // access is an MPA007 finding until the thief's decode takes it over.
      // An inline copy, or a buffer a task still queued here shares, stays
      // the victim's.
      if (in && !failure_active() && in.use_count() == 1 &&
          in->size() > kEagerLimit) {
        MP_ANNOTATE_BUF_MIGRATE(in.get());
      }
      // Under failure detection the entry below keeps the handles, so the
      // reply shares them; otherwise the thief gets the victim's handle.
      encode_buf(w, segments, failure_active() ? in : std::move(in),
                 /*tagged=*/true);
    }
    // Every migration stays keyed until its credit arrives. Failure
    // detection also retains the input handles (not the contents) so the
    // task can be re-injected locally if the thief dies first; re-injection
    // REHOMEs them.
    OutstandingMig om;
    om.holder = msg.src;
    om.priority = t.priority;
    if (failure_active()) om.inputs = std::move(t.inputs);
    outstanding_migs_[t.key] = std::move(om);
  }
  // Reply counted before the tasks it carries (release), so a snapshot
  // observing migrated-out tasks always observes the reply too.
  st_replies_sent_.fetch_add(1, std::memory_order_relaxed);
  st_migrated_out_.fetch_add(batch.size(), std::memory_order_release);
  rctx_.send(msg.src, kTagStealReply, w.take(), std::move(segments));
  if (!batch.empty()) progress_.fetch_add(1, std::memory_order_relaxed);
}

void Context::absorb_steal_reply(vc::Message& msg) {
  st_replies_received_.fetch_add(1, std::memory_order_relaxed);
  steal_outstanding_.store(0, std::memory_order_relaxed);
  size_t n = 0;
  try {
    vc::WireReader r(msg.header);
    size_t next_segment = 0;
    const int64_t victim_load = r.get<int64_t>();
    if (msg.src >= 0 && static_cast<size_t>(msg.src) < load_hints_.size()) {
      load_hints_[static_cast<size_t>(msg.src)] = victim_load;
    }
    n = r.get<uint32_t>();
    std::vector<ReadyTask> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ReadyTask t;
      t.key.cls = r.get<int16_t>();
      for (auto& x : t.key.p) x = r.get<int32_t>();
      t.priority = r.get<double>();
      t.origin = msg.src;
      t.seq = seq_.fetch_add(1, std::memory_order_relaxed);
      const auto nin = r.get<uint32_t>();
      t.inputs.resize(nin);
      for (uint32_t s = 0; s < nin; ++s) {
        t.inputs[s] = decode_buf(r, msg.segments, next_segment,
                                 /*tagged=*/true);
      }
      tasks.push_back(std::move(t));
    }
    MP_REQUIRE(next_segment == msg.segments.size(),
               "steal reply: unclaimed message segments");
    if (!tasks.empty()) {
      foreign_pending_.fetch_add(static_cast<int64_t>(tasks.size()),
                                 std::memory_order_relaxed);
      // Bound for credits_sent: incremented (release) before the tasks
      // become poppable, so a credit can never be observed without it.
      st_migrated_in_.fetch_add(tasks.size(), std::memory_order_release);
      sched_->push_batch(std::move(tasks), -1);
      wake_all();
      progress_.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    record_error();
    return;
  }
  if (n == 0) {
    next_steal_at_ =
        std::chrono::steady_clock::now() + ms_to_us(opts_.steal_backoff_ms);
  }
}

void Context::record_error(const std::string& reason) {
  {
    std::lock_guard lock(error_mu_);
    if (!first_error_) first_error_ = std::current_exception();
  }
  // Tell every other rank: their remaining tasks may depend on activations
  // this rank will never send, so they must unwind too or the job
  // deadlocks at scale. The reason (when given) rides in the header so
  // peers surface the actual cause, not a generic task failure.
  if (!abort_broadcast_.exchange(true)) {
    const vc::Payload header(reason.begin(), reason.end());
    for (int r = 0; r < nranks(); ++r) {
      if (r == rank()) continue;
      rctx_.send(r, kTagAbort, header);
    }
  }
  // Force a shutdown: remaining tasks will never run, but every thread
  // must unwind cleanly so run() can rethrow.
  done_.store(true, std::memory_order_release);
  wake_all();
}

int Context::effective_rank(const TaskKey& key) const {
  // The re-homing rules themselves live in ptg/protocol.h so the
  // mp-explore model checker adopts with exactly this arithmetic.
  const int home = pool_.cls(key.cls).rank_of(key.p);
  const uint64_t dead = confirmed_dead_mask_.load(std::memory_order_acquire);
  if (dead == 0 || ((dead >> home) & 1ULL) == 0) return home;
  switch (opts_.on_rank_failure) {
    case FailurePolicy::kRetry:
      // Next live rank after the home in ring order: keeps the original
      // distribution for everything except the dead rank's keys.
      return protocol::retry_standin(home, dead, nranks());
    case FailurePolicy::kDegrade: {
      // Rebuild over the surviving communicator: hash over the ordered
      // survivor list. Deterministic in (key, dead set) only. Classes with
      // a recovery_key hash the *group* id, not the individual key (see
      // protocol::recovery_group_hash on the co-adoption invariant).
      const TaskClass& c = pool_.cls(key.cls);
      const uint64_t h =
          c.recovery_key
              ? protocol::recovery_group_hash(key.cls, c.recovery_key(key.p))
              : static_cast<uint64_t>(TaskKeyHash{}(key));
      const int cand = protocol::degrade_standin(h, dead, nranks());
      return cand < 0 ? home : cand;
    }
    case FailurePolicy::kAbort:
      break;  // escalating anyway; keep routes stable
  }
  return home;
}

void Context::record_lineage(int dst, const TaskKey& consumer, int slot,
                             const DataBuf& buf) {
  std::lock_guard lock(lin_mu_);
  lineage_[static_cast<size_t>(dst)].push_back(
      LineageEntry{consumer, static_cast<int8_t>(slot), buf});
}

namespace {
// Heartbeat payload flags.
constexpr uint8_t kBeat = 0;
constexpr uint8_t kProbe = 1;
constexpr uint8_t kProbeAnswer = 2;
}  // namespace

void Context::send_heartbeat(int dst, uint8_t flag) {
  vc::WireWriter w;
  w.put<int64_t>(static_cast<int64_t>(sched_->size()));
  w.put<uint8_t>(flag);
  rctx_.send(dst, kTagHeartbeat, w.take());
  fs_heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
}

void Context::on_heartbeat(const vc::Message& msg) {
  fs_heartbeats_received_.fetch_add(1, std::memory_order_relaxed);
  try {
    vc::WireReader r(msg.header);
    const int64_t load = r.get<int64_t>();
    if (msg.src >= 0 && static_cast<size_t>(msg.src) < load_hints_.size()) {
      load_hints_[static_cast<size_t>(msg.src)] = load;
    }
    const uint8_t flag = r.get<uint8_t>();
    if (flag == kProbe) {
      // Answer instantly: a slow-but-alive peer clears its suspicion at
      // the prober, a dead one cannot answer — that asymmetry is the whole
      // suspicion protocol.
      send_heartbeat(msg.src, kProbeAnswer);
    } else if (flag == kProbeAnswer) {
      fs_probes_answered_.fetch_add(1, std::memory_order_release);
    }
  } catch (...) {
    // Malformed heartbeat: liveness was already refreshed at pop; ignore.
  }
}

void Context::detector_tick(std::chrono::steady_clock::time_point now_tp) {
  if (done_.load(std::memory_order_acquire)) return;
  const uint64_t dead = confirmed_dead_mask_.load(std::memory_order_acquire);
  if (now_tp >= next_heartbeat_) {
    for (int p = 0; p < nranks(); ++p) {
      if (p == rank() || ((dead >> p) & 1ULL)) continue;
      send_heartbeat(p, kBeat);
    }
    next_heartbeat_ = now_tp + ms_to_us(opts_.heartbeat_interval_ms);
  }
  for (int p = 0; p < nranks(); ++p) {
    if (p == rank() || ((dead >> p) & 1ULL)) continue;
    const size_t sp = static_cast<size_t>(p);
    if (peer_suspect_[sp] == 0) {
      const double silent_ms =
          std::chrono::duration<double, std::milli>(now_tp - last_heard_[sp])
              .count();
      if (silent_ms > opts_.suspect_after_ms) {
        peer_suspect_[sp] = 1;
        suspect_since_[sp] = now_tp;
        fs_suspicions_.fetch_add(1, std::memory_order_release);
        fs_probes_sent_.fetch_add(1, std::memory_order_release);
        send_heartbeat(p, kProbe);
      }
    } else {
      const double suspect_ms =
          std::chrono::duration<double, std::milli>(now_tp - suspect_since_[sp])
              .count();
      if (suspect_ms > opts_.confirm_after_ms) {
        peer_suspect_[sp] = 0;
        handle_confirmed_death(p);
      }
    }
  }
}

void Context::escalate_failure(int dead, uint64_t lost_chains,
                               const char* why) {
  std::ostringstream os;
  os << "rank failure: rank " << dead << " confirmed dead; " << lost_chains
     << " task instance(s) homed there are lost; policy="
     << to_string(opts_.on_rank_failure) << "; decision: abort (" << why
     << ")";
  const std::string msg = os.str();
  MP_LOG_ERROR("%s", msg.c_str());
  try {
    throw StateError(msg);
  } catch (...) {
    record_error(msg);
  }
}

void Context::handle_confirmed_death(int dead) {
  const uint64_t bit = 1ULL << dead;
  const uint64_t prev =
      confirmed_dead_mask_.fetch_or(bit, std::memory_order_acq_rel);
  if ((prev & bit) != 0) return;
  const uint64_t mask = prev | bit;
  // deaths_confirmed bounds every recovery-work counter: increment it (and
  // the paired watchdog-reset counter) before any adoption/replay below.
  fs_watchdog_resets_on_death_.fetch_add(1, std::memory_order_relaxed);
  fs_deaths_confirmed_.fetch_add(1, std::memory_order_release);
  // Exactly one watchdog reset per confirmed death: the death itself is
  // progress (recovery starts), but must not mask a stuck recovery.
  progress_.fetch_add(1, std::memory_order_relaxed);

  uint64_t lost = 0;
  for (size_t ci = 0; ci < pool_.num_classes(); ++ci) {
    lost += pool_.cls(static_cast<int16_t>(ci)).enumerate_rank(dead).size();
  }
  MP_LOG_WARN(
      "rank %d: confirmed death of rank %d (%llu instance(s) homed there, "
      "policy=%s)",
      rank(), dead, static_cast<unsigned long long>(lost),
      to_string(opts_.on_rank_failure));

  const int ndead = std::popcount(mask);
  if (dead == 0) {
    escalate_failure(dead, lost,
                     "rank 0 coordinates termination; the fail-stop model "
                     "covers non-root ranks only");
    return;
  }
  if (opts_.on_rank_failure == FailurePolicy::kAbort) {
    escalate_failure(dead, lost, "policy is abort");
    return;
  }
  if (opts_.on_rank_failure == FailurePolicy::kRetry &&
      ndead > std::max(0, opts_.retry_limit)) {
    escalate_failure(dead, lost, "retry limit exhausted");
    return;
  }
  if (opts_.on_rank_failure == FailurePolicy::kDegrade && ndead > 1) {
    escalate_failure(dead, lost, "degrade tolerates a single death");
    return;
  }

  // -- recovery --
  // 1) Adoption: deterministically partition the lost instances over the
  // survivors; this rank takes the ones effective_rank maps here. The
  // sweep covers every rank in the *cumulative* dead mask, not just the
  // rank confirmed now: under kRetry a second death must also re-home
  // keys whose stand-in (an earlier victim's adopter) just died, or their
  // replays park in held_ready_ forever while every live rank reports
  // done — a silently incomplete "successful" run. Keys this rank already
  // adopted are filtered out up front (before on_adopt runs) so neither
  // expected_ nor a group's external-state reset can double-fire.
  std::vector<std::pair<const TaskClass*, Params>> mine;
  {
    std::lock_guard lock(adopt_mu_);
    for (size_t ci = 0; ci < pool_.num_classes(); ++ci) {
      const TaskClass& c = pool_.cls(static_cast<int16_t>(ci));
      for (int dr = 0; dr < nranks(); ++dr) {
        if (((mask >> dr) & 1ULL) == 0) continue;
        for (const Params& p : c.enumerate_rank(dr)) {
          const TaskKey key{c.cls, p};
          if (effective_rank(key) != rank()) continue;
          if (adopted_keys_.count(key) != 0) continue;
          mine.emplace_back(&c, p);
        }
      }
    }
  }
  // Two-pass adoption: reset external side effects (on_adopt, once per
  // recovery group) BEFORE any adopted instance can become ready — a
  // re-executed writer must never race its own group's reset.
  std::set<std::pair<int16_t, int64_t>> groups_done;
  for (const auto& [c, p] : mine) {
    if (!c->on_adopt) continue;
    if (c->recovery_key) {
      if (!groups_done.emplace(c->cls, c->recovery_key(p)).second) continue;
    }
    c->on_adopt(p, dead);
  }
  if (!mine.empty()) {
    // Grow expected_ BEFORE publishing adoption below: the instant a key
    // appears in adopted_keys_, a worker depositing its final input falls
    // through the park-until-adopted check and executes it, and that
    // execution must never be compared against the pre-adoption target
    // (a rank one own-task short of done would transiently see
    // sum == expected_ and latch completion at the new epoch).
    expected_.fetch_add(mine.size(), std::memory_order_release);
    fs_tasks_adopted_.fetch_add(mine.size(), std::memory_order_release);
  }
  std::vector<std::pair<TaskKey, std::vector<DataBuf>>> drained;
  {
    std::lock_guard lock(adopt_mu_);
    for (const auto& [c, p] : mine) {
      const TaskKey key{c->cls, p};
      adopted_keys_.insert(key);
      auto it = held_ready_.find(key);
      if (it != held_ready_.end()) {
        drained.emplace_back(key, std::move(it->second));
        held_ready_.erase(it);
      }
    }
  }
  for (const auto& [c, p] : mine) {
    if (c->num_task_inputs(p) == 0) {
      make_ready(TaskKey{c->cls, p}, {});
    }
  }
  for (auto& [key, inputs] : drained) {
    make_ready(key, std::move(inputs));
  }

  // 2) Lineage replay: re-deliver every activation this rank ever sent
  // toward the victim, to wherever its consumer lives now. Entries are
  // re-recorded under the new destination so a second death stays covered.
  std::vector<LineageEntry> replay;
  {
    std::lock_guard lock(lin_mu_);
    replay.swap(lineage_[static_cast<size_t>(dead)]);
  }
  for (LineageEntry& e : replay) {
    const int dst = effective_rank(e.consumer);
    fs_lineage_replayed_.fetch_add(1, std::memory_order_release);
    if (dst == rank()) {
      deposit(e.consumer, e.slot, std::move(e.buf));
      continue;
    }
    record_lineage(dst, e.consumer, e.slot, e.buf);
    post_activation(dst, e.consumer, e.slot, std::move(e.buf));
  }

  // 3) Re-inject own tasks that were migrated to the victim and never
  // credited: no credit will ever come, so they run here after all. The
  // retained input handles are re-homed (recovery's ownership epoch) —
  // accessing them without that annotation is exactly finding MPA008.
  std::vector<ReadyTask> reinject;
  for (auto it = outstanding_migs_.begin(); it != outstanding_migs_.end();) {
    if (it->second.holder != dead) {
      ++it;
      continue;
    }
    for (const DataBuf& in : it->second.inputs) {
      if (in) MP_ANNOTATE_BUF_REHOME(in.get());
    }
    ReadyTask t;
    t.key = it->first;
    t.priority = it->second.priority;
    t.inputs = std::move(it->second.inputs);
    t.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    reinject.push_back(std::move(t));
    it = outstanding_migs_.erase(it);
  }
  if (!reinject.empty()) {
    fs_tasks_reinjected_.fetch_add(reinject.size(),
                                   std::memory_order_release);
    sched_->push_batch(std::move(reinject), /*worker=*/-1);
    wake_all();
  }

  // 4) Per-epoch termination reconciliation: any completion latched before
  // this death is stale (this rank may have just adopted work, and rank 0
  // now requires reports covering the new dead set). Re-enter the
  // completion protocol at the new epoch.
  local_complete_.store(false, std::memory_order_release);
  if (rank() == 0) {
    bool broadcast = false;
    {
      std::lock_guard lock(term_mu_);
      if (termination_check_locked() && !job_done_broadcast_) {
        job_done_broadcast_ = true;
        broadcast = true;
      }
    }
    if (broadcast) {
      for (int p = 1; p < nranks(); ++p) {
        if ((mask >> p) & 1ULL) continue;
        rctx_.send(p, kTagJobDone, {});
      }
      done_.store(true, std::memory_order_release);
      wake_all();
    }
  }
  maybe_local_complete();
}

void Context::worker_loop(int wid) {
  ReadyTask t;
  while (true) {
    if (!done_.load(std::memory_order_acquire) && sched_->try_pop(t, wid)) {
      active_workers_.fetch_add(1, std::memory_order_relaxed);
      try {
        execute_task(std::move(t), wid);
      } catch (...) {
        active_workers_.fetch_sub(1, std::memory_order_relaxed);
        record_error();
        return;
      }
      active_workers_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (done_.load(std::memory_order_acquire)) return;
    // Block until woken: every push and every done_ transition notifies
    // while holding wake_mu_, so an idle runtime is fully quiescent (no
    // periodic polling) and no wakeup can be lost.
    std::unique_lock lock(wake_mu_);
    wake_cv_.wait(lock, [&] {
      return done_.load(std::memory_order_acquire) || sched_->size() > 0;
    });
  }
}

double Context::watchdog_deadline_ms() const {
  // Outstanding local work scales the deadline: a rank with many tasks
  // still queued behind a slow remote chain is making no *local* progress
  // but is not stuck, and the base interval alone fires spuriously on
  // 1-worker configs running long GEMM chains.
  const uint64_t completed =
      executed_.load(std::memory_order_relaxed) +
      st_credits_received_.load(std::memory_order_relaxed);
  const uint64_t expected = expected_.load(std::memory_order_relaxed);
  const uint64_t outstanding = expected > completed ? expected - completed
                                                    : 0;
  double scale =
      1.0 + opts_.watchdog_scale_per_task *
                static_cast<double>(std::min<uint64_t>(outstanding, 32));
  if (global_termination() &&
      local_complete_.load(std::memory_order_relaxed)) {
    // Locally complete, waiting for the global JOB_DONE: that can trail
    // the slowest rank's tail arbitrarily; be patient before declaring a
    // lost control message.
    scale = std::max(scale, kWatchdogGlobalScale);
  }
  return opts_.watchdog_timeout_ms * scale;
}

std::string Context::watchdog_dump() {
  size_t pending_keys = 0, pending_arrived = 0;
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    pending_keys += shard.map.size();
    for (const auto& kv : shard.map) {
      pending_arrived += static_cast<size_t>(kv.second.arrived);
    }
  }
  size_t outbox_depth = 0;
  {
    std::lock_guard lock(out_mu_);
    outbox_depth = outbox_.size();
  }
  const StealStats ss = steal_stats();
  // Distinguish "chain migrated, credit pending" from "activation lost":
  // with stealing, a stall with migrated-out tasks uncredited points at a
  // lost STEAL_REPLY/CREDIT, not at the classic lost activation.
  const char* likely = "likely a lost activation";
  if (failure_active() &&
      fs_deaths_confirmed_.load(std::memory_order_relaxed) > 0) {
    likely = "recovering from a confirmed rank death — adopted or replayed "
             "chain(s) still outstanding";
  } else if (stealing_active()) {
    if (ss.credits_received < ss.tasks_migrated_out) {
      likely = "chain(s) migrated out await credits — STEAL_REPLY or "
               "CREDIT lost in the fabric";
    } else if (local_complete_.load(std::memory_order_relaxed)) {
      likely = "locally complete, awaiting global termination — "
               "LOCAL_DONE or JOB_DONE lost in the fabric";
    }
  }
  std::ostringstream os;
  os << "PTG watchdog: rank " << rank() << " made no progress for "
     << watchdog_deadline_ms() << " ms with tasks outstanding (" << likely
     << ")."
     << " executed=" << executed_.load() << "/" << expected_.load()
     << " pending_deposit_keys=" << pending_keys
     << " pending_deposits_arrived=" << pending_arrived
     << " ready_queue=" << sched_->size()
     << " outbox_depth=" << outbox_depth
     << " mailbox_depth=" << rctx_.mailbox().size()
     << " remote_activations_sent=" << remote_sent_.load();
  if (stealing_active()) {
    os << " credits=" << ss.credits_received << "/" << ss.tasks_migrated_out
       << " migrated_in=" << ss.tasks_migrated_in
       << " credits_sent=" << ss.credits_sent
       << " foreign_pending=" << foreign_pending_.load()
       << " steal_outstanding=" << steal_outstanding_.load()
       << " outstanding_migrations=" << outstanding_migs_.size();
  }
  if (failure_active()) {
    size_t held = 0;
    {
      std::lock_guard lock(adopt_mu_);
      held = held_ready_.size();
    }
    os << " dead_mask=0x" << std::hex
       << confirmed_dead_mask_.load(std::memory_order_relaxed) << std::dec
       << " held_ready=" << held << " failure={" << failure_stats().describe()
       << "}";
  }
  return os.str();
}

void Context::comm_loop() {
  vc::Mailbox& mb = rctx_.mailbox();
  uint64_t watchdog_progress = progress_.load(std::memory_order_relaxed);
  auto watchdog_mark = std::chrono::steady_clock::now();
  if (failure_active()) {
    const auto start = std::chrono::steady_clock::now();
    for (auto& t : last_heard_) t = start;
    next_heartbeat_ = start + ms_to_us(opts_.heartbeat_interval_ms);
  }
  while (true) {
    // Fail-stop self check: if this rank was crash-injected, go silent
    // immediately — no drain, no abort broadcast, no logging. From the
    // survivors' point of view this rank simply stopped talking.
    if (rctx_.is_dead()) {
      killed_.store(true, std::memory_order_release);
      done_.store(true, std::memory_order_release);
      wake_all();
      return;
    }
    // Drain the outbox: workers enqueue remote activations, the comm thread
    // performs the actual transfers (the paper's dedicated comm core).
    bool sent_any = false;
    for (;;) {
      vc::Message m;
      {
        std::lock_guard lock(out_mu_);
        if (outbox_.empty()) break;
        m = std::move(outbox_.front());
        outbox_.pop_front();
        MP_ANNOTATE_CHANNEL_RECV(&outbox_);
      }
      const double t0 = opts_.enable_tracing ? now() : 0.0;
      rctx_.send(m.dst, m.tag, std::move(m.header), std::move(m.segments));
      if (opts_.enable_tracing) {
        comm_events_.push_back(
            TraceEvent{rank(), -1, -1, {0, 0, 0}, t0, now(), true});
      }
      progress_.fetch_add(1, std::memory_order_relaxed);
      sent_any = true;
    }

    // Poll for inbound activations. Only messages that move real work —
    // activations (deposit() bumps), credits, steal replies that carry
    // tasks, shipments out of serve_steal_request — count as watchdog
    // progress. Counting every pop would let the idle steal chatter of a
    // stalled job (requests and empty replies bouncing between ranks
    // whose ready queues are all empty) reset the deadline forever, and
    // a lost activation would hang the run instead of tripping the
    // watchdog.
    auto msg = sent_any ? mb.try_pop() : mb.pop_wait(100us);
    while (msg) {
      if (failure_active() && msg->src >= 0 && msg->src < nranks()) {
        const size_t s = static_cast<size_t>(msg->src);
        if ((confirmed_dead_mask_.load(std::memory_order_acquire) >> s) &
            1ULL) {
          // Fence the dead epoch: anything a confirmed-dead rank sent is
          // superseded by recovery (its chains are re-executed wholly), and
          // letting a straggler credit/activation through would double
          // count against the reconciled termination state.
          fs_fenced_dropped_.fetch_add(1, std::memory_order_relaxed);
          msg = mb.try_pop();
          continue;
        }
        // Piggybacked liveness: ANY message is proof of life.
        last_heard_[s] = std::chrono::steady_clock::now();
        if (peer_suspect_[s] != 0) {
          peer_suspect_[s] = 0;
          fs_suspicions_cleared_.fetch_add(1, std::memory_order_release);
        }
      }
      // One case per WireTag enumerator (tools/lint.py enforces the switch
      // stays exhaustive as tags are added — a silently dropped tag is the
      // PR 6 livelock class); the default catches garbage off the wire.
      switch (msg->tag) {
      case kTagActivate: {
        try {
          vc::WireReader r(msg->header);
          const int64_t load = r.get<int64_t>();  // piggybacked load hint
          if (msg->src >= 0 &&
              static_cast<size_t>(msg->src) < load_hints_.size()) {
            load_hints_[static_cast<size_t>(msg->src)] = load;
          }
          TaskKey key;
          key.cls = r.get<int16_t>();
          for (auto& x : key.p) x = r.get<int32_t>();
          const int slot = r.get<int8_t>();
          size_t next_segment = 0;
          deposit(key, slot,
                  decode_buf(r, msg->segments, next_segment,
                             /*tagged=*/false));
        } catch (...) {
          record_error();
        }
        break;
      }
      case kTagAbort: {
        try {
          const std::string reason(msg->header.begin(), msg->header.end());
          throw StateError(
              reason.empty()
                  ? "PTG run aborted: task failure on rank " +
                        std::to_string(msg->src)
                  : "PTG run aborted by rank " + std::to_string(msg->src) +
                        ": " + reason);
        } catch (...) {
          record_error();
        }
        break;
      }
      case kTagStealRequest:
        serve_steal_request(*msg);
        break;
      case kTagStealReply:
        absorb_steal_reply(*msg);
        break;
      case kTagCredit: {
        try {
          vc::WireReader r(msg->header);
          const int64_t load = r.get<int64_t>();
          if (msg->src >= 0 &&
              static_cast<size_t>(msg->src) < load_hints_.size()) {
            load_hints_[static_cast<size_t>(msg->src)] = load;
          }
          TaskKey key;
          key.cls = r.get<int16_t>();
          for (auto& x : key.p) x = r.get<int32_t>();
          // The migrated task retired at its holder: retire its entry (and,
          // under failure detection, the retained input handles).
          outstanding_migs_.erase(key);
          st_credits_received_.fetch_add(1, std::memory_order_release);
          // A migrated task retired somewhere: real forward progress.
          progress_.fetch_add(1, std::memory_order_relaxed);
          maybe_local_complete();
        } catch (...) {
          record_error();
        }
        break;
      }
      case kTagLocalDone: {
        if (rank() == 0) {
          uint64_t sender_dead_mask = 0;
          if (!msg->header.empty()) {
            try {
              vc::WireReader r(msg->header);
              sender_dead_mask = r.get<uint64_t>();
            } catch (...) {
              // Malformed mask: treat as a pre-death (epoch 0) report.
            }
          }
          const bool fresh = note_rank_done(msg->src, sender_dead_mask);
          // Only a FIRST report is progress: the periodic resends of an
          // already-counted rank must not keep resetting the watchdog.
          if (fresh) progress_.fetch_add(1, std::memory_order_relaxed);
          // A repeated report after JOB_DONE means the src missed the
          // broadcast (dropped in the fabric): replay it point-to-point.
          if (!fresh && done_.load(std::memory_order_acquire)) {
            rctx_.send(msg->src, kTagJobDone, {});
          }
        } else {
          MP_LOG_WARN("comm thread: rank %d got LOCAL_DONE but is not the "
                      "coordinator",
                      rank());
        }
        break;
      }
      case kTagJobDone:
        done_.store(true, std::memory_order_release);
        wake_all();
        break;
      case kTagHeartbeat:
        // Liveness was refreshed above; answer probes / count answers.
        // Deliberately NOT progress: heartbeat chatter from a stalled job
        // must not reset the watchdog (same discipline as steal chatter;
        // protocol::work_moving is the canonical rule).
        on_heartbeat(*msg);
        break;
      default:
        MP_LOG_WARN("comm thread: dropping message with unknown tag %d",
                    msg->tag);
        break;
      }
      msg = mb.try_pop();
    }

    if (global_termination()) {
      const auto now_tp = std::chrono::steady_clock::now();
      if (stealing_active()) steal_agent_tick(now_tp);
      if (failure_active()) detector_tick(now_tp);
      // Periodically repeat the local-done report until JOB_DONE arrives:
      // together with rank 0's replay above this makes global termination
      // survive dropped control messages. The report always carries the
      // current dead mask — after a death the resend IS the new epoch's
      // report.
      if (rank() != 0 && !done_.load(std::memory_order_acquire) &&
          local_complete_.load(std::memory_order_acquire) &&
          now_tp >= next_done_resend_) {
        vc::WireWriter w;
        w.put<uint64_t>(confirmed_dead_mask_.load(std::memory_order_acquire));
        rctx_.send(0, kTagLocalDone, w.take());
        next_done_resend_ = now_tp + ms_to_us(opts_.termination_resend_ms);
      }
    }

    // Watchdog: if tasks are outstanding but nothing has moved — no task
    // executed, no deposit, no message in or out, no worker busy, nothing
    // queued — for the (outstanding-work-scaled) deadline, an activation
    // was lost somewhere. Surface a diagnostic StateError instead of
    // hanging forever.
    if (opts_.watchdog_timeout_ms > 0.0 &&
        !done_.load(std::memory_order_acquire)) {
      const uint64_t p = progress_.load(std::memory_order_relaxed);
      const auto now_tp = std::chrono::steady_clock::now();
      if (p != watchdog_progress ||
          active_workers_.load(std::memory_order_relaxed) > 0 ||
          sched_->size() > 0) {
        watchdog_progress = p;
        watchdog_mark = now_tp;
      } else if (std::chrono::duration<double, std::milli>(
                     now_tp - watchdog_mark)
                     .count() > watchdog_deadline_ms()) {
        const std::string dump = watchdog_dump();
        MP_LOG_ERROR("%s", dump.c_str());
        try {
          throw StateError(dump);
        } catch (...) {
          record_error();
        }
      }
    }

    if (comm_stop_.load(std::memory_order_acquire)) {
      bool outbox_empty;
      {
        std::lock_guard lock(out_mu_);
        outbox_empty = outbox_.empty();
      }
      if (!outbox_empty) continue;  // flush remaining transfers first
      // Workers are gone and the outbox is flushed. Drain the mailbox one
      // final time so late inbound messages (e.g. aborts or activations
      // still in flight from peers) are logged, not silently abandoned.
      // Steal-protocol control traffic (a request racing shutdown, an
      // empty reply, a JOB_DONE replay) is expected to straggle and is not
      // worth a warning.
      size_t discarded = 0;
      while (auto late = mb.try_pop()) {
        if (late->tag == kTagStealRequest || late->tag == kTagStealReply ||
            late->tag == kTagLocalDone || late->tag == kTagJobDone ||
            late->tag == kTagHeartbeat) {
          continue;
        }
        ++discarded;
        MP_LOG_WARN(
            "comm thread: rank %d discarding late message at shutdown "
            "(src=%d tag=%d, %llu bytes)",
            rank(), late->src, late->tag,
            static_cast<unsigned long long>(late->wire_bytes()));
      }
      if (discarded > 0) {
        MP_LOG_WARN("comm thread: rank %d discarded %zu late message(s)",
                    rank(), discarded);
      }
      return;
    }
  }
}

Context::~Context() {
  {
    std::lock_guard lock(submit_mu_);
    shutdown_ = true;
  }
  submit_cv_.notify_all();
  for (auto& t : workers_) {
    if (t.joinable()) t.join();
  }
  if (comm_thread_.joinable()) comm_thread_.join();
}

void Context::start_threads() {
  if (comm_thread_.joinable()) return;
  comm_thread_ = std::thread([this] { comm_main(); });
  for (int w = 1; w < opts_.num_workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

void Context::arm_submission() {
  {
    std::lock_guard lock(submit_mu_);
    workers_parked_ = 0;
    comm_parked_ = false;
    ++submit_epoch_;
  }
  submit_cv_.notify_all();
}

void Context::wait_workers_parked() {
  std::unique_lock lock(submit_mu_);
  submit_cv_.wait(lock, [&] { return workers_parked_ == opts_.num_workers - 1; });
}

void Context::wait_comm_parked() {
  std::unique_lock lock(submit_mu_);
  submit_cv_.wait(lock, [&] { return comm_parked_; });
}

void Context::worker_main(int wid) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock lock(submit_mu_);
      submit_cv_.wait(lock, [&] { return shutdown_ || submit_epoch_ > seen; });
      if (shutdown_) return;
      seen = submit_epoch_;
    }
    worker_loop(wid);
    {
      std::lock_guard lock(submit_mu_);
      ++workers_parked_;
    }
    submit_cv_.notify_all();
  }
}

void Context::comm_main() {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock lock(submit_mu_);
      submit_cv_.wait(lock, [&] { return shutdown_ || submit_epoch_ > seen; });
      if (shutdown_) return;
      seen = submit_epoch_;
    }
    comm_loop();
    {
      std::lock_guard lock(submit_mu_);
      comm_parked_ = true;
    }
    submit_cv_.notify_all();
  }
}

void Context::reset_for_resubmission() {
  // ---- collective quiesce. The previous run's closing barrier proves no
  // rank is still sending, but the fabric's delayed-delivery queue may hold
  // messages whose simulated arrival time lies beyond that barrier (latency
  // / reorder jitter). Rank 0 flushes them so the mailboxes hold everything
  // the finished job will ever produce, then every rank drains its own
  // stragglers (late JOB_DONE replays, credits, heartbeats) and rebases its
  // dedup windows — otherwise drop gaps pin the watermark and the windows
  // grow O(submissions) on a lossy fabric.
  if (rank() == 0) rctx_.cluster().fabric().quiesce();
  rctx_.barrier();

  reset_local_state(runs_completed_.load(std::memory_order_relaxed));

  // ---- everyone is reset before anyone may send into the fresh windows.
  rctx_.barrier();
}

void Context::reset_local_state(uint64_t submission) {
  // ---- stats discipline first: snapshot every counter pair with its
  // acquire-ordered reader and validate, BEFORE any counter below is zeroed
  // (tools/lint.py: reset-stats-discipline). A Context must never carry
  // an inconsistent pair — or a torn one — into the next submission.
  if (!prev_submission_errored_) {
    const StealStats steal_snap = steal_stats();
    const std::string steal_bad = steal_snap.validate();
    MP_REQUIRE(steal_bad.empty(), "reset_for_resubmission: " + steal_bad);
    const FailureStats failure_snap = failure_stats();
    const std::string failure_bad = failure_snap.validate();
    MP_REQUIRE(failure_bad.empty(), "reset_for_resubmission: " + failure_bad);
    const SchedStats sched_snap = sched_->stats();
    const std::string sched_bad = sched_snap.validate();
    MP_REQUIRE(sched_bad.empty(), "reset_for_resubmission: " + sched_bad);
  }
  // else: the previous submission unwound mid-flight, so its counter pairs
  // are legitimately torn (a push whose pop never happened); the reset's
  // whole job is to discard that state, not to certify it.

  ResetReport rep;
  rep.submission = submission;

  // ---- drain stragglers (late JOB_DONE replays, credits, heartbeats) and
  // rebase the dedup windows — otherwise drop gaps pin the watermark and
  // the windows grow O(submissions) on a lossy fabric. The caller has
  // guaranteed the mailbox holds everything the finished job will ever
  // produce, so this drain is complete.
  vc::Mailbox& mb = rctx_.mailbox();
  while (mb.try_pop()) ++rep.stale_messages;
  mb.rebase_windows();

  // ---- per-submission dependency + recovery state
  for (Shard& shard : shards_) {
    std::lock_guard lock(shard.mu);
    rep.pending_deposits += shard.map.size();
    rep.activated_keys += shard.activated.size();
    shard.map.clear();
    shard.activated.clear();
  }
  {
    std::lock_guard lock(adopt_mu_);
    rep.adopted_keys = adopted_keys_.size();
    rep.held_ready = held_ready_.size();
    adopted_keys_.clear();
    held_ready_.clear();
  }
  {
    std::lock_guard lock(lin_mu_);
    for (auto& per_dst : lineage_) {
      rep.lineage_entries += per_dst.size();
      per_dst.clear();  // bounds the O(activations) retention to one run
    }
  }
  rep.outstanding_migrations = outstanding_migs_.size();
  outstanding_migs_.clear();
  {
    std::lock_guard lock(out_mu_);
    rep.outbox_messages = outbox_.size();
    outbox_.clear();
  }
  reset_report_ = rep;

  // ---- scheduler: recreate rather than drain — after a clean run the
  // queues are empty, after an aborted one the leftover ReadyTasks (and
  // their pooled DataBufs) are released here, and either way the contention
  // counters restart from zero (validated above).
  sched_ = std::make_unique<Scheduler>(opts_.num_workers);

  // ---- re-arm counters and latches. Parked threads give these stores no
  // one to race; release keeps the counter-pair discipline's edges intact
  // for the next submission's first acquire snapshot.
  expected_.store(0, std::memory_order_release);
  executed_.store(0, std::memory_order_release);
  seq_.store(0, std::memory_order_relaxed);
  remote_sent_.store(0, std::memory_order_relaxed);
  progress_.store(0, std::memory_order_relaxed);
  st_requests_sent_.store(0, std::memory_order_release);
  st_requests_received_.store(0, std::memory_order_release);
  st_replies_sent_.store(0, std::memory_order_release);
  st_replies_received_.store(0, std::memory_order_release);
  st_migrated_out_.store(0, std::memory_order_release);
  st_migrated_in_.store(0, std::memory_order_release);
  st_credits_sent_.store(0, std::memory_order_release);
  st_credits_received_.store(0, std::memory_order_release);
  fs_heartbeats_sent_.store(0, std::memory_order_release);
  fs_heartbeats_received_.store(0, std::memory_order_release);
  fs_probes_sent_.store(0, std::memory_order_release);
  fs_probes_answered_.store(0, std::memory_order_release);
  fs_suspicions_.store(0, std::memory_order_release);
  fs_suspicions_cleared_.store(0, std::memory_order_release);
  fs_deaths_confirmed_.store(0, std::memory_order_release);
  fs_tasks_adopted_.store(0, std::memory_order_release);
  fs_lineage_replayed_.store(0, std::memory_order_release);
  fs_tasks_reinjected_.store(0, std::memory_order_release);
  fs_fenced_dropped_.store(0, std::memory_order_release);
  fs_dup_deposits_dropped_.store(0, std::memory_order_release);
  fs_watchdog_resets_on_death_.store(0, std::memory_order_release);
  foreign_pending_.store(0, std::memory_order_relaxed);
  steal_outstanding_.store(0, std::memory_order_relaxed);
  done_.store(false, std::memory_order_relaxed);
  local_complete_.store(false, std::memory_order_relaxed);
  comm_stop_.store(false, std::memory_order_relaxed);
  abort_broadcast_.store(false, std::memory_order_relaxed);
  {
    std::lock_guard lock(error_mu_);
    first_error_ = nullptr;  // a failed submission may be retried
  }
  // The confirmed-dead set is re-discovered each submission: the detector
  // re-confirms still-dead peers from scratch, which also re-runs adoption
  // so the new submission's instances get recovered too.
  confirmed_dead_mask_.store(0, std::memory_order_release);
  if (rank() == 0) {
    std::lock_guard lock(term_mu_);
    std::fill(rank_done_seen_.begin(), rank_done_seen_.end(), uint8_t{0});
    std::fill(rank_done_mask_.begin(), rank_done_mask_.end(), uint64_t{0});
    job_done_broadcast_ = false;
  }
  load_hints_.assign(static_cast<size_t>(nranks()), -1);
  next_steal_at_ = {};
  steal_reply_deadline_ = {};
  next_done_resend_ = {};
  // last_heard_ / suspect_since_ / next_heartbeat_ are re-initialized at
  // comm_loop entry; the sticky suspicion flags are not.
  std::fill(peer_suspect_.begin(), peer_suspect_.end(), uint8_t{0});

  epoch_ = std::chrono::steady_clock::now();
  for (auto& evs : worker_events_) evs.clear();
  comm_events_.clear();
  trace_.clear();
}

void Context::run() {
  MP_REQUIRE(!killed_.load(std::memory_order_acquire),
             "Context::run: this rank was crash-injected; a killed Context "
             "cannot be resubmitted (std::barrier drop is permanent)");
  MP_REQUIRE(!running_.exchange(true),
             "Context::run: concurrent run() on one Context");
  const ClearOnExit guard{running_};
  if (needs_reset_) reset_for_resubmission();
  // Mark dirty *before* running: if run_submission unwinds (watchdog,
  // task error, abort broadcast) the next submission must still reset —
  // that unwind is collective across live ranks, so they all will.
  needs_reset_ = true;
  prev_submission_errored_ = true;
  run_submission();
  prev_submission_errored_ = false;
  runs_completed_.fetch_add(1, std::memory_order_release);
}

void Context::run_submission() {
  // Pre-execution graph verification (mp-verify pass 1). The graph is the
  // same on every rank, so rank 0 checks it for the whole job; a malformed
  // graph fails fast here instead of silently corrupting results. The pass
  // runs once per Context — the pool and cluster size are fixed for its
  // lifetime — and a template that was already verified at cache-build
  // time skips it entirely (assume_verified).
  if (rank() == 0 && env_verify_enabled() && !opts_.assume_verified &&
      !verified_once_) {
    verified_once_ = true;
    const auto diags = validate_plan();
    if (!diags.empty()) {
      // Unwind collectively: record_error broadcasts the abort, every
      // rank's threads drain out, and all live ranks meet the error path's
      // barrier below before rethrowing — the Context (and the cluster's
      // barrier) stay usable for a corrected resubmission.
      const std::string why =
          "MP_VERIFY: task graph failed static verification; " +
          analysis::render(diags);
      try {
        throw StateError(why);
      } catch (...) {
        record_error(why);
      }
    }
  }

  enumerate_startup();
  if (global_termination()) {
    // A rank with no own tasks is *locally* done immediately but must not
    // exit: it keeps serving the fabric (steal agent, failure detector)
    // until the coordinator's JOB_DONE — that idle capacity is the whole
    // point of inter-node stealing, and under failure detection every rank
    // must keep heartbeating until the job ends globally.
    maybe_local_complete();
  } else if (expected_.load() == 0) {
    done_.store(true);
  }

  // No thread churn: the long-lived threads (spawned once, on the first
  // submission) are parked on the submission epoch; arming wakes them
  // straight into their loops.
  start_threads();
  arm_submission();
  if (!done_.load()) {
    worker_loop(0);  // the calling thread is worker 0
  }
  wait_workers_parked();
  comm_stop_.store(true, std::memory_order_release);
  // The comm thread is most likely idle in its mailbox poll: end the poll
  // now instead of when it times out.
  rctx_.mailbox().interrupt();
  wait_comm_parked();

  if (killed_.load(std::memory_order_acquire)) {
    // This rank was crash-injected: stay silent. No rethrow, no result
    // flush, and no final barrier — drop out of all future barriers so the
    // survivors' collectives keep completing without us. The caller must
    // check killed() and skip any further collectives on this rank.
    rctx_.barrier_drop();
    return;
  }

  {
    std::lock_guard lock(error_mu_);
    if (first_error_) {
      // Let the other ranks out of the final barrier before unwinding; the
      // Cluster maps an unwinding rank to arrive_and_drop.
      rctx_.barrier();
      std::rethrow_exception(first_error_);
    }
  }

  if (opts_.enable_tracing) {
    for (auto& evs : worker_events_) {
      for (const auto& e : evs) trace_.add(e);
    }
    for (const auto& e : comm_events_) trace_.add(e);
  }

  // All outputs flushed; synchronize the job before returning control to
  // the embedding application (NWChem in the paper).
  rctx_.barrier();
}

bool Context::try_reset_in_band() {
  // Steady-state fast path: after a *clean* run on a fabric
  // that has never been able to disturb or delay a message, the closing
  // barrier already proves the mailbox is final — every send was delivered
  // synchronously before its sender reached the barrier, and with
  // stealing and failure detection off no control traffic (heartbeats,
  // straggling STEAL_REQUESTs, aborts) can arrive afterwards. The local
  // reset is therefore safe right now, with no quiesce and no extra
  // barriers: the caller (PtgSession) orders it before the next
  // submission by its own all-ranks completion rendezvous. This turns the
  // three collectives of the lazy reset-then-run sequence into one.
  if (!needs_reset_ || prev_submission_errored_) return false;
  if (killed_.load(std::memory_order_acquire)) return false;
  if (stealing_active() || failure_active()) return false;
  if (!rctx_.cluster().fabric().lossless_immediate()) return false;
  MP_REQUIRE(!running_.exchange(true),
             "Context::try_reset_in_band: concurrent with run()");
  const ClearOnExit guard{running_};
  reset_local_state(runs_completed_.load(std::memory_order_relaxed));
  needs_reset_ = false;
  return true;
}

}  // namespace mp::ptg
