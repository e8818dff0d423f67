#include "ptg/context.h"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <exception>
#include <set>
#include <span>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "analysis/graph_verify.h"
#include "support/analysis.h"
#include "support/error.h"
#include "support/log.h"
#include "vc/message.h"

namespace mp::ptg {

using namespace std::chrono_literals;

namespace {

/// Seed for randomized victim selection (mixed with the rank id).
constexpr uint64_t kStealSeed = 0x57ea15eed5ULL;
/// Watchdog deadline floor, as a multiple of the base timeout, while a
/// rank is locally complete and waits for the global JOB_DONE: global
/// termination can legitimately trail the slowest rank's tail by a long
/// way.
constexpr double kWatchdogGlobalScale = 8.0;

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

/// Header bytes encode_buf writes for `buf`, untagged (a tagged buffer
/// adds its tag byte): the count and the doubles when inline, nothing for
/// a segment.
size_t encoded_size(const DataBuf& buf) {
  if (!buf || buf->size() > Context::kEagerLimit) return 0;
  return sizeof(uint64_t) + buf->size() * sizeof(double);
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

/// Comm thread: reads the load hint that leads every activation, credit,
/// heartbeat and steal message, and records it as the sender's queue depth
/// for the steal agent's victim selection.
void read_load_hint(vc::WireReader& r, int src, std::vector<int64_t>& hints) {
  const int64_t load = r.get<int64_t>();
  if (src >= 0 && static_cast<size_t>(src) < hints.size()) {
    hints[static_cast<size_t>(src)] = load;
  }
}

std::chrono::microseconds ms_to_us(double v) {
  return std::chrono::microseconds(static_cast<int64_t>(v * 1000.0));
}

/// One remote activation sent while the failure machinery is active.
struct LineageEntry {
  int32_t consumer = -1;
  int8_t slot = 0;
  DataBuf buf;
};

/// The input state of the tasks [task_lo, task_hi): per task its
/// pending-input count, decremented once per deposit, and its input slots
/// starting at slot index input_base(id) - slot_lo. A deposit writes its
/// slot, then decrements with acq_rel, so the deposit that reaches zero
/// sees every slot of the task. The arrays are allocated once per Context
/// and handed from each finished Submission to the next, which re-arms
/// them.
struct InputState {
  int32_t task_lo = 0, task_hi = 0;
  uint32_t slot_lo = 0, slot_hi = 0;
  std::unique_ptr<std::atomic<int32_t>[]> pending;
  std::unique_ptr<DataBuf[]> slots;
};

/// Per-worker state on the worker's own cache line: the scratch vectors
/// reused from task to task (the successors a task completes, and its
/// outputs), so the local hot path allocates nothing once they have grown,
/// and the worker's task counters. Only the worker writes the counters,
/// with plain stores; the idle-time completion check, the comm thread and
/// the stats accessors sum them.
struct alignas(64) WorkerScratch {
  std::vector<ReadyTask> batch;
  std::vector<DataBuf> outputs;
  /// Own (or adopted) tasks this worker executed. Release store, acquire
  /// sum: a sum that counts an adopted task also sees the `expected`
  /// growth that preceded its adoption.
  std::atomic<uint64_t> executed{0};
  /// 1 while the worker runs a task (watchdog and steal agent).
  std::atomic<uint32_t> active{0};
};

/// A task migrated out whose completion credit has not arrived. Under
/// failure detection it also retains the input handles, so a dead thief's
/// haul can be re-injected locally; without it `inputs` stays empty, so the
/// bookkeeping never shares a handle the thief may want to mutate in place.
struct OutstandingMig {
  int holder = -1;
  double priority = 0.0;
  std::vector<DataBuf> inputs;
};

}  // namespace

/// Everything one run() creates, mutates and leaves behind. Built fresh for
/// every run (the constructor builds the first, reset_for_resubmission each
/// later one) and never re-armed: once its run ends it is only read, then
/// discarded. The one exception is its InputState, whose arrays the next
/// Submission takes over and re-arms.
struct Context::Submission {
  Submission(const Context& ctx, uint64_t index, InputState recycled)
      : index(index),
        in(std::move(recycled)),
        sched(ctx.opts_.num_workers),
        scratch(static_cast<size_t>(ctx.opts_.num_workers)),
        load_hints(static_cast<size_t>(ctx.nranks()), -1),
        worker_events(static_cast<size_t>(ctx.opts_.num_workers)) {
    const FlatGraph& g = *ctx.graph_;
    const int me = ctx.rank();
    expected.store(static_cast<uint64_t>(g.rank_end(me) - g.rank_begin(me)),
                   std::memory_order_relaxed);
    if (!in.pending) {
      // Input state for this rank's own tasks, one contiguous id range.
      // Under failure detection recovery may adopt any task, so the state
      // covers the whole graph.
      const bool all = ctx.failure_active();
      in.task_lo = all ? 0 : g.rank_begin(me);
      in.task_hi = all ? g.size() : g.rank_end(me);
      auto slot_at = [&g](int32_t id) {
        return id < g.size() ? g.input_base(id) : g.num_input_slots();
      };
      in.slot_lo = slot_at(in.task_lo);
      in.slot_hi = slot_at(in.task_hi);
      in.pending = std::make_unique<std::atomic<int32_t>[]>(
          static_cast<size_t>(in.task_hi - in.task_lo));
      in.slots = std::make_unique<DataBuf[]>(in.slot_hi - in.slot_lo);
    } else {
      // A run that unwound may have left buffers behind.
      for (uint32_t i = 0; i < in.slot_hi - in.slot_lo; ++i) {
        in.slots[i].reset();
      }
    }
    for (int32_t id = in.task_lo; id < in.task_hi; ++id) {
      pending_of(id).store(g.num_inputs(id), std::memory_order_relaxed);
    }
    if (ctx.failure_active()) adopted.assign(static_cast<size_t>(g.size()), 0);
    const auto n = static_cast<size_t>(ctx.nranks());
    if (ctx.rank() == 0) {
      rank_done_seen.assign(n, 0);
      rank_done_mask.assign(n, 0);
    }
    if (ctx.failure_active()) {
      lineage.resize(n);
      last_heard.resize(n);
      peer_suspect.assign(n, 0);
      suspect_since.resize(n);
    }
  }

  /// Everything the watchdog counts as forward progress.
  uint64_t progress_mark() const {
    return progress.load(std::memory_order_relaxed) + executed() +
           st_credits_sent.load(std::memory_order_relaxed);
  }

  /// Own (and adopted) tasks executed on this rank: the sum of the
  /// per-worker counts.
  uint64_t executed() const {
    uint64_t n = 0;
    for (const WorkerScratch& ws : scratch) {
      n += ws.executed.load(std::memory_order_acquire);
    }
    return n;
  }

  /// Some worker is running a task.
  bool any_active() const {
    for (const WorkerScratch& ws : scratch) {
      if (ws.active.load(std::memory_order_relaxed) != 0) return true;
    }
    return false;
  }

  /// Seconds since this run's trace epoch.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch)
        .count();
  }

  /// This Submission keeps input state for task `id`.
  bool holds(int32_t id) const { return id >= in.task_lo && id < in.task_hi; }
  /// Inputs task `id` still waits for; 0 once its last one arrived.
  std::atomic<int32_t>& pending_of(int32_t id) const {
    return in.pending[static_cast<size_t>(id - in.task_lo)];
  }
  /// Task `id`'s input slots, in place.
  std::span<DataBuf> inputs_of(const FlatGraph& g, int32_t id) {
    return {&in.slots[g.input_base(id) - in.slot_lo],
            static_cast<size_t>(g.num_inputs(id))};
  }

  /// 1-based index of this run among the Context's run() calls.
  const uint64_t index;
  /// run() has begun on this Submission, so the next run() replaces it.
  bool started = false;
  /// That run() returned normally: its counter pairs are final and must
  /// validate before the Submission is discarded.
  bool clean = false;

  InputState in;
  /// Under failure detection a deposit into task id holds
  /// claim_mu[id % size] from its duplicate check to its count.
  std::array<std::mutex, 16> claim_mu;
  Scheduler sched;
  std::vector<WorkerScratch> scratch;
  /// Inputs of tasks migrated here by stealing, until they run.
  std::mutex mig_mu;
  std::unordered_map<int32_t, std::vector<DataBuf>> migrated_inputs;
  /// Own task instances plus instances adopted from dead ranks. Atomic:
  /// recovery (comm thread) grows it while workers compare against it.
  std::atomic<uint64_t> expected{0};
  std::atomic<bool> done{false};
  std::atomic<bool> comm_stop{false};

  std::mutex error_mu;
  std::exception_ptr first_error;
  std::atomic<bool> abort_broadcast{false};

  std::mutex wake_mu;
  std::condition_variable wake_cv;

  std::mutex out_mu;
  std::deque<vc::Message> outbox;
  /// Activations the comm thread shipped (it alone writes this).
  std::atomic<uint64_t> remote_sent{0};

  // Progress tracking for the watchdog: bumped on every outbound transfer
  // and every inbound message that moves work. Executed tasks count
  // through the per-worker counts and `st_credits_sent`, which the
  // watchdog adds.
  std::atomic<uint64_t> progress{0};

  // Steal-protocol counters (see StealStats for the pairing discipline).
  std::atomic<uint64_t> st_requests_sent{0};
  std::atomic<uint64_t> st_requests_received{0};
  std::atomic<uint64_t> st_replies_sent{0};
  std::atomic<uint64_t> st_replies_received{0};
  std::atomic<uint64_t> st_migrated_out{0};
  std::atomic<uint64_t> st_migrated_in{0};
  std::atomic<uint64_t> st_credits_sent{0};
  std::atomic<uint64_t> st_credits_received{0};
  /// Latch: this rank's own work is complete (report sent / done set).
  std::atomic<bool> local_complete{false};
  /// The completion check's ordering point (see maybe_local_complete), on
  /// a cache line of its own so an idle worker's update does not evict
  /// what busy workers read.
  struct alignas(64) {
    std::atomic<uint64_t> n{0};
  } idle_sync;
  /// Failure detection only: held by a completion check from its sums to
  /// its report, and by handle_confirmed_death from publishing a death to
  /// clearing the latch (see maybe_local_complete).
  std::mutex complete_mu;

  // Rank 0's termination bookkeeping (guarded by term_mu; worker threads
  // may deliver rank 0's own report while the comm thread delivers peers').
  std::mutex term_mu;
  std::vector<uint8_t> rank_done_seen;
  /// Per rank: union of the confirmed-dead masks its reports carried. A
  /// rank only counts as done once this covers rank 0's own dead set.
  std::vector<uint64_t> rank_done_mask;
  bool job_done_broadcast = false;

  /// Bitmask of peers this rank has confirmed dead (<= 64 ranks, like the
  /// fabric's fail-stop mask). Written by the comm thread, read by workers
  /// routing through effective_rank(). Re-discovered every run: the
  /// detector re-confirms still-dead peers, which also re-runs adoption.
  std::atomic<uint64_t> confirmed_dead_mask{0};

  /// adopt_mu guards the adoption handshake between the comm thread
  /// (handle_confirmed_death) and workers depositing into foreign-homed
  /// tasks: a task is either adopted (execute here, count here) or, once
  /// its inputs are complete, parked in held_ready until adoption. Its
  /// inputs stay in its slots either way.
  std::mutex adopt_mu;
  std::vector<uint8_t> adopted;  ///< per task id (failure mode only)
  size_t adopted_count = 0;
  std::vector<int32_t> held_ready;

  /// Per-destination lineage log: every remote activation sent while the
  /// failure machinery is active. On a confirmed death the entries toward
  /// the victim are replayed to its stand-in rank. Guarded by lin_mu
  /// (workers append, comm replays).
  std::mutex lin_mu;
  std::vector<std::vector<LineageEntry>> lineage;

  // -- comm-thread-only state (no locking needed) --
  /// Tasks migrated out whose completion credit has not arrived.
  std::unordered_map<int32_t, OutstandingMig> outstanding_migs;
  /// One comm-loop turn's inbound messages, outbound messages, and the
  /// tasks its activations completed (reused turn to turn).
  std::deque<vc::Message> inbox, sending;
  std::vector<ReadyTask> comm_batch;
  std::vector<int64_t> load_hints;  ///< last-heard queue depth per rank
  /// A STEAL_REQUEST from this rank is unanswered.
  bool steal_outstanding = false;
  std::chrono::steady_clock::time_point next_steal_at;
  std::chrono::steady_clock::time_point steal_reply_deadline;
  std::chrono::steady_clock::time_point next_done_resend;
  // Failure detector.
  std::vector<std::chrono::steady_clock::time_point> last_heard;
  std::vector<uint8_t> peer_suspect;
  std::vector<std::chrono::steady_clock::time_point> suspect_since;
  std::chrono::steady_clock::time_point next_heartbeat;

  // FailureStats counters (comm thread writes; dup-deposit drops also from
  // workers). deaths_confirmed is incremented before any recovery-work
  // counter it bounds.
  std::atomic<uint64_t> fs_heartbeats_sent{0};
  std::atomic<uint64_t> fs_heartbeats_received{0};
  std::atomic<uint64_t> fs_probes_sent{0};
  std::atomic<uint64_t> fs_probes_answered{0};
  std::atomic<uint64_t> fs_suspicions{0};
  std::atomic<uint64_t> fs_suspicions_cleared{0};
  std::atomic<uint64_t> fs_deaths_confirmed{0};
  std::atomic<uint64_t> fs_tasks_adopted{0};
  std::atomic<uint64_t> fs_lineage_replayed{0};
  std::atomic<uint64_t> fs_tasks_reinjected{0};
  std::atomic<uint64_t> fs_fenced_dropped{0};
  std::atomic<uint64_t> fs_dup_deposits_dropped{0};
  std::atomic<uint64_t> fs_watchdog_resets_on_death{0};

  const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::vector<std::vector<TraceEvent>> worker_events;
  std::vector<TraceEvent> comm_events;
  Trace trace;
};

Context::Context(vc::RankCtx& rank_ctx, const Taskpool& pool, Options opts)
    : Context(rank_ctx, pool, nullptr, opts) {}

Context::Context(vc::RankCtx& rank_ctx, const Taskpool& pool,
                 std::shared_ptr<const FlatGraph> graph, Options opts)
    : rctx_(rank_ctx),
      pool_(pool),
      graph_(std::move(graph)),
      opts_(opts),
      steal_rng_(kStealSeed ^ (0x9e3779b97f4a7c15ULL *
                               static_cast<uint64_t>(rank_ctx.rank() + 1))) {
  MP_REQUIRE(opts_.num_workers >= 1, "Context: need at least one worker");
  MP_REQUIRE(!failure_active() || nranks() <= 64,
             "failure detection supports at most 64 ranks (dead-set mask)");
  pool_.validate();
  if (!graph_) {
    graph_ = std::make_shared<const FlatGraph>(
        FlatGraph::compile(pool_, nranks()));
  }
  MP_REQUIRE(graph_->nranks() == nranks(),
             "Context: the graph was compiled for " +
                 std::to_string(graph_->nranks()) + " ranks, the cluster has " +
                 std::to_string(nranks()));
  graph_->require_placeable("Context");
  for (size_t ci = 0; ci < pool_.num_classes(); ++ci) {
    const TaskClass& c = pool_.cls(static_cast<int16_t>(ci));
    MP_REQUIRE(static_cast<bool>(c.body),
               "Context: class '" + c.name +
                   "' has no body (a pool built without tensor stores only "
                   "describes its graph)");
  }
  startup_runs_ = StartupRuns(graph_->startup(rank()), graph_->priorities(),
                              opts_.num_workers);
  sub_ = std::make_unique<Submission>(*this, 1, InputState{});
}

uint64_t Context::tasks_executed() const {
  return sub_->executed() + sub_->st_credits_sent.load();
}

uint64_t Context::tasks_completed() const {
  return sub_->executed() + sub_->st_credits_received.load();
}

uint64_t Context::expected_tasks() const { return sub_->expected.load(); }

uint64_t Context::remote_activations_sent() const {
  return sub_->remote_sent.load();
}

SchedStats Context::scheduler_stats() const { return sub_->sched.stats(); }

size_t Context::outstanding_migrations() const {
  return sub_->outstanding_migs.size();
}

uint64_t Context::confirmed_dead_mask() const {
  return sub_->confirmed_dead_mask.load(std::memory_order_acquire);
}

const Trace& Context::trace() const { return sub_->trace; }

StealStats Context::steal_stats() const {
  const Submission& sub = *sub_;
  // Counter-pair discipline (cf. FabricStats/SchedStats): each bounded
  // counter is read with acquire BEFORE the counter that bounds it, and its
  // increments are release-ordered after the bound's, so validate() holds
  // on a mid-run snapshot.
  StealStats s;
  s.credits_received = sub.st_credits_received.load(std::memory_order_acquire);
  s.credits_sent = sub.st_credits_sent.load(std::memory_order_acquire);
  s.tasks_migrated_out = sub.st_migrated_out.load(std::memory_order_acquire);
  s.tasks_migrated_in = sub.st_migrated_in.load(std::memory_order_acquire);
  s.replies_received = sub.st_replies_received.load(std::memory_order_acquire);
  s.replies_sent = sub.st_replies_sent.load(std::memory_order_acquire);
  s.requests_received =
      sub.st_requests_received.load(std::memory_order_acquire);
  s.requests_sent = sub.st_requests_sent.load(std::memory_order_acquire);
  return s;
}

FailureStats Context::failure_stats() const {
  const Submission& sub = *sub_;
  // Recovery-work counters are read before deaths_confirmed (and are
  // incremented after it, release-ordered), so "adopted > 0 with deaths ==
  // 0" can never be observed. The equality invariants are meaningful for
  // post-run snapshots only (see the struct's comment).
  FailureStats s;
  s.tasks_adopted = sub.fs_tasks_adopted.load(std::memory_order_acquire);
  s.lineage_replayed = sub.fs_lineage_replayed.load(std::memory_order_acquire);
  s.tasks_reinjected = sub.fs_tasks_reinjected.load(std::memory_order_acquire);
  s.suspicions_cleared =
      sub.fs_suspicions_cleared.load(std::memory_order_acquire);
  s.deaths_confirmed = sub.fs_deaths_confirmed.load(std::memory_order_acquire);
  s.watchdog_resets_on_death =
      sub.fs_watchdog_resets_on_death.load(std::memory_order_acquire);
  s.suspicions = sub.fs_suspicions.load(std::memory_order_acquire);
  s.probes_answered = sub.fs_probes_answered.load(std::memory_order_acquire);
  s.probes_sent = sub.fs_probes_sent.load(std::memory_order_acquire);
  s.heartbeats_sent = sub.fs_heartbeats_sent.load(std::memory_order_acquire);
  s.heartbeats_received =
      sub.fs_heartbeats_received.load(std::memory_order_acquire);
  s.fenced_dropped = sub.fs_fenced_dropped.load(std::memory_order_acquire);
  s.dup_deposits_dropped =
      sub.fs_dup_deposits_dropped.load(std::memory_order_acquire);
  return s;
}

std::vector<analysis::Diag> Context::validate_plan() const {
  return analysis::verify_graph(*graph_);
}

void Context::wake_one() {
  Submission& sub = *sub_;
  // Taking wake_mu orders this notify against a worker's predicate check,
  // closing the lost-wakeup window between its failed try_pop and its wait.
  std::lock_guard lock(sub.wake_mu);
  sub.wake_cv.notify_one();
}

void Context::wake_all() {
  Submission& sub = *sub_;
  std::lock_guard lock(sub.wake_mu);
  sub.wake_cv.notify_all();
}

void Context::publish(std::vector<ReadyTask>& batch, int worker) {
  if (batch.empty()) return;
  Submission& sub = *sub_;
  const size_t n = batch.size();
  sub.sched.push_batch(std::move(batch), worker);
  // A worker publishing its own successors keeps one task for itself (it
  // pops its own heap next), so a lone one wakes nobody; any extra ones
  // are worth waking peers for.
  if (n > 1) {
    wake_all();
  } else if (worker < 0) {
    wake_one();
  }
}

void Context::deposit(int32_t id, int slot, DataBuf buf,
                      std::vector<ReadyTask>& batch) {
  Submission& sub = *sub_;
  const FlatGraph& g = *graph_;
  MP_REQUIRE(sub.holds(id), "deposit: task " + std::to_string(id) +
                                " is not held by rank " +
                                std::to_string(rank()));
  MP_REQUIRE(slot >= 0 && slot < g.num_inputs(id), "deposit: bad input slot");
  const bool ft = failure_active();
  std::atomic<int32_t>& pending = sub.pending_of(id);
  DataBuf& in = sub.inputs_of(g, id)[static_cast<size_t>(slot)];
  // Recovery re-executes whole chains, so a replayed activation can race
  // or trail the original delivery. With the failure machinery on,
  // deposits are idempotent: a second copy — into an already-complete task
  // or an already-filled slot — is dropped and counted, not fatal. A
  // striped lock then makes the check, the fill and the count one step,
  // so of two racing copies exactly one lands. Without failure detection
  // a deposit takes no lock.
  std::unique_lock<std::mutex> claim;
  if (ft) {
    claim = std::unique_lock(
        sub.claim_mu[static_cast<size_t>(id) % sub.claim_mu.size()]);
  }
  if (pending.load(std::memory_order_relaxed) <= 0 || in != nullptr) {
    if (ft) {
      // A replay's duplicate, under failure detection only.
      // mp-lint: allow(shared-rmw-on-task-path)
      sub.fs_dup_deposits_dropped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    MP_REQUIRE(false, "double deposit into the same input slot");
  }
  in = std::move(buf);
  // The task's input state is a hand-off point: the depositing thread
  // publishes the buffer, the thread completing the count takes the whole
  // set over.
  MP_ANNOTATE_CHANNEL_SEND(&pending);
  const bool complete = pending.fetch_sub(1, std::memory_order_acq_rel) == 1;
  if (ft) claim.unlock();
  if (!complete) return;
  MP_ANNOTATE_CHANNEL_RECV(&pending);
  if (ft && g.owner(id) != rank()) {
    // A completed task homed on another rank reached us through recovery
    // rerouting. It must not run (or count) before this rank has formally
    // adopted it — park it until handle_confirmed_death's sweep; if the
    // adoption already happened, fall through and schedule normally.
    std::lock_guard lock(sub.adopt_mu);
    if (sub.adopted[static_cast<size_t>(id)] == 0) {
      sub.held_ready.push_back(id);
      return;
    }
  }
  batch.push_back(ReadyTask{g.task_priority(id), 0, id, -1});
}

void Context::execute_task(const ReadyTask& t, int wid) {
  Submission& sub = *sub_;
  const FlatGraph& g = *graph_;
  const TaskKey& key = g.key(t.id);
  const TaskClass& c = pool_.cls(key.cls);
  const bool migrated_in = t.origin >= 0 && t.origin != rank();
  // A migrated-in task brought its inputs in the steal reply; every other
  // task reads them in place from its slots.
  std::vector<DataBuf> carried;
  std::span<DataBuf> inputs;
  if (migrated_in) {
    {
      std::lock_guard lock(sub.mig_mu);
      auto it = sub.migrated_inputs.find(t.id);
      MP_REQUIRE(it != sub.migrated_inputs.end(),
                 "migrated task without its inputs");
      carried = std::move(it->second);
      sub.migrated_inputs.erase(it);
    }
    inputs = carried;
  } else {
    inputs = sub.inputs_of(g, t.id);
  }
  WorkerScratch& ws = sub.scratch[static_cast<size_t>(wid)];
  std::vector<DataBuf>& outs = ws.outputs;
  TaskCtx tctx(this, key, inputs, outs, wid);

  MP_ANNOTATE_TASK_BEGIN(c.name.c_str(), key.p.data(), 3);
  for (const DataBuf& in : inputs) {
    if (in) MP_ANNOTATE_BUF_READ(in.get());
  }
  const double t0 = opts_.enable_tracing ? sub.now() : 0.0;
  c.body(tctx);
  for (const DataBuf& out : outs) {
    if (out) MP_ANNOTATE_BUF_WRITE(out.get());
  }
  if (opts_.enable_tracing) {
    sub.worker_events[static_cast<size_t>(wid)].push_back(
        TraceEvent{rank(), wid, key.cls, key.p, t0, sub.now(), false});
  }

  // Route outputs along the task's out-edges. Locally-completed successors
  // are gathered into one batch and published with a single push_batch
  // onto this worker's own heap (one lock/notify round trip for all).
  for (const FlatGraph::Edge& e : g.successors(t.id)) {
    const auto s = static_cast<size_t>(e.out_slot);
    // Only an output's last edge moves its handle, so a slot is non-null
    // at every edge unless the body never set it.
    MP_REQUIRE(s < outs.size() && outs[s] != nullptr,
               "task '" + c.name + "' routed output slot " +
                   std::to_string(e.out_slot) + " but never set it");
    // The last edge of an output takes the producer's handle by move: a
    // sole consumer then holds the only handle and may mutate it in place.
    DataBuf buf = e.last_use ? std::move(outs[s]) : outs[s];
    // Under failure tolerance the consumer may live on a stand-in rank
    // (its home is confirmed dead); route to wherever it lives *now*.
    const int dst = failure_active()
                        ? route_recorded(e.consumer, e.in_slot, buf)
                        : g.owner(e.consumer);
    if (dst == rank()) {
      deposit(e.consumer, e.in_slot, std::move(buf), ws.batch);
    } else {
      post_activation(dst, e.consumer, e.in_slot, std::move(buf));
    }
  }
  publish(ws.batch, wid);
  // The task is done with its inputs and outputs: release them now.
  for (DataBuf& in : inputs) in.reset();
  outs.clear();

  MP_ANNOTATE_TASK_END();
  if (migrated_in) {
    // A migrated-in task: its completion belongs to the home rank's
    // termination count. Send a credit instead of counting it here.
    vc::WireWriter w;
    w.reserve(sizeof(int64_t) + sizeof(int32_t));
    w.put<int64_t>(static_cast<int64_t>(sub.sched.size()));
    w.put<int32_t>(t.id);
    vc::Message m;
    m.src = rank();
    m.dst = t.origin;
    m.tag = kTagCredit;
    m.header = w.take();
    post(std::move(m));
    // Release after the migrated-in count it is bounded by (the bound was
    // incremented before this task was even visible to pop). Only stolen
    // tasks take this path.
    // mp-lint: allow(shared-rmw-on-task-path)
    sub.st_credits_sent.fetch_add(1, std::memory_order_release);
    return;
  }
  // Only this worker writes its count: a plain store. Completion is checked
  // when a pop fails (worker_loop), not per task.
  ws.executed.store(ws.executed.load(std::memory_order_relaxed) + 1,
                    std::memory_order_release);
}

void Context::post(vc::Message m) {
  Submission& sub = *sub_;
  std::lock_guard lock(sub.out_mu);
  sub.outbox.push_back(std::move(m));
  // The outbox is a channel: segment buffers this worker wrote are read
  // next by the comm thread's send and then by a consumer on another rank.
  MP_ANNOTATE_CHANNEL_SEND(&sub.outbox);
}

void Context::post_activation(int dst, int32_t consumer, int slot,
                              DataBuf buf) {
  Submission& sub = *sub_;
  vc::Message m;
  m.src = rank();
  m.dst = dst;
  m.tag = kTagActivate;
  vc::WireWriter w;
  // One allocation for the whole header: the load hint, the consumer, the
  // slot and the buffer as encode_buf writes it.
  w.reserve(sizeof(int64_t) + sizeof(int32_t) + sizeof(int8_t) +
            encoded_size(buf));
  // Load hint piggybacked on every activation: receivers feed it to their
  // steal agent's victim selection.
  w.put<int64_t>(static_cast<int64_t>(sub.sched.size()));
  w.put<int32_t>(consumer);
  w.put<int8_t>(static_cast<int8_t>(slot));
  encode_buf(w, m.segments, std::move(buf), /*tagged=*/false);
  m.header = w.take();
  post(std::move(m));
}

void Context::maybe_local_complete() {
  Submission& sub = *sub_;
  // Every caller wrote its count (a worker's executed, the comm thread's
  // credits or expected) before calling. This read-modify-write orders
  // that write before the loads below, as a seq_cst fence would: of two
  // threads that count the rank's last tasks at the same moment, each
  // storing and then summing, the one whose update of `idle_sync` comes
  // second acquires the other's release and sees both counts. (GCC 12
  // rejects a standalone fence under -fsanitize=thread, and the sanitizer
  // builds must run this very code.) Only idle workers, the comm thread and
  // startup get here, never a task.
  sub.idle_sync.n.fetch_add(1, std::memory_order_acq_rel);
  // Under failure detection the check, the latch and the dead mask the
  // report carries are one step against handle_confirmed_death, which
  // publishes a death, grows expected by the adopted tasks and clears the
  // latch under the same lock. Otherwise a check against the old expected
  // could report completion under the new dead mask, and the coordinator
  // would end the job while the adopted tasks still wait to run.
  std::unique_lock<std::mutex> epoch;
  if (failure_active()) epoch = std::unique_lock(sub.complete_mu);
  // Each own/adopted task bumps exactly one of executed /
  // st_credits_received (post-confirmation credits from a dead holder are
  // fenced before reaching the counter), so the sum is monotone; expected
  // only grows (adoption), and it grows before the adopted work can run.
  // `<` rather than `!=`: after a death expands expected, a transient
  // equality at the *old* value must not be mistaken for completion twice —
  // the latch below plus the epoch reset in handle_confirmed_death handle
  // re-reporting.
  if (sub.executed() +
          sub.st_credits_received.load(std::memory_order_acquire) <
      sub.expected.load(std::memory_order_acquire)) {
    return;
  }
  if (sub.local_complete.exchange(true, std::memory_order_acq_rel)) return;
  if (!global_termination()) {
    sub.done.store(true, std::memory_order_release);
    wake_all();
    return;
  }
  // Global termination: report local completion to the coordinator, tagged
  // with this rank's confirmed-dead mask (the termination epoch). This rank
  // keeps its comm thread (steal agent, failure detector) running until
  // JOB_DONE — an idle-but-done rank still serves steals and heartbeats.
  const uint64_t mask =
      sub.confirmed_dead_mask.load(std::memory_order_acquire);
  if (rank() == 0) {
    note_rank_done(0, mask);
  } else {
    vc::WireWriter w;
    w.reserve(sizeof(uint64_t));
    w.put<uint64_t>(mask);
    rctx_.send(0, kTagLocalDone, w.take());
  }
}

bool Context::termination_check_locked() {
  Submission& sub = *sub_;
  // A rank counts as done when it is dead (its lost work was adopted and is
  // counted by the adopters) or when it has reported local completion with
  // a dead-set view covering rank 0's: a pre-death report is stale — the
  // reporter has since adopted work or must re-check against replays.
  const uint64_t my_dead =
      sub.confirmed_dead_mask.load(std::memory_order_acquire);
  for (int r = 0; r < nranks(); ++r) {
    if ((my_dead >> r) & 1ULL) continue;
    if (!sub.rank_done_seen[static_cast<size_t>(r)]) return false;
    if ((sub.rank_done_mask[static_cast<size_t>(r)] & my_dead) != my_dead) {
      return false;
    }
  }
  return true;
}

bool Context::note_rank_done(int r, uint64_t dead_mask) {
  Submission& sub = *sub_;
  bool broadcast = false;
  bool fresh = false;
  {
    std::lock_guard lock(sub.term_mu);
    if (r < 0 || static_cast<size_t>(r) >= sub.rank_done_seen.size()) {
      return false;
    }
    fresh = sub.rank_done_seen[static_cast<size_t>(r)] == 0;
    sub.rank_done_seen[static_cast<size_t>(r)] = 1;
    sub.rank_done_mask[static_cast<size_t>(r)] |= dead_mask;
    if (termination_check_locked() && !sub.job_done_broadcast) {
      sub.job_done_broadcast = true;
      broadcast = true;
    }
  }
  if (broadcast) broadcast_job_done();
  return fresh;
}

void Context::broadcast_job_done() {
  Submission& sub = *sub_;
  // Every live rank is locally done at the current epoch; by the credit
  // scheme no migrated task is uncounted anywhere, and by the epoch
  // reconciliation no adopted task is unexecuted — the whole DAG ran.
  const uint64_t dead = sub.confirmed_dead_mask.load(std::memory_order_acquire);
  for (int p = 1; p < nranks(); ++p) {
    if ((dead >> p) & 1ULL) continue;
    rctx_.send(p, kTagJobDone, {});
  }
  sub.done.store(true, std::memory_order_release);
  wake_all();
}

void Context::steal_agent_tick(std::chrono::steady_clock::time_point now_tp) {
  Submission& sub = *sub_;
  if (sub.done.load(std::memory_order_acquire)) return;
  if (sub.steal_outstanding) {
    if (now_tp < sub.steal_reply_deadline) return;
    // The reply was probably lost in the fabric; allow a fresh request. A
    // late reply, should it still arrive, is absorbed normally.
    sub.steal_outstanding = false;
  }
  if (sub.sched.size() > 0 || sub.any_active() || now_tp < sub.next_steal_at) {
    return;
  }
  // Victim selection: the best (largest) load hint heard so far, falling
  // back to a seeded random peer when nobody advertised work. A hint of 1
  // is not worth a request — the victim keeps its last task. Confirmed-dead
  // peers are never victims: the request would blackhole and the reply
  // timeout would throttle stealing for everyone.
  const uint64_t dead = sub.confirmed_dead_mask.load(std::memory_order_acquire);
  int victim = -1;
  int64_t best = 1;
  for (int p = 0; p < nranks(); ++p) {
    if (p == rank() || ((dead >> p) & 1ULL)) continue;
    if (sub.load_hints[static_cast<size_t>(p)] > best) {
      best = sub.load_hints[static_cast<size_t>(p)];
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
  if (sub.load_hints[static_cast<size_t>(victim)] > 0) {
    sub.load_hints[static_cast<size_t>(victim)] = 0;
  }
  sub.st_requests_sent.fetch_add(1, std::memory_order_relaxed);
  sub.steal_outstanding = true;
  vc::WireWriter w;
  w.reserve(sizeof(int64_t));
  w.put<int64_t>(static_cast<int64_t>(sub.sched.size()));
  rctx_.send(victim, kTagStealRequest, w.take());
  sub.next_steal_at = now_tp + ms_to_us(opts_.steal_cooldown_ms);
  sub.steal_reply_deadline = now_tp + ms_to_us(opts_.steal_reply_timeout_ms);
}

void Context::serve_steal_request(const vc::Message& msg) {
  Submission& sub = *sub_;
  sub.st_requests_received.fetch_add(1, std::memory_order_relaxed);
  try {
    vc::WireReader r(msg.header);
    read_load_hint(r, msg.src, sub.load_hints);
  } catch (...) {
    // Malformed request: answer empty-handed rather than unwind.
  }
  // Steal-half policy: give away at most half of the ready queue (capped),
  // and only tasks that are locally owned and migratable. Whatever the
  // harvest popped but cannot ship goes straight back.
  std::vector<ReadyTask> batch;
  const size_t avail = sub.sched.size();
  if (!sub.done.load(std::memory_order_acquire) && avail >= 2) {
    const size_t want = std::min<size_t>(avail / 2, kStealMaxBatch);
    std::vector<ReadyTask> popped, keep;
    sub.sched.harvest(popped, want);
    for (auto& t : popped) {
      const bool foreign = t.origin >= 0 && t.origin != rank();
      if (!foreign && pool_.cls(graph_->key(t.id).cls).migratable) {
        batch.push_back(std::move(t));
      } else {
        keep.push_back(std::move(t));
      }
    }
    if (!keep.empty()) {
      sub.sched.push_batch(std::move(keep), -1);
      // A worker could have observed an empty queue during the harvest
      // window and gone to sleep; the re-push must not be lost.
      wake_all();
    }
  }
  vc::WireWriter w;
  std::vector<DataBuf> segments;
  size_t bytes = sizeof(int64_t) + sizeof(uint32_t);
  for (const ReadyTask& t : batch) {
    bytes += sizeof(int32_t) + sizeof(double) + sizeof(uint32_t);
    for (const DataBuf& in : sub.inputs_of(*graph_, t.id)) {
      bytes += sizeof(uint8_t) + encoded_size(in);
    }
  }
  w.reserve(bytes);
  w.put<int64_t>(static_cast<int64_t>(sub.sched.size()));
  w.put<uint32_t>(static_cast<uint32_t>(batch.size()));
  for (ReadyTask& t : batch) {
    // The task leaves with its inputs: its slots here are emptied.
    const std::span<DataBuf> inputs = sub.inputs_of(*graph_, t.id);
    w.put<int32_t>(t.id);
    w.put<double>(t.priority);
    w.put<uint32_t>(static_cast<uint32_t>(inputs.size()));
    std::vector<DataBuf> retained;
    for (DataBuf& in : inputs) {
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
      if (failure_active()) retained.push_back(in);
      encode_buf(w, segments, std::move(in), /*tagged=*/true);
      in = nullptr;
    }
    // Every migration stays keyed until its credit arrives. Failure
    // detection also retains the input handles (not the contents) so the
    // task can be re-injected locally if the thief dies first; re-injection
    // REHOMEs them.
    OutstandingMig om;
    om.holder = msg.src;
    om.priority = t.priority;
    om.inputs = std::move(retained);
    sub.outstanding_migs[t.id] = std::move(om);
  }
  // Reply counted before the tasks it carries (release), so a snapshot
  // observing migrated-out tasks always observes the reply too.
  sub.st_replies_sent.fetch_add(1, std::memory_order_relaxed);
  sub.st_migrated_out.fetch_add(batch.size(), std::memory_order_release);
  rctx_.send(msg.src, kTagStealReply, w.take(), std::move(segments));
  if (!batch.empty()) sub.progress.fetch_add(1, std::memory_order_relaxed);
}

void Context::absorb_steal_reply(vc::Message& msg) {
  Submission& sub = *sub_;
  sub.st_replies_received.fetch_add(1, std::memory_order_relaxed);
  sub.steal_outstanding = false;
  size_t n = 0;
  try {
    vc::WireReader r(msg.header);
    size_t next_segment = 0;
    read_load_hint(r, msg.src, sub.load_hints);
    n = r.get<uint32_t>();
    std::vector<ReadyTask> tasks;
    tasks.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ReadyTask t;
      t.id = r.get<int32_t>();
      MP_REQUIRE(t.id >= 0 && t.id < graph_->size(),
                 "steal reply: unknown task id");
      t.priority = r.get<double>();
      t.origin = msg.src;
      const auto nin = r.get<uint32_t>();
      std::vector<DataBuf> inputs(nin);
      for (uint32_t s = 0; s < nin; ++s) {
        inputs[s] = decode_buf(r, msg.segments, next_segment,
                               /*tagged=*/true);
      }
      {
        std::lock_guard lock(sub.mig_mu);
        sub.migrated_inputs[t.id] = std::move(inputs);
      }
      tasks.push_back(t);
    }
    MP_REQUIRE(next_segment == msg.segments.size(),
               "steal reply: unclaimed message segments");
    if (!tasks.empty()) {
      // Bound for credits_sent: incremented (release) before the tasks
      // become poppable, so a credit can never be observed without it.
      sub.st_migrated_in.fetch_add(tasks.size(), std::memory_order_release);
      publish(tasks, -1);
      sub.progress.fetch_add(1, std::memory_order_relaxed);
    }
  } catch (...) {
    record_error();
    return;
  }
  if (n == 0) {
    sub.next_steal_at =
        std::chrono::steady_clock::now() + ms_to_us(opts_.steal_backoff_ms);
  }
}

void Context::record_error(const std::string& reason) {
  Submission& sub = *sub_;
  {
    std::lock_guard lock(sub.error_mu);
    if (!sub.first_error) sub.first_error = std::current_exception();
  }
  // Tell every other rank: their remaining tasks may depend on activations
  // this rank will never send, so they must unwind too or the job
  // deadlocks at scale. The reason (when given) rides in the header so
  // peers surface the actual cause, not a generic task failure.
  if (!sub.abort_broadcast.exchange(true)) {
    const vc::Payload header(reason.begin(), reason.end());
    for (int r = 0; r < nranks(); ++r) {
      if (r == rank()) continue;
      rctx_.send(r, kTagAbort, header);
    }
  }
  // Force a shutdown: remaining tasks will never run, but every thread
  // must unwind cleanly so run() can rethrow.
  sub.done.store(true, std::memory_order_release);
  wake_all();
}

int Context::effective_rank(int32_t id) const {
  const Submission& sub = *sub_;
  // The re-homing rules themselves live in ptg/protocol.h so the
  // mp-explore model checker adopts with exactly this arithmetic.
  const int home = graph_->owner(id);
  const uint64_t dead = sub.confirmed_dead_mask.load(std::memory_order_acquire);
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
      const TaskKey& key = graph_->key(id);
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

int Context::route_recorded(int32_t consumer, int slot, const DataBuf& buf) {
  Submission& sub = *sub_;
  std::lock_guard lock(sub.lin_mu);
  const int dst = effective_rank(consumer);
  if (dst != rank()) {
    sub.lineage[static_cast<size_t>(dst)].push_back(
        LineageEntry{consumer, static_cast<int8_t>(slot), buf});
  }
  return dst;
}

namespace {
// Heartbeat payload flags.
constexpr uint8_t kBeat = 0;
constexpr uint8_t kProbe = 1;
constexpr uint8_t kProbeAnswer = 2;
}  // namespace

void Context::send_heartbeat(int dst, uint8_t flag) {
  Submission& sub = *sub_;
  vc::WireWriter w;
  w.reserve(sizeof(int64_t) + sizeof(uint8_t));
  w.put<int64_t>(static_cast<int64_t>(sub.sched.size()));
  w.put<uint8_t>(flag);
  rctx_.send(dst, kTagHeartbeat, w.take());
  sub.fs_heartbeats_sent.fetch_add(1, std::memory_order_relaxed);
}

void Context::on_heartbeat(const vc::Message& msg) {
  Submission& sub = *sub_;
  sub.fs_heartbeats_received.fetch_add(1, std::memory_order_relaxed);
  try {
    vc::WireReader r(msg.header);
    read_load_hint(r, msg.src, sub.load_hints);
    const uint8_t flag = r.get<uint8_t>();
    if (flag == kProbe) {
      // Answer instantly: a slow-but-alive peer clears its suspicion at
      // the prober, a dead one cannot answer — that asymmetry is the whole
      // suspicion protocol.
      send_heartbeat(msg.src, kProbeAnswer);
    } else if (flag == kProbeAnswer) {
      sub.fs_probes_answered.fetch_add(1, std::memory_order_release);
    }
  } catch (...) {
    // Malformed heartbeat: liveness was already refreshed at pop; ignore.
  }
}

void Context::detector_tick(std::chrono::steady_clock::time_point now_tp) {
  Submission& sub = *sub_;
  if (sub.done.load(std::memory_order_acquire)) return;
  const uint64_t dead = sub.confirmed_dead_mask.load(std::memory_order_acquire);
  if (now_tp >= sub.next_heartbeat) {
    for (int p = 0; p < nranks(); ++p) {
      if (p == rank() || ((dead >> p) & 1ULL)) continue;
      send_heartbeat(p, kBeat);
    }
    sub.next_heartbeat = now_tp + ms_to_us(opts_.heartbeat_interval_ms);
  }
  for (int p = 0; p < nranks(); ++p) {
    if (p == rank() || ((dead >> p) & 1ULL)) continue;
    const size_t sp = static_cast<size_t>(p);
    if (sub.peer_suspect[sp] == 0) {
      const double silent_ms =
          std::chrono::duration<double, std::milli>(now_tp - sub.last_heard[sp])
              .count();
      if (silent_ms > opts_.suspect_after_ms) {
        sub.peer_suspect[sp] = 1;
        sub.suspect_since[sp] = now_tp;
        sub.fs_suspicions.fetch_add(1, std::memory_order_release);
        sub.fs_probes_sent.fetch_add(1, std::memory_order_release);
        send_heartbeat(p, kProbe);
      }
    } else {
      const double suspect_ms = std::chrono::duration<double, std::milli>(
                                    now_tp - sub.suspect_since[sp])
                                    .count();
      if (suspect_ms > opts_.confirm_after_ms) {
        sub.peer_suspect[sp] = 0;
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
  Submission& sub = *sub_;
  // No completion check runs from the death's publication to the latch's
  // reset below: a check sees either the old epoch whole (old mask, old
  // expected) or the new one.
  std::unique_lock epoch(sub.complete_mu);
  const uint64_t bit = 1ULL << dead;
  const uint64_t prev =
      sub.confirmed_dead_mask.fetch_or(bit, std::memory_order_acq_rel);
  if ((prev & bit) != 0) return;
  const uint64_t mask = prev | bit;
  // deaths_confirmed bounds every recovery-work counter: increment it (and
  // the paired watchdog-reset counter) before any adoption/replay below.
  sub.fs_watchdog_resets_on_death.fetch_add(1, std::memory_order_relaxed);
  sub.fs_deaths_confirmed.fetch_add(1, std::memory_order_release);
  // Exactly one watchdog reset per confirmed death: the death itself is
  // progress (recovery starts), but must not mask a stuck recovery.
  sub.progress.fetch_add(1, std::memory_order_relaxed);

  const FlatGraph& g = *graph_;
  const auto lost =
      static_cast<uint64_t>(g.rank_end(dead) - g.rank_begin(dead));
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
  // tasks whose stand-in (an earlier victim's adopter) just died, or their
  // replays park in held_ready forever while every live rank reports
  // done — a silently incomplete "successful" run. Tasks this rank already
  // adopted are filtered out up front (before on_adopt runs) so neither
  // expected nor a group's external-state reset can double-fire.
  std::vector<int32_t> mine;
  {
    std::lock_guard lock(sub.adopt_mu);
    for (int dr = 0; dr < nranks(); ++dr) {
      if (((mask >> dr) & 1ULL) == 0) continue;
      for (int32_t id = g.rank_begin(dr); id < g.rank_end(dr); ++id) {
        if (effective_rank(id) != rank()) continue;
        if (sub.adopted[static_cast<size_t>(id)] != 0) continue;
        mine.push_back(id);
      }
    }
  }
  // Two-pass adoption: reset external side effects (on_adopt, once per
  // recovery group) BEFORE any adopted instance can become ready — a
  // re-executed writer must never race its own group's reset.
  std::set<std::pair<int16_t, int64_t>> groups_done;
  for (const int32_t id : mine) {
    const TaskKey& key = g.key(id);
    const TaskClass& c = pool_.cls(key.cls);
    if (!c.on_adopt) continue;
    if (c.recovery_key) {
      if (!groups_done.emplace(key.cls, c.recovery_key(key.p)).second) continue;
    }
    c.on_adopt(key.p, dead);
  }
  if (!mine.empty()) {
    // Grow expected BEFORE publishing adoption below: the instant a task
    // is marked adopted, a worker depositing its final input falls
    // through the park-until-adopted check and executes it, and that
    // execution must never be compared against the pre-adoption target
    // (a rank one own-task short of done would transiently see
    // sum == expected and latch completion at the new epoch).
    sub.expected.fetch_add(mine.size(), std::memory_order_release);
    sub.fs_tasks_adopted.fetch_add(mine.size(), std::memory_order_release);
  }
  std::vector<ReadyTask> ready;
  {
    std::lock_guard lock(sub.adopt_mu);
    for (const int32_t id : mine) {
      sub.adopted[static_cast<size_t>(id)] = 1;
      if (g.num_inputs(id) == 0) {
        ready.push_back(ReadyTask{g.task_priority(id), 0, id, -1});
      }
    }
    sub.adopted_count += mine.size();
    // Completed tasks parked before their adoption run now.
    std::erase_if(sub.held_ready, [&](int32_t id) {
      if (sub.adopted[static_cast<size_t>(id)] == 0) return false;
      ready.push_back(ReadyTask{g.task_priority(id), 0, id, -1});
      return true;
    });
  }

  // 2) Lineage replay: re-deliver every activation this rank ever sent
  // toward the victim, to wherever its consumer lives now. Entries are
  // re-recorded under the new destination so a second death stays covered.
  std::vector<LineageEntry> replay;
  {
    std::lock_guard lock(sub.lin_mu);
    replay.swap(sub.lineage[static_cast<size_t>(dead)]);
  }
  for (LineageEntry& e : replay) {
    const int dst = route_recorded(e.consumer, e.slot, e.buf);
    sub.fs_lineage_replayed.fetch_add(1, std::memory_order_release);
    if (dst == rank()) {
      deposit(e.consumer, e.slot, std::move(e.buf), ready);
      continue;
    }
    post_activation(dst, e.consumer, e.slot, std::move(e.buf));
  }

  // 3) Re-inject own tasks that were migrated to the victim and never
  // credited: no credit will ever come, so they run here after all, from
  // the input handles put back into their slots. The retained handles are
  // re-homed (recovery's ownership epoch) — accessing them without that
  // annotation is exactly finding MPA008.
  size_t reinjected = 0;
  auto& migs = sub.outstanding_migs;
  for (auto it = migs.begin(); it != migs.end();) {
    if (it->second.holder != dead) {
      ++it;
      continue;
    }
    const int32_t id = it->first;
    const std::span<DataBuf> slots = sub.inputs_of(g, id);
    std::vector<DataBuf>& kept = it->second.inputs;
    for (size_t i = 0; i < kept.size() && i < slots.size(); ++i) {
      if (kept[i]) MP_ANNOTATE_BUF_REHOME(kept[i].get());
      slots[i] = std::move(kept[i]);
    }
    ready.push_back(ReadyTask{it->second.priority, 0, id, -1});
    ++reinjected;
    it = migs.erase(it);
  }
  if (reinjected > 0) {
    sub.fs_tasks_reinjected.fetch_add(reinjected, std::memory_order_release);
  }
  publish(ready, /*worker=*/-1);

  // 4) Per-epoch termination reconciliation: any completion latched before
  // this death is stale (this rank may have just adopted work, and rank 0
  // now requires reports covering the new dead set). Re-enter the
  // completion protocol at the new epoch.
  sub.local_complete.store(false, std::memory_order_release);
  epoch.unlock();
  if (rank() == 0) {
    bool broadcast = false;
    {
      std::lock_guard lock(sub.term_mu);
      if (termination_check_locked() && !sub.job_done_broadcast) {
        sub.job_done_broadcast = true;
        broadcast = true;
      }
    }
    if (broadcast) broadcast_job_done();
  }
  maybe_local_complete();
}

void Context::worker_loop(int wid) {
  Submission& sub = *sub_;
  std::atomic<uint32_t>& active = sub.scratch[static_cast<size_t>(wid)].active;
  ReadyTask t;
  while (true) {
    if (!sub.done.load(std::memory_order_acquire) &&
        sub.sched.try_pop(t, wid)) {
      active.store(1, std::memory_order_relaxed);
      try {
        execute_task(t, wid);
      } catch (...) {
        active.store(0, std::memory_order_relaxed);
        record_error();
        return;
      }
      active.store(0, std::memory_order_relaxed);
      continue;
    }
    if (sub.done.load(std::memory_order_acquire)) return;
    // The pop failed, so this worker may have counted the rank's last task,
    // or seen a peer count it: check for completion before sleeping. A task
    // does not check (or touch any shared counter) on its own.
    maybe_local_complete();
    if (sub.done.load(std::memory_order_acquire)) return;
    // Block until woken: every push and every done transition notifies
    // while holding wake_mu, so an idle runtime is fully quiescent (no
    // periodic polling) and no wakeup can be lost.
    std::unique_lock lock(sub.wake_mu);
    sub.wake_cv.wait(lock, [&] {
      return sub.done.load(std::memory_order_acquire) || sub.sched.size() > 0;
    });
  }
}

double Context::watchdog_deadline_ms() const {
  const Submission& sub = *sub_;
  // Outstanding local work scales the deadline: a rank with many tasks
  // still queued behind a slow remote chain is making no *local* progress
  // but is not stuck, and the base interval alone fires spuriously on
  // 1-worker configs running long GEMM chains.
  const uint64_t completed =
      sub.executed() + sub.st_credits_received.load(std::memory_order_relaxed);
  const uint64_t expected = sub.expected.load(std::memory_order_relaxed);
  const uint64_t outstanding = expected > completed ? expected - completed
                                                    : 0;
  double scale =
      1.0 + opts_.watchdog_scale_per_task *
                static_cast<double>(std::min<uint64_t>(outstanding, 32));
  if (global_termination() &&
      sub.local_complete.load(std::memory_order_relaxed)) {
    // Locally complete, waiting for the global JOB_DONE: that can trail
    // the slowest rank's tail arbitrarily; be patient before declaring a
    // lost control message.
    scale = std::max(scale, kWatchdogGlobalScale);
  }
  return opts_.watchdog_timeout_ms * scale;
}

std::string Context::watchdog_dump() {
  Submission& sub = *sub_;
  const FlatGraph& g = *graph_;
  size_t pending_keys = 0, pending_arrived = 0;
  for (int32_t id = sub.in.task_lo; id < sub.in.task_hi; ++id) {
    const int32_t left = sub.pending_of(id).load(std::memory_order_relaxed);
    if (left > 0 && left < g.num_inputs(id)) {
      ++pending_keys;
      pending_arrived += static_cast<size_t>(g.num_inputs(id) - left);
    }
  }
  size_t outbox_depth = 0;
  {
    std::lock_guard lock(sub.out_mu);
    outbox_depth = sub.outbox.size();
  }
  const StealStats ss = steal_stats();
  // Distinguish "chain migrated, credit pending" from "activation lost":
  // with stealing, a stall with migrated-out tasks uncredited points at a
  // lost STEAL_REPLY/CREDIT, not at the classic lost activation.
  const char* likely = "likely a lost activation";
  if (failure_active() &&
      sub.fs_deaths_confirmed.load(std::memory_order_relaxed) > 0) {
    likely = "recovering from a confirmed rank death — adopted or replayed "
             "chain(s) still outstanding";
  } else if (stealing_active()) {
    if (ss.credits_received < ss.tasks_migrated_out) {
      likely = "chain(s) migrated out await credits — STEAL_REPLY or "
               "CREDIT lost in the fabric";
    } else if (sub.local_complete.load(std::memory_order_relaxed)) {
      likely = "locally complete, awaiting global termination — "
               "LOCAL_DONE or JOB_DONE lost in the fabric";
    }
  }
  std::ostringstream os;
  os << "PTG watchdog: rank " << rank() << " made no progress for "
     << watchdog_deadline_ms() << " ms with tasks outstanding (" << likely
     << ")."
     << " executed=" << sub.executed() << "/" << sub.expected.load()
     << " pending_deposit_keys=" << pending_keys
     << " pending_deposits_arrived=" << pending_arrived
     << " ready_queue=" << sub.sched.size()
     << " outbox_depth=" << outbox_depth
     << " mailbox_depth=" << rctx_.mailbox().size()
     << " remote_activations_sent=" << sub.remote_sent.load();
  if (stealing_active()) {
    os << " credits=" << ss.credits_received << "/" << ss.tasks_migrated_out
       << " migrated_in=" << ss.tasks_migrated_in
       << " credits_sent=" << ss.credits_sent
       << " foreign_pending=" << ss.tasks_migrated_in - ss.credits_sent
       << " steal_outstanding=" << (sub.steal_outstanding ? 1 : 0)
       << " outstanding_migrations=" << sub.outstanding_migs.size();
  }
  if (failure_active()) {
    size_t held = 0;
    {
      std::lock_guard lock(sub.adopt_mu);
      held = sub.held_ready.size();
    }
    os << " dead_mask=0x" << std::hex
       << sub.confirmed_dead_mask.load(std::memory_order_relaxed) << std::dec
       << " held_ready=" << held << " failure={" << failure_stats().describe()
       << "}";
  }
  return os.str();
}

void Context::comm_loop() {
  Submission& sub = *sub_;
  vc::Mailbox& mb = rctx_.mailbox();
  uint64_t watchdog_progress = sub.progress_mark();
  auto watchdog_mark = std::chrono::steady_clock::now();
  if (failure_active()) {
    const auto start = std::chrono::steady_clock::now();
    for (auto& t : sub.last_heard) t = start;
    sub.next_heartbeat = start + ms_to_us(opts_.heartbeat_interval_ms);
  }
  while (true) {
    // Fail-stop self check: if this rank was crash-injected, go silent
    // immediately — no drain, no abort broadcast, no logging. From the
    // survivors' point of view this rank simply stopped talking.
    if (rctx_.is_dead()) {
      killed_.store(true, std::memory_order_release);
      sub.done.store(true, std::memory_order_release);
      wake_all();
      return;
    }
    // Drain the outbox: workers enqueue remote activations, the comm thread
    // performs the actual transfers (the paper's dedicated comm core). One
    // lock per turn takes everything queued so far.
    {
      std::lock_guard lock(sub.out_mu);
      sub.sending.swap(sub.outbox);
      if (!sub.sending.empty()) MP_ANNOTATE_CHANNEL_RECV(&sub.outbox);
    }
    const bool sent_any = !sub.sending.empty();
    uint64_t activations = 0;
    for (vc::Message& m : sub.sending) {
      const double t0 = opts_.enable_tracing ? sub.now() : 0.0;
      if (m.tag == kTagActivate) ++activations;
      rctx_.send(m.dst, m.tag, std::move(m.header), std::move(m.segments));
      if (opts_.enable_tracing) {
        sub.comm_events.push_back(
            TraceEvent{rank(), -1, -1, {0, 0, 0}, t0, sub.now(), true});
      }
    }
    if (sent_any) {
      sub.progress.fetch_add(sub.sending.size(), std::memory_order_relaxed);
      sub.remote_sent.fetch_add(activations, std::memory_order_relaxed);
      sub.sending.clear();
    }

    // Take the inbound messages, one lock per turn. Only messages that
    // move real work — activations, credits, steal replies that carry
    // tasks, shipments out of serve_steal_request — count as watchdog
    // progress. Counting every pop would let the idle steal chatter of a
    // stalled job (requests and empty replies bouncing between ranks
    // whose ready queues are all empty) reset the deadline forever, and
    // a lost activation would hang the run instead of tripping the
    // watchdog.
    if (sent_any) {
      mb.take_all(sub.inbox);
    } else {
      mb.take_all_wait(100us, sub.inbox);
    }
    bool activated = false;
    for (vc::Message& in : sub.inbox) {
      vc::Message* msg = &in;
      if (failure_active() && msg->src >= 0 && msg->src < nranks()) {
        const size_t s = static_cast<size_t>(msg->src);
        if ((sub.confirmed_dead_mask.load(std::memory_order_acquire) >> s) &
            1ULL) {
          // Fence the dead epoch: anything a confirmed-dead rank sent is
          // superseded by recovery (its chains are re-executed wholly), and
          // letting a straggler credit/activation through would double
          // count against the reconciled termination state.
          sub.fs_fenced_dropped.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // Piggybacked liveness: ANY message is proof of life.
        sub.last_heard[s] = std::chrono::steady_clock::now();
        if (sub.peer_suspect[s] != 0) {
          sub.peer_suspect[s] = 0;
          sub.fs_suspicions_cleared.fetch_add(1, std::memory_order_release);
        }
      }
      // One case per WireTag enumerator (tools/lint.py enforces the switch
      // stays exhaustive as tags are added — a silently dropped tag is the
      // PR 6 livelock class); the default catches garbage off the wire.
      switch (msg->tag) {
      case kTagActivate: {
        try {
          vc::WireReader r(msg->header);
          read_load_hint(r, msg->src, sub.load_hints);
          const int32_t id = r.get<int32_t>();
          const int slot = r.get<int8_t>();
          size_t next_segment = 0;
          deposit(id, slot,
                  decode_buf(r, msg->segments, next_segment,
                             /*tagged=*/false),
                  sub.comm_batch);
          activated = true;
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
          read_load_hint(r, msg->src, sub.load_hints);
          const int32_t id = r.get<int32_t>();
          // The migrated task retired at its holder: retire its entry (and,
          // under failure detection, the retained input handles).
          sub.outstanding_migs.erase(id);
          sub.st_credits_received.fetch_add(1, std::memory_order_release);
          // A migrated task retired somewhere: real forward progress.
          sub.progress.fetch_add(1, std::memory_order_relaxed);
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
          if (fresh) sub.progress.fetch_add(1, std::memory_order_relaxed);
          // A repeated report after JOB_DONE means the src missed the
          // broadcast (dropped in the fabric): replay it point-to-point.
          if (!fresh && sub.done.load(std::memory_order_acquire)) {
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
        sub.done.store(true, std::memory_order_release);
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
    }
    sub.inbox.clear();
    // Every task this turn's activations completed: one push, one wake.
    if (activated) sub.progress.fetch_add(1, std::memory_order_relaxed);
    publish(sub.comm_batch, -1);

    if (global_termination()) {
      const auto now_tp = std::chrono::steady_clock::now();
      if (stealing_active()) steal_agent_tick(now_tp);
      if (failure_active()) detector_tick(now_tp);
      // Periodically repeat the local-done report until JOB_DONE arrives:
      // together with rank 0's replay above this makes global termination
      // survive dropped control messages. The report always carries the
      // current dead mask — after a death the resend IS the new epoch's
      // report.
      if (rank() != 0 && !sub.done.load(std::memory_order_acquire) &&
          sub.local_complete.load(std::memory_order_acquire) &&
          now_tp >= sub.next_done_resend) {
        vc::WireWriter w;
        w.reserve(sizeof(uint64_t));
        w.put<uint64_t>(
            sub.confirmed_dead_mask.load(std::memory_order_acquire));
        rctx_.send(0, kTagLocalDone, w.take());
        sub.next_done_resend = now_tp + ms_to_us(opts_.termination_resend_ms);
      }
    }

    // Watchdog: if tasks are outstanding but nothing has moved — no task
    // executed, no deposit, no message in or out, no worker busy, nothing
    // queued — for the (outstanding-work-scaled) deadline, an activation
    // was lost somewhere. Surface a diagnostic StateError instead of
    // hanging forever.
    if (opts_.watchdog_timeout_ms > 0.0 &&
        !sub.done.load(std::memory_order_acquire)) {
      const uint64_t p = sub.progress_mark();
      const auto now_tp = std::chrono::steady_clock::now();
      if (p != watchdog_progress || sub.any_active() || sub.sched.size() > 0) {
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

    if (sub.comm_stop.load(std::memory_order_acquire)) {
      bool outbox_empty;
      {
        std::lock_guard lock(sub.out_mu);
        outbox_empty = sub.outbox.empty();
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
  const Submission& finished = *sub_;
  // ---- validate before discard: snapshot every counter pair with its
  // acquire-ordered reader and validate it BEFORE the Submission holding
  // it is replaced (tools/lint.py: reset-stats-discipline). A Context must
  // never carry an inconsistent pair — or a torn one — into the next run
  // unnoticed.
  if (finished.clean) {
    const StealStats steal_snap = steal_stats();
    const std::string steal_bad = steal_snap.validate();
    MP_REQUIRE(steal_bad.empty(), "reset_for_resubmission: " + steal_bad);
    const FailureStats failure_snap = failure_stats();
    const std::string failure_bad = failure_snap.validate();
    MP_REQUIRE(failure_bad.empty(), "reset_for_resubmission: " + failure_bad);
    const SchedStats sched_snap = scheduler_stats();
    const std::string sched_bad = sched_snap.validate();
    MP_REQUIRE(sched_bad.empty(), "reset_for_resubmission: " + sched_bad);
  }
  // else: the finished run unwound mid-flight, so its counter pairs are
  // legitimately torn (a push whose pop never happened); the reset's whole
  // job is to discard that state, not to certify it.

  // ---- what the finished run left behind. The threads are parked, so
  // nothing races these reads.
  ResetReport rep;
  rep.submission = finished.index;
  const FlatGraph& g = *graph_;
  for (int32_t id = finished.in.task_lo; id < finished.in.task_hi; ++id) {
    const int inputs = g.num_inputs(id);
    const int32_t left =
        finished.pending_of(id).load(std::memory_order_relaxed);
    if (left > 0 && left < inputs) ++rep.pending_deposits;
    if (failure_active() && inputs > 0 && left == 0) ++rep.activated_keys;
  }
  rep.adopted_keys = finished.adopted_count;
  rep.held_ready = finished.held_ready.size();
  for (const auto& per_dst : finished.lineage) {
    rep.lineage_entries += per_dst.size();
  }
  rep.outstanding_migrations = finished.outstanding_migs.size();
  rep.outbox_messages = finished.outbox.size();

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
  vc::Mailbox& mb = rctx_.mailbox();
  while (mb.try_pop()) ++rep.stale_messages;
  mb.rebase_windows();
  reset_report_ = rep;
  // ---- everyone is reset before anyone may send into the fresh windows.
  rctx_.barrier();

  // ---- discard the finished run whole: its leftover ReadyTasks, deposits
  // and retained handles are released here (before the next run's state is
  // allocated, so the two never coexist), and every counter and latch of
  // the next run starts from its initial value.
  const uint64_t next = finished.index + 1;
  InputState inputs = std::move(sub_->in);
  sub_.reset();
  sub_ = std::make_unique<Submission>(*this, next, std::move(inputs));
}

void Context::run() {
  MP_REQUIRE(!killed_.load(std::memory_order_acquire),
             "Context::run: this rank was crash-injected; a killed Context "
             "cannot be resubmitted (std::barrier drop is permanent)");
  MP_REQUIRE(!running_.exchange(true),
             "Context::run: concurrent run() on one Context");
  const ClearOnExit guard{running_};
  if (sub_->started) reset_for_resubmission();
  // Mark started *before* running: if run_submission unwinds (watchdog,
  // task error, abort broadcast) the next run() must still replace this
  // Submission — that unwind is collective across live ranks, so they all
  // will.
  sub_->started = true;
  run_submission();
  sub_->clean = true;
  runs_completed_.fetch_add(1, std::memory_order_release);
}

void Context::run_submission() {
  Submission& sub = *sub_;
  // Pre-execution graph verification (mp-verify pass 1). The graph is the
  // same on every rank, so rank 0 checks it for the whole job; a malformed
  // graph fails fast here instead of silently corrupting results. The pass
  // runs once per Context — the pool and cluster size are fixed for its
  // lifetime — and a template that was already verified at cache-build
  // time skips it entirely (assume_verified). Its verdict is latched: a
  // graph that failed fails every later run of this Context the same way.
  if (rank() == 0 && !verified_once_ && !opts_.assume_verified &&
      analysis::env_verify_enabled()) {
    verified_once_ = true;
    const auto diags = validate_plan();
    if (!diags.empty()) {
      verify_failure_ = "MP_VERIFY: task graph failed static verification; " +
                        analysis::render(diags);
    }
  }
  if (!verify_failure_.empty()) {
    // Unwind collectively before any task runs: record_error broadcasts
    // the abort, every rank's threads drain out, and all live ranks meet
    // the error path's barrier below before rethrowing — the Context (and
    // the cluster's barrier) stay usable.
    try {
      throw StateError(verify_failure_);
    } catch (...) {
      record_error(verify_failure_);
    }
  }

  // Startup pushes nothing: each heap's cursor starts at its presorted run.
  // The threads are still parked; arming the submission wakes them.
  sub.sched.serve(startup_runs_);
  if (global_termination()) {
    // A rank with no own tasks is *locally* done immediately but must not
    // exit: it keeps serving the fabric (steal agent, failure detector)
    // until the coordinator's JOB_DONE — that idle capacity is the whole
    // point of inter-node stealing, and under failure detection every rank
    // must keep heartbeating until the job ends globally.
    maybe_local_complete();
  } else if (sub.expected.load() == 0) {
    sub.done.store(true);
  }

  // No thread churn: the long-lived threads (spawned once, on the first
  // submission) are parked on the submission epoch; arming wakes them
  // straight into their loops.
  start_threads();
  arm_submission();
  if (!sub.done.load()) {
    worker_loop(0);  // the calling thread is worker 0
  }
  wait_workers_parked();
  sub.comm_stop.store(true, std::memory_order_release);
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
    std::lock_guard lock(sub.error_mu);
    if (sub.first_error) {
      // Let the other ranks out of the final barrier before unwinding; the
      // Cluster maps an unwinding rank to arrive_and_drop.
      rctx_.barrier();
      std::rethrow_exception(sub.first_error);
    }
  }

  if (opts_.enable_tracing) {
    for (auto& evs : sub.worker_events) {
      for (const auto& e : evs) sub.trace.add(e);
    }
    for (const auto& e : sub.comm_events) sub.trace.add(e);
  }

  // All outputs flushed; synchronize the job before returning control to
  // the embedding application (NWChem in the paper).
  rctx_.barrier();
}

}  // namespace mp::ptg
