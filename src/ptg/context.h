// The per-rank runtime context: PaRSEC's engine. Owns the worker threads
// and the communication thread of one rank, tracks dependency arrivals per
// task instance, schedules ready tasks by priority, ships output buffers to
// remote consumers through the virtual-cluster fabric, and detects
// termination (every locally-owned task instance executed).
//
// It runs the taskpool's compiled graph (ptg/flat_graph.h), never the
// symbolic description: owners, priorities, input counts, successors and
// startup tasks come from flat arrays, a task is named by its int32 id (on
// the wire too), and the only TaskClass function called per task is its
// body. A deposit stores the buffer in the task's input slot and makes one
// atomic decrement of the task's pending-input count — no lock, no map,
// no allocation; the deposit that reaches zero makes the id ready, and the
// task's body reads its inputs in place.
//
// Buffers cross ranks zero-copy. Remote activations, lineage replays and
// steal replies all go through one codec: a buffer of at most kEagerLimit
// doubles is copied inline into the message header, a larger one rides as a
// message segment — the DataBuf handle itself — so the in-process fabric
// moves a refcount instead of the doubles. The receiver may therefore hold
// the very object the sender (or a fan-out sibling, or the recovery state)
// still reads; TaskCtx::take_input copies whenever the handle is shared.
//
// With `Options::enable_stealing`, the comm thread doubles as an inter-node
// steal agent (John et al., "Distributed Work Stealing in a Task-Based
// Dataflow Runtime"): when the local queues run dry it picks a victim —
// randomized, biased by load hints piggybacked on every activation and
// steal message — and sends a STEAL_REQUEST. The victim harvests up to
// half of its ready tasks (capped at a fixed batch size, skipping classes
// marked non-migratable) and ships them, input buffer handles included, in
// a STEAL_REPLY. Because migrated tasks execute on a foreign rank,
// termination switches to a credit scheme: the thief sends one CREDIT per
// completed foreign task back to its home rank, a rank is *locally* done
// when executed + credits_received == expected, local-done reports flow to
// rank 0, and rank 0 broadcasts JOB_DONE once every rank has reported —
// which also proves no migrated task (always counted at its home rank) is
// still in flight anywhere.
//
// Usage (inside a vc::Cluster SPMD region):
//   Taskpool pool;  ... add classes ...
//   Context ctx(rank_ctx, pool, opts);
//   ctx.run();      // collective; returns when the whole DAG has executed
//   ctx.run();      // optional: executes the whole DAG again
// The first run() spawns the rank's comm and worker threads; they park
// between runs and are joined by the destructor.
//
// State is split by lifetime. The Context holds what outlives a run: the
// rank, the taskpool and its compiled graph, the presorted startup runs,
// the options, the threads with their park/wake handshake and the
// lifecycle counters. Everything one run
// creates and leaves behind — input slots and pending-input counts,
// counters and termination latches, the error latch, the outbox, the
// scheduler, steal and failure state, the trace buffers — lives in one
// Submission, which context.cpp defines. The constructor builds the first
// Submission and every later run() replaces the finished one with a fresh
// one, so no per-run field is reset by hand (the input-state arrays are
// handed over and re-armed, not reallocated).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostics.h"
#include "ptg/failure.h"
#include "ptg/flat_graph.h"
#include "ptg/protocol.h"
#include "ptg/scheduler.h"
#include "ptg/taskpool.h"
#include "ptg/trace.h"
#include "support/rng.h"
#include "vc/cluster.h"

namespace mp::ptg {

struct Options {
  /// Compute threads per rank, one ready heap each (ptg/scheduler.h).
  /// Priorities come from the graph: instances of a class without a
  /// priority function schedule at 0 (the paper's v2).
  int num_workers = 2;
  bool enable_tracing = false;    ///< record TraceEvents for Figs. 10-13
  /// If no local progress happens for this long while tasks are still
  /// outstanding (e.g. an activation was lost in the fabric), run() raises
  /// a StateError carrying a diagnostic dump instead of hanging forever.
  /// 0 disables the watchdog. The effective deadline is scaled by the
  /// outstanding-work estimate (see watchdog_scale_per_task): a rank with
  /// many tasks still queued behind a long remote GEMM chain is slow, not
  /// stuck, and must not fire spuriously on 1-worker configs.
  double watchdog_timeout_ms = 30000.0;
  /// Deadline scale per locally-outstanding task, clamped at 32 tasks:
  /// deadline = timeout * (1 + scale * min(outstanding, 32)).
  double watchdog_scale_per_task = 1.0;

  // -- inter-node work stealing (no effect on single-rank jobs) --
  bool enable_stealing = false;
  /// Minimum interval between two steal requests from this rank.
  double steal_cooldown_ms = 1.0;
  /// Extra wait after an empty reply before trying the next victim.
  double steal_backoff_ms = 5.0;
  /// Give up on an outstanding request after this long (reply lost in the
  /// fabric) and allow a new one.
  double steal_reply_timeout_ms = 100.0;
  /// Re-send interval for the local-done report / JOB_DONE replay, making
  /// the termination protocol robust to dropped control messages.
  double termination_resend_ms = 250.0;

  // -- rank-failure tolerance (DESIGN.md §10; no effect on 1-rank jobs) --

  /// Run the heartbeat failure detector on the comm thread and recover
  /// from confirmed non-root rank deaths per `on_rank_failure`. Liveness is
  /// piggybacked on every inbound message; explicit HEARTBEATs fill idle
  /// gaps. Forces the global (rank-0-coordinated) termination protocol even
  /// without stealing, since per-rank completion is no longer independent.
  ///
  /// Memory cost: recovery replays whole chains, so while this flag is on
  /// each rank retains a lineage handle for every remote activation it
  /// sends (per destination) and keeps input state for every task of the
  /// graph, not only its own, for the whole run — O(total activations)
  /// even when no rank ever dies. Nothing can be pruned before job end,
  /// because any destination may still die. A retained handle is shared
  /// with its consumer (and stolen tasks' inputs with their thief), so a
  /// consumer that takes such an input over gets a copy. Leave this off
  /// (the default, which pays nothing) unless the job actually needs to
  /// survive rank deaths.
  bool enable_failure_detection = false;
  /// Interval between explicit HEARTBEAT rounds while not done.
  double heartbeat_interval_ms = 20.0;
  /// Silence from a peer longer than this makes it *suspect*: a direct
  /// probe is sent, which the peer's comm thread answers immediately — a
  /// slow rank clears its suspicion, a dead one cannot.
  double suspect_after_ms = 150.0;
  /// A suspect that stays silent this much longer is *confirmed* dead and
  /// recovery begins. Total detection latency ~ suspect + confirm.
  double confirm_after_ms = 300.0;
  /// What to do when a non-root rank is confirmed dead (rank 0's death
  /// always escalates — it is the termination coordinator).
  FailurePolicy on_rank_failure = FailurePolicy::kAbort;
  /// kRetry tolerates up to this many deaths, then escalates. kDegrade
  /// always tolerates exactly one.
  int retry_limit = 1;

  /// The taskpool's graph was already verified for this cluster size (the
  /// template cache runs mp-verify once when a template is built): skip the
  /// MP_VERIFY pass entirely, even on the first submission.
  bool assume_verified = false;
};

/// Counters of the inter-node steal protocol, one instance per rank. All
/// pairs follow the repo's counter-pair discipline (bounded counter
/// incremented with release after its bound, snapshot reads the bounded one
/// first with acquire), so validate() holds for mid-run snapshots too.
struct StealStats {
  uint64_t requests_sent = 0;
  uint64_t requests_received = 0;
  uint64_t replies_sent = 0;      ///< includes empty replies
  uint64_t replies_received = 0;
  uint64_t tasks_migrated_out = 0;
  uint64_t tasks_migrated_in = 0;
  uint64_t credits_sent = 0;      ///< foreign tasks completed here
  uint64_t credits_received = 0;  ///< own tasks completed remotely

  /// Internal-consistency self check; "" when consistent, else the
  /// violated invariant (stress tests assert on this).
  std::string validate() const {
    auto bound = [](const char* what, uint64_t a, uint64_t b,
                    const char* limit) -> std::string {
      return std::string("StealStats: ") + what + " (" + std::to_string(a) +
             ") > " + limit + " (" + std::to_string(b) + ")";
    };
    if (replies_sent > requests_received) {
      return bound("replies_sent", replies_sent, requests_received,
                   "requests_received");
    }
    if (replies_received > requests_sent) {
      return bound("replies_received", replies_received, requests_sent,
                   "requests_sent");
    }
    if (tasks_migrated_out > 0 && replies_sent == 0) {
      return "StealStats: tasks_migrated_out (" +
             std::to_string(tasks_migrated_out) + ") > 0 with no reply sent";
    }
    if (credits_received > tasks_migrated_out) {
      return bound("credits_received", credits_received, tasks_migrated_out,
                   "tasks_migrated_out");
    }
    if (credits_sent > tasks_migrated_in) {
      return bound("credits_sent", credits_sent, tasks_migrated_in,
                   "tasks_migrated_in");
    }
    return {};
  }
};

class Context {
 public:
  // The wire tags live in ptg/protocol.h (shared with the mp-explore model
  // checker); these aliases keep the runtime's existing spelling.
  /// Message tag used for dependency activations on the fabric.
  static constexpr int kTagActivate = kWireActivate;
  /// Broadcast when a rank aborts (task body threw): peers stop waiting
  /// for activations that will never come and unwind too.
  static constexpr int kTagAbort = kWireAbort;
  /// Inter-node stealing: idle thief asking a victim for work.
  static constexpr int kTagStealRequest = kWireStealRequest;
  /// Victim's answer: a (possibly empty) batch of migrated ready tasks.
  static constexpr int kTagStealReply = kWireStealReply;
  /// Thief -> home rank: one migrated task finished executing.
  static constexpr int kTagCredit = kWireCredit;
  /// Rank -> rank 0: executed + credits_received == expected here.
  static constexpr int kTagLocalDone = kWireLocalDone;
  /// Rank 0 -> all: every rank reported local-done; the job is finished.
  static constexpr int kTagJobDone = kWireJobDone;
  /// Failure detector liveness traffic: periodic beat, probe ("answer me
  /// now"), or probe answer — see the flag byte in the header. Never
  /// counted as watchdog progress (protocol::work_moving).
  static constexpr int kTagHeartbeat = kWireHeartbeat;

  /// Eager limit of the data-plane codec, in doubles: a buffer this small
  /// is copied inline into the message header (one cache line — cheaper
  /// than a handle's refcount traffic and a foreign-thread release); a
  /// larger one ships as a shared segment. A constant, not an option.
  static constexpr size_t kEagerLimit = 8;

  /// Most tasks one STEAL_REPLY migrates (the victim also never gives away
  /// more than half of its ready queue). The simulator's steal agent uses
  /// the same cap. A constant, not an option.
  static constexpr size_t kStealMaxBatch = 16;

  /// Compiles `pool` for this cluster size and runs that graph. Raises
  /// InvalidArgument when a class has no body or the compile cannot place
  /// an instance or an edge (MPV002-MPV005).
  Context(vc::RankCtx& rank_ctx, const Taskpool& pool, Options opts = {});
  /// Runs `graph`, which must be `pool` compiled for this cluster size (a
  /// PtgTemplate shares its one graph with every Context of every
  /// session this way).
  Context(vc::RankCtx& rank_ctx, const Taskpool& pool,
          std::shared_ptr<const FlatGraph> graph, Options opts = {});
  /// Wakes the parked comm and worker threads for shutdown and joins them
  /// (no threads exist if run() was never called).
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  /// Execute the PTG to completion. Collective across ranks (ends with a
  /// barrier); the calling thread is worker 0. The first call spawns the
  /// comm and the other worker threads, which park on a submission epoch
  /// when the run ends. run() may be called again to execute the whole
  /// graph once more on the parked threads: each later call first performs
  /// the collective between-runs reset (validate the finished run's stats
  /// unless it raised, drain the mailbox, replace its Submission), so every
  /// rank must make the same number of calls. A run that unwinds with an
  /// error leaves the Context usable for the next one. When the MP_VERIFY
  /// environment variable is set (to anything but "0"), rank 0 runs
  /// validate_plan() on the first call (the graph and cluster size cannot
  /// change) and a malformed graph unwinds the whole job with a StateError
  /// carrying the diagnostics — that run and every later one, before any
  /// task runs; Options::assume_verified skips the pass.
  void run();

  /// Per-submission state observed by the most recent between-runs reset,
  /// read from the finished run's Submission just before it was discarded
  /// (all zero until the first reset, which the second run() performs).
  /// Tests assert on it that nothing leaks across submissions: after a
  /// clean (no-fault) run, every field except `submission` and
  /// `lineage_entries`/`activated_keys` (which bound the documented
  /// O(activations) retention to exactly one submission) must be zero.
  struct ResetReport {
    uint64_t submission = 0;      ///< 1-based index of the finished run
    size_t pending_deposits = 0;  ///< task instances still awaiting inputs
    /// Failure mode only: task instances whose inputs all arrived (later
    /// deposits into them are dropped as duplicates).
    size_t activated_keys = 0;
    size_t lineage_entries = 0;   ///< remote-activation lineage retained
    size_t held_ready = 0;        ///< parked pre-adoption input sets
    size_t adopted_keys = 0;      ///< keys adopted from dead ranks
    size_t outstanding_migrations = 0;  ///< migrated-out, never credited
    size_t stale_messages = 0;    ///< late mailbox stragglers drained
    size_t outbox_messages = 0;   ///< unflushed outbound sends dropped
  };
  const ResetReport& last_reset_report() const { return reset_report_; }

  /// Completed run() calls on this Context.
  uint64_t submissions() const {
    return runs_completed_.load(std::memory_order_acquire);
  }

  /// Statically verify the graph this Context runs (acyclicity, no
  /// dropped/duplicated edges, no orphan tasks, no leaked buffers — see
  /// analysis/graph_verify.h for the diagnostic codes). Pure inspection of
  /// the already-compiled graph: no task body runs, nothing is compiled
  /// again. Returns the diagnostics; empty means the graph is well-formed.
  std::vector<analysis::Diag> validate_plan() const;

  /// The compiled graph this Context runs.
  const FlatGraph& graph() const { return *graph_; }

  int rank() const { return rctx_.rank(); }
  int nranks() const { return rctx_.nranks(); }
  const Options& options() const { return opts_; }

  /// Post-run statistics of the latest run, readable after run() returns
  /// until the next run() begins. tasks_executed counts bodies run on THIS
  /// rank: its own tasks plus migrated-in foreign ones (each of which sent
  /// a credit). tasks_completed counts this rank's OWN tasks finished
  /// anywhere — executed here plus credits received from thieves — the
  /// quantity termination is defined over. Without stealing the two are
  /// equal.
  uint64_t tasks_executed() const;
  uint64_t tasks_completed() const;
  uint64_t expected_tasks() const;
  uint64_t remote_activations_sent() const;
  SchedStats scheduler_stats() const;
  StealStats steal_stats() const;
  /// Own tasks migrated out by stealing whose completion credit has not
  /// arrived yet. Zero after a run that completed globally: every migration
  /// was credited home. The map belongs to the comm thread, so read it only
  /// between runs (after run() returned, before the next one);
  /// last_reset_report() captures it at the next run.
  size_t outstanding_migrations() const;
  /// Failure-detector / recovery counters (see FailureStats; snapshot after
  /// run() for the equality invariants to hold).
  FailureStats failure_stats() const;
  /// True when THIS rank was crash-injected: run() returned because the
  /// rank died, not because the job finished.
  bool killed() const { return killed_.load(std::memory_order_acquire); }
  /// Bitmask of peers this rank has confirmed dead.
  uint64_t confirmed_dead_mask() const;

  /// Post-run trace of this rank (empty unless enable_tracing); valid
  /// until the next run() begins.
  const Trace& trace() const;

 private:
  /// The state of one run (see the file comment); defined in context.cpp.
  struct Submission;

  /// One full submission: verify (if due), serve the startup runs, wake
  /// the parked threads, execute as worker 0, wait for them to park
  /// again, unwind.
  void run_submission();
  /// Collective, between two run() calls, while all of this rank's threads
  /// are parked and after the previous run's closing barrier: snapshot and
  /// validate every stats family of the finished Submission (lint:
  /// reset-stats-discipline; skipped if that run raised), record its
  /// leftovers in last_reset_report(), quiesce the fabric (rank 0) and
  /// drain/rebase the mailbox between two barriers, then replace the
  /// Submission with a fresh one.
  void reset_for_resubmission();
  /// Spawn the long-lived comm + worker threads (first submission only;
  /// idempotent).
  void start_threads();
  /// Publish a new submission epoch and wake every parked thread into its
  /// loop.
  void arm_submission();
  /// Block until all parked (workers / comm).
  void wait_workers_parked();
  void wait_comm_parked();
  /// Long-lived thread bodies: wait for an epoch (or shutdown), run the
  /// corresponding loop, park, repeat.
  void worker_main(int wid);
  void comm_main();
  /// Capture current exception, force shutdown. `reason` (when non-empty)
  /// rides in the abort broadcast so peers raise a StateError naming the
  /// real cause instead of a generic "task failure on rank N".
  void record_error(const std::string& reason = {});
  void worker_loop(int wid);
  void comm_loop();
  /// True when inter-node stealing is actually in play for this job.
  bool stealing_active() const {
    return opts_.enable_stealing && nranks() > 1;
  }
  /// True when the failure detector / recovery machinery is in play.
  bool failure_active() const {
    return opts_.enable_failure_detection && nranks() > 1;
  }
  /// Either protocol needs rank-0-coordinated global termination.
  bool global_termination() const {
    return stealing_active() || failure_active();
  }
  /// Called by a worker whose pop failed, by the comm thread after a
  /// credit or a death, and at startup. Sums the per-worker executed
  /// counts after a seq_cst fence and latches local completion exactly
  /// once: without stealing it sets done; with stealing it reports
  /// local-done towards rank 0.
  void maybe_local_complete();
  /// Rank 0 only: record a rank's local-done report tagged with the
  /// sender's confirmed-dead mask; broadcasts JOB_DONE once every live rank
  /// has reported with a mask covering rank 0's own dead set (per-epoch
  /// reconciliation — a pre-death report does not count after a death).
  /// Returns false for an already-seen rank (resends are not progress).
  bool note_rank_done(int r, uint64_t dead_mask);
  /// Termination lock held: is the job globally done under rank 0's
  /// current view?
  bool termination_check_locked();
  /// Rank 0: send JOB_DONE to every live peer and finish this rank's run.
  void broadcast_job_done();
  /// Comm thread: the steal agent — issue a STEAL_REQUEST when idle.
  void steal_agent_tick(std::chrono::steady_clock::time_point now_tp);
  /// Comm thread: serve a STEAL_REQUEST (harvest + reply).
  void serve_steal_request(const vc::Message& msg);
  /// Comm thread: absorb a STEAL_REPLY (decode + enqueue). Moves the
  /// reply's segments into the migrated tasks.
  void absorb_steal_reply(vc::Message& msg);
  /// Comm thread: heartbeat rounds + the suspicion -> probe -> confirmed
  /// state machine of the failure detector.
  void detector_tick(std::chrono::steady_clock::time_point now_tp);
  /// Comm thread: handle a kTagHeartbeat (refresh handled by caller; this
  /// answers probes and counts).
  void on_heartbeat(const vc::Message& msg);
  /// Send one HEARTBEAT (flag: 0 beat, 1 probe, 2 probe answer) directly —
  /// never through the outbox, whose drain counts as watchdog progress.
  void send_heartbeat(int dst, uint8_t flag);
  /// Comm thread: a peer is confirmed dead. Applies the failure policy:
  /// escalate (abort / rank 0 / limit exceeded) or adopt + replay +
  /// re-inject, then re-enter the termination protocol at the new epoch.
  void handle_confirmed_death(int dead);
  /// Escalate an unrecoverable failure: structured StateError naming the
  /// dead rank, the lost chains and the recovery decision, broadcast to
  /// every peer so nobody hangs waiting for recovery that will not come.
  void escalate_failure(int dead, uint64_t lost_chains, const char* why);
  /// Where task `id` lives under the current confirmed-dead set: its home
  /// rank while it is alive, else the policy's stand-in (kRetry: next live
  /// rank; kDegrade: hash over survivors). Pure in (task, policy, dead
  /// set), so every rank that agrees on the dead set agrees on it.
  int effective_rank(int32_t id) const;
  /// Queue a message on the outbox for the comm thread to send.
  void post(vc::Message m);
  /// Encode one remote activation of task `consumer`'s input `slot` and
  /// post it.
  void post_activation(int dst, int32_t consumer, int slot, DataBuf buf);
  /// Failure detection only: the rank task `consumer` lives on now and, if
  /// that is another rank, the activation's entry in its lineage log, both
  /// in one lin_mu critical section. handle_confirmed_death publishes the
  /// dead mask before it takes lin_mu to swap a log out, so an activation
  /// is either in the swapped-out log (and replayed) or routed to the
  /// stand-in.
  int route_recorded(int32_t consumer, int slot, const DataBuf& buf);
  /// Effective watchdog deadline in ms, scaled by outstanding local work.
  double watchdog_deadline_ms() const;
  /// Wake one / all workers. The wake mutex is taken while notifying so a
  /// worker checking its wait predicate can never miss the signal.
  void wake_one();
  void wake_all();
  /// Diagnostic snapshot for the watchdog's StateError (executed/expected
  /// counts, partially deposited tasks, queue depths).
  std::string watchdog_dump();
  /// Deliver one input to task `id`. When the arrival completes the task,
  /// its ReadyTask is appended to `batch` for the caller to publish with
  /// one push_batch (see publish()).
  void deposit(int32_t id, int slot, DataBuf buf,
               std::vector<ReadyTask>& batch);
  /// Push `batch` onto `worker`'s heap (-1: round robin) and wake the
  /// workers it needs.
  void publish(std::vector<ReadyTask>& batch, int worker);
  void execute_task(const ReadyTask& t, int wid);

  vc::RankCtx& rctx_;
  const Taskpool& pool_;
  /// The compiled graph: shared with the PtgTemplate that built it, or
  /// compiled by the constructor for a bare pool.
  std::shared_ptr<const FlatGraph> graph_;
  Options opts_;
  /// This rank's startup ids, presorted once into one run per heap; every
  /// Submission's scheduler serves them.
  StartupRuns startup_runs_;
  /// The current run's state: built by the constructor, replaced by every
  /// later run() (reset_for_resubmission) while all threads are parked.
  std::unique_ptr<Submission> sub_;
  /// Victim selection for stealing (comm thread only). Its stream continues
  /// across runs.
  Rng steal_rng_{0};
  /// This rank was crash-injected; run() exits silently via barrier_drop.
  std::atomic<bool> killed_{false};

  // -- submission lifecycle (threads parked between runs) --
  /// Serial-entry guard: trips if run() is re-entered while running.
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> runs_completed_{0};
  /// MP_VERIFY ran for this Context (once: its pool and cluster are fixed).
  bool verified_once_ = false;
  /// The failed pass's StateError message, raised again by every later run
  /// (empty while the graph verified clean or was never checked).
  std::string verify_failure_;
  /// submit_mu_ guards the park/wake handshake: epoch, park counts and the
  /// shutdown flag. One CV serves arming (run -> threads) and parking
  /// (threads -> run) — contention is nil, transitions are rare.
  std::mutex submit_mu_;
  std::condition_variable submit_cv_;
  uint64_t submit_epoch_ = 0;
  int workers_parked_ = 0;
  bool comm_parked_ = false;
  bool shutdown_ = false;
  std::thread comm_thread_;
  std::vector<std::thread> workers_;
  ResetReport reset_report_;
};

}  // namespace mp::ptg
