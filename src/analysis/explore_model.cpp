#include "analysis/explore_model.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "ptg/protocol.h"
#include "support/error.h"
#include "tce/block_tensor.h"
#include "tce/inspector.h"
#include "tce/tiles.h"
#include "vc/message.h"

namespace mp::analysis {

using ptg::kWireActivate;
using ptg::kWireCredit;
using ptg::kWireHeartbeat;
using ptg::kWireJobDone;
using ptg::kWireLocalDone;
using ptg::kWireStealReply;
using ptg::kWireStealRequest;

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void fold(uint64_t& h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

uint64_t hash_bytes(const uint8_t* p, size_t n) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t bit(int r) { return 1ULL << r; }

}  // namespace

// ---------------------------------------------------------------------------
// Workload generation

ModelWorkload build_model_workload(const std::string& kind, int nranks) {
  MP_REQUIRE(nranks >= 2 && nranks <= 16,
             "build_model_workload: nranks must be in [2, 16]");
  // The smallest space with spin structure: one alpha and one beta tile in
  // each of the occupied and virtual ranges. The real inspectors walk the
  // real guarded loop nest over it, producing a handful of chains.
  tce::TileSpaceSpec spec;
  spec.n_occ_alpha = 1;
  spec.n_occ_beta = 1;
  spec.n_virt_alpha = 1;
  spec.n_virt_beta = 1;
  spec.tile_size = 1;
  tce::TileSpace space(spec);
  using tce::RangeKind;

  tce::ChainPlan plan;
  if (kind == "t2_7") {
    tce::BlockTensor4 v(space, {RangeKind::kVirt, RangeKind::kVirt,
                                RangeKind::kVirt, RangeKind::kVirt});
    tce::BlockTensor4 t(space, {RangeKind::kVirt, RangeKind::kVirt,
                                RangeKind::kOcc, RangeKind::kOcc});
    tce::BlockTensor4 r(space,
                        {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                         RangeKind::kOcc},
                        true, true);
    plan = tce::inspect_t2_7(space, {&v, &t, &r});
  } else if (kind == "hh") {
    tce::BlockTensor4 w(space, {RangeKind::kOcc, RangeKind::kOcc,
                                RangeKind::kOcc, RangeKind::kOcc});
    tce::BlockTensor4 t(space, {RangeKind::kVirt, RangeKind::kVirt,
                                RangeKind::kOcc, RangeKind::kOcc});
    tce::BlockTensor4 r(space,
                        {RangeKind::kVirt, RangeKind::kVirt, RangeKind::kOcc,
                         RangeKind::kOcc},
                        true, true);
    plan = tce::inspect_hh_ladder(space, {&w, &t, &r});
  } else {
    throw InvalidArgument("build_model_workload: unknown workload '" + kind +
                          "' (expected t2_7 or hh)");
  }
  MP_ASSERT(!plan.chains.empty(), "micro workload inspected to zero chains");

  ModelWorkload w;
  w.num_chains = plan.chains.size();
  // Dense cell ids in first-appearance order of the chains' target blocks.
  std::map<uint64_t, int> cell_of;
  for (const tce::Chain& ch : plan.chains) {
    if (!cell_of.count(ch.c_key)) {
      const int next = static_cast<int>(cell_of.size());
      cell_of[ch.c_key] = next;
    }
  }
  // Tasks are stored at index == id: chains occupy [0, nch), their WRITE
  // consumers [nch, 2*nch).
  const int nch = static_cast<int>(plan.chains.size());
  w.tasks.resize(static_cast<size_t>(2 * nch));
  for (int i = 0; i < nch; ++i) {
    const int cell = cell_of.at(plan.chains[static_cast<size_t>(i)].c_key);
    ModelTask chain;
    chain.id = i;
    chain.home = i % nranks;  // round-robin, like the PTG chain class
    chain.migratable = true;
    chain.outs = {nch + i};
    w.tasks[static_cast<size_t>(i)] = chain;

    ModelTask write;
    write.id = nch + i;
    // All writers of one cell share a home (the block owner): the cell is
    // the recovery group, and co-homing is what makes co-adoption hold.
    // The +1 offset puts the owner on a different rank than the chain
    // producing for it, so the base configs exercise cross-rank
    // activation, not just local promotion.
    write.home = (cell + 1) % nranks;
    write.cell = cell;
    // Exactly representable small integers: accumulation order can never
    // perturb the serial reference.
    write.value = static_cast<double>(1 + (i % 7));
    write.migratable = false;
    write.ndeps = 1;
    w.tasks[static_cast<size_t>(nch + i)] = write;
    w.reference[cell] += write.value;
  }
  return w;
}

// ---------------------------------------------------------------------------
// World setup

World::World(const ExploreConfig& cfg)
    : cfg_(cfg), work_(build_model_workload(cfg.workload, cfg.nranks)) {
  MP_REQUIRE(cfg_.nranks >= 2, "explore: need at least 2 ranks");
  MP_REQUIRE(cfg_.crash_victim != 0,
             "explore: rank 0 is the termination coordinator; its death "
             "aborts the job in the production runtime and is not modeled");
  MP_REQUIRE(cfg_.crash_victim < cfg_.nranks, "explore: crash_victim out of range");
  MP_REQUIRE(cfg_.submissions >= 1, "explore: submissions must be >= 1");
  mailboxes_ = std::vector<vc::Mailbox>(static_cast<size_t>(cfg_.nranks));
  vc::FabricConfig fc;
  fc.controlled = true;
  fabric_ = std::make_unique<vc::Fabric>(&mailboxes_, fc);
  nodes_.resize(static_cast<size_t>(cfg_.nranks));
  init_submission();
}

int World::effective_home(int t, uint64_t mask) const {
  const int h = task(t).home;
  if (((mask >> h) & 1ULL) == 0) return h;
  return ptg::protocol::retry_standin(h, mask, nranks());
}

void World::init_submission() {
  cells_.clear();
  for (const auto& [cell, ref] : work_.reference) {
    (void)ref;
    cells_[cell] = 0.0;
  }
  executed_anywhere_.clear();
  for (int r = 0; r < nranks(); ++r) {
    Node& n = nodes_[static_cast<size_t>(r)];
    if (!n.alive) continue;
    for (const ModelTask& t : work_.tasks) {
      if (effective_home(t.id, n.confirmed) != r) continue;
      n.owned.insert(t.id);
      if (t.ndeps == 0) n.ready.insert(t.id);
    }
  }
}

void World::send(int src, int dst, int tag, vc::Payload payload) {
  vc::Message m;
  m.src = src;
  m.dst = dst;
  m.tag = tag;
  m.header = std::move(payload);
  fabric_->send(std::move(m));
}

// ---------------------------------------------------------------------------
// Choice enumeration

size_t World::find_pending(const Choice& c) const {
  const size_t count = fabric_->pending_count();
  for (size_t i = 0; i < count; ++i) {
    const vc::Message m = fabric_->pending_peek(i);
    if (m.src == c.a && m.dst == c.b && m.tag == c.tag && m.seq == c.seq) {
      return i;
    }
  }
  return static_cast<size_t>(-1);
}

bool World::pending_msg(int src, int dst, int tag) const {
  const size_t count = fabric_->pending_count();
  for (size_t i = 0; i < count; ++i) {
    const vc::Message m = fabric_->pending_peek(i);
    if ((src < 0 || m.src == src) && (dst < 0 || m.dst == dst) &&
        (tag <= 0 || m.tag == tag)) {
      return true;
    }
  }
  return false;
}

std::vector<Choice> World::enabled() const {
  std::vector<Choice> out;
  const Node& n0 = nodes_[0];

  // Message fates. Identities deduplicate injected duplicates: delivering
  // "the" copy of a byte-identical pair is one choice, not two.
  std::set<Choice> message_ids;
  const size_t count = fabric_->pending_count();
  for (size_t i = 0; i < count; ++i) {
    const vc::Message m = fabric_->pending_peek(i);
    Choice c;
    c.kind = ChoiceKind::kDeliver;
    c.a = m.src;
    c.b = m.dst;
    c.tag = m.tag;
    c.seq = m.seq;
    message_ids.insert(c);
  }
  for (Choice c : message_ids) {
    out.push_back(c);
    if (drops_used_ < cfg_.drop_budget) {
      c.kind = ChoiceKind::kDrop;
      out.push_back(c);
    }
    if (dups_used_ < cfg_.dup_budget) {
      c.kind = ChoiceKind::kDuplicate;
      out.push_back(c);
    }
  }

  for (int r = 0; r < nranks(); ++r) {
    const Node& n = nodes_[static_cast<size_t>(r)];
    if (!n.alive) continue;
    for (int t : n.ready) {
      out.push_back({ChoiceKind::kExecute, r, t, 0, 0});
    }
    bool other_live = false;
    for (int v = 0; v < nranks(); ++v) {
      if (v != r && live(v)) other_live = true;
    }
    if (cfg_.stealing && !n.job_done && !n.steal_out && n.ready.empty() &&
        other_live) {
      out.push_back({ChoiceKind::kStealTick, r, -1, 0, 0});
    }
    // The timer-driven choices are gated on their previous message having
    // left the wire: a timer re-firing with its message still in flight is
    // behaviorally kDuplicate (modeled separately, budget-gated), and
    // admitting it would make the interleaving space unbounded.
    if (n.steal_out && !pending_msg(r, -1, kWireStealRequest) &&
        !pending_msg(-1, r, kWireStealReply)) {
      out.push_back({ChoiceKind::kStealTimeout, r, -1, 0, 0});
    }
    if (r != 0 && n.done_latch && !n.job_done &&
        !pending_msg(r, 0, ptg::kWireLocalDone)) {
      out.push_back({ChoiceKind::kResendTick, r, -1, 0, 0});
    }
    if (cfg_.heartbeats && !n.job_done && other_live &&
        !pending_msg(r, -1, ptg::kWireHeartbeat)) {
      out.push_back({ChoiceKind::kHeartbeatTick, r, -1, 0, 0});
    }
    for (int d = 0; d < nranks(); ++d) {
      if (!live(d) && ((n.confirmed >> d) & 1ULL) == 0) {
        out.push_back({ChoiceKind::kConfirmDeath, r, d, 0, 0});
      }
    }
  }

  if (cfg_.crash_victim >= 0 && !crashed_ && live(cfg_.crash_victim) &&
      !n0.declared) {
    out.push_back({ChoiceKind::kCrash, cfg_.crash_victim, -1, 0, 0});
  }
  if (n0.declared && submission_ + 1 < cfg_.submissions &&
      fabric_->pending_count() == 0) {
    out.push_back({ChoiceKind::kReset, -1, -1, 0, 0});
  }

  std::sort(out.begin(), out.end());
  return out;
}

uint64_t World::footprint(const Choice& c) const {
  switch (c.kind) {
    case ChoiceKind::kDeliver:
      return live(c.b) ? bit(c.b) : 0;
    case ChoiceKind::kDrop:
      // All drops share the path budget: taking one can disable another.
      return bit(62);
    case ChoiceKind::kDuplicate:
      return bit(61);
    case ChoiceKind::kExecute:
    case ChoiceKind::kStealTimeout:
    case ChoiceKind::kResendTick:
    case ChoiceKind::kHeartbeatTick:
      return bit(c.a);
    case ChoiceKind::kStealTick: {
      // The victim heuristic reads every live rank's ready size.
      uint64_t m = 0;
      for (int r = 0; r < nranks(); ++r) {
        if (live(r)) m |= bit(r);
      }
      return m;
    }
    case ChoiceKind::kConfirmDeath:
    case ChoiceKind::kCrash:
    case ChoiceKind::kReset:
      return bit(63);  // global: adoption/zero-reset, death, epoch flip
  }
  return bit(63);
}

// ---------------------------------------------------------------------------
// Applying choices

StepInfo World::apply(const Choice& c) {
  StepInfo info;
  switch (c.kind) {
    case ChoiceKind::kDeliver: {
      const size_t idx = find_pending(c);
      MP_ASSERT(idx != static_cast<size_t>(-1), "deliver: no such message");
      deliver(idx, info);
      break;
    }
    case ChoiceKind::kDrop: {
      const size_t idx = find_pending(c);
      MP_ASSERT(idx != static_cast<size_t>(-1), "drop: no such message");
      fabric_->drop_pending(idx);
      ++drops_used_;
      break;
    }
    case ChoiceKind::kDuplicate: {
      const size_t idx = find_pending(c);
      MP_ASSERT(idx != static_cast<size_t>(-1), "duplicate: no such message");
      fabric_->duplicate_pending(idx);
      ++dups_used_;
      break;
    }
    case ChoiceKind::kExecute:
      do_execute(c.a, c.b);
      info.canon_progress = true;
      info.node_wd_reset = true;
      break;
    case ChoiceKind::kStealTick:
      do_steal_tick(c.a);
      break;
    case ChoiceKind::kStealTimeout:
      nodes_[static_cast<size_t>(c.a)].steal_out = false;
      break;
    case ChoiceKind::kResendTick:
      send_local_done(c.a);
      break;
    case ChoiceKind::kHeartbeatTick: {
      // One beat to the ring-next peer this rank believes alive. A beat to
      // an actually-dead peer is blackholed by the fabric, like reality.
      const int r = c.a;
      const Node& n = nodes_[static_cast<size_t>(r)];
      for (int i = 1; i < nranks(); ++i) {
        const int p = (r + i) % nranks();
        if (((n.confirmed >> p) & 1ULL) == 0) {
          vc::WireWriter ww;
          ww.put<uint8_t>(0);  // kBeat
          send(r, p, kWireHeartbeat, ww.take());
          break;
        }
      }
      break;
    }
    case ChoiceKind::kConfirmDeath:
      do_confirm_death(c.a, c.b);
      info.canon_progress = true;  // once per confirmed death, like the
      info.node_wd_reset = true;   // production watchdog progress sites
      break;
    case ChoiceKind::kCrash:
      fabric_->kill_rank(c.a);
      nodes_[static_cast<size_t>(c.a)].alive = false;
      crashed_ = true;
      break;
    case ChoiceKind::kReset:
      do_reset();
      break;
  }
  return info;
}

void World::deliver(size_t idx, StepInfo& info) {
  const vc::Message peek = fabric_->pending_peek(idx);
  const int dst = peek.dst;
  const int src = peek.src;
  vc::Mailbox& box = mailboxes_[static_cast<size_t>(dst)];
  MP_ASSERT(box.size() == 0, "model invariant: mailboxes drain per step");

  // The engine-side mirror window decides what SHOULD happen; the real
  // mailbox window decides what DOES. Any disagreement is MPS004.
  const bool should_accept = mirror_[{dst, src}].accept(peek.seq);
  fabric_->deliver_pending(idx);
  std::optional<vc::Message> m = box.try_pop();
  if (!m.has_value()) {
    if (should_accept) {
      add_finding("MPS004",
                  "dedup window filtered a fresh message (src " +
                      std::to_string(src) + " seq " + std::to_string(peek.seq) +
                      " tag " + std::to_string(peek.tag) + " at rank " +
                      std::to_string(dst) + ")");
    }
    return;  // filtered duplicate: never reaches the protocol
  }
  if (!should_accept) {
    add_finding("MPS004",
                "duplicate leaked through the dedup window (src " +
                    std::to_string(src) + " seq " + std::to_string(peek.seq) +
                    " at rank " + std::to_string(dst) + ")");
  }
  Node& n = nodes_[static_cast<size_t>(dst)];
  if (!n.alive) return;  // a dead endpoint consumes nothing
  info.delivered = true;
  if ((n.confirmed >> src) & 1ULL) {
    // Fencing: messages from a confirmed-dead incarnation are discarded at
    // pop. The mutated pre-PR6 watchdog counted ANY receipt as progress.
    info.node_wd_reset = cfg_.mutations.skip_watchdog_progress_rule;
    return;
  }
  process_message(dst, *m, info);
}

void World::process_message(int dst, const vc::Message& m, StepInfo& info) {
  Node& n = nodes_[static_cast<size_t>(dst)];
  vc::WireReader rd(m.header);
  bool moved_tasks = false;
  bool fresh_report = false;

  switch (m.tag) {
    case kWireActivate: {
      const int producer = rd.get<int32_t>();
      const int consumer = rd.get<int32_t>();
      n.slots[consumer].insert(producer);
      promote(dst, consumer);
      maybe_local_done(dst);
      break;
    }
    case kWireCredit: {
      const int t = rd.get<int32_t>();
      if (n.owned.count(t)) {
        n.accounted.insert(t);
        n.migs.erase(t);
        maybe_local_done(dst);
      }
      break;
    }
    case kWireStealRequest: {
      (void)rd.get<uint32_t>();  // thief load hint (heuristic only)
      // Steal-half harvest of own migratable ready work; reply always.
      std::vector<int> eligible;
      for (int t : n.ready) {
        if (task(t).migratable && !n.stolen_in.count(t)) eligible.push_back(t);
      }
      const size_t take = eligible.size() / 2;
      std::vector<int> shipped(eligible.end() - static_cast<long>(take),
                               eligible.end());
      for (int t : shipped) {
        n.ready.erase(t);
        n.migs[t] = m.src;
      }
      vc::WireWriter ww;
      ww.put<uint32_t>(static_cast<uint32_t>(shipped.size()));
      for (int t : shipped) ww.put<int32_t>(t);
      send(dst, m.src, kWireStealReply, ww.take());
      moved_tasks = !shipped.empty();
      break;
    }
    case kWireStealReply: {
      n.steal_out = false;
      const uint32_t count = rd.get<uint32_t>();
      for (uint32_t i = 0; i < count; ++i) {
        const int t = rd.get<int32_t>();
        if (n.executed.count(t)) continue;  // already re-run here (adoption)
        if (!n.owned.count(t)) n.stolen_in.insert(t);
        n.ready.insert(t);
      }
      moved_tasks = count > 0;
      break;
    }
    case kWireLocalDone: {
      const int rank = rd.get<int32_t>();
      Report rep;
      rep.count = rd.get<int32_t>();
      rep.mask = rd.get<uint64_t>();
      if (dst != 0) break;  // only the coordinator consumes reports
      fresh_report = !n.reports.count(rank) || !(n.reports[rank] == rep);
      n.reports[rank] = rep;
      if (n.declared) {
        // Straggler re-report after the broadcast: replay JOB_DONE —
        // unless a copy is already in flight (same chatter gate as the
        // timer choices; the retransmission would be a kDuplicate).
        if (!pending_msg(0, rank, kWireJobDone)) {
          send(0, rank, kWireJobDone, {});
        }
      } else {
        termination_check();
      }
      break;
    }
    case kWireJobDone:
      n.job_done = true;
      break;
    case kWireHeartbeat:
      break;  // detector latency is abstracted into kConfirmDeath
    default:
      MP_ASSERT(false, "model received a tag it never sends");
  }

  info.canon_progress =
      ptg::protocol::work_moving(m.tag, moved_tasks, fresh_report);
  info.node_wd_reset = info.canon_progress ||
                       cfg_.mutations.skip_watchdog_progress_rule;
}

void World::promote(int r, int t) {
  Node& n = nodes_[static_cast<size_t>(r)];
  if (!n.owned.count(t) && !n.stolen_in.count(t)) return;  // parked deposit
  if (n.executed.count(t) || n.accounted.count(t)) return;
  if (n.ready.count(t)) return;
  auto it = n.slots.find(t);
  const size_t have = it == n.slots.end() ? 0 : it->second.size();
  if (static_cast<int>(have) >= task(t).ndeps) n.ready.insert(t);
}

void World::do_execute(int r, int t) {
  Node& n = nodes_[static_cast<size_t>(r)];
  MP_ASSERT(n.ready.count(t) != 0, "execute: task not ready");
  n.ready.erase(t);
  n.executed.insert(t);
  executed_anywhere_.insert(t);
  const ModelTask& mt = task(t);
  if (mt.cell >= 0) cells_[mt.cell] += mt.value;
  for (int c : mt.outs) deposit(r, t, c);
  if (n.owned.count(t)) {
    n.accounted.insert(t);
  } else {
    // Migrated-in: credit the home this rank currently believes in.
    const int home = effective_home(t, n.confirmed);
    if (home == r) {
      n.accounted.insert(t);
    } else {
      vc::WireWriter ww;
      ww.put<int32_t>(t);
      send(r, home, kWireCredit, ww.take());
    }
  }
  maybe_local_done(r);
}

void World::deposit(int producer_rank, int producer, int consumer) {
  Node& n = nodes_[static_cast<size_t>(producer_rank)];
  const int dst = effective_home(consumer, n.confirmed);
  n.log.push_back({producer, consumer, dst});
  if (dst == producer_rank) {
    n.slots[consumer].insert(producer);
    promote(producer_rank, consumer);
  } else {
    vc::WireWriter ww;
    ww.put<int32_t>(producer);
    ww.put<int32_t>(consumer);
    send(producer_rank, dst, kWireActivate, ww.take());
  }
}

void World::do_steal_tick(int r) {
  Node& n = nodes_[static_cast<size_t>(r)];
  // Victim: the live rank advertising the most stealable work; when nobody
  // advertises any, probe the ring-next live peer anyway (it may be hiding
  // work behind a stale hint in production; here it keeps the protocol's
  // empty-reply path explorable).
  int best = -1;
  size_t best_load = 0;
  for (int v = 0; v < nranks(); ++v) {
    if (v == r || !live(v)) continue;
    const Node& nv = nodes_[static_cast<size_t>(v)];
    size_t load = 0;
    for (int t : nv.ready) {
      if (task(t).migratable && !nv.stolen_in.count(t)) ++load;
    }
    if (load > best_load) {
      best_load = load;
      best = v;
    }
  }
  if (best < 0) {
    for (int i = 1; i < nranks(); ++i) {
      const int v = (r + i) % nranks();
      if (live(v)) {
        best = v;
        break;
      }
    }
  }
  MP_ASSERT(best >= 0, "steal tick with no live victim");
  vc::WireWriter ww;
  ww.put<uint32_t>(static_cast<uint32_t>(n.ready.size()));
  send(r, best, kWireStealRequest, ww.take());
  n.steal_out = true;
}

void World::maybe_local_done(int r) {
  Node& n = nodes_[static_cast<size_t>(r)];
  if (!n.alive || n.done_latch || n.job_done) return;
  if (n.accounted.size() < n.owned.size()) return;
  n.done_latch = true;
  if (r == 0) {
    termination_check();
  } else {
    send_local_done(r);
  }
}

void World::send_local_done(int r) {
  const Node& n = nodes_[static_cast<size_t>(r)];
  vc::WireWriter ww;
  ww.put<int32_t>(r);
  ww.put<int32_t>(static_cast<int32_t>(n.accounted.size()));
  ww.put<uint64_t>(n.confirmed);
  send(r, 0, kWireLocalDone, ww.take());
}

void World::termination_check() {
  Node& n0 = nodes_[0];
  if (n0.declared) return;
  if (n0.accounted.size() < n0.owned.size()) return;
  for (int r = 1; r < nranks(); ++r) {
    if ((n0.confirmed >> r) & 1ULL) continue;  // confirmed dead: no report due
    auto it = n0.reports.find(r);
    if (it == n0.reports.end()) return;
    // The report must account for every death the coordinator knows of, or
    // the reporter may still adopt work (PR 7's termination/recovery race).
    if ((it->second.mask & n0.confirmed) != n0.confirmed) return;
  }
  n0.declared = true;
  n0.job_done = true;
  check_completion_invariants();
  for (int r = 1; r < nranks(); ++r) {
    if (((n0.confirmed >> r) & 1ULL) == 0) send(0, r, kWireJobDone, {});
  }
}

void World::check_completion_invariants() {
  const Node& n0 = nodes_[0];
  // MPS001: exactly-once accumulation against the serial reference.
  int bad_cells = 0;
  std::string first;
  for (const auto& [cell, ref] : work_.reference) {
    const double got = cells_.at(cell);
    if (got != ref) {
      if (bad_cells == 0) {
        first = "cell " + std::to_string(cell) + " = " + std::to_string(got) +
                ", serial reference " + std::to_string(ref);
      }
      ++bad_cells;
    }
  }
  if (bad_cells > 0) {
    add_finding("MPS001", "accumulated output diverges from the serial "
                          "reference in " +
                              std::to_string(bad_cells) + " cell(s): " + first);
  }
  // MPS003: termination declared with a task that never ran anywhere.
  for (const ModelTask& t : work_.tasks) {
    if (!executed_anywhere_.count(t.id)) {
      add_finding("MPS003",
                  "job declared done but task " + std::to_string(t.id) +
                      " was never executed (lost activation)");
      break;
    }
  }
  // MPS002: credit conservation — every task accounted at its (re-homed)
  // owner when the coordinator declares.
  for (const ModelTask& t : work_.tasks) {
    const int home = effective_home(t.id, n0.confirmed);
    if (!live(home)) continue;
    if (!nodes_[static_cast<size_t>(home)].accounted.count(t.id)) {
      add_finding("MPS002",
                  "job declared done but task " + std::to_string(t.id) +
                      " is unaccounted at its home rank " +
                      std::to_string(home));
      break;
    }
  }
}

void World::do_confirm_death(int r, int d) {
  Node& n = nodes_[static_cast<size_t>(r)];
  const uint64_t newm = n.confirmed | bit(d);

  // Adoption sweep: every task whose effective home moves d -> r under the
  // new mask is adopted and re-executed from scratch. Cell writers adopt
  // as whole recovery groups, with the on_adopt zero-reset wiping partial
  // pre-crash accumulation before lineage replay re-runs the group.
  for (const ModelTask& mt : work_.tasks) {
    if (effective_home(mt.id, n.confirmed) != d) continue;
    if (effective_home(mt.id, newm) != r) continue;
    n.owned.insert(mt.id);
    if (mt.cell >= 0 && !n.adopted_groups.count(mt.cell)) {
      for (int r2 = 0; r2 < nranks(); ++r2) {
        if (r2 != r && live(r2) &&
            nodes_[static_cast<size_t>(r2)].adopted_groups.count(mt.cell)) {
          add_finding("MPS008",
                      "recovery group " + std::to_string(mt.cell) +
                          " adopted by both rank " + std::to_string(r2) +
                          " and rank " + std::to_string(r));
        }
      }
      n.adopted_groups.insert(mt.cell);
      if (!cfg_.mutations.skip_recovery_zero_reset) cells_[mt.cell] = 0.0;
    }
    if (n.executed.count(mt.id)) {
      // Already ran here as a stolen copy (migratable chains only): its
      // idempotent deposits are in place exactly once; just account it.
      n.accounted.insert(mt.id);
    } else if (mt.ndeps == 0) {
      n.ready.insert(mt.id);
    } else {
      promote(r, mt.id);  // deposits parked here may already satisfy it
    }
  }

  // Reinjection: work this rank migrated to the dead holder and was never
  // credited for is re-run locally.
  for (auto it = n.migs.begin(); it != n.migs.end();) {
    if (it->second == d && !n.accounted.count(it->first)) {
      if (!n.executed.count(it->first)) n.ready.insert(it->first);
      it = n.migs.erase(it);
    } else {
      ++it;
    }
  }

  // Lineage replay: deposits this rank produced whose consumer re-homed
  // are re-sent to the new home and re-recorded under it.
  for (Deposit& dep : n.log) {
    const int nd = effective_home(dep.consumer, newm);
    if (nd == dep.dst) continue;
    dep.dst = nd;
    if (nd == r) {
      n.slots[dep.consumer].insert(dep.producer);
      promote(r, dep.consumer);
    } else {
      vc::WireWriter ww;
      ww.put<int32_t>(dep.producer);
      ww.put<int32_t>(dep.consumer);
      send(r, nd, kWireActivate, ww.take());
    }
  }

  n.confirmed = newm;
  // The mask changed (and owned may have grown): the previous LOCAL_DONE
  // no longer describes this rank. Re-evaluate and re-report.
  n.done_latch = false;
  maybe_local_done(r);
}

void World::do_reset() {
  MP_ASSERT(fabric_->pending_count() == 0, "reset with messages in flight");
  for (int r = 0; r < nranks(); ++r) {
    if (!live(r)) continue;
    MP_ASSERT(mailboxes_[static_cast<size_t>(r)].size() == 0,
              "reset with undrained mailbox");
    if (!cfg_.mutations.skip_seqwindow_rebase) {
      mailboxes_[static_cast<size_t>(r)].rebase_windows();
      for (auto& [key, w] : mirror_) {
        if (key.first == r) w.rebase();
      }
    }
    const size_t backlog = mailboxes_[static_cast<size_t>(r)].window_backlog();
    if (backlog != 0) {
      add_finding("MPS005",
                  "reset leaked " + std::to_string(backlog) +
                      " dedup-window backlog entr" +
                      (backlog == 1 ? std::string("y") : std::string("ies")) +
                      " across submissions at rank " + std::to_string(r));
    }
    Node& n = nodes_[static_cast<size_t>(r)];
    Node fresh;
    fresh.alive = n.alive;
    fresh.confirmed = n.confirmed;  // death knowledge survives the epoch
    n = std::move(fresh);
  }
  ++submission_;
  init_submission();
}

// ---------------------------------------------------------------------------
// Terminal classification and findings

bool World::all_done() const {
  return nodes_[0].declared && submission_ + 1 == cfg_.submissions &&
         fabric_->pending_count() == 0;
}

void World::report_deadlock() {
  std::ostringstream os;
  os << "protocol deadlock: no choice enabled, job not done (submission "
     << submission_ + 1 << "/" << cfg_.submissions << ", no fault injected)";
  add_finding("MPS007", os.str());
}

void World::report_livelock(int cycle_len) {
  std::ostringstream os;
  os << "watchdog livelock: a " << cycle_len
     << "-step chatter cycle moves no work yet resets the node's progress "
        "deadline, so the watchdog can never fire";
  add_finding("MPS006", os.str());
}

void World::add_finding(const std::string& code, const std::string& msg,
                        const std::string& subject) {
  findings_.push_back({code, msg, subject});
}

// ---------------------------------------------------------------------------
// Fingerprints

std::string World::debug_dump() const {
  std::ostringstream os;
  os << "submission=" << submission_ << " drops=" << drops_used_
     << " dups=" << dups_used_ << " crashed=" << crashed_ << '\n';
  for (int r = 0; r < nranks(); ++r) {
    const Node& n = nodes_[static_cast<size_t>(r)];
    os << "rank " << r << ": alive=" << n.alive << " job_done=" << n.job_done
       << " latch=" << n.done_latch << " steal_out=" << n.steal_out
       << " declared=" << n.declared << " confirmed=" << n.confirmed << '\n';
    if (!n.alive) continue;
    auto dump_set = [&](const char* name, const std::set<int>& s) {
      os << "  " << name << "={";
      for (int v : s) os << v << ',';
      os << "}";
    };
    dump_set("owned", n.owned);
    dump_set(" accounted", n.accounted);
    dump_set(" executed", n.executed);
    dump_set(" ready", n.ready);
    dump_set(" stolen_in", n.stolen_in);
    os << '\n';
    os << "  reports:";
    for (const auto& [rank, rep] : n.reports) {
      os << " (" << rank << ": mask=" << rep.mask << " count=" << rep.count
         << ")";
    }
    os << " log=" << n.log.size() << '\n';
  }
  os << "cells:";
  for (const auto& [cell, v] : cells_) os << " [" << cell << "]=" << v;
  os << '\n';
  const size_t count = fabric_->pending_count();
  for (size_t i = 0; i < count; ++i) {
    const vc::Message m = fabric_->pending_peek(i);
    os << "pending: " << m.src << "->" << m.dst << " tag=" << m.tag
       << " seq=" << m.seq << " rel=" << fabric_->wire_seq_next(m.src) - m.seq
       << " payload=" << hash_bytes(m.header.data(), m.header.size())
       << '\n';
  }
  for (int r = 0; r < nranks(); ++r) {
    if (!live(r)) continue;
    for (const auto& [src, w] :
         mailboxes_[static_cast<size_t>(r)].window_snapshot()) {
      const uint64_t next = fabric_->wire_seq_next(src);
      os << "window dst=" << r << " src=" << src
         << " rel_watermark=" << next - w.watermark << " above={";
      for (uint64_t s : w.above) os << next - s << ',';
      os << "}\n";
    }
  }
  return os.str();
}

uint64_t World::fingerprint() const {
  uint64_t h = kFnvBasis;
  fold(h, static_cast<uint64_t>(submission_));
  fold(h, static_cast<uint64_t>(drops_used_));
  fold(h, static_cast<uint64_t>(dups_used_));
  fold(h, crashed_ ? 1 : 0);

  for (int r = 0; r < nranks(); ++r) {
    const Node& n = nodes_[static_cast<size_t>(r)];
    fold(h, 0xA0 + static_cast<uint64_t>(r));
    fold(h, (n.alive ? 1 : 0) | (n.job_done ? 2 : 0) | (n.done_latch ? 4 : 0) |
                (n.steal_out ? 8 : 0) | (n.declared ? 16 : 0));
    fold(h, n.confirmed);
    if (!n.alive) continue;  // frozen state can never influence the future
    auto fold_set = [&](const std::set<int>& s) {
      fold(h, 0xB0);
      for (int v : s) fold(h, static_cast<uint64_t>(v) + 1);
    };
    fold_set(n.owned);
    fold_set(n.accounted);
    fold_set(n.executed);
    fold_set(n.ready);
    fold_set(n.stolen_in);
    fold_set(n.adopted_groups);
    fold(h, 0xB1);
    for (const auto& [t, producers] : n.slots) {
      fold(h, static_cast<uint64_t>(t) + 1);
      for (int p : producers) fold(h, static_cast<uint64_t>(p) + 1);
      fold(h, 0xB2);
    }
    fold(h, 0xB3);
    for (const auto& [t, thief] : n.migs) {
      fold(h, static_cast<uint64_t>(t) + 1);
      fold(h, static_cast<uint64_t>(thief) + 1);
    }
    fold(h, 0xB4);
    for (const Deposit& d : n.log) {
      fold(h, static_cast<uint64_t>(d.producer) + 1);
      fold(h, static_cast<uint64_t>(d.consumer) + 1);
      fold(h, static_cast<uint64_t>(d.dst) + 1);
    }
    fold(h, 0xB5);
    for (const auto& [rank, rep] : n.reports) {
      fold(h, static_cast<uint64_t>(rank) + 1);
      fold(h, static_cast<uint64_t>(rep.count));
      fold(h, rep.mask);
    }
  }

  fold(h, 0xC0);
  for (const auto& [cell, v] : cells_) {
    fold(h, static_cast<uint64_t>(cell) + 1);
    uint64_t pattern = 0;
    static_assert(sizeof(pattern) == sizeof(v));
    std::memcpy(&pattern, &v, sizeof(pattern));
    fold(h, pattern);
  }

  // In-flight messages, canonicalized per (src, dst) wire. Absolute seq
  // values never enter the hash: within a wire only the ORDER of the
  // pending seqs (dense ranks, ties preserved for injected duplicates) and
  // each message's current accept/filter verdict against the receiver's
  // dedup window are behaviorally observable. This is what lets chatter
  // cycles close even while an undelivered message sits parked on a wire
  // whose counter keeps advancing.
  std::map<std::pair<int, int>, vc::SeqWindow> windows;
  for (int r = 0; r < nranks(); ++r) {
    if (!live(r)) continue;
    for (const auto& [src, w] :
         mailboxes_[static_cast<size_t>(r)].window_snapshot()) {
      windows[{r, src}] = w;
    }
  }
  fold(h, 0xD0);
  std::map<std::pair<int, int>, std::vector<vc::Message>> wires;
  const size_t count = fabric_->pending_count();
  for (size_t i = 0; i < count; ++i) {
    const vc::Message m = fabric_->pending_peek(i);
    wires[{m.src, m.dst}].push_back(m);
  }
  for (auto& [wire, msgs] : wires) {
    fold(h, 0xD1);
    fold(h, static_cast<uint64_t>(wire.first));
    fold(h, static_cast<uint64_t>(wire.second));
    std::sort(msgs.begin(), msgs.end(),
              [](const vc::Message& a, const vc::Message& b) {
                return a.seq < b.seq;
              });
    uint64_t rank = 0;
    for (size_t j = 0; j < msgs.size(); ++j) {
      if (j > 0 && msgs[j].seq != msgs[j - 1].seq) ++rank;
      bool fresh = true;  // no window yet (or dead dst): first contact
      auto it = windows.find({wire.second, wire.first});
      if (it != windows.end()) {
        fresh = msgs[j].seq > it->second.watermark &&
                it->second.above.count(msgs[j].seq) == 0;
      }
      fold(h, rank);
      fold(h, static_cast<uint64_t>(msgs[j].tag));
      fold(h, hash_bytes(msgs[j].header.data(), msgs[j].header.size()));
      fold(h, fresh ? 1 : 0);
    }
  }

  // Window residue: of the dedup state itself only "is there out-of-order
  // backlog" remains observable (the MPS005 reset-leak check); which dead
  // seqs the window remembers is not, and folding them would stop
  // post-drop chatter cycles from ever closing.
  fold(h, 0xE0);
  for (const auto& [key, w] : windows) {
    fold(h, 0xE1);
    fold(h, static_cast<uint64_t>(key.first));
    fold(h, static_cast<uint64_t>(key.second));
    fold(h, w.backlog() == 0 ? 0 : 1);
  }
  return h;
}

}  // namespace mp::analysis
