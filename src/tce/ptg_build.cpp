#include "tce/ptg_build.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <string>

#include "ga/global_array.h"
#include "ga/hash_block.h"
#include "linalg/gemm.h"
#include "ptg/context.h"
#include "linalg/sort4.h"
#include "support/analysis.h"
#include "support/error.h"

namespace mp::tce {

using ptg::DataBuf;
using ptg::OutRoute;
using ptg::Params;
using ptg::params_of;
using ptg::TaskClass;
using ptg::TaskCtx;
using ptg::TaskKey;

namespace {

/// Binary-heap reduction tree over `len` leaves: internal nodes are
/// 0..len-2, leaf i sits at heap position len-1+i. Every internal node has
/// exactly two children. parent_slot is 0 for odd positions, 1 for even.
struct ReduceTree {
  int len;
  int parent_of(int pos) const { return (pos - 1) / 2; }
  int slot_of(int pos) const { return (pos - 1) % 2; }
  int leaf_pos(int leaf) const { return len - 1 + leaf; }
};

/// A chain's segments under VariantConfig::segment_height h: runs of
/// `height` consecutive GEMMs (the whole chain when h = 0). C flows from
/// GEMM to GEMM inside a segment; the segments' results meet in a
/// ReduceTree.
struct Segments {
  int len, height;
  Segments(const Chain& ch, int h)
      : len(static_cast<int>(ch.gemms.size())),
        height(h == 0 ? std::max(len, 1) : h) {}
  int count() const { return (len + height - 1) / height; }
  bool ends_at(int l2) const {
    return (l2 + 1) % height == 0 || l2 == len - 1;
  }
};

}  // namespace

void require_result_not_operand(const ChainPlan& plan,
                                const StoreList& stores) {
  std::vector<const ga::GlobalArray*> results;
  for (const Chain& ch : plan.chains) {
    const ga::GlobalArray* r = stores[static_cast<size_t>(ch.r_store)].ga;
    if (std::find(results.begin(), results.end(), r) == results.end()) {
      results.push_back(r);
    }
  }
  for (const Chain& ch : plan.chains) {
    for (const int8_t s : {ch.a_store, ch.b_store}) {
      const ga::GlobalArray* operand = stores[static_cast<size_t>(s)].ga;
      MP_REQUIRE(std::find(results.begin(), results.end(), operand) ==
                     results.end(),
                 "operand store " + std::to_string(s) +
                     " is also a result Global Array: READ tasks would "
                     "hand out blocks WRITE_C accumulates into");
    }
  }
}

namespace {

/// build_ptg with or without stores (st == nullptr: no bodies).
PtgBuild build(const ChainPlan& plan, const StoreList* st,
               const VariantConfig& var, int nranks) {
  var.validate();
  MP_REQUIRE(nranks >= 1, "build_ptg: need at least one rank");

  const int nchains = static_cast<int>(plan.chains.size());
  const PriorityScheme prio{nchains, nranks};
  const int h = var.segment_height;

  const ChainPlan* pl = &plan;
  auto home = [nranks](int l1) { return l1 % nranks; };
  // Operand and result blocks are placed on the rank that owns them in
  // GA's block distribution, computed from the plan's array sizes, so the
  // graph is placed the same with or without Global Arrays.
  auto owner = [pl, nranks](int8_t store, int64_t offset) {
    return ga::block_owner(offset, pl->store_size(store), nranks);
  };

  // Node-level mutexes protecting the WRITE critical region (Section IV-A):
  // one per rank, shared by every WRITE task executing on that rank. The
  // array is indexed by the *executing* rank because one materialized pool
  // may be shared by every rank's Context (the template-cache path): a
  // single mutex would silently widen the paper's per-node critical region
  // into a global one. Indexing by executing rank also keeps an adopted
  // WRITE (rank-failure recovery) serialized with its adopter's own writes.
  auto write_mutexes =
      std::make_shared<std::vector<std::mutex>>(static_cast<size_t>(nranks));

  PtgBuild b;
  ptg::Taskpool& pool = b.pool;
  const auto one_output = [](const Params&) { return 1; };

  // ---- READ_A / READ_B -------------------------------------------------
  auto make_reader = [&](const char* name, bool is_a) {
    TaskClass c;
    c.name = name;
    c.rank_of = [pl, owner, is_a](const Params& p) {
      const Chain& ch = pl->chains[static_cast<size_t>(p[0])];
      const GemmOp& g = ch.gemms[static_cast<size_t>(p[1])];
      return is_a ? owner(ch.a_store, g.a_offset)
                  : owner(ch.b_store, g.b_offset);
    };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.num_outputs = one_output;
    c.priority = [prio](const Params& p) { return prio.reader(p[0]); };
    c.enumerate_rank = [pl, owner, is_a](int rank) {
      std::vector<Params> out;
      for (const Chain& ch : pl->chains) {
        for (const GemmOp& g : ch.gemms) {
          const int r = is_a ? owner(ch.a_store, g.a_offset)
                             : owner(ch.b_store, g.b_offset);
          if (r == rank) out.push_back(params_of(ch.id, g.l2));
        }
      }
      return out;
    };
    // The block goes out in place, as a read-only view of the GA (the
    // paper's ga_access): no task of the submission writes an operand
    // array (require_result_not_operand), and views are read only while
    // the submission runs.
    c.body = [pl, st, is_a](TaskCtx& t) {
      const Chain& ch = pl->chains[static_cast<size_t>(t.params()[0])];
      const GemmOp& g = ch.gemms[static_cast<size_t>(t.params()[1])];
      const TensorStore& ts =
          (*st)[static_cast<size_t>(is_a ? ch.a_store : ch.b_store)];
      DataBuf block = ga::view_hash_block(*ts.ga, ts.shape->index(),
                                          is_a ? g.a_key : g.b_key);
      MP_DCHECK(block->size() == static_cast<size_t>(is_a ? g.m : g.n) *
                                     static_cast<size_t>(g.k),
                "READ: block size does not match the GEMM operand");
      t.set_output(0, std::move(block));
    };
    return c;
  };

  b.ids.read_a = pool.add_class(make_reader("READ_A", true));
  b.ids.read_b = pool.add_class(make_reader("READ_B", false));

  // ---- DFILL (one per segment head when segments are chained) ----------
  if (h != 1) {
    TaskClass c;
    c.name = "DFILL";
    c.rank_of = [home](const Params& p) { return home(p[0]); };
    c.num_task_inputs = [](const Params&) { return 0; };
    c.num_outputs = one_output;
    c.priority = [prio](const Params& p) { return prio.other(p[0]); };
    c.enumerate_rank = [pl, home, h](int rank) {
      std::vector<Params> out;
      for (const Chain& ch : pl->chains) {
        if (home(ch.id) != rank) continue;
        for (int s = 0; s < Segments(ch, h).count(); ++s) {
          out.push_back(params_of(ch.id, s));
        }
      }
      return out;
    };
    c.body = [pl](TaskCtx& t) {
      const Chain& ch = pl->chains[static_cast<size_t>(t.params()[0])];
      t.set_output(0, ptg::make_buf_pooled(static_cast<size_t>(ch.c_elems())));
    };
    b.ids.dfill = pool.add_class(std::move(c));
  }

  // ---- GEMM --------------------------------------------------------------
  {
    TaskClass c;
    c.name = "GEMM";
    c.rank_of = [home](const Params& p) { return home(p[0]); };
    const bool chained = h != 1;
    c.num_task_inputs = [chained](const Params&) {
      return chained ? 3 : 2;  // A, B [, C carried along the segment]
    };
    c.num_outputs = one_output;
    c.priority = [prio](const Params& p) { return prio.gemm(p[0]); };
    c.enumerate_rank = [pl, home](int rank) {
      std::vector<Params> out;
      for (const Chain& ch : pl->chains) {
        if (home(ch.id) != rank) continue;
        for (const GemmOp& g : ch.gemms) out.push_back(params_of(ch.id, g.l2));
      }
      return out;
    };
    c.body = [pl, chained](TaskCtx& t) {
      const Chain& ch = pl->chains[static_cast<size_t>(t.params()[0])];
      const GemmOp& g = ch.gemms[static_cast<size_t>(t.params()[1])];
      const DataBuf& a = t.input(0);
      const DataBuf& b = t.input(1);
      DataBuf cbuf = chained ? t.take_input(2)
                             : ptg::make_buf_pooled(
                                   static_cast<size_t>(ch.c_elems()));
      linalg::dgemm(g.transa, g.transb, static_cast<size_t>(g.m),
                    static_cast<size_t>(g.n), static_cast<size_t>(g.k),
                    g.alpha, a->data(), static_cast<size_t>(g.lda()),
                    b->data(), static_cast<size_t>(g.ldb()), 1.0,
                    cbuf->mutable_data(), static_cast<size_t>(g.m));
      t.set_output(0, std::move(cbuf));
    };
    b.ids.gemm = pool.add_class(std::move(c));
  }
  const int16_t gemm_id = b.ids.gemm;

  // ---- REDUCE (over the segments' results) ------------------------------
  if (h != 0) {
    TaskClass c;
    c.name = "REDUCE";
    c.rank_of = [home](const Params& p) { return home(p[0]); };
    c.num_task_inputs = [](const Params&) { return 2; };
    c.num_outputs = one_output;
    c.priority = [prio](const Params& p) { return prio.other(p[0]); };
    c.enumerate_rank = [pl, home, h](int rank) {
      std::vector<Params> out;
      for (const Chain& ch : pl->chains) {
        if (home(ch.id) != rank) continue;
        const int nsegs = Segments(ch, h).count();
        for (int node = 0; node < nsegs - 1; ++node) {
          out.push_back(params_of(ch.id, node));
        }
      }
      return out;
    };
    c.body = [](TaskCtx& t) {
      DataBuf acc = t.take_input(0);
      const DataBuf& other = t.input(1);
      linalg::daxpy(acc->size(), 1.0, other->data(), acc->mutable_data());
      t.set_output(0, std::move(acc));
    };
    b.ids.reduce = pool.add_class(std::move(c));
  }
  const int16_t reduce_id = b.ids.reduce;

  // ---- SORT --------------------------------------------------------------
  {
    TaskClass c;
    c.name = var.parallel_sorts ? "SORT_i" : "SORT";
    c.rank_of = [home](const Params& p) { return home(p[0]); };
    c.num_task_inputs = [](const Params&) { return 1; };
    c.num_outputs = one_output;
    c.priority = [prio](const Params& p) { return prio.other(p[0]); };
    const bool psorts = var.parallel_sorts;
    c.enumerate_rank = [pl, home, psorts](int rank) {
      std::vector<Params> out;
      for (const Chain& ch : pl->chains) {
        if (home(ch.id) != rank) continue;
        if (psorts) {
          for (size_t i = 0; i < ch.sorts.size(); ++i) {
            out.push_back(params_of(ch.id, static_cast<int32_t>(i)));
          }
        } else {
          out.push_back(params_of(ch.id));
        }
      }
      return out;
    };
    c.body = [pl, psorts](TaskCtx& t) {
      const Chain& ch = pl->chains[static_cast<size_t>(t.params()[0])];
      const DataBuf& cin = t.input(0);
      auto out = ptg::make_buf_pooled(cin->size());
      double* dst = out->mutable_data();
      if (psorts) {
        const SortOp& so = ch.sorts[static_cast<size_t>(t.params()[1])];
        linalg::sort_4(cin->data(), dst, ch.c_dims, so.perm, so.factor);
      } else {
        // One task, all guarded sorts accumulated into a master Csorted
        // (Fig. 5): valid because every fired guard targets the same
        // canonical block.
        for (const SortOp& so : ch.sorts) {
          linalg::sort_4_acc(cin->data(), dst, ch.c_dims, so.perm,
                             so.factor);
        }
      }
      t.set_output(0, std::move(out));
    };
    b.ids.sort = pool.add_class(std::move(c));
  }
  const int16_t sort_id = b.ids.sort;

  // ---- WRITE_C -----------------------------------------------------------
  {
    TaskClass c;
    c.name = var.parallel_writes ? "WRITE_C_i" : "WRITE_C";
    // The body serializes through this rank's node-level write mutex and
    // accumulates into locally-owned GA blocks — both are rank-local state
    // the steal agent must not ship to another node.
    c.migratable = false;
    // Placed on the rank that owns the target block in the GA (Fig. 8).
    c.rank_of = [pl, owner](const Params& p) {
      const Chain& ch = pl->chains[static_cast<size_t>(p[0])];
      return owner(ch.r_store, ch.c_offset);
    };
    const bool pwrites = var.parallel_writes;
    const bool psorts = var.parallel_sorts;
    c.num_task_inputs = [pl, pwrites, psorts](const Params& p) {
      if (pwrites || !psorts) return 1;
      return static_cast<int>(
          pl->chains[static_cast<size_t>(p[0])].sorts.size());
    };
    c.num_outputs = [](const Params&) { return 0; };  // sink
    c.priority = [prio](const Params& p) { return prio.other(p[0]); };
    c.enumerate_rank = [pl, owner, pwrites](int rank) {
      std::vector<Params> out;
      for (const Chain& ch : pl->chains) {
        if (owner(ch.r_store, ch.c_offset) != rank) continue;
        if (pwrites) {
          for (size_t i = 0; i < ch.sorts.size(); ++i) {
            out.push_back(params_of(ch.id, static_cast<int32_t>(i)));
          }
        } else {
          out.push_back(params_of(ch.id));
        }
      }
      return out;
    };
    c.body = [pl, st, write_mutexes, pwrites, psorts](TaskCtx& t) {
      const Chain& ch = pl->chains[static_cast<size_t>(t.params()[0])];
      const TensorStore& ts = (*st)[static_cast<size_t>(ch.r_store)];
      // The node-level critical region of Section IV-A: every WRITE on this
      // rank serializes on one mutex, exactly like the pthread mutex in the
      // paper's implementation.
      std::mutex* write_mutex =
          &(*write_mutexes)[static_cast<size_t>(t.runtime().rank())];
      // mp-lint: allow(lock-in-task-body) — the paper's WRITE critical region
      std::lock_guard lock(*write_mutex);
      MP_ANNOTATE_LOCK_ACQUIRED(write_mutex);
      if (pwrites || !psorts) {
        ga::add_hash_block(*ts.ga, ts.shape->index(), ch.c_key,
                           t.input(0)->data());
      } else {
        for (size_t i = 0; i < ch.sorts.size(); ++i) {
          ga::add_hash_block(*ts.ga, ts.shape->index(), ch.c_key,
                             t.input(static_cast<int>(i))->data());
        }
      }
      MP_ANNOTATE_LOCK_RELEASED(write_mutex);
    };
    // Rank-failure recovery (DESIGN.md §10): WRITE_C accumulates into the
    // GA, so a dead rank may have already added some chains' contributions
    // to a block before crashing. All writers of one target block recover
    // as one co-adoption group (keyed by block offset, salted with the
    // store id so fused plans with several R tensors never collide), and
    // on_adopt zeroes the block once before the group is re-executed —
    // full re-execution then accumulates exactly once. Survivors can zero
    // a block the dead rank owned because the virtual-cluster GA is
    // process-shared memory; a real GA would use GA_Put the same way.
    c.recovery_key = [pl](const Params& p) {
      const Chain& ch = pl->chains[static_cast<size_t>(p[0])];
      return (static_cast<int64_t>(ch.r_store) << 48) ^ ch.c_offset;
    };
    c.on_adopt = [pl, st](const Params& p, int /*dead_rank*/) {
      const Chain& ch = pl->chains[static_cast<size_t>(p[0])];
      const TensorStore& ts = (*st)[static_cast<size_t>(ch.r_store)];
      const auto entry = ts.shape->index().find(ch.c_key);
      if (!entry) return;
      std::vector<double> zeros(static_cast<size_t>(entry->size), 0.0);
      ga::put_hash_block(*ts.ga, ts.shape->index(), ch.c_key, zeros.data());
    };
    b.ids.write = pool.add_class(std::move(c));
  }
  const int16_t write_id = b.ids.write;

  // ---- dataflow wiring ----------------------------------------------------
  // Route the chain result (from the last GEMM of a one-segment chain or
  // the reduction root) into the sort stage.
  auto route_to_sorts = [pl, sort_id, psorts = var.parallel_sorts](
                            int l1, std::vector<OutRoute>& r) {
    const Chain& ch = pl->chains[static_cast<size_t>(l1)];
    if (psorts) {
      for (size_t i = 0; i < ch.sorts.size(); ++i) {
        r.push_back({TaskKey{sort_id, params_of(l1, static_cast<int32_t>(i))},
                     0, 0});
      }
    } else {
      r.push_back({TaskKey{sort_id, params_of(l1)}, 0, 0});
    }
  };

  pool.mutable_cls(b.ids.read_a).route_outputs =
      [gemm_id](const Params& p, std::vector<OutRoute>& r) {
        r.push_back({TaskKey{gemm_id, p}, 0, 0});
      };
  pool.mutable_cls(b.ids.read_b).route_outputs =
      [gemm_id](const Params& p, std::vector<OutRoute>& r) {
        r.push_back({TaskKey{gemm_id, p}, 1, 0});
      };

  if (b.ids.dfill >= 0) {
    pool.mutable_cls(b.ids.dfill).route_outputs =
        [pl, gemm_id, h](const Params& p, std::vector<OutRoute>& r) {
          const Segments seg(pl->chains[static_cast<size_t>(p[0])], h);
          r.push_back(
              {TaskKey{gemm_id, params_of(p[0], p[1] * seg.height)}, 2, 0});
        };
  }

  pool.mutable_cls(gemm_id).route_outputs =
      [pl, gemm_id, reduce_id, route_to_sorts, h](const Params& p,
                                                  std::vector<OutRoute>& r) {
        const Segments seg(pl->chains[static_cast<size_t>(p[0])], h);
        if (!seg.ends_at(p[1])) {
          // Inside a segment C flows to the next GEMM (the serial chain of
          // Fig. 1).
          r.push_back({TaskKey{gemm_id, params_of(p[0], p[1] + 1)}, 2, 0});
          return;
        }
        if (seg.count() == 1) {
          route_to_sorts(p[0], r);
          return;
        }
        // A segment's result goes into the reduction tree (Fig. 2 /
        // Fig. 4).
        const ReduceTree tree{seg.count()};
        const int pos = tree.leaf_pos(p[1] / seg.height);
        r.push_back({TaskKey{reduce_id, params_of(p[0], tree.parent_of(pos))},
                     static_cast<int8_t>(tree.slot_of(pos)), 0});
      };

  if (reduce_id >= 0) {
    pool.mutable_cls(reduce_id).route_outputs =
        [pl, reduce_id, route_to_sorts, h](const Params& p,
                                           std::vector<OutRoute>& r) {
          const ReduceTree tree{
              Segments(pl->chains[static_cast<size_t>(p[0])], h).count()};
          if (p[1] == 0) {
            route_to_sorts(p[0], r);
          } else {
            r.push_back(
                {TaskKey{reduce_id, params_of(p[0], tree.parent_of(p[1]))},
                 static_cast<int8_t>(tree.slot_of(p[1])), 0});
          }
        };
  }

  pool.mutable_cls(sort_id).route_outputs =
      [write_id, pwrites = var.parallel_writes,
       psorts = var.parallel_sorts](const Params& p,
                                    std::vector<OutRoute>& r) {
        if (pwrites) {
          r.push_back({TaskKey{write_id, p}, 0, 0});
        } else if (psorts) {
          r.push_back({TaskKey{write_id, params_of(p[0])},
                       static_cast<int8_t>(p[1]), 0});
        } else {
          r.push_back({TaskKey{write_id, params_of(p[0])}, 0, 0});
        }
      };

  // A variant without priorities (the paper's v2) leaves every class
  // without a priority function, so all its instances schedule at 0.
  // Without stores the pool only describes the graph, for the verifier and
  // the simulator to materialize: no class has a body, so no Context runs
  // it.
  for (size_t i = 0; i < pool.num_classes(); ++i) {
    TaskClass& c = pool.mutable_cls(static_cast<int16_t>(i));
    if (!var.priorities) c.priority = nullptr;
    if (st == nullptr) {
      c.body = nullptr;
      c.on_adopt = nullptr;
    }
  }
  return b;
}

}  // namespace

PtgBuild build_ptg(const ChainPlan& plan, const StoreList& stores,
                   const VariantConfig& var, int nranks) {
  MP_REQUIRE(stores.size() >= plan.store_sizes.size(),
             "build_ptg: missing tensor stores");
  for (const TensorStore& ts : stores) {
    MP_REQUIRE(ts.shape && ts.ga, "build_ptg: null storage");
  }
  require_result_not_operand(plan, stores);
  return build(plan, &stores, var, nranks);
}

PtgBuild build_ptg(const ChainPlan& plan, const VariantConfig& var,
                   int nranks) {
  return build(plan, nullptr, var, nranks);
}

}  // namespace mp::tce
