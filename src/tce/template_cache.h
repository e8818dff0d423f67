// Template-cached PTG materialization (DESIGN.md §11). The CCSD driver
// iterates the *same* contraction dozens of times per calculation with only
// the tensor data changing — block keys, offsets and placement are all
// functions of the tile space, not of the data. A PtgTemplate therefore
// owns the inspected ChainPlan and the materialized PtgBuild once, keyed by
// everything the graph actually depends on (subroutine, tile-space
// fingerprint, variant, nranks), and each subsequent submission only
// re-binds the StoreList base pointers — fixing, as a side effect, the
// build_ptg capture-by-reference lifetime footgun: the template's lambdas
// capture storage the template itself owns.
//
// The template also owns the graph's one compiled form (ptg::FlatGraph):
// built once with the template, shared read-only by every Context of every
// session over it. The mp-verify static verifier runs once per template (at
// build, when MP_VERIFY is set) on that same graph instead of once per
// submission; Contexts running a cached template skip their own pass via
// Options::assume_verified.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ptg/flat_graph.h"
#include "tce/chain_plan.h"
#include "tce/ptg_build.h"
#include "tce/storage.h"
#include "tce/tiles.h"
#include "tce/variants.h"

namespace mp::tce {

/// FNV-1a over every field of the spec. Two TileSpaces with equal specs
/// produce identical block indices, offsets and owner maps, so the
/// fingerprint (with the other key fields) fully determines the graph.
uint64_t fingerprint_tile_space(const TileSpaceSpec& spec);

/// The variant's identity for keying: name plus the segment height and the
/// flag bits ("v5:g1s0w0p1"), so a hand-built config with a reused name
/// cannot alias a cached template.
std::string variant_signature(const VariantConfig& var);

/// Everything the materialized graph depends on. Submissions whose key
/// matches may share one template; any mismatch is a different template.
struct TemplateKey {
  std::string subroutine;        ///< e.g. "t2_7", "hh_ladder", "fused"
  uint64_t tile_fingerprint = 0; ///< fingerprint_tile_space()
  std::string variant;           ///< variant_signature()
  int nranks = 0;

  bool operator==(const TemplateKey& o) const {
    return nranks == o.nranks && tile_fingerprint == o.tile_fingerprint &&
           subroutine == o.subroutine && variant == o.variant;
  }
};

struct TemplateKeyHash {
  size_t operator()(const TemplateKey& k) const;
};

/// One cached materialization: the ChainPlan and StoreList live on the heap
/// inside the template, and build_ptg's lambdas capture *those*, so the
/// taskpool can never dangle while the template is alive. rebind() points
/// the owned StoreList at a new submission's tensors in place — the pool's
/// captured pointer-to-StoreList stays valid — and debug-asserts that the
/// new stores are structurally interchangeable with the ones the graph was
/// built against (same shapes, same GA extent, hence same placement).
class PtgTemplate {
 public:
  /// Builds the taskpool and compiles it for key.nranks ranks. A graph the
  /// compile cannot place (MPV002-MPV005) is kept with its findings: the
  /// cache refuses to publish it and a Context refuses to run it.
  PtgTemplate(TemplateKey key, ChainPlan plan, const StoreList& stores,
              const VariantConfig& variant);

  PtgTemplate(const PtgTemplate&) = delete;
  PtgTemplate& operator=(const PtgTemplate&) = delete;

  const TemplateKey& key() const { return key_; }
  const ChainPlan& plan() const { return *plan_; }
  const VariantConfig& variant() const { return variant_; }
  const ptg::Taskpool& pool() const { return build_.pool; }
  const PtgClassIds& ids() const { return build_.ids; }
  /// The pool compiled for key().nranks ranks; every Context running this
  /// template shares it.
  const std::shared_ptr<const ptg::FlatGraph>& graph() const {
    return graph_;
  }
  const StoreList& stores() const { return *stores_; }

  /// Point the owned StoreList at this submission's tensors. Must not race
  /// a running Context (the session rebinds before arming any rank).
  /// Already-bound entries are compared first and skipped when unchanged,
  /// so the steady-state CCSD iteration (same GAs, new contents) writes
  /// nothing at all. Returns true when any pointer actually changed. A
  /// new binding whose result array is also an operand array raises
  /// InvalidArgument (require_result_not_operand) and binds nothing.
  bool rebind(const StoreList& stores);

  uint64_t rebinds() const {
    return rebinds_.load(std::memory_order_relaxed);
  }

 private:
  TemplateKey key_;
  /// unique_ptr for address stability: the pool's lambdas capture &*plan_
  /// and &*stores_, which must survive moves of the template handle.
  std::unique_ptr<ChainPlan> plan_;
  std::unique_ptr<StoreList> stores_;
  VariantConfig variant_;
  PtgBuild build_;
  std::shared_ptr<const ptg::FlatGraph> graph_;
  std::atomic<uint64_t> rebinds_{0};
};

/// Process-wide (or per-driver) cache of PtgTemplates. get_or_build() is
/// thread-safe; the returned shared_ptr keeps a template alive across
/// invalidate()/clear(), so running submissions are never pulled out from
/// under their pool.
class TemplateCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;      ///< templates built (inspection + build paid)
    uint64_t rebinds = 0;     ///< rebind() calls that changed any pointer
    uint64_t verifies_run = 0;///< mp-verify passes executed at build
    uint64_t invalidations = 0;
  };

  /// Return the template for `key`, building (and, when MP_VERIFY is set,
  /// verifying its compiled graph — throws StateError on diagnostics and
  /// caches nothing) on first use. Without MP_VERIFY, a graph the compile
  /// cannot place (MPV002-MPV005) raises InvalidArgument and is not cached
  /// either. A template enters the cache only after it verified, so no
  /// call ever returns an unverified one. On a hit the plan/variant
  /// arguments are ignored; on every call the template is re-bound to
  /// `stores`.
  std::shared_ptr<PtgTemplate> get_or_build(const TemplateKey& key,
                                            const ChainPlan& plan,
                                            const StoreList& stores,
                                            const VariantConfig& variant);

  /// Drop the cached template for `key` (if any); the next get_or_build
  /// re-inspects, re-builds and re-verifies. Live shared_ptrs stay valid.
  void invalidate(const TemplateKey& key);
  void clear();

  size_t size() const;
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<TemplateKey, std::shared_ptr<PtgTemplate>,
                     TemplateKeyHash>
      map_;
  Stats stats_;
};

}  // namespace mp::tce
