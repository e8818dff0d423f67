#include "tce/template_cache.h"

#include "analysis/graph_verify.h"
#include "support/error.h"

namespace mp::tce {

namespace {

uint64_t fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

uint64_t fingerprint_tile_space(const TileSpaceSpec& spec) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  h = fnv1a(h, static_cast<uint64_t>(spec.n_occ_alpha));
  h = fnv1a(h, static_cast<uint64_t>(spec.n_occ_beta));
  h = fnv1a(h, static_cast<uint64_t>(spec.n_virt_alpha));
  h = fnv1a(h, static_cast<uint64_t>(spec.n_virt_beta));
  h = fnv1a(h, static_cast<uint64_t>(spec.tile_size));
  h = fnv1a(h, static_cast<uint64_t>(spec.num_irreps));
  return h;
}

std::string variant_signature(const VariantConfig& var) {
  std::string sig = var.name;
  sig += ":g";
  sig += std::to_string(var.segment_height);
  sig += 's';
  sig += var.parallel_sorts ? '1' : '0';
  sig += 'w';
  sig += var.parallel_writes ? '1' : '0';
  sig += 'p';
  sig += var.priorities ? '1' : '0';
  return sig;
}

size_t TemplateKeyHash::operator()(const TemplateKey& k) const {
  uint64_t h = k.tile_fingerprint;
  h = fnv1a(h, static_cast<uint64_t>(k.nranks));
  h = fnv1a(h, std::hash<std::string>{}(k.subroutine));
  h = fnv1a(h, std::hash<std::string>{}(k.variant));
  return static_cast<size_t>(h);
}

PtgTemplate::PtgTemplate(TemplateKey key, ChainPlan plan,
                         const StoreList& stores, const VariantConfig& variant)
    : key_(std::move(key)),
      plan_(std::make_unique<ChainPlan>(std::move(plan))),
      stores_(std::make_unique<StoreList>(stores)),
      variant_(variant) {
  MP_REQUIRE(key_.nranks >= 1, "PtgTemplate: need at least one rank");
  // The build captures &*plan_ / &*stores_ — the template's own heap
  // storage — which is exactly the lifetime fix for build_ptg's documented
  // capture-by-reference footgun.
  build_ = build_ptg(*plan_, *stores_, variant_, key_.nranks);
  graph_ = std::make_shared<const ptg::FlatGraph>(
      ptg::FlatGraph::compile(build_.pool, key_.nranks));
}

bool PtgTemplate::rebind(const StoreList& stores) {
  StoreList& bound = *stores_;
  MP_REQUIRE(stores.size() == bound.size(),
             "PtgTemplate::rebind: store count changed (" +
                 std::to_string(stores.size()) + " vs " +
                 std::to_string(bound.size()) +
                 ") — this is a different subroutine, not a re-bind");
  bool changed = false;
  for (size_t i = 0; i < bound.size(); ++i) {
    const TensorStore& next = stores[i];
    const TensorStore& cur = bound[i];
    MP_REQUIRE(next.shape && next.ga, "PtgTemplate::rebind: null storage");
    if (next.shape == cur.shape && next.ga == cur.ga) continue;
    // Stale-rebind guard: the graph's placement (rank_of/enumerate_rank)
    // was computed from the plan's array extents, and its block addressing
    // from the original stores. A replacement tensor must be structurally
    // interchangeable — same block shape object semantics and same GA
    // extent — or the cached template would silently compute with the wrong
    // placement. That is a keying bug in the caller, not a data change.
    MP_DCHECK(next.ga->size() == cur.ga->size(),
              "PtgTemplate::rebind: GA extent changed for store " +
                  std::to_string(i) + " (" + std::to_string(next.ga->size()) +
                  " vs " + std::to_string(cur.ga->size()) +
                  ") — stale re-bind, the TemplateKey should differ");
    MP_DCHECK(next.shape->index().num_blocks() == cur.shape->index().num_blocks(),
              "PtgTemplate::rebind: block index changed for store " +
                  std::to_string(i) + " — stale re-bind");
    changed = true;
  }
  if (!changed) return false;
  // Checked before anything is bound, so a refused binding leaves the
  // template bound as it was.
  require_result_not_operand(*plan_, stores);
  bound = stores;
  rebinds_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::shared_ptr<PtgTemplate> TemplateCache::get_or_build(
    const TemplateKey& key, const ChainPlan& plan, const StoreList& stores,
    const VariantConfig& variant) {
  std::shared_ptr<PtgTemplate> tpl;
  {
    std::lock_guard lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      tpl = it->second;
      ++stats_.hits;
    } else {
      // Built and, when MP_VERIFY is set, verified before it is published:
      // a hit may only ever return a template that passed. mp-verify runs
      // once per template instead of once per submission, because the
      // graph is a pure function of the key.
      auto fresh = std::make_shared<PtgTemplate>(key, plan, stores, variant);
      ++stats_.misses;
      if (analysis::env_verify_enabled()) {
        ++stats_.verifies_run;
        const auto diags = analysis::verify_graph(*fresh->graph());
        if (!diags.empty()) {
          throw StateError(
              "MP_VERIFY: cached PTG template failed static verification; " +
              analysis::render(diags));
        }
      }
      // Without MP_VERIFY a graph the runtime could not run is still
      // refused here, before any session is built over it.
      fresh->graph()->require_placeable("TemplateCache");
      map_.emplace(key, fresh);
      return fresh;
    }
  }
  if (tpl->rebind(stores)) {
    std::lock_guard lock(mu_);
    ++stats_.rebinds;
  }
  return tpl;
}

void TemplateCache::invalidate(const TemplateKey& key) {
  std::lock_guard lock(mu_);
  if (map_.erase(key) > 0) ++stats_.invalidations;
}

void TemplateCache::clear() {
  std::lock_guard lock(mu_);
  stats_.invalidations += map_.size();
  map_.clear();
}

size_t TemplateCache::size() const {
  std::lock_guard lock(mu_);
  return map_.size();
}

TemplateCache::Stats TemplateCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace mp::tce
