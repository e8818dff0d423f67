#include "tce/ptg_session.h"

#include "support/error.h"

namespace mp::tce {

PtgSession::PtgSession(vc::Cluster& cluster, std::shared_ptr<PtgTemplate> tpl,
                       const PtgExecOptions& opts)
    : cluster_(cluster), tpl_(std::move(tpl)), opts_(opts) {
  MP_REQUIRE(tpl_ != nullptr, "PtgSession: null template");
  MP_REQUIRE(tpl_->key().nranks == cluster_.nranks(),
             "PtgSession: template was built for " +
                 std::to_string(tpl_->key().nranks) + " ranks, cluster has " +
                 std::to_string(cluster_.nranks()));
  MP_REQUIRE(variant_signature(opts_.variant) == tpl_->key().variant,
             "PtgSession: options variant does not match the template's");

  ptg::Options ropts = runtime_options(opts_);
  // The template cache ran mp-verify when it built this template, if
  // MP_VERIFY was set then; the runtime must not repeat it per Context, let
  // alone per submission.
  ropts.assume_verified = true;

  const int n = cluster_.nranks();
  results_.resize(static_cast<size_t>(n));
  dead_.assign(static_cast<size_t>(n), 0);
  rctxs_.reserve(static_cast<size_t>(n));
  ctxs_.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    rctxs_.push_back(std::make_unique<vc::RankCtx>(&cluster_, r));
    ctxs_.push_back(
        std::make_unique<ptg::Context>(*rctxs_.back(), tpl_->pool(),
                                       tpl_->graph(), ropts));
  }
  drivers_.reserve(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    drivers_.emplace_back([this, r] { driver_main(r); });
  }
}

PtgSession::~PtgSession() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : drivers_) {
    if (t.joinable()) t.join();
  }
  // Contexts (and their persistent worker/comm threads) are torn down by
  // the unique_ptrs after every driver has left run().
}

bool PtgSession::rank_killed(int r) const {
  std::lock_guard lock(mu_);
  return dead_[static_cast<size_t>(r)] != 0;
}

void PtgSession::driver_main(int r) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return shutdown_ || epoch_ > seen; });
      if (shutdown_) return;
      seen = epoch_;
    }
    PtgExecResult res;
    bool is_dead;
    {
      std::lock_guard lock(mu_);
      is_dead = dead_[static_cast<size_t>(r)] != 0;
    }
    if (is_dead) {
      // This rank's Context dropped out of the cluster barrier when it was
      // crash-injected; it can never rejoin a collective. Report killed.
      res.killed = true;
    } else {
      ptg::Context& ctx = *ctxs_[static_cast<size_t>(r)];
      try {
        ctx.run();
        if (ctx.killed()) {
          res.killed = true;
          std::lock_guard lock(mu_);
          dead_[static_cast<size_t>(r)] = 1;
        } else {
          res = result_from_context(ctx, tpl_->pool());
        }
      } catch (...) {
        std::lock_guard lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
    {
      std::lock_guard lock(mu_);
      results_[static_cast<size_t>(r)] = std::move(res);
      ++done_count_;
    }
    cv_.notify_all();
  }
}

const std::vector<PtgExecResult>& PtgSession::submit(const StoreList& stores) {
  // Re-bind on the caller's thread, strictly before any driver wakes: the
  // drivers' Contexts read the template's StoreList concurrently once armed.
  tpl_->rebind(stores);
  {
    std::lock_guard lock(mu_);
    MP_REQUIRE(!shutdown_, "PtgSession::submit after shutdown");
    MP_REQUIRE(epoch_ == 0 || done_count_ == cluster_.nranks(),
               "PtgSession::submit: previous submission still in flight");
    first_error_ = nullptr;
    done_count_ = 0;
    ++epoch_;
  }
  cv_.notify_all();
  std::unique_lock lock(mu_);
  cv_.wait(lock, [&] { return done_count_ == cluster_.nranks(); });
  ++submissions_;
  if (first_error_) std::rethrow_exception(first_error_);
  return results_;
}

}  // namespace mp::tce
