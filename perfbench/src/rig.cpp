#include "rig.h"

#include "harness.h"
#include "support/error.h"
#include "support/rng.h"
#include "tce/inspector.h"
#include "tce/reference_exec.h"

namespace perfbench {

using namespace mp;

namespace {

constexpr int kResultStore = 2;  // plan store id of the result tensor

void fill_random(ga::GlobalArray& g, Rng& rng) {
  std::vector<double> data(static_cast<size_t>(g.size()));
  for (double& x : data) x = rng.uniform(-1.0, 1.0);
  g.put(0, g.size(), data.data());
}

std::vector<double> contents(const ga::GlobalArray& g) {
  std::vector<double> data(static_cast<size_t>(g.size()));
  g.get(0, g.size(), data.data());
  return data;
}

const char* subroutine_name(PlanKind k) {
  switch (k) {
    case PlanKind::kT2_7: return "t2_7";
    case PlanKind::kSkewedT2_7: return "t2_7_skewed";
    case PlanKind::kFusedLadders: return "fused";
  }
  return "unknown";
}

}  // namespace

void add_counters(const std::vector<tce::PtgExecResult>& res,
                  SubmitCounters* into) {
  for (const tce::PtgExecResult& r : res) {
    MP_REQUIRE(!r.killed, "perfbench: a rank died during a submission");
    into->tasks += r.tasks_executed;
    into->remote_activations += r.remote_activations;
    into->sched_contended += r.sched.contended_pushes + r.sched.contended_pops;
    into->sched_steals += r.sched.steals;
    into->steal_requests += r.steal.requests_sent;
    into->steal_migrated += r.steal.tasks_migrated_in;
  }
}

Rig::Rig(const RigConfig& cfg, uint64_t seed, SetupTimes* times) : cfg_(cfg) {
  using tce::BlockTensor4;
  using tce::RangeKind;
  const bool fused = cfg.plan == PlanKind::kFusedLadders;

  auto t0 = Clock::now();
  space_ = std::make_unique<tce::TileSpace>(cfg.spec);
  const std::array<RangeKind, 4> vvvv{RangeKind::kVirt, RangeKind::kVirt,
                                      RangeKind::kVirt, RangeKind::kVirt};
  const std::array<RangeKind, 4> vvoo{RangeKind::kVirt, RangeKind::kVirt,
                                      RangeKind::kOcc, RangeKind::kOcc};
  const std::array<RangeKind, 4> oooo{RangeKind::kOcc, RangeKind::kOcc,
                                      RangeKind::kOcc, RangeKind::kOcc};
  v_shape_ = std::make_unique<BlockTensor4>(*space_, vvvv);
  t_shape_ = std::make_unique<BlockTensor4>(*space_, vvoo);
  r_shape_ = std::make_unique<BlockTensor4>(*space_, vvoo, true, true);
  cluster_ = std::make_unique<vc::Cluster>(cfg.nranks);
  v_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), v_shape_->ga_size());
  t_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), t_shape_->ga_size());
  r_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), r_shape_->ga_size());
  ref_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), r_shape_->ga_size());
  Rng rng(seed);
  fill_random(*v_ga_, rng);
  fill_random(*t_ga_, rng);
  stores_ = {{v_shape_.get(), v_ga_.get()},
             {t_shape_.get(), t_ga_.get()},
             {r_shape_.get(), r_ga_.get()}};
  if (fused) {
    w_shape_ = std::make_unique<BlockTensor4>(*space_, oooo);
    w_ga_ = std::make_unique<ga::GlobalArray>(cluster_.get(), w_shape_->ga_size());
    fill_random(*w_ga_, rng);
    stores_.push_back({w_shape_.get(), w_ga_.get()});
  }
  times->inputs = seconds_since(t0);

  t0 = Clock::now();
  {
    auto span = spans().scope("tce.inspect");
    plan_ = tce::inspect_t2_7(*space_, {v_shape_.get(), t_shape_.get(),
                                        r_shape_.get()});
    if (cfg.plan == PlanKind::kSkewedT2_7) {
      plan_ = tce::make_skewed_plan(plan_, cfg.skew);
    } else if (fused) {
      const auto hh = tce::inspect_hh_ladder(
          *space_, {w_shape_.get(), t_shape_.get(), r_shape_.get()});
      plan_ = tce::fuse_plans(plan_, hh, {3, 1, 2});
    }
  }
  times->inspect = seconds_since(t0);

  t0 = Clock::now();
  auto tpl = lookup_template();
  times->template_build = seconds_since(t0);

  t0 = Clock::now();
  {
    auto span = spans().scope("tce.session_start");
    session_ = std::make_unique<tce::PtgSession>(*cluster_, tpl,
                                                 exec_options(false));
  }
  times->session_start = seconds_since(t0);

  t0 = Clock::now();
  (void)submit();
  times->cold_submit = seconds_since(t0);
}

tce::PtgExecOptions Rig::exec_options(bool tracing) const {
  tce::PtgExecOptions opts;
  opts.variant = tce::VariantConfig::v5();
  opts.workers_per_rank = cfg_.workers_per_rank;
  opts.enable_stealing = cfg_.enable_stealing;
  opts.enable_tracing = tracing;
  return opts;
}

std::shared_ptr<tce::PtgTemplate> Rig::lookup_template() {
  auto span = spans().scope("tce.get_or_build");
  tce::TemplateKey key;
  key.subroutine = subroutine_name(cfg_.plan);
  key.tile_fingerprint = tce::fingerprint_tile_space(cfg_.spec);
  key.variant = tce::variant_signature(tce::VariantConfig::v5());
  key.nranks = cfg_.nranks;
  return cache_.get_or_build(key, plan_, stores_, tce::VariantConfig::v5());
}

const std::vector<tce::PtgExecResult>& Rig::submit() {
  (void)lookup_template();
  auto span = spans().scope("tce.submit");
  return session_->submit(stores_);
}

void Rig::restart_session(bool tracing) {
  session_.reset();
  auto tpl = lookup_template();
  {
    auto span = spans().scope("tce.session_start");
    session_ = std::make_unique<tce::PtgSession>(*cluster_, tpl,
                                                 exec_options(tracing));
  }
  zero_result();
  (void)submit();
}

double Rig::run_reference() {
  tce::StoreList ref_stores = stores_;
  ref_stores[kResultStore].ga = ref_ga_.get();
  ref_ga_->zero();
  const auto t0 = Clock::now();
  {
    auto span = spans().scope("tce.execute_reference");
    tce::execute_reference(plan_, ref_stores);
  }
  const double s = seconds_since(t0);
  reference_ = contents(*ref_ga_);
  return s;
}

double Rig::reference_error() const {
  MP_REQUIRE(!reference_.empty(), "perfbench: reference not computed");
  return relative_error(contents(*r_ga_), reference_);
}

GaCounters Rig::ga_counters() const {
  GaCounters c;
  for (const tce::TensorStore& s : stores_) {
    c.gets += s.ga->ops_get();
    c.accs += s.ga->ops_acc();
    c.bytes += s.ga->bytes_moved();
  }
  return c;
}

}  // namespace perfbench
