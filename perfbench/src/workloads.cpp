#include "workloads.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cc/ccsd.h"
#include "cc/integration.h"
#include "cc/model.h"
#include "linalg/gemm.h"
#include "rig.h"
#include "support/rng.h"

namespace perfbench {

using namespace mp;

namespace {

// End-to-end runs measure in kRounds rounds spread over the run: each sets
// a fresh instance up (timed; setup_s is the median) and then runs the
// closed loop for its share of the time, so set-up and operation samples
// both span the whole run instead of one stretch of it.
constexpr int kRounds = 11;
// Before the rounds, one discarded warm-up round pays the process's
// one-time costs (first page faults, lazy binding, allocator growth).
constexpr double kWarmupSeconds = 1.0;
constexpr int kProbeSetups = 5;       // set-ups before a per-layer probe
constexpr double kResultTol = 1e-12;  // max|diff| / max|ref| of a contraction
constexpr double kSolveTol = 1e-10;   // CCSD convergence tolerance
constexpr double kEnergyTol = 1e-10;  // |E - E_dense| of a converged solve
constexpr std::array<const char*, 6> kClasses = {
    "READ_A", "READ_B", "GEMM", "REDUCE", "SORT", "WRITE_C"};

// ---- workload shapes --------------------------------------------------------

tce::TileSpaceSpec tile_spec(int occ, int virt, int tile_size) {
  tce::TileSpaceSpec s;
  s.n_occ_alpha = s.n_occ_beta = occ;
  s.n_virt_alpha = s.n_virt_beta = virt;
  s.tile_size = tile_size;
  return s;
}

/// Coarse t2_7: few large GEMMs, static placement, no stealing.
RigConfig ladder_coarse_config() {
  RigConfig c;
  c.spec = tile_spec(6, 32, 16);
  c.nranks = 4;
  c.workers_per_rank = 1;
  return c;
}

/// t2_7 at tile size 8 with Zipf chain lengths piled onto rank 0, which
/// only inter-rank stealing can balance.
RigConfig ladder_skewed_steal_config() {
  RigConfig c;
  c.spec = tile_spec(6, 32, 8);
  c.plan = PlanKind::kSkewedT2_7;
  c.skew.nranks = 4;
  c.skew.hot_ranks = {0};
  c.skew.zipf_alpha = 1.2;
  c.nranks = 4;
  c.workers_per_rank = 1;
  c.enable_stealing = true;
  return c;
}

// ccsd_fine: synthetic closed shell, 2 occupied and 6 virtual orbitals per
// spin, one orbital per tile, on 2 ranks x 2 workers.
constexpr int kCcsdOcc = 2, kCcsdVirt = 6, kCcsdTile = 1;
constexpr int kCcsdRanks = 2, kCcsdWorkers = 2;

/// The CCSD solve's fused ladder plan on a rig of the solve's shape.
RigConfig ccsd_replay_config() {
  RigConfig c;
  c.spec = tile_spec(kCcsdOcc, kCcsdVirt, kCcsdTile);
  c.plan = PlanKind::kFusedLadders;
  c.nranks = kCcsdRanks;
  c.workers_per_rank = kCcsdWorkers;
  return c;
}

// ---- helpers ----------------------------------------------------------------

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

Clock::time_point deadline(double seconds) {
  return Clock::now() + to_duration(seconds);
}

uint64_t next_request() {
  static uint64_t id = 0;
  return ++id;
}

std::string sci(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3e", x);
  return buf;
}

template <class T, class F>
std::vector<double> collect(const std::vector<T>& xs, F f) {
  std::vector<double> out;
  out.reserve(xs.size());
  for (const T& x : xs) out.push_back(f(x));
  return out;
}

void report_end_to_end(Report& rep, const std::vector<double>& setup_s,
                       const std::vector<double>& op_ms, double gflops,
                       const std::vector<double>& rss_mb) {
  rep.set("setup_s", median(setup_s), "s");
  rep.set("op_ms_p50", median(op_ms), "ms");
  rep.set("op_ms_p90", percentile(op_ms, 90.0), "ms");
  rep.set("gflops", gflops, "GFLOP/s");
  rep.set("peak_rss_mb", median(rss_mb), "MB");
  std::fprintf(stderr, "perfbench: %zu set-ups, %zu timed operations\n",
               setup_s.size(), op_ms.size());
}

// ---- contraction rigs -------------------------------------------------------

void check_result(const Rig& rig, Report& rep, const char* what) {
  const double err = rig.reference_error();
  rep.check(err <= kResultTol,
            std::string(what) + ": relative error " + sci(err));
}

/// Set a rig up (timed into `times`), compute its serial reference and
/// check its cold submission.
std::unique_ptr<Rig> setup_rig(const RigConfig& cfg, uint64_t seed,
                               Report& rep, std::vector<SetupTimes>* times) {
  spans().set_request(next_request());
  SetupTimes t;
  std::unique_ptr<Rig> rig;
  {
    auto span = spans().scope("perfbench.setup");
    rig = std::make_unique<Rig>(cfg, seed, &t);
  }
  times->push_back(t);
  rig->run_reference();
  check_result(*rig, rep, "cold submission");
  return rig;
}

/// Set a rig up `n` times, freeing each before building the next so one is
/// in memory at a time. Keeps the last.
std::unique_ptr<Rig> setup_rigs(const RigConfig& cfg, uint64_t seed, int n,
                                Report& rep, std::vector<SetupTimes>* times) {
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < n; ++i) {
    rig.reset();
    rig = setup_rig(cfg, seed, rep, times);
  }
  return rig;
}

/// Counter totals over the submissions of one phase.
struct LayerTotals {
  uint64_t submits = 0;
  SubmitCounters c;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  GaCounters ga;
};

/// Per-submission trace summaries of one phase.
struct TraceTotals {
  std::map<std::string, std::vector<double>> busy_ms;
  std::vector<double> idle, startup_ms, overlap;
};

void add_trace(const std::vector<tce::PtgExecResult>& res, TraceTotals* tr) {
  ptg::Trace merged;
  for (const tce::PtgExecResult& r : res) merged.append(r.trace);
  merged.normalize();
  const std::vector<std::string>& names = res.front().class_names;
  const auto by_class = merged.time_by_class();
  for (const char* cls : kClasses) {
    double secs = 0.0;
    for (const auto& [id, s] : by_class) {
      if (id >= 0 && static_cast<size_t>(id) < names.size() &&
          names[static_cast<size_t>(id)] == cls) {
        secs += s;
      }
    }
    tr->busy_ms[cls].push_back(1e3 * secs);
  }
  tr->idle.push_back(merged.idle_fraction());
  tr->startup_ms.push_back(1e3 * merged.mean_startup_idle());
  tr->overlap.push_back(merged.comm_overlap_fraction());
}

/// Closed loop until `end` (at least one submission): zero the result,
/// time one submission, check it against the serial reference, repeat.
/// Appends the wall times in ms to `ms`.
void steady_submits(Rig& rig, Clock::time_point end, Report& rep,
                    std::vector<double>* ms, LayerTotals* layer,
                    TraceTotals* trace) {
  do {
    rig.zero_result();
    spans().set_request(next_request());
    const vc::FabricStats fabric0 = rig.fabric_stats();
    const GaCounters ga0 = rig.ga_counters();
    try {
      const auto t0 = Clock::now();
      const auto& res = rig.submit();
      ms->push_back(1e3 * seconds_since(t0));
      if (layer != nullptr) {
        const vc::FabricStats fabric1 = rig.fabric_stats();
        const GaCounters ga1 = rig.ga_counters();
        ++layer->submits;
        add_counters(res, &layer->c);
        layer->messages += fabric1.messages_sent - fabric0.messages_sent;
        layer->bytes += fabric1.bytes_sent - fabric0.bytes_sent;
        layer->ga.gets += ga1.gets - ga0.gets;
        layer->ga.accs += ga1.accs - ga0.accs;
        layer->ga.bytes += ga1.bytes - ga0.bytes;
      }
      if (trace != nullptr) add_trace(res, trace);
    } catch (const std::exception& e) {
      rep.fail(std::string("submission threw: ") + e.what());
      continue;
    }
    check_result(rig, rep, "steady submission");
  } while (Clock::now() < end);
}

/// linalg::dgemm replayed on the plan's own GEMM shapes, GFLOP/s.
double gemm_replay_gflops(const tce::ChainPlan& plan) {
  size_t a_max = 0, b_max = 0, c_max = 0;
  for (const tce::Chain& ch : plan.chains) {
    for (const tce::GemmOp& g : ch.gemms) {
      a_max = std::max(a_max, static_cast<size_t>(g.m) * g.k);
      b_max = std::max(b_max, static_cast<size_t>(g.k) * g.n);
      c_max = std::max(c_max, static_cast<size_t>(g.m) * g.n);
    }
  }
  Rng rng(7);
  std::vector<double> a(a_max), b(b_max), c(c_max, 0.0);
  for (double& x : a) x = rng.uniform(-1.0, 1.0);
  for (double& x : b) x = rng.uniform(-1.0, 1.0);
  std::vector<double> rep_s;
  const auto end = deadline(0.3);
  do {
    const auto t0 = Clock::now();
    for (const tce::Chain& ch : plan.chains) {
      for (const tce::GemmOp& g : ch.gemms) {
        linalg::dgemm(g.transa, g.transb, g.m, g.n, g.k, g.alpha, a.data(),
                      g.lda(), b.data(), g.ldb(), 1.0, c.data(), g.m);
      }
    }
    rep_s.push_back(seconds_since(t0));
  } while (rep_s.size() < 3 || Clock::now() < end);
  return plan.stats().total_flops / 1e9 / median(rep_s);
}

struct ProbeTimes {
  double untraced_ms = 0.0;  ///< median submission, tracing off
  double traced_ms = 0.0;    ///< median submission, tracing on
};

/// Per-layer metrics of a rig: kernel and serial-reference rates at the
/// plan's sizes, set-up steps, then an untraced phase for the runtime,
/// fabric and GA counters and a traced phase for the trace summaries, each
/// half of `seconds`.
ProbeTimes layer_probe(Rig& rig, const std::vector<SetupTimes>& setups,
                       double seconds, Report& rep) {
  const double gflop = rig.plan().stats().total_flops / 1e9;
  rep.set("linalg.gemm_gflops", gemm_replay_gflops(rig.plan()), "GFLOP/s");
  rep.set("linalg.gemm_gflop_per_submit", gflop, "GFLOP");
  std::vector<double> ref_s;
  for (int i = 0; i < 3; ++i) ref_s.push_back(rig.run_reference());
  rep.set("tce.reference_gflops", gflop / median(ref_s), "GFLOP/s");

  const auto setup_ms = [&](double SetupTimes::*step) {
    return 1e3 * median(collect(setups, [&](const SetupTimes& t) {
             return t.*step;
           }));
  };
  rep.set("tce.inspect_ms", setup_ms(&SetupTimes::inspect), "ms");
  rep.set("tce.template_build_ms", setup_ms(&SetupTimes::template_build),
          "ms");
  rep.set("tce.session_start_ms", setup_ms(&SetupTimes::session_start), "ms");
  rep.set("tce.cold_submit_ms", setup_ms(&SetupTimes::cold_submit), "ms");

  const uint64_t hits0 = rig.cache_stats().hits;
  LayerTotals lt;
  std::vector<double> ms;
  steady_submits(rig, deadline(seconds / 2), rep, &ms, &lt, nullptr);
  const double n = static_cast<double>(std::max<uint64_t>(lt.submits, 1));
  const auto per = [n](uint64_t total) { return static_cast<double>(total) / n; };
  const double p50 = median(ms);
  const int workers = rig.config().nranks * rig.config().workers_per_rank;
  rep.set("tce.template_hits", per(rig.cache_stats().hits - hits0), "count");
  rep.set("ptg.tasks_per_submit", per(lt.c.tasks), "count");
  rep.set("ptg.remote_activations", per(lt.c.remote_activations), "count");
  rep.set("ptg.us_per_task",
          lt.c.tasks > 0 ? 1e3 * p50 * workers / per(lt.c.tasks) : 0.0, "us");
  rep.set("ptg.sched_contended", per(lt.c.sched_contended), "count");
  rep.set("ptg.sched_steals", per(lt.c.sched_steals), "count");
  rep.set("ptg.slow_submits",
          static_cast<double>(std::count_if(ms.begin(), ms.end(),
                                            [&](double x) { return x > 2 * p50; })),
          "count");
  rep.set("ptg.steal.requests", per(lt.c.steal_requests), "count");
  rep.set("ptg.steal.tasks_migrated", per(lt.c.steal_migrated), "count");
  rep.set("ptg.steal.tasks_per_request",
          lt.c.steal_requests > 0 ? static_cast<double>(lt.c.steal_migrated) /
                                        static_cast<double>(lt.c.steal_requests)
                                  : 0.0,
          "ratio");
  rep.set("vc.messages_per_submit", per(lt.messages), "count");
  rep.set("vc.bytes_per_submit", per(lt.bytes), "B");
  rep.set("ga.get_ops", per(lt.ga.gets), "count");
  rep.set("ga.acc_ops", per(lt.ga.accs), "count");
  rep.set("ga.bytes_moved", per(lt.ga.bytes), "B");

  rig.restart_session(true);
  check_result(rig, rep, "traced cold submission");
  TraceTotals tt;
  std::vector<double> traced_ms;
  steady_submits(rig, deadline(seconds / 2), rep, &traced_ms, nullptr, &tt);
  for (const char* cls : kClasses) {
    rep.set(std::string("ptg.busy_ms.") + cls, median(tt.busy_ms[cls]), "ms");
  }
  rep.set("ptg.idle_fraction", median(tt.idle), "ratio");
  rep.set("ptg.startup_idle_ms", median(tt.startup_ms), "ms");
  rep.set("ptg.comm_overlap", median(tt.overlap), "ratio");
  return {p50, median(traced_ms)};
}

/// End of round `r` of a run of `seconds` started at `start`.
Clock::time_point round_end(Clock::time_point start, double seconds, int r) {
  return start + to_duration(seconds * (r + 1) / kRounds);
}

void ladder_workload(const RigConfig& cfg, const Args& a, Report& rep) {
  std::vector<SetupTimes> setups;
  if (!a.trace) {
    std::vector<double> ms, rss_mb;
    {
      std::vector<SetupTimes> warm_setup;
      std::vector<double> warm_ms;
      auto warm = setup_rig(cfg, a.seed, rep, &warm_setup);
      steady_submits(*warm, deadline(kWarmupSeconds), rep, &warm_ms, nullptr,
                     nullptr);
    }
    std::unique_ptr<Rig> rig;
    const auto start = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      rig.reset();
      reset_peak_rss();
      rig = setup_rig(cfg, a.seed, rep, &setups);
      steady_submits(*rig, round_end(start, a.seconds, r), rep, &ms, nullptr,
                     nullptr);
      rss_mb.push_back(peak_rss_mb());
    }
    const double gflop = rig->plan().stats().total_flops / 1e9;
    report_end_to_end(rep, collect(setups, [](const SetupTimes& t) {
                        return t.total();
                      }),
                      ms, gflop / (median(ms) / 1e3), rss_mb);
    return;
  }
  auto rig = setup_rigs(cfg, a.seed, kProbeSetups, rep, &setups);
  const ProbeTimes p = layer_probe(*rig, setups, a.seconds, rep);
  rep.set("trace.overhead_frac", p.traced_ms / p.untraced_ms - 1.0, "ratio");
  // The cc layer is not on this workload's path.
  rep.set("cc.solve_s", 0.0, "s");
  rep.set("cc.iterations", 0.0, "count");
  rep.set("cc.ladder_ms_p50", 0.0, "ms");
  rep.set("cc.driver_s", 0.0, "s");
}

// ---- CCSD solve -------------------------------------------------------------

cc::LadderRunOptions ccsd_ladder_options(bool tracing) {
  cc::LadderRunOptions o;
  o.kind = cc::ExecKind::kPtg;
  o.contraction = cc::Contraction::kFused;
  o.variant = tce::VariantConfig::v5();
  o.workers_per_rank = kCcsdWorkers;
  o.enable_tracing = tracing;
  o.reuse_runtime = true;
  return o;
}

cc::SpinOrbitalSystem ccsd_system(uint64_t seed) {
  return cc::make_synthetic(kCcsdOcc, kCcsdVirt, 1.5, 0.1, seed);
}

/// One solve instance. The ladder keeps a pointer to the system, so both
/// live here, system first.
struct CcsdInstance {
  cc::SpinOrbitalSystem sys;
  std::unique_ptr<cc::DistributedLadder> ladder;
  cc::LadderKernel kernel;
};

/// One kernel call's output `got` for `tau`, checked against the dense
/// evaluation of both ladder terms.
void check_kernel(const cc::SpinOrbitalSystem& sys,
                  const std::vector<double>& tau,
                  const std::vector<double>& got, Report& rep) {
  std::vector<double> want(tau.size(), 0.0);
  cc::dense_ladder(sys, tau, want);
  cc::dense_hh_ladder(sys, tau, want);
  const double err = relative_error(got, want);
  rep.check(err <= kResultTol, "warm-up kernel call: relative error " + sci(err));
}

/// One kernel call on `tau` (a warm-up, not timed), checked.
void checked_kernel_call(const CcsdInstance& inst, const cc::LadderKernel& k,
                         const std::vector<double>& tau, Report& rep) {
  std::vector<double> got(tau.size(), 0.0);
  {
    auto span = spans().scope("cc.ladder_kernel");
    k(tau, got);
  }
  check_kernel(inst.sys, tau, got, rep);
}

/// Set-up of one solve: the model system, the distributed ladder (tile
/// space, tensors, inspection) and one warm-up kernel call, which pays the
/// template build, the session start and the cold submission. `tau` is a
/// valid VVOO amplitude tensor for the warm-up.
std::unique_ptr<CcsdInstance> make_ccsd(uint64_t seed,
                                        const std::vector<double>& tau,
                                        double* setup_s, Report& rep) {
  spans().set_request(next_request());
  auto setup_span = spans().scope("perfbench.setup");
  const auto t0 = Clock::now();
  auto inst = std::make_unique<CcsdInstance>();
  inst->sys = ccsd_system(seed);
  {
    auto span = spans().scope("cc.ladder_ctor");
    inst->ladder = std::make_unique<cc::DistributedLadder>(inst->sys,
                                                           kCcsdTile,
                                                           kCcsdRanks);
  }
  inst->kernel = inst->ladder->make_kernel(ccsd_ladder_options(false));
  std::vector<double> out(tau.size(), 0.0);
  {
    auto span = spans().scope("cc.ladder_kernel");
    inst->kernel(tau, out);
  }
  *setup_s = seconds_since(t0);
  check_kernel(inst->sys, tau, out, rep);
  return inst;
}

struct SolveStats {
  std::vector<double> solve_ms;  ///< time to solution
  std::vector<double> iter_ms;   ///< time to solution / iterations
  std::vector<double> call_ms, driver_s, iterations, gflops;
};

/// One closed-loop solve through `kernel`, timed and checked against the
/// dense CCSD energy. Every kernel call is timed by wrapping the kernel.
void timed_solve(const CcsdInstance& inst, const cc::LadderKernel& kernel,
                 double e_ref, Report& rep, SolveStats* st) {
  const double call_flops =
      inst.ladder->plan(cc::Contraction::kFused).stats().total_flops;
  std::vector<double> call_ms;
  cc::CcsdOptions opts;
  opts.tol = kSolveTol;
  opts.combined_ladders = [&](const std::vector<double>& tau,
                              std::vector<double>& out) {
    auto span = spans().scope("cc.ladder_kernel");
    const auto t0 = Clock::now();
    kernel(tau, out);
    call_ms.push_back(1e3 * seconds_since(t0));
  };
  spans().set_request(next_request());
  cc::CcsdResult res;
  double secs = 0.0;
  try {
    auto span = spans().scope("cc.run_ccsd");
    const auto t0 = Clock::now();
    res = cc::run_ccsd(inst.sys, opts);
    secs = seconds_since(t0);
  } catch (const std::exception& e) {
    rep.fail(std::string("solve threw: ") + e.what());
    return;
  }
  const double de = std::abs(res.e_corr - e_ref);
  rep.check(res.converged && de <= kEnergyTol,
            "solve: converged=" + std::to_string(res.converged) +
                " |E - E_dense| " + sci(de));
  double kernel_s = 0.0;
  for (double m : call_ms) kernel_s += m / 1e3;
  st->solve_ms.push_back(1e3 * secs);
  st->iter_ms.push_back(1e3 * secs / std::max(res.iterations, 1));
  st->driver_s.push_back(secs - kernel_s);
  st->iterations.push_back(res.iterations);
  st->gflops.push_back(call_flops * static_cast<double>(call_ms.size()) /
                       secs / 1e9);
  st->call_ms.insert(st->call_ms.end(), call_ms.begin(), call_ms.end());
}

/// Closed loop of solves until `end` (at least one).
void solve_loop(const CcsdInstance& inst, const cc::LadderKernel& kernel,
                double e_ref, Clock::time_point end, Report& rep,
                SolveStats* st) {
  do {
    timed_solve(inst, kernel, e_ref, rep, st);
  } while (Clock::now() < end);
}

void ccsd_workload(const Args& a, Report& rep) {
  // The dense in-process solve is the reference (outside every timing).
  cc::CcsdOptions dense;
  dense.tol = kSolveTol;
  const cc::CcsdResult ref = cc::run_ccsd(ccsd_system(a.seed), dense);
  rep.check(ref.converged, "dense reference solve did not converge");

  if (!a.trace) {
    std::vector<double> setup_s, rss_mb;
    SolveStats st;
    {
      double warm_setup = 0.0;
      SolveStats warm_st;
      auto warm = make_ccsd(a.seed, ref.t2, &warm_setup, rep);
      solve_loop(*warm, warm->kernel, ref.e_corr, deadline(kWarmupSeconds),
                 rep, &warm_st);
    }
    std::unique_ptr<CcsdInstance> inst;
    const auto start = Clock::now();
    for (int r = 0; r < kRounds; ++r) {
      inst.reset();
      reset_peak_rss();
      double s = 0.0;
      inst = make_ccsd(a.seed, ref.t2, &s, rep);
      setup_s.push_back(s);
      solve_loop(*inst, inst->kernel, ref.e_corr,
                 round_end(start, a.seconds, r), rep, &st);
      rss_mb.push_back(peak_rss_mb());
    }
    // The seed changes the system and with it the iteration count (10 to
    // 15 at this tolerance), so the operation time is normalized by it.
    report_end_to_end(rep, setup_s, st.iter_ms, median(st.gflops), rss_mb);
    return;
  }

  // Layer counters the cc integration layer keeps private (fabric, GA) come
  // from a rig replaying the solve's fused ladder plan at the same shape.
  {
    std::vector<SetupTimes> setups;
    auto rig = setup_rigs(ccsd_replay_config(), a.seed, kProbeSetups, rep,
                          &setups);
    (void)layer_probe(*rig, setups, 0.4 * a.seconds, rep);
  }
  double setup = 0.0;
  auto inst = make_ccsd(a.seed, ref.t2, &setup, rep);
  SolveStats plain, traced;
  solve_loop(*inst, inst->kernel, ref.e_corr, deadline(0.3 * a.seconds), rep,
             &plain);
  const cc::LadderKernel traced_kernel =
      inst->ladder->make_kernel(ccsd_ladder_options(true));
  checked_kernel_call(*inst, traced_kernel, ref.t2, rep);  // session start
  solve_loop(*inst, traced_kernel, ref.e_corr, deadline(0.3 * a.seconds), rep,
             &traced);
  rep.set("cc.solve_s", median(plain.solve_ms) / 1e3, "s");
  rep.set("cc.iterations", median(plain.iterations), "count");
  rep.set("cc.ladder_ms_p50", median(plain.call_ms), "ms");
  rep.set("cc.driver_s", median(plain.driver_s), "s");
  rep.set("trace.overhead_frac",
          median(traced.solve_ms) / median(plain.solve_ms) - 1.0, "ratio");
}

}  // namespace

bool run_workload(const Args& args, Report& rep) {
  if (args.workload == "ladder_coarse") {
    ladder_workload(ladder_coarse_config(), args, rep);
  } else if (args.workload == "ladder_skewed_steal") {
    ladder_workload(ladder_skewed_steal_config(), args, rep);
  } else if (args.workload == "ccsd_fine") {
    ccsd_workload(args, rep);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
