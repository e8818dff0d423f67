// Cold vs steady-state submission overhead of the template-cached,
// persistent-runtime execution path (DESIGN.md §11), schema
// "mp-bench-resubmit-v1" -> BENCH_resubmit.json.
//
// The CCSD driver resubmits the same contraction dozens of times; the cold
// path pays, per iteration, the full non-compute overhead: inspection
// (inspect_t2_7), graph materialization (build_ptg, once per rank), and
// worker/comm thread spin-up and teardown. The persistent path pays it
// once, then each steady-state iteration is a StoreList re-bind plus a
// park/wake handshake. This benchmark times both at 8 simulated ranks:
//
//   inspect_ms        one inspection pass at the workload's tile-space
//                     size (the cold path pays this per call)
//   build_x8_ms       build_ptg on all 8 ranks at that size (ditto)
//   cold_overhead_ms  end-to-end one-shot execution of a near-empty plan:
//                     runtime setup + thread spin-up + termination + join,
//                     with negligible compute in the middle
//   steady_overhead_ms  the same near-empty plan submitted through a
//                     warmed PtgSession: re-bind + wake + run + park.
//                     The near-empty pair isolates the thread-lifecycle
//                     component; inspect/build are sized to the real
//                     workload because their cost scales with the graph.
//   cold_iteration_ms / steady_iteration_ms  full t2_7 iterations on a
//                     physically-sized tile space (informational)
//
// --resubmit-smoke gates the acceptance ratio (the amortization claim):
// the steady-state per-submission non-compute overhead must be >= 10x
// lower than the cold first iteration (inspect + build + run with thread
// spin-up) at the workload size. The two sides are sampled alternately —
// one cold iteration, one steady submission, repeat — and compared by
// their minima: host load only ever adds time, and interleaving exposes
// both sides to the same load, so the ratio of minima measures the code,
// not the minute it ran in. The overhead-component ratio
// (inspect + build_x8 + cold_overhead) / steady_overhead is also printed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.h"
#include "ga/global_array.h"
#include "support/rng.h"
#include "support/stats.h"
#include "tce/block_tensor.h"
#include "tce/inspector.h"
#include "tce/ptg_exec.h"
#include "tce/ptg_session.h"
#include "tce/template_cache.h"
#include "tce/tiles.h"
#include "vc/cluster.h"

namespace {

using namespace mp;
using Clock = std::chrono::steady_clock;

constexpr int kRanks = 8;
constexpr int kWorkers = 2;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// One t2_7 problem instance: tile space, shapes, plan, cluster, GAs.
struct Problem {
  explicit Problem(const tce::TileSpaceSpec& spec)
      : space(spec),
        v_shape(space,
                std::array<tce::RangeKind, 4>{
                    tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                    tce::RangeKind::kVirt, tce::RangeKind::kVirt}),
        t_shape(space,
                std::array<tce::RangeKind, 4>{
                    tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                    tce::RangeKind::kOcc, tce::RangeKind::kOcc}),
        r_shape(space,
                std::array<tce::RangeKind, 4>{
                    tce::RangeKind::kVirt, tce::RangeKind::kVirt,
                    tce::RangeKind::kOcc, tce::RangeKind::kOcc},
                true, true),
        plan(tce::inspect_t2_7(space, {&v_shape, &t_shape, &r_shape})),
        cluster(kRanks),
        v_ga(&cluster, v_shape.ga_size()),
        t_ga(&cluster, t_shape.ga_size()),
        r_ga(&cluster, r_shape.ga_size()) {
    Rng rng(17);
    fill_random(v_ga, rng);
    fill_random(t_ga, rng);
    storage.v = {&v_shape, &v_ga};
    storage.t = {&t_shape, &t_ga};
    storage.r = {&r_shape, &r_ga};
  }

  static void fill_random(ga::GlobalArray& g, Rng& rng) {
    std::vector<double> data(static_cast<size_t>(g.size()));
    for (auto& x : data) x = rng.uniform(-1.0, 1.0);
    g.put(0, g.size(), data.data());
  }

  tce::PtgExecOptions exec_options() const {
    tce::PtgExecOptions opts;
    opts.variant = tce::VariantConfig::v5();
    opts.workers_per_rank = kWorkers;
    return opts;
  }

  /// The cold path exactly as the pre-cache executor runs it: SPMD region
  /// spawned per call, build_ptg and thread spin-up on every rank.
  void run_cold() {
    r_ga.zero();
    cluster.run([&](vc::RankCtx& rctx) {
      (void)tce::execute_ptg(rctx, plan, storage, exec_options());
    });
  }

  tce::TileSpace space;
  tce::BlockTensor4 v_shape, t_shape, r_shape;
  tce::ChainPlan plan;
  vc::Cluster cluster;
  ga::GlobalArray v_ga, t_ga, r_ga;
  tce::T2_7Storage storage;
};

tce::TileSpaceSpec tiny_spec() {
  // A near-empty graph: the wall time of a whole submission is almost
  // entirely non-compute overhead, which is the quantity under test.
  tce::TileSpaceSpec s;
  s.n_occ_alpha = 1;
  s.n_occ_beta = 1;
  s.n_virt_alpha = 2;
  s.n_virt_beta = 2;
  s.tile_size = 2;
  return s;
}

tce::TileSpaceSpec full_spec() {
  // The test suite's physical t2_7 size: enough chains that all 8 ranks
  // hold work, so the full-iteration numbers include real compute.
  tce::TileSpaceSpec s;
  s.n_occ_alpha = 3;
  s.n_occ_beta = 3;
  s.n_virt_alpha = 5;
  s.n_virt_beta = 5;
  s.tile_size = 2;
  return s;
}

std::shared_ptr<tce::PtgTemplate> build_template(tce::TemplateCache& cache,
                                                 Problem& p) {
  tce::TemplateKey key;
  key.subroutine = "t2_7";
  key.tile_fingerprint = tce::fingerprint_tile_space(p.space.spec());
  key.variant = tce::variant_signature(tce::VariantConfig::v5());
  key.nranks = kRanks;
  return cache.get_or_build(key, p.plan, p.storage.stores(),
                            tce::VariantConfig::v5());
}

struct Timings {
  std::vector<double> inspect_ms, build_x8_ms;
  std::vector<double> cold_overhead_ms, steady_overhead_ms;
  std::vector<double> cold_iteration_ms, steady_iteration_ms;
};

/// One cold first iteration at the workload size: inspection plus a
/// one-shot execution that builds the graph and spins threads up.
double time_cold_iteration(Problem& full) {
  const auto t0 = Clock::now();
  auto plan = tce::inspect_t2_7(full.space,
                                {&full.v_shape, &full.t_shape, &full.r_shape});
  (void)plan;
  full.run_cold();
  return ms_since(t0);
}

/// One steady-state submission of the near-empty plan.
double time_steady_submission(Problem& tiny, tce::PtgSession& session) {
  tiny.r_ga.zero();
  const auto t0 = Clock::now();
  (void)session.submit(tiny.storage.stores());
  return ms_since(t0);
}

/// `gate_pairs` alternating (cold iteration, steady submission) samples
/// feed the acceptance gate; the other components are informational.
Timings measure(int cold_reps, int steady_reps, int gate_pairs) {
  Timings t;

  // -- inspection + graph build at the workload's size --
  Problem full(full_spec());
  for (int i = 0; i < cold_reps; ++i) {
    auto t0 = Clock::now();
    auto plan = tce::inspect_t2_7(full.space,
                                  {&full.v_shape, &full.t_shape,
                                   &full.r_shape});
    t.inspect_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    for (int r = 0; r < kRanks; ++r) {
      auto build = tce::build_ptg(plan, full.storage.stores(),
                                  tce::VariantConfig::v5(), kRanks);
      (void)build;
    }
    t.build_x8_ms.push_back(ms_since(t0));
  }

  // -- thread-lifecycle overhead on the near-empty graph --
  Problem tiny(tiny_spec());
  for (int i = 0; i < cold_reps; ++i) {
    const auto t0 = Clock::now();
    tiny.run_cold();
    t.cold_overhead_ms.push_back(ms_since(t0));
  }
  // -- the gate's two sides, interleaved: cold first iteration at the
  // workload size vs steady submission of the near-empty plan --
  {
    tce::TemplateCache cache;
    auto tpl = build_template(cache, tiny);
    tce::PtgSession session(tiny.cluster, tpl, tiny.exec_options());
    (void)session.submit(tiny.storage.stores());  // warm-up: first arm
    (void)time_cold_iteration(full);              // warm-up: first touch
    for (int i = 0; i < gate_pairs; ++i) {
      t.cold_iteration_ms.push_back(time_cold_iteration(full));
      t.steady_overhead_ms.push_back(time_steady_submission(tiny, session));
    }
  }

  // -- steady full iterations on the physical size (informational) --
  {
    tce::TemplateCache cache;
    auto tpl = build_template(cache, full);
    tce::PtgSession session(full.cluster, tpl, full.exec_options());
    (void)session.submit(full.storage.stores());
    for (int i = 0; i < steady_reps; ++i) {
      full.r_ga.zero();
      const auto t0 = Clock::now();
      (void)session.submit(full.storage.stores());
      t.steady_iteration_ms.push_back(ms_since(t0));
    }
  }
  return t;
}

mp::bench::BenchCase make_case(const std::string& name,
                               std::vector<double> samples,
                               double ref_median = 0.0) {
  mp::bench::BenchCase c;
  c.name = name;
  c.kind = "resubmit";
  c.metric = "ms";
  c.samples = std::move(samples);
  c.ref_median = ref_median;
  c.params = {{"nranks", kRanks}, {"workers_per_rank", kWorkers}};
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_resubmit.json";
  bool quick = false, smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--resubmit-smoke") == 0) {
      smoke = true;
      quick = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out FILE] [--quick] [--resubmit-smoke]\n",
                   argv[0]);
      return 2;
    }
  }

  const Timings t = measure(quick ? 3 : 7, quick ? 7 : 15, quick ? 301 : 601);

  const double inspect = mp::percentile(t.inspect_ms, 50.0);
  const double build = mp::percentile(t.build_x8_ms, 50.0);
  const double cold_ovh = mp::percentile(t.cold_overhead_ms, 50.0);
  const double steady_ovh = mp::percentile(t.steady_overhead_ms, 50.0);
  const double cold_total = inspect + build + cold_ovh;
  const double overhead_ratio =
      steady_ovh > 0.0 ? cold_total / steady_ovh : 0.0;
  const double cold_iter = mp::percentile(t.cold_iteration_ms, 50.0);
  // The acceptance ratio: what one steady-state submission costs in
  // non-compute overhead vs what the cold first iteration cost, as the
  // ratio of the minima of the interleaved samples.
  const double cold_iter_min =
      *std::min_element(t.cold_iteration_ms.begin(), t.cold_iteration_ms.end());
  const double steady_ovh_min = *std::min_element(
      t.steady_overhead_ms.begin(), t.steady_overhead_ms.end());
  const double ratio =
      steady_ovh_min > 0.0 ? cold_iter_min / steady_ovh_min : 0.0;

  mp::bench::BenchReport report;
  report.set_schema("mp-bench-resubmit-v1");
#ifdef MP_GIT_SHA
  report.set_config("git_sha", MP_GIT_SHA);
#endif
#ifdef MP_BUILD_TYPE
  report.set_config("build_type", MP_BUILD_TYPE);
#endif
  report.set_config("mode", quick ? "quick" : "full");
  report.add(make_case("inspect", t.inspect_ms));
  report.add(make_case("build_ptg_x8", t.build_x8_ms));
  report.add(make_case("cold_overhead", t.cold_overhead_ms));
  // ref_median = the cold total it replaces, so "speedup" < 1 here means
  // the steady path is cheaper by 1/speedup.
  report.add(make_case("steady_overhead", t.steady_overhead_ms, cold_total));
  report.add(
      make_case("cold_iteration_full", t.cold_iteration_ms));
  report.add(make_case("steady_iteration_full", t.steady_iteration_ms,
                       mp::percentile(t.cold_iteration_ms, 50.0)));

  std::string why;
  if (!report.validate(&why)) {
    std::fprintf(stderr, "bench_resubmit: invalid report: %s\n",
                 why.c_str());
    return 1;
  }
  if (!report.write(out)) {
    std::fprintf(stderr, "bench_resubmit: cannot write %s\n", out.c_str());
    return 1;
  }

  std::printf(
      "bench_resubmit @ %d ranks: cold overhead = %.3f ms "
      "(inspect %.3f + build_x8 %.3f + spin-up/run %.3f), "
      "steady overhead = %.3f ms (%.1fx)\n",
      kRanks, cold_total, inspect, build, cold_ovh, steady_ovh,
      overhead_ratio);
  std::printf(
      "full t2_7 iteration: cold %.3f ms (median), steady %.3f ms; "
      "steady overhead vs cold first iteration, minima of %zu interleaved "
      "pairs: %.3f / %.3f ms = %.1fx\n",
      cold_iter, mp::percentile(t.steady_iteration_ms, 50.0),
      t.cold_iteration_ms.size(), cold_iter_min, steady_ovh_min, ratio);

  if (smoke && ratio < 10.0) {
    std::fprintf(stderr,
                 "resubmit-smoke FAILED: steady-state non-compute overhead "
                 "must be >= 10x lower than the cold first iteration "
                 "(got %.1fx)\n",
                 ratio);
    return 1;
  }
  return 0;
}
