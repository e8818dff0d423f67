// Real-execution variant comparison (Figures 3-8 + claim C9 at host
// scale): runs the actual PTG runtime — not the simulator — on the
// in-process virtual cluster, executing the t2_7 chain plan under every
// variant plus the original-style executor, and reports
//   * task-graph composition per variant (the Figs. 4-7 structures),
//   * remote activations (the Fig. 8 distributed-WRITE traffic),
//   * agreement of every result against the serial reference,
//   * wall-clock on this host (informational only: the host may have a
//     single core; cluster-scale performance lives in bench_fig9).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "cc/ccsd.h"
#include "cc/integration.h"
#include "cc/model.h"
#include "support/timing.h"

using namespace mp;

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const auto sys = cc::make_synthetic(3, 6, 1.5, 0.1, 2027);
  cc::DistributedLadder ladder(sys, /*tile_size=*/3, nranks);

  std::printf("== Real execution of icsd_t2_7 over the PTG runtime ==\n");
  std::printf("system: %d occ + %d virt spin orbitals; %d virtual ranks\n",
              sys.n_occ(), sys.n_virt(), nranks);
  std::printf("plan: %s\n\n", ladder.plan().stats().describe().c_str());

  // tau = MP2 doubles of the system.
  const int O = sys.n_occ(), V = sys.n_virt();
  std::vector<double> tau(static_cast<size_t>(V) * V * O * O);
  for (int a = 0; a < V; ++a)
    for (int b = 0; b < V; ++b)
      for (int i = 0; i < O; ++i)
        for (int j = 0; j < O; ++j) {
          const double d =
              sys.f(i) + sys.f(j) - sys.f(O + a) - sys.f(O + b);
          tau[((static_cast<size_t>(a) * V + b) * O + i) * O + j] =
              sys.v(i, j, O + a, O + b) / d;
        }

  std::vector<double> reference(tau.size(), 0.0);
  cc::dense_ladder(sys, tau, reference);

  auto max_diff = [&](const std::vector<double>& got) {
    double m = 0.0;
    for (size_t i = 0; i < got.size(); ++i) {
      m = std::max(m, std::fabs(got[i] - reference[i]));
    }
    return m;
  };

  std::printf("%-10s %10s %10s %12s %12s %18s %12s\n", "executor", "tasks",
              "remote", "max|err|", "wall(ms)", "steals/contention", "classes");

  // Original-style executor first.
  {
    cc::LadderRunOptions opts;
    opts.kind = cc::ExecKind::kOriginal;
    opts.workers_per_rank = 2;
    WallTimer t;
    const auto res = ladder.run(tau, opts);
    std::printf("%-10s %10s %10s %12.3e %12.2f %18s %12s\n", "original", "-",
                "-", max_diff(res.r_dense), t.millis(), "-", "-");
  }

  // Every PTG variant. The scheduler column reports intra-rank steals
  // between the workers' ready heaps and how many heap-lock acquisitions
  // blocked.
  auto run_ptg = [&](const char* label, const tce::VariantConfig& variant) {
    cc::LadderRunOptions opts;
    opts.kind = cc::ExecKind::kPtg;
    opts.variant = variant;
    opts.workers_per_rank = 2;
    opts.enable_tracing = true;
    WallTimer t;
    const auto res = ladder.run(tau, opts);
    const double ms = t.millis();

    // Task-class composition (the Figs. 4-7 structure).
    std::map<std::string, int> per_class;
    for (const auto& e : res.trace.events()) {
      if (e.is_comm) continue;
      if (e.cls >= 0 &&
          static_cast<size_t>(e.cls) < res.class_names.size()) {
        per_class[res.class_names[static_cast<size_t>(e.cls)]]++;
      }
    }
    std::string classes;
    for (const auto& [name, count] : per_class) {
      classes += name + ":" + std::to_string(count) + " ";
    }
    char sched_col[64];
    std::snprintf(sched_col, sizeof sched_col, "%llu/%llu",
                  static_cast<unsigned long long>(res.sched.steals),
                  static_cast<unsigned long long>(
                      res.sched.contended_pushes + res.sched.contended_pops));
    std::printf("%-10s %10llu %10llu %12.3e %12.2f %18s  %s\n", label,
                static_cast<unsigned long long>(res.tasks_executed),
                static_cast<unsigned long long>(res.remote_activations),
                max_diff(res.r_dense), ms, sched_col, classes.c_str());
  };

  for (const auto& variant : tce::VariantConfig::all()) {
    run_ptg(variant.name.c_str(), variant);
  }

  std::printf("\nAll max|err| values should be < 1e-12: every variant "
              "computes the identical result (paper Section IV-A, \"matched "
              "up to the 14th digit\").\n");
  return 0;
}
