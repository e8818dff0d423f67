// Figure 9 reproduction: execution time of the icsd_t2_7 workload on 32
// nodes of the simulated cluster — the original TCE/NWChem execution versus
// the five PaRSEC variants — for 1, 3, 7, 11 and 15 cores per node.
//
// Prints the same series the paper plots, an ASCII rendition of the figure,
// and the derived headline metrics (claims C1-C6 of DESIGN.md) with the
// paper's values alongside.
//
// Usage: bench_fig9 [preset] [nodes]
//   preset defaults to beta_carotene_32, nodes to 32.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "sim/original_sim.h"
#include "sim/presets.h"
#include "sim/ptg_sim.h"
#include "support/timing.h"

using namespace mp;
using namespace mp::sim;

int main(int argc, char** argv) {
  const std::string preset = argc > 1 ? argv[1] : "beta_carotene_32";
  const int nodes = argc > 2 ? std::atoi(argv[2]) : 32;
  const std::vector<int> core_counts{1, 3, 7, 11, 15};

  WallTimer timer;
  const auto p = make_preset(preset);
  std::printf("== Figure 9: CCSD icsd_t2_7() on %d simulated nodes, %s ==\n",
              nodes, p.description.c_str());
  std::printf("plan: %s\n\n", p.plan.stats().describe().c_str());

  const auto variants = tce::VariantConfig::all();
  // rows[cores] = {original, v1..v5}
  std::vector<std::vector<double>> rows;

  std::printf("%-12s %10s", "cores/node", "original");
  for (const auto& v : variants) std::printf(" %9s", v.name.c_str());
  std::printf("   (simulated seconds)\n");

  // A variant's graph does not depend on the cores per node: build each
  // once.
  std::vector<SimGraph> graphs;
  for (const auto& v : variants) {
    GraphOptions gopts;
    gopts.variant = v;
    gopts.nodes = nodes;
    graphs.push_back(build_graph(p.plan, gopts));
  }

  for (const int cores : core_counts) {
    std::vector<double> row;
    OriginalSimOptions oopts;
    oopts.nodes = nodes;
    oopts.cores_per_node = cores;
    row.push_back(simulate_original(p.plan, oopts).makespan);

    for (const SimGraph& g : graphs) {
      SimOptions sopts;
      sopts.cores_per_node = cores;
      row.push_back(simulate_ptg(g, sopts).makespan);
    }
    rows.push_back(row);

    std::printf("%-12d %10.3f", cores, row[0]);
    for (size_t i = 1; i < row.size(); ++i) std::printf(" %9.3f", row[i]);
    std::printf("\n");
  }

  // ASCII rendition of the figure: one bar row per (cores, series).
  std::printf("\n-- shape (each # ~ 4%% of the slowest time) --\n");
  double tmax = 0.0;
  for (const auto& r : rows)
    for (double x : r) tmax = std::max(tmax, x);
  const std::vector<std::string> labels{"orig", "v1", "v2", "v3", "v4", "v5"};
  for (size_t ci = 0; ci < core_counts.size(); ++ci) {
    std::printf("cores=%d\n", core_counts[ci]);
    for (size_t s = 0; s < labels.size(); ++s) {
      const int bars = static_cast<int>(rows[ci][s] / tmax * 25.0 + 0.5);
      std::printf("  %-5s |%-25.*s| %7.3fs\n", labels[s].c_str(), bars,
                  "#########################", rows[ci][s]);
    }
  }

  // Derived claims.
  auto col = [&](size_t s) {
    std::vector<double> out;
    for (const auto& r : rows) out.push_back(r[s]);
    return out;
  };
  const auto orig = col(0);
  size_t peak = 0;
  for (size_t i = 1; i < orig.size(); ++i) {
    if (orig[i] < orig[peak]) peak = i;
  }
  const double v5_15 = rows.back()[5];
  const double v1_15 = rows.back()[1];
  const double v2_15 = rows.back()[2];
  const double v3_15 = rows.back()[3];
  const double v4_15 = rows.back()[4];

  std::printf("\n-- headline metrics (measured vs paper) --\n");
  std::printf("C1 original speedup 1->3 cores/node : %5.2fx (paper 2.35x)\n",
              orig[0] / orig[1]);
  std::printf("C1 original peak                    : %d cores/node, %5.2fx"
              " (paper 7 cores, 2.69x)\n",
              core_counts[peak], orig[0] / orig[peak]);
  std::printf("C1 original at 15 vs peak           : %5.2fx slower"
              " (paper: slight degradation)\n",
              orig.back() / orig[peak]);
  std::printf("C3 PaRSEC(v5) beats original from   : ");
  for (size_t i = 0; i < core_counts.size(); ++i) {
    if (rows[i][5] < rows[i][0]) {
      std::printf("%d cores/node (paper: 3)\n", core_counts[i]);
      break;
    }
  }
  std::printf("C4 original best / v5 at 15 cores   : %5.2fx (paper ~2.1x)\n",
              orig[peak] / v5_15);
  std::printf("C5 slowest/fastest PaRSEC at 15     : %5.2fx (paper 1.73x)\n",
              v1_15 / v5_15);
  std::printf("C6 ordering at 15 cores             : v1=%.3f > v2=%.3f > "
              "v3=%.3f >= v4=%.3f >= v5=%.3f : %s\n",
              v1_15, v2_15, v3_15, v4_15, v5_15,
              (v1_15 > v2_15 && v2_15 > v3_15 && v3_15 >= v4_15 &&
               v4_15 >= v5_15)
                  ? "MATCHES paper"
                  : "MISMATCH");
  std::printf("\n(total harness wall time: %.1fs)\n", timer.seconds());
  return 0;
}
