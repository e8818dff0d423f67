// Ablation TAB-B: chain segmentation height (Section IV-A). The paper
// evaluates the two extremes — height 1 (fully parallel GEMMs + reduction,
// v2..v5) and the whole chain (v1) — and notes the height "can vary from
// one to the height of the original chain". This harness sweeps the
// intermediate heights the paper left unexplored. The height is a variant
// field (VariantConfig::segment_height), so every height simulated here is
// a graph the runtime also runs.
#include <cstdio>
#include <cstdlib>

#include "sim/presets.h"
#include "sim/ptg_sim.h"

using namespace mp;
using namespace mp::sim;

int main(int argc, char** argv) {
  const int nodes = argc > 1 ? std::atoi(argv[1]) : 32;
  const auto p = make_preset("beta_carotene_32");
  const auto st = p.plan.stats();

  std::printf("== Ablation: chain segment height (v5 sort/write, %d nodes) "
              "==\n",
              nodes);
  std::printf("chain lengths: min %zu mean %.1f max %zu\n\n",
              st.min_chain_len, st.mean_chain_len, st.max_chain_len);
  std::printf("%-18s", "segment height");
  const int core_counts[] = {7, 15};
  for (const int c : core_counts) std::printf(" %11s%d", "cores=", c);
  std::printf("\n");

  for (const int h : {1, 2, 4, 8, 16, 32, 0}) {  // 0 = whole chain
    GraphOptions gopts;
    gopts.variant = tce::VariantConfig::v5();
    gopts.variant.segment_height = h;
    gopts.nodes = nodes;
    const auto g = build_graph(p.plan, gopts);

    char label[32];
    if (h == 0) {
      std::snprintf(label, sizeof label, "whole chain (v1)");
    } else {
      std::snprintf(label, sizeof label, "%d%s", h,
                    h == 1 ? " (paper v5)" : "");
    }
    std::printf("%-18s", label);
    for (const int c : core_counts) {
      SimOptions sopts;
      sopts.cores_per_node = c;
      std::printf(" %12.3f", simulate_ptg(g, sopts).makespan);
    }
    std::printf("\n");
  }
  std::printf("\nExpectation: height 1 maximizes parallelism (paper's "
              "winning choice); tall segments trade parallelism for "
              "locality and approach v1.\n");
  return 0;
}
