// Quickstart: the paper's Figure 1 example written against the mp::ptg
// API — chains of GEMM-like tasks expressed as a Parameterized Task Graph.
//
// Each chain L1 runs:  DFILL(L1) -> GEMM(L1,0) -> ... -> GEMM(L1,len-1)
//                        -> SORT(L1)
// with the C "matrix" (here a small vector) flowing through the chain, and
// the one-line change of Figure 2 — parallel GEMMs feeding a reduction —
// shown side by side. Run it with:  ./quickstart [nranks]
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "ptg/context.h"
#include "vc/cluster.h"

using namespace mp;
using namespace mp::ptg;

namespace {

constexpr int kChains = 6;
constexpr int kLen = 5;
constexpr int kElems = 8;

// Stand-in for the GEMM kernel body: C += (L1+1) * (L2+1) on every element.
void fake_gemm(Buffer& c, int l1, int l2) {
  double* x = c.mutable_data();
  for (size_t i = 0; i < c.size(); ++i) x[i] += (l1 + 1) * (l2 + 1);
}

double expected_value(int l1) {
  double v = 0.0;
  for (int l2 = 0; l2 < kLen; ++l2) v += (l1 + 1) * (l2 + 1);
  return v;
}

// ---- Figure 1: serial chain ----
void run_serial_chains(vc::Cluster& cluster) {
  std::vector<double> finals(kChains, 0.0);
  std::mutex mu;

  cluster.run([&](vc::RankCtx& rctx) {
    const int nranks = rctx.nranks();
    Taskpool pool;

    TaskClass dfill;
    dfill.name = "DFILL";
    dfill.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
    dfill.num_task_inputs = [](const Params&) { return 0; };
    dfill.priority = [](const Params& p) {
      return static_cast<double>(kChains - p[0]);
    };
    dfill.enumerate_rank = [nranks](int rank) {
      std::vector<Params> out;
      for (int l1 = rank; l1 < kChains; l1 += nranks)
        out.push_back(params_of(l1));
      return out;
    };
    dfill.body = [](TaskCtx& t) { t.set_output(0, make_buf(kElems)); };

    TaskClass gemm;
    gemm.name = "GEMM";
    gemm.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
    gemm.num_task_inputs = [](const Params&) { return 1; };  // the C flow
    gemm.priority = [](const Params& p) {
      return static_cast<double>(kChains - p[0] + 1);
    };
    gemm.enumerate_rank = [nranks](int rank) {
      std::vector<Params> out;
      for (int l1 = rank; l1 < kChains; l1 += nranks)
        for (int l2 = 0; l2 < kLen; ++l2) out.push_back(params_of(l1, l2));
      return out;
    };
    gemm.body = [](TaskCtx& t) {
      DataBuf c = t.take_input(0);  // RW flow: we own the only copy
      fake_gemm(*c, t.params()[0], t.params()[1]);
      t.set_output(0, std::move(c));
    };

    TaskClass sort;
    sort.name = "SORT";
    sort.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
    sort.num_task_inputs = [](const Params&) { return 1; };
    sort.enumerate_rank = [nranks](int rank) {
      std::vector<Params> out;
      for (int l1 = rank; l1 < kChains; l1 += nranks)
        out.push_back(params_of(l1));
      return out;
    };
    sort.body = [&](TaskCtx& t) {
      std::lock_guard lock(mu);
      finals[static_cast<size_t>(t.params()[0])] = (*t.input(0))[0];
    };

    const auto dfill_id = pool.add_class(std::move(dfill));
    const auto gemm_id = pool.add_class(std::move(gemm));
    const auto sort_id = pool.add_class(std::move(sort));

    // The dataflow of Figure 1: DFILL seeds the chain, C flows from
    // GEMM(L1, L2) to GEMM(L1, L2+1), the last GEMM feeds SORT.
    pool.mutable_cls(dfill_id).route_outputs =
        [gemm_id](const Params& p, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{gemm_id, params_of(p[0], 0)}, 0, 0});
        };
    pool.mutable_cls(gemm_id).route_outputs =
        [gemm_id, sort_id](const Params& p, std::vector<OutRoute>& r) {
          if (p[1] < kLen - 1) {
            r.push_back({TaskKey{gemm_id, params_of(p[0], p[1] + 1)}, 0, 0});
          } else {
            r.push_back({TaskKey{sort_id, params_of(p[0])}, 0, 0});
          }
        };

    Context ctx(rctx, pool);
    ctx.run();
  });

  std::printf("Figure 1 (serial chains):\n");
  for (int l1 = 0; l1 < kChains; ++l1) {
    std::printf("  chain %d: C[0] = %6.1f (expected %6.1f) %s\n", l1,
                finals[static_cast<size_t>(l1)], expected_value(l1),
                finals[static_cast<size_t>(l1)] == expected_value(l1)
                    ? "ok"
                    : "WRONG");
  }
}

// ---- Figure 2: parallel GEMMs + reduction ----
void run_parallel_chains(vc::Cluster& cluster) {
  std::vector<double> finals(kChains, 0.0);
  std::mutex mu;

  cluster.run([&](vc::RankCtx& rctx) {
    const int nranks = rctx.nranks();
    Taskpool pool;

    TaskClass gemm;
    gemm.name = "GEMM";
    gemm.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
    gemm.num_task_inputs = [](const Params&) { return 0; };  // independent!
    gemm.enumerate_rank = [nranks](int rank) {
      std::vector<Params> out;
      for (int l1 = rank; l1 < kChains; l1 += nranks)
        for (int l2 = 0; l2 < kLen; ++l2) out.push_back(params_of(l1, l2));
      return out;
    };
    gemm.body = [](TaskCtx& t) {
      auto c = make_buf(kElems);
      fake_gemm(*c, t.params()[0], t.params()[1]);
      t.set_output(0, std::move(c));
    };

    TaskClass red;
    red.name = "REDUCTION";
    red.rank_of = [nranks](const Params& p) { return p[0] % nranks; };
    red.num_task_inputs = [](const Params&) { return kLen; };
    red.enumerate_rank = [nranks](int rank) {
      std::vector<Params> out;
      for (int l1 = rank; l1 < kChains; l1 += nranks)
        out.push_back(params_of(l1));
      return out;
    };
    red.body = [&](TaskCtx& t) {
      double sum = 0.0;
      for (int i = 0; i < kLen; ++i) sum += (*t.input(i))[0];
      std::lock_guard lock(mu);
      finals[static_cast<size_t>(t.params()[0])] = sum;
    };

    const auto gemm_id = pool.add_class(std::move(gemm));
    const auto red_id = pool.add_class(std::move(red));

    // The one-line dataflow change of Figure 2:
    //   WRITE C -> A REDUCTION(L1, L2)
    pool.mutable_cls(gemm_id).route_outputs =
        [red_id](const Params& p, std::vector<OutRoute>& r) {
          r.push_back({TaskKey{red_id, params_of(p[0])},
                       static_cast<int8_t>(p[1]), 0});
        };

    Context ctx(rctx, pool);
    ctx.run();
  });

  std::printf("Figure 2 (parallel GEMMs + reduction):\n");
  for (int l1 = 0; l1 < kChains; ++l1) {
    std::printf("  chain %d: sum  = %6.1f (expected %6.1f) %s\n", l1,
                finals[static_cast<size_t>(l1)], expected_value(l1),
                finals[static_cast<size_t>(l1)] == expected_value(l1)
                    ? "ok"
                    : "WRONG");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 3;
  std::printf("PTG quickstart on %d virtual ranks\n\n", nranks);
  vc::Cluster cluster(nranks);
  run_serial_chains(cluster);
  std::printf("\n");
  run_parallel_chains(cluster);
  return 0;
}
