#include "apps/cholesky.h"

#include <cmath>
#include <mutex>

#include "linalg/cholesky.h"
#include "linalg/gemm.h"
#include "support/error.h"
#include "support/rng.h"

namespace mp::apps {

using ptg::DataBuf;
using ptg::OutRoute;
using ptg::Params;
using ptg::params_of;
using ptg::TaskClass;
using ptg::TaskCtx;
using ptg::TaskKey;

std::vector<double> make_spd_matrix(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> m(n * n);
  for (auto& x : m) x = rng.uniform(-1.0, 1.0);
  std::vector<double> a(n * n, 0.0);
  // A = M * M^T + n * I  (column-major).
  linalg::dgemm('N', 'T', n, n, n, 1.0, m.data(), n, m.data(), n, 0.0,
                a.data(), n);
  for (size_t i = 0; i < n; ++i) a[i * n + i] += static_cast<double>(n);
  return a;
}

double cholesky_residual(const std::vector<double>& a,
                         const std::vector<double>& l, size_t n) {
  std::vector<double> llt(n * n, 0.0);
  linalg::dgemm('N', 'T', n, n, n, 1.0, l.data(), n, l.data(), n, 0.0,
                llt.data(), n);
  double r = 0.0;
  for (size_t i = 0; i < n * n; ++i) {
    r = std::max(r, std::fabs(llt[i] - a[i]));
  }
  return r;
}

ptg::Taskpool build_cholesky_pool(int tiles, int nranks,
                                  CholeskyPoolIds* ids) {
  const int T = tiles;
  MP_REQUIRE(T >= 1 && nranks >= 1, "build_cholesky_pool: bad geometry");
  // 1D cyclic placement over a tile hash (2D block-cyclic in spirit).
  auto owner = [nranks](int i, int j) { return (i * 53 + j) % nranks; };
  auto noop = [](TaskCtx&) {};

  ptg::Taskpool pool;

  TaskClass potrf;
  potrf.name = "POTRF";
  potrf.rank_of = [owner](const Params& p) { return owner(p[0], p[0]); };
  potrf.num_task_inputs = [](const Params& p) { return p[0] == 0 ? 0 : 1; };
  // The last diagonal factor has no trailing panel to feed.
  potrf.num_outputs = [T](const Params& p) { return p[0] + 1 < T ? 1 : 0; };
  potrf.priority = [T](const Params& p) {
    return 3.0 * static_cast<double>(T - p[0]);
  };
  potrf.enumerate_rank = [T, owner](int rank) {
    std::vector<Params> out;
    for (int k = 0; k < T; ++k) {
      if (owner(k, k) == rank) out.push_back(params_of(k));
    }
    return out;
  };
  potrf.body = noop;

  TaskClass trsm;
  trsm.name = "TRSM";
  trsm.rank_of = [owner](const Params& p) { return owner(p[0], p[1]); };
  trsm.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 1 : 2; };
  trsm.num_outputs = [](const Params&) { return 1; };
  trsm.priority = [T](const Params& p) {
    return 2.0 * static_cast<double>(T - p[1]);
  };
  trsm.enumerate_rank = [T, owner](int rank) {
    std::vector<Params> out;
    for (int k = 0; k < T; ++k) {
      for (int i = k + 1; i < T; ++i) {
        if (owner(i, k) == rank) out.push_back(params_of(i, k));
      }
    }
    return out;
  };
  trsm.body = noop;

  TaskClass syrk;
  syrk.name = "SYRK";
  syrk.rank_of = [owner](const Params& p) { return owner(p[0], p[0]); };
  syrk.num_task_inputs = [](const Params& p) { return p[1] == 0 ? 1 : 2; };
  syrk.num_outputs = [](const Params&) { return 1; };
  syrk.priority = [T](const Params& p) {
    return static_cast<double>(T - p[1]);
  };
  syrk.enumerate_rank = [T, owner](int rank) {
    std::vector<Params> out;
    for (int i = 1; i < T; ++i) {
      for (int k = 0; k < i; ++k) {
        if (owner(i, i) == rank) out.push_back(params_of(i, k));
      }
    }
    return out;
  };
  syrk.body = noop;

  TaskClass gemm;
  gemm.name = "GEMM";
  gemm.rank_of = [owner](const Params& p) { return owner(p[0], p[1]); };
  gemm.num_task_inputs = [](const Params& p) { return p[2] == 0 ? 2 : 3; };
  gemm.num_outputs = [](const Params&) { return 1; };
  gemm.priority = [T](const Params& p) {
    return static_cast<double>(T - p[2]);
  };
  gemm.enumerate_rank = [T, owner](int rank) {
    std::vector<Params> out;
    for (int i = 2; i < T; ++i) {
      for (int j = 1; j < i; ++j) {
        for (int k = 0; k < j; ++k) {
          if (owner(i, j) == rank) out.push_back(params_of(i, j, k));
        }
      }
    }
    return out;
  };
  gemm.body = noop;

  const auto potrf_id = pool.add_class(std::move(potrf));
  const auto trsm_id = pool.add_class(std::move(trsm));
  const auto syrk_id = pool.add_class(std::move(syrk));
  const auto gemm_id = pool.add_class(std::move(gemm));

  pool.mutable_cls(potrf_id).route_outputs =
      [T, trsm_id](const Params& p, std::vector<OutRoute>& r) {
        for (int i = p[0] + 1; i < T; ++i) {
          r.push_back({TaskKey{trsm_id, params_of(i, p[0])}, 0, 0});
        }
      };
  pool.mutable_cls(trsm_id).route_outputs =
      [T, syrk_id, gemm_id](const Params& p, std::vector<OutRoute>& r) {
        const int i = p[0], k = p[1];
        r.push_back({TaskKey{syrk_id, params_of(i, k)}, 0, 0});
        for (int j = k + 1; j < i; ++j) {
          r.push_back({TaskKey{gemm_id, params_of(i, j, k)}, 0, 0});
        }
        for (int i2 = i + 1; i2 < T; ++i2) {
          r.push_back({TaskKey{gemm_id, params_of(i2, i, k)}, 1, 0});
        }
      };
  pool.mutable_cls(syrk_id).route_outputs =
      [potrf_id, syrk_id](const Params& p, std::vector<OutRoute>& r) {
        const int i = p[0], k = p[1];
        if (k < i - 1) {
          r.push_back({TaskKey{syrk_id, params_of(i, k + 1)}, 1, 0});
        } else {
          r.push_back({TaskKey{potrf_id, params_of(i)}, 0, 0});
        }
      };
  pool.mutable_cls(gemm_id).route_outputs =
      [trsm_id, gemm_id](const Params& p, std::vector<OutRoute>& r) {
        const int i = p[0], j = p[1], k = p[2];
        if (k < j - 1) {
          r.push_back({TaskKey{gemm_id, params_of(i, j, k + 1)}, 2, 0});
        } else {
          r.push_back({TaskKey{trsm_id, params_of(i, j)}, 1, 0});
        }
      };

  if (ids) *ids = {potrf_id, trsm_id, syrk_id, gemm_id};
  return pool;
}

TiledCholeskyResult tiled_cholesky(vc::Cluster& cluster,
                                   const std::vector<double>& a,
                                   const TiledCholeskyOptions& opts) {
  const int T = opts.tiles;
  const int b = opts.tile_size;
  const size_t n = static_cast<size_t>(T) * static_cast<size_t>(b);
  MP_REQUIRE(T >= 1 && b >= 1, "tiled_cholesky: bad tiling");
  MP_REQUIRE(a.size() == n * n, "tiled_cholesky: matrix size mismatch");

  TiledCholeskyResult result;
  result.l.assign(n * n, 0.0);
  std::mutex merge_mu;

  const std::vector<double>* A = &a;
  std::vector<double>* L = &result.l;

  cluster.run([&](vc::RankCtx& rctx) {
    const int nranks = rctx.nranks();
    const size_t bs = static_cast<size_t>(b);
    auto load_tile = [A, n, bs](int ti, int tj) {
      auto buf = ptg::make_buf(bs * bs);
      double* tile = buf->mutable_data();
      for (size_t c = 0; c < bs; ++c) {
        for (size_t r = 0; r < bs; ++r) {
          tile[c * bs + r] =
              (*A)[(tj * bs + c) * n + (ti * bs + r)];
        }
      }
      return buf;
    };
    // Final tiles have unique writers, so no lock is needed.
    auto store_tile = [L, n, bs](int ti, int tj, const DataBuf& buf) {
      for (size_t c = 0; c < bs; ++c) {
        for (size_t r = 0; r < bs; ++r) {
          (*L)[(tj * bs + c) * n + (ti * bs + r)] = (*buf)[c * bs + r];
        }
      }
    };

    // Structure (placement, thresholds, dataflow) comes from the shared
    // builder — the same pool tools/mp-verify statically verifies — and
    // only the numeric kernels are installed here.
    CholeskyPoolIds ids;
    ptg::Taskpool pool = build_cholesky_pool(T, nranks, &ids);

    pool.mutable_cls(ids.potrf).body = [load_tile, store_tile, bs](
                                           TaskCtx& t) {
      const int k = t.params()[0];
      DataBuf tile = (k == 0) ? load_tile(0, 0) : t.take_input(0);
      linalg::potrf_lower(bs, tile->mutable_data(), bs);
      store_tile(k, k, tile);
      t.set_output(0, std::move(tile));
    };
    pool.mutable_cls(ids.trsm).body = [load_tile, store_tile, bs](
                                          TaskCtx& t) {
      const int i = t.params()[0], k = t.params()[1];
      const DataBuf& lkk = t.input(0);
      DataBuf tile = (k == 0) ? load_tile(i, 0) : t.take_input(1);
      linalg::trsm_rlt(bs, bs, lkk->data(), bs, tile->mutable_data(), bs);
      store_tile(i, k, tile);
      t.set_output(0, std::move(tile));
    };
    pool.mutable_cls(ids.syrk).body = [load_tile, bs](TaskCtx& t) {
      const int i = t.params()[0], k = t.params()[1];
      const DataBuf& panel = t.input(0);
      DataBuf diag = (k == 0) ? load_tile(i, i) : t.take_input(1);
      linalg::syrk_ln(bs, bs, panel->data(), bs, diag->mutable_data(), bs);
      t.set_output(0, std::move(diag));
    };
    pool.mutable_cls(ids.gemm).body = [load_tile, bs](TaskCtx& t) {
      const int i = t.params()[0], j = t.params()[1], k = t.params()[2];
      const DataBuf& tik = t.input(0);
      const DataBuf& tjk = t.input(1);
      DataBuf tile = (k == 0) ? load_tile(i, j) : t.take_input(2);
      linalg::dgemm('N', 'T', bs, bs, bs, -1.0, tik->data(), bs, tjk->data(),
                    bs, 1.0, tile->mutable_data(), bs);
      t.set_output(0, std::move(tile));
    };

    ptg::Options ropts;
    ropts.num_workers = opts.workers_per_rank;
    ropts.enable_tracing = opts.enable_tracing;
    ptg::Context ctx(rctx, pool, ropts);
    ctx.run();

    std::lock_guard lock(merge_mu);
    result.tasks_executed += ctx.tasks_executed();
    result.remote_activations += ctx.remote_activations_sent();
    if (opts.enable_tracing) result.trace.append(ctx.trace());
  });

  result.trace.normalize();
  return result;
}

}  // namespace mp::apps
