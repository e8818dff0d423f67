// DPLASMA-style tiled Cholesky factorization over the PTG runtime.
//
// PaRSEC grew out of dense linear algebra; this app demonstrates that the
// runtime built for the CC port is general-purpose by expressing the
// classic right-looking tiled POTRF dataflow as a four-class PTG:
//
//   POTRF(k)    : factor diagonal tile (k,k)
//   TRSM(i,k)   : panel solve of tile (i,k) against L(k,k)
//   SYRK(i,k)   : diagonal update of (i,i) by the panel tile (i,k)
//   GEMM(i,j,k) : trailing update of (i,j) by panel tiles (i,k), (j,k)
//
// with tiles flowing between tasks exactly like the C matrices of the CC
// chains. Distribution over ranks is per-tile; the runtime ships tiles
// between ranks implicitly.
#pragma once

#include <cstdint>
#include <vector>

#include "ptg/context.h"
#include "ptg/trace.h"
#include "vc/cluster.h"

namespace mp::apps {

struct TiledCholeskyOptions {
  int tiles = 4;        ///< tile grid dimension T (matrix is T*b x T*b)
  int tile_size = 8;    ///< tile dimension b
  int workers_per_rank = 2;
  bool enable_tracing = false;
};

struct TiledCholeskyResult {
  std::vector<double> l;   ///< n x n column-major lower factor (upper zero)
  uint64_t tasks_executed = 0;
  uint64_t remote_activations = 0;
  ptg::Trace trace;        ///< merged over ranks (if tracing)
};

/// Class ids of the four-class Cholesky pool, in registration order.
struct CholeskyPoolIds {
  int16_t potrf = -1;
  int16_t trsm = -1;
  int16_t syrk = -1;
  int16_t gemm = -1;
};

/// Build the symbolic POTRF/TRSM/SYRK/GEMM taskpool for a `tiles` x
/// `tiles` grid distributed over `nranks` ranks: placement, priorities,
/// input/output declarations and the full dataflow wiring, with no-op
/// bodies. tiled_cholesky() installs the real kernels on top;
/// tools/mp-verify materializes the pool as-is and runs
/// analysis::verify_graph over it, so the statically verified graph is
/// exactly the one the runtime executes.
ptg::Taskpool build_cholesky_pool(int tiles, int nranks,
                                  CholeskyPoolIds* ids = nullptr);

/// Factor the dense column-major SPD matrix `a` (size n*n, n =
/// tiles*tile_size, replicated on every rank) over the cluster.
TiledCholeskyResult tiled_cholesky(vc::Cluster& cluster,
                                   const std::vector<double>& a,
                                   const TiledCholeskyOptions& opts);

/// Deterministic SPD test matrix: M * M^T + n * I.
std::vector<double> make_spd_matrix(size_t n, uint64_t seed);

/// max |(L L^T)_ij - A_ij| over the full matrix — the factorization
/// residual used to validate results.
double cholesky_residual(const std::vector<double>& a,
                         const std::vector<double>& l, size_t n);

}  // namespace mp::apps
