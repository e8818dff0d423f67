// Reference-BLAS-compatible double-precision GEMM and the BLAS-1 helpers the
// TCE-generated code uses (DFILL, DAXPY). Column-major throughout.
//
// This is a from-scratch blocked implementation (no external BLAS is
// available in the reproduction environment). It is cache-blocked and good
// enough for the block sizes the CC workloads produce (tiles of 8..64).
// The register-tile microkernel is picked at run time from the CPU's vector
// ISA, so one portable binary runs the widest kernel the host offers.
#pragma once

#include <cstddef>

namespace mp::linalg {

/// DGEMM microkernel tiers, narrowest first. Every x86-64 build compiles
/// kSse2 (4x4 mul+add), kAvx2 (8x6 FMA) and kAvx512 (16x6 FMA); other
/// architectures compile only kScalar.
enum class GemmTier { kScalar, kSse2, kAvx2, kAvx512 };

const char* to_string(GemmTier tier);

/// The tier dgemm() runs: the widest one this build compiles and the CPU
/// supports, detected once per process.
GemmTier gemm_tier();

/// Whether this build compiles `tier` and the CPU can execute it.
bool gemm_tier_supported(GemmTier tier);

/// C(m,n) = alpha * op(A) * op(B) + beta * C
/// transa/transb: 'N' (no transpose) or 'T' (transpose).
/// lda/ldb/ldc are the leading dimensions of the column-major arrays.
void dgemm(char transa, char transb, size_t m, size_t n, size_t k,
           double alpha, const double* a, size_t lda, const double* b,
           size_t ldb, double beta, double* c, size_t ldc);

/// dgemm() forced onto one tier, so tests can cover every tier the host
/// supports rather than only the widest. Throws InvalidArgument when
/// !gemm_tier_supported(tier).
void dgemm_on_tier(GemmTier tier, char transa, char transb, size_t m,
                   size_t n, size_t k, double alpha, const double* a,
                   size_t lda, const double* b, size_t ldb, double beta,
                   double* c, size_t ldc);

/// x[0..n) = v  (the TCE DFILL).
void dfill(size_t n, double v, double* x);

/// y += alpha * x.
void daxpy(size_t n, double alpha, const double* x, double* y);

/// dot(x, y).
double ddot(size_t n, const double* x, const double* y);

/// Flop count of a GEMM call (2*m*n*k), used by the simulator cost model.
inline double gemm_flops(size_t m, size_t n, size_t k) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k);
}

}  // namespace mp::linalg
