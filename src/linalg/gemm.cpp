#include "linalg/gemm.h"

#include <algorithm>

#include "support/aligned_buf.h"
#include "support/error.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mp::linalg {
namespace {

// BLIS-style cache blocking (see DESIGN.md "Kernel & scheduler hot paths"):
//   kMr x kNr — the register tile held in accumulators by the microkernel
//               (a property of the tier, see below);
//   kMc x kKc — the packed A block, sized for L2;
//   kKc x kNc — the packed B panel, sized to stay resident in L3 while the
//               ic loop sweeps the whole M dimension over it.
// Loop order is NC -> KC -> MC: for each B panel we stream every A block
// against it, so B is loaded from memory once per KC pass.
constexpr size_t kMc = 128;  // multiple of every tier's kMr
constexpr size_t kKc = 256;
constexpr size_t kNc = 768;  // multiple of every tier's kNr; B panel = 1.5 MiB

// Packs op(A)(i0..i0+mb, k0..k0+kb) into row panels of height kMr:
// pack[panel][k][r] with r < kMr, zero-padded so the microkernel never
// needs an M edge case.
template <size_t kMr>
void pack_a(bool trans, const double* __restrict a, size_t lda, size_t i0,
            size_t k0, size_t mb, size_t kb, double* __restrict pack) {
  for (size_t ip = 0; ip < mb; ip += kMr) {
    const size_t mr = std::min(kMr, mb - ip);
    double* __restrict dst = pack + ip * kb;
    if (!trans) {
      // op(A)(i,k) = a[k*lda + i]: each k column is contiguous in A.
      for (size_t k = 0; k < kb; ++k) {
        const double* __restrict src = a + (k0 + k) * lda + (i0 + ip);
        size_t r = 0;
        for (; r < mr; ++r) dst[k * kMr + r] = src[r];
        for (; r < kMr; ++r) dst[k * kMr + r] = 0.0;
      }
    } else {
      // op(A)(i,k) = a[i*lda + k]: each output row is contiguous in A.
      for (size_t r = 0; r < mr; ++r) {
        const double* __restrict src = a + (i0 + ip + r) * lda + k0;
        for (size_t k = 0; k < kb; ++k) dst[k * kMr + r] = src[k];
      }
      for (size_t r = mr; r < kMr; ++r) {
        for (size_t k = 0; k < kb; ++k) dst[k * kMr + r] = 0.0;
      }
    }
  }
}

// Packs op(B)(k0..k0+kb, j0..j0+nb) into column panels of width kNr:
// pack[panel][k][c] with c < kNr, zero-padded in N.
template <size_t kNr>
void pack_b(bool trans, const double* __restrict b, size_t ldb, size_t k0,
            size_t j0, size_t kb, size_t nb, double* __restrict pack) {
  for (size_t jp = 0; jp < nb; jp += kNr) {
    const size_t nr = std::min(kNr, nb - jp);
    double* __restrict dst = pack + jp * kb;
    if (!trans) {
      // op(B)(k,j) = b[j*ldb + k]: each output column is contiguous in B.
      for (size_t c = 0; c < nr; ++c) {
        const double* __restrict src = b + (j0 + jp + c) * ldb + k0;
        for (size_t k = 0; k < kb; ++k) dst[k * kNr + c] = src[k];
      }
      for (size_t c = nr; c < kNr; ++c) {
        for (size_t k = 0; k < kb; ++k) dst[k * kNr + c] = 0.0;
      }
    } else {
      // op(B)(k,j) = b[k*ldb + j]: each k row is contiguous in B.
      for (size_t k = 0; k < kb; ++k) {
        const double* __restrict src = b + (k0 + k) * ldb + (j0 + jp);
        size_t c = 0;
        for (; c < nr; ++c) dst[k * kNr + c] = src[c];
        for (; c < kNr; ++c) dst[k * kNr + c] = 0.0;
      }
    }
  }
}

// The register-blocked microkernel: acc(kMr x kNr) = Ap-panel * Bp-panel
// over kb ranks, acc column-major (i fastest). One variant per tier. The
// tile must fit the accumulators in architectural vector registers or the
// kernel spills and loses to the naive loop:
//   AVX-512: 16x6 doubles = 12 zmm of 32;  AVX2: 8x6 = 12 ymm of 16;
//   SSE2: 4x4 = 8 xmm of 16.
// The accumulators are explicit named SIMD variables because GCC will not
// promote an accumulator array out of the stack even when the loops fully
// unroll.
//
// Every x86-64 build compiles all three SIMD kernels; only the kernels
// carry a target attribute, so nothing else in the program (inline
// library functions included) is ever compiled for an ISA the CPU may
// lack. They must stay in this translation unit for the same reason: a
// separate TU built with -mavx512f emits its own copies of inline
// functions, and the linker may keep those copies for the whole program.
using Microkernel = void (*)(size_t kb, const double* __restrict ap,
                             const double* __restrict bp,
                             double* __restrict acc);

#if defined(__x86_64__)

__attribute__((target("avx512f,fma"))) void microkernel_avx512(
    size_t kb, const double* __restrict ap, const double* __restrict bp,
    double* __restrict acc) {
  constexpr size_t kMr = 16, kNr = 6;
  __m512d c0a = _mm512_setzero_pd(), c0b = _mm512_setzero_pd();
  __m512d c1a = _mm512_setzero_pd(), c1b = _mm512_setzero_pd();
  __m512d c2a = _mm512_setzero_pd(), c2b = _mm512_setzero_pd();
  __m512d c3a = _mm512_setzero_pd(), c3b = _mm512_setzero_pd();
  __m512d c4a = _mm512_setzero_pd(), c4b = _mm512_setzero_pd();
  __m512d c5a = _mm512_setzero_pd(), c5b = _mm512_setzero_pd();
  for (size_t k = 0; k < kb; ++k) {
    const __m512d a0 = _mm512_loadu_pd(ap);
    const __m512d a1 = _mm512_loadu_pd(ap + 8);
    __m512d b;
    b = _mm512_set1_pd(bp[0]);
    c0a = _mm512_fmadd_pd(a0, b, c0a);
    c0b = _mm512_fmadd_pd(a1, b, c0b);
    b = _mm512_set1_pd(bp[1]);
    c1a = _mm512_fmadd_pd(a0, b, c1a);
    c1b = _mm512_fmadd_pd(a1, b, c1b);
    b = _mm512_set1_pd(bp[2]);
    c2a = _mm512_fmadd_pd(a0, b, c2a);
    c2b = _mm512_fmadd_pd(a1, b, c2b);
    b = _mm512_set1_pd(bp[3]);
    c3a = _mm512_fmadd_pd(a0, b, c3a);
    c3b = _mm512_fmadd_pd(a1, b, c3b);
    b = _mm512_set1_pd(bp[4]);
    c4a = _mm512_fmadd_pd(a0, b, c4a);
    c4b = _mm512_fmadd_pd(a1, b, c4b);
    b = _mm512_set1_pd(bp[5]);
    c5a = _mm512_fmadd_pd(a0, b, c5a);
    c5b = _mm512_fmadd_pd(a1, b, c5b);
    ap += kMr;
    bp += kNr;
  }
  _mm512_storeu_pd(acc + 0 * kMr, c0a);
  _mm512_storeu_pd(acc + 0 * kMr + 8, c0b);
  _mm512_storeu_pd(acc + 1 * kMr, c1a);
  _mm512_storeu_pd(acc + 1 * kMr + 8, c1b);
  _mm512_storeu_pd(acc + 2 * kMr, c2a);
  _mm512_storeu_pd(acc + 2 * kMr + 8, c2b);
  _mm512_storeu_pd(acc + 3 * kMr, c3a);
  _mm512_storeu_pd(acc + 3 * kMr + 8, c3b);
  _mm512_storeu_pd(acc + 4 * kMr, c4a);
  _mm512_storeu_pd(acc + 4 * kMr + 8, c4b);
  _mm512_storeu_pd(acc + 5 * kMr, c5a);
  _mm512_storeu_pd(acc + 5 * kMr + 8, c5b);
}

__attribute__((target("avx2,fma"))) void microkernel_avx2(
    size_t kb, const double* __restrict ap, const double* __restrict bp,
    double* __restrict acc) {
  constexpr size_t kMr = 8, kNr = 6;
  __m256d c0a = _mm256_setzero_pd(), c0b = _mm256_setzero_pd();
  __m256d c1a = _mm256_setzero_pd(), c1b = _mm256_setzero_pd();
  __m256d c2a = _mm256_setzero_pd(), c2b = _mm256_setzero_pd();
  __m256d c3a = _mm256_setzero_pd(), c3b = _mm256_setzero_pd();
  __m256d c4a = _mm256_setzero_pd(), c4b = _mm256_setzero_pd();
  __m256d c5a = _mm256_setzero_pd(), c5b = _mm256_setzero_pd();
  for (size_t k = 0; k < kb; ++k) {
    const __m256d a0 = _mm256_loadu_pd(ap);
    const __m256d a1 = _mm256_loadu_pd(ap + 4);
    __m256d b;
    b = _mm256_set1_pd(bp[0]);
    c0a = _mm256_fmadd_pd(a0, b, c0a);
    c0b = _mm256_fmadd_pd(a1, b, c0b);
    b = _mm256_set1_pd(bp[1]);
    c1a = _mm256_fmadd_pd(a0, b, c1a);
    c1b = _mm256_fmadd_pd(a1, b, c1b);
    b = _mm256_set1_pd(bp[2]);
    c2a = _mm256_fmadd_pd(a0, b, c2a);
    c2b = _mm256_fmadd_pd(a1, b, c2b);
    b = _mm256_set1_pd(bp[3]);
    c3a = _mm256_fmadd_pd(a0, b, c3a);
    c3b = _mm256_fmadd_pd(a1, b, c3b);
    b = _mm256_set1_pd(bp[4]);
    c4a = _mm256_fmadd_pd(a0, b, c4a);
    c4b = _mm256_fmadd_pd(a1, b, c4b);
    b = _mm256_set1_pd(bp[5]);
    c5a = _mm256_fmadd_pd(a0, b, c5a);
    c5b = _mm256_fmadd_pd(a1, b, c5b);
    ap += kMr;
    bp += kNr;
  }
  _mm256_storeu_pd(acc + 0 * kMr, c0a);
  _mm256_storeu_pd(acc + 0 * kMr + 4, c0b);
  _mm256_storeu_pd(acc + 1 * kMr, c1a);
  _mm256_storeu_pd(acc + 1 * kMr + 4, c1b);
  _mm256_storeu_pd(acc + 2 * kMr, c2a);
  _mm256_storeu_pd(acc + 2 * kMr + 4, c2b);
  _mm256_storeu_pd(acc + 3 * kMr, c3a);
  _mm256_storeu_pd(acc + 3 * kMr + 4, c3b);
  _mm256_storeu_pd(acc + 4 * kMr, c4a);
  _mm256_storeu_pd(acc + 4 * kMr + 4, c4b);
  _mm256_storeu_pd(acc + 5 * kMr, c5a);
  _mm256_storeu_pd(acc + 5 * kMr + 4, c5b);
}

__attribute__((target("sse2"))) void microkernel_sse2(
    size_t kb, const double* __restrict ap, const double* __restrict bp,
    double* __restrict acc) {
  constexpr size_t kMr = 4, kNr = 4;
  __m128d c0a = _mm_setzero_pd(), c0b = _mm_setzero_pd();
  __m128d c1a = _mm_setzero_pd(), c1b = _mm_setzero_pd();
  __m128d c2a = _mm_setzero_pd(), c2b = _mm_setzero_pd();
  __m128d c3a = _mm_setzero_pd(), c3b = _mm_setzero_pd();
  for (size_t k = 0; k < kb; ++k) {
    const __m128d a0 = _mm_loadu_pd(ap);
    const __m128d a1 = _mm_loadu_pd(ap + 2);
    __m128d b;
    b = _mm_set1_pd(bp[0]);
    c0a = _mm_add_pd(c0a, _mm_mul_pd(a0, b));
    c0b = _mm_add_pd(c0b, _mm_mul_pd(a1, b));
    b = _mm_set1_pd(bp[1]);
    c1a = _mm_add_pd(c1a, _mm_mul_pd(a0, b));
    c1b = _mm_add_pd(c1b, _mm_mul_pd(a1, b));
    b = _mm_set1_pd(bp[2]);
    c2a = _mm_add_pd(c2a, _mm_mul_pd(a0, b));
    c2b = _mm_add_pd(c2b, _mm_mul_pd(a1, b));
    b = _mm_set1_pd(bp[3]);
    c3a = _mm_add_pd(c3a, _mm_mul_pd(a0, b));
    c3b = _mm_add_pd(c3b, _mm_mul_pd(a1, b));
    ap += kMr;
    bp += kNr;
  }
  _mm_storeu_pd(acc + 0 * kMr, c0a);
  _mm_storeu_pd(acc + 0 * kMr + 2, c0b);
  _mm_storeu_pd(acc + 1 * kMr, c1a);
  _mm_storeu_pd(acc + 1 * kMr + 2, c1b);
  _mm_storeu_pd(acc + 2 * kMr, c2a);
  _mm_storeu_pd(acc + 2 * kMr + 2, c2b);
  _mm_storeu_pd(acc + 3 * kMr, c3a);
  _mm_storeu_pd(acc + 3 * kMr + 2, c3b);
}

#else

// Scalar fallback for non-x86 hosts.
void microkernel_scalar(size_t kb, const double* __restrict ap,
                        const double* __restrict bp, double* __restrict acc) {
  constexpr size_t kMr = 4, kNr = 4;
  double c[kMr * kNr] = {};
  for (size_t k = 0; k < kb; ++k) {
    for (size_t j = 0; j < kNr; ++j) {
      const double bj = bp[j];
      for (size_t i = 0; i < kMr; ++i) c[j * kMr + i] += ap[i] * bj;
    }
    ap += kMr;
    bp += kNr;
  }
  for (size_t x = 0; x < kMr * kNr; ++x) acc[x] = c[x];
}

#endif

// Writes the accumulator tile into C. `apply_beta` is true only on the
// first KC block of a column stripe, so beta is applied exactly once and
// beta == 0 never reads C (the BLAS NaN-overwrite convention).
template <size_t kMr>
void store_tile(const double* __restrict acc, double* __restrict c,
                size_t ldc, size_t mr, size_t nr, double alpha, double beta,
                bool apply_beta) {
  for (size_t j = 0; j < nr; ++j) {
    double* __restrict cj = c + j * ldc;
    const double* __restrict aj = acc + j * kMr;
    if (!apply_beta || beta == 1.0) {
      for (size_t i = 0; i < mr; ++i) cj[i] += alpha * aj[i];
    } else if (beta == 0.0) {
      for (size_t i = 0; i < mr; ++i) cj[i] = alpha * aj[i];
    } else {
      for (size_t i = 0; i < mr; ++i) cj[i] = alpha * aj[i] + beta * cj[i];
    }
  }
}

// The blocked loop nest around one tier's microkernel. `packa`/`packb`
// hold kMc*kKc and kKc*kNc doubles.
template <size_t kMr, size_t kNr, Microkernel kernel>
void gemm_blocked(bool ta, bool tb, size_t m, size_t n, size_t k,
                  double alpha, const double* a, size_t lda, const double* b,
                  size_t ldb, double beta, double* c, size_t ldc,
                  double* packa, double* packb) {
  static_assert(kMc % kMr == 0, "kMc must be a multiple of kMr");
  static_assert(kNc % kNr == 0, "kNc must be a multiple of kNr");
  for (size_t jc = 0; jc < n; jc += kNc) {
    const size_t nb = std::min(kNc, n - jc);
    for (size_t pc = 0; pc < k; pc += kKc) {
      const size_t kb = std::min(kKc, k - pc);
      const bool apply_beta = (pc == 0);
      pack_b<kNr>(tb, b, ldb, pc, jc, kb, nb, packb);
      for (size_t ic = 0; ic < m; ic += kMc) {
        const size_t mb = std::min(kMc, m - ic);
        pack_a<kMr>(ta, a, lda, ic, pc, mb, kb, packa);
        for (size_t jr = 0; jr < nb; jr += kNr) {
          const size_t nr = std::min(kNr, nb - jr);
          const double* bp = packb + jr * kb;
          for (size_t ir = 0; ir < mb; ir += kMr) {
            const size_t mr = std::min(kMr, mb - ir);
            alignas(64) double acc[kMr * kNr];
            kernel(kb, packa + ir * kb, bp, acc);
            store_tile<kMr>(acc, c + (jc + jr) * ldc + ic + ir, ldc, mr, nr,
                            alpha, beta, apply_beta);
          }
        }
      }
    }
  }
}

GemmTier detect_tier() {
#if defined(__x86_64__)
  __builtin_cpu_init();  // in case the first dgemm runs in a static initializer
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma")) {
    return GemmTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return GemmTier::kAvx2;
  }
  return GemmTier::kSse2;
#else
  return GemmTier::kScalar;
#endif
}

void dgemm_impl(GemmTier tier, char transa, char transb, size_t m, size_t n,
                size_t k, double alpha, const double* a, size_t lda,
                const double* b, size_t ldb, double beta, double* c,
                size_t ldc) {
  MP_REQUIRE(transa == 'N' || transa == 'T' || transa == 'n' || transa == 't',
             "dgemm: bad transa");
  MP_REQUIRE(transb == 'N' || transb == 'T' || transb == 'n' || transb == 't',
             "dgemm: bad transb");
  const bool ta = (transa == 'T' || transa == 't');
  const bool tb = (transb == 'T' || transb == 't');
  MP_DCHECK(ldc >= std::max<size_t>(1, m), "dgemm: ldc too small");

  // Degenerate cases reduce to scaling C by beta.
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) {
    if (beta == 1.0) return;
    for (size_t j = 0; j < n; ++j) {
      double* cj = c + j * ldc;
      if (beta == 0.0) {
        std::fill(cj, cj + m, 0.0);
      } else {
        for (size_t i = 0; i < m; ++i) cj[i] *= beta;
      }
    }
    return;
  }

  // Thread-local packing workspaces: zero heap traffic at steady state.
  support::WorkspacePool& ws = support::WorkspacePool::tls();
  double* packa = ws.get(support::WorkspacePool::kGemmPackA, kMc * kKc);
  double* packb = ws.get(support::WorkspacePool::kGemmPackB, kKc * kNc);

  switch (tier) {
#if defined(__x86_64__)
    case GemmTier::kAvx512:
      return gemm_blocked<16, 6, microkernel_avx512>(
          ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, packa, packb);
    case GemmTier::kAvx2:
      return gemm_blocked<8, 6, microkernel_avx2>(
          ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, packa, packb);
    case GemmTier::kSse2:
      return gemm_blocked<4, 4, microkernel_sse2>(
          ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, packa, packb);
#else
    case GemmTier::kScalar:
      return gemm_blocked<4, 4, microkernel_scalar>(
          ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, packa, packb);
#endif
    default:
      MP_ASSERT(false, "dgemm: tier not compiled into this build");
  }
}

}  // namespace

const char* to_string(GemmTier tier) {
  switch (tier) {
    case GemmTier::kScalar:
      return "scalar";
    case GemmTier::kSse2:
      return "sse2";
    case GemmTier::kAvx2:
      return "avx2";
    case GemmTier::kAvx512:
      return "avx512";
  }
  return "?";
}

GemmTier gemm_tier() {
  static const GemmTier tier = detect_tier();
  return tier;
}

bool gemm_tier_supported(GemmTier tier) {
#if defined(__x86_64__)
  return tier != GemmTier::kScalar && tier <= gemm_tier();
#else
  return tier == GemmTier::kScalar;
#endif
}

void dgemm(char transa, char transb, size_t m, size_t n, size_t k,
           double alpha, const double* a, size_t lda, const double* b,
           size_t ldb, double beta, double* c, size_t ldc) {
  dgemm_impl(gemm_tier(), transa, transb, m, n, k, alpha, a, lda, b, ldb,
             beta, c, ldc);
}

void dgemm_on_tier(GemmTier tier, char transa, char transb, size_t m,
                   size_t n, size_t k, double alpha, const double* a,
                   size_t lda, const double* b, size_t ldb, double beta,
                   double* c, size_t ldc) {
  MP_REQUIRE(gemm_tier_supported(tier), "dgemm: tier not supported here");
  dgemm_impl(tier, transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c,
             ldc);
}

void dfill(size_t n, double v, double* x) { std::fill(x, x + n, v); }

void daxpy(size_t n, double alpha, const double* x, double* y) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

double ddot(size_t n, const double* x, const double* y) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

}  // namespace mp::linalg
