// Kernel benchmark baseline: sweeps the DGEMM and SORT_4 hot kernels over
// tile sizes, times the scheduler queues, checks every optimized result
// against the naive reference, and writes BENCH_kernels.json (schema
// "mp-bench-kernels-v1", see bench_report.h) for commit-over-commit
// tracking.
//
// Usage: bench_kernels [--quick] [--out <path>]
//   --quick   fewer sizes and repetitions (the ctest perf-smoke target)
//   --out     output JSON path (default: BENCH_kernels.json in the cwd)
//
// Exit status is nonzero when a kernel disagrees with its reference or the
// report fails validation (NaN / zero throughput), so the perf-smoke test
// catches broken kernels and broken timers alike.
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_report.h"
#include "linalg/gemm.h"
#include "linalg/sort4.h"
#include "ptg/scheduler.h"
#include "support/stats.h"
#include "support/timing.h"

using namespace mp;

namespace {

#ifndef MP_GIT_SHA
#define MP_GIT_SHA "unknown"
#endif
#ifndef MP_BUILD_TYPE
#define MP_BUILD_TYPE "unknown"
#endif

std::vector<double> random_vec(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

/// Column-major naive reference GEMM, identical semantics to linalg::dgemm.
void naive_dgemm(char transa, char transb, size_t m, size_t n, size_t k,
                 double alpha, const double* a, size_t lda, const double* b,
                 size_t ldb, double beta, double* c, size_t ldc) {
  const bool ta = transa == 'T' || transa == 't';
  const bool tb = transb == 'T' || transb == 't';
  for (size_t j = 0; j < n; ++j) {
    for (size_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        const double av = ta ? a[i * lda + p] : a[p * lda + i];
        const double bv = tb ? b[p * ldb + j] : b[j * ldb + p];
        acc += av * bv;
      }
      c[j * ldc + i] =
          alpha * acc + (beta == 0.0 ? 0.0 : beta * c[j * ldc + i]);
    }
  }
}

/// Times `fn`: picks an iteration count so one sample lasts at least
/// `min_sample_s`, then returns `reps` samples of work_per_call / seconds.
template <typename Fn>
std::vector<double> sample_throughput(Fn&& fn, double work_per_call, int reps,
                                      double min_sample_s) {
  fn();  // warm-up (page-in, workspace-pool allocation)
  int iters = 1;
  for (;;) {
    WallTimer t;
    for (int i = 0; i < iters; ++i) fn();
    const double s = t.seconds();
    if (s >= min_sample_s || iters >= (1 << 24)) break;
    iters = s <= 0.0 ? iters * 16
                     : static_cast<int>(static_cast<double>(iters) *
                                        (1.2 * min_sample_s / s)) +
                           1;
  }
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    for (int i = 0; i < iters; ++i) fn();
    samples.push_back(work_per_call * iters / t.seconds());
  }
  return samples;
}

bool check_close(const std::vector<double>& got,
                 const std::vector<double>& want, double tol,
                 const char* what) {
  double m = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    m = std::max(m, std::fabs(got[i] - want[i]));
  }
  if (m > tol) {
    std::fprintf(stderr, "FAIL: %s disagrees with reference: max|diff|=%g\n",
                 what, m);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  const int reps = quick ? 3 : 7;
  const double min_sample = quick ? 2e-3 : 1e-2;
  bool ok = true;

  bench::BenchReport report;
  report.set_config("git_sha", MP_GIT_SHA);
  report.set_config("build_type", MP_BUILD_TYPE);
  // The microkernel tier dgemm() dispatches to on this CPU.
  report.set_config("isa", linalg::to_string(linalg::gemm_tier()));
  report.set_config("compiler", __VERSION__);
  report.set_config("mode", quick ? "quick" : "full");

  // ---- DGEMM sweep ---------------------------------------------------------
  const std::vector<size_t> gemm_sizes =
      quick ? std::vector<size_t>{32, 64, 128}
            : std::vector<size_t>{32, 64, 96, 128, 192, 256};
  const struct {
    char ta, tb;
  } combos[] = {{'N', 'N'}, {'T', 'N'}};
  std::printf("%-18s %10s %10s %10s %8s\n", "case", "median", "p10", "p90",
              "vs-ref");
  for (size_t n : gemm_sizes) {
    const auto a = random_vec(n * n, 1);
    const auto b = random_vec(n * n, 2);
    std::vector<double> c(n * n), cref(n * n);
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    for (const auto& tt : combos) {
      linalg::dgemm(tt.ta, tt.tb, n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                    c.data(), n);
      naive_dgemm(tt.ta, tt.tb, n, n, n, 1.0, a.data(), n, b.data(), n, 0.0,
                  cref.data(), n);
      ok &= check_close(c, cref, 1e-11 * static_cast<double>(n), "dgemm");

      bench::BenchCase bc;
      bc.name = "dgemm_" + std::to_string(n) + "_" + tt.ta + tt.tb;
      bc.kind = "dgemm";
      bc.metric = "gflops";
      bc.params = {{"m", static_cast<long>(n)},
                   {"n", static_cast<long>(n)},
                   {"k", static_cast<long>(n)}};
      bc.samples = sample_throughput(
          [&] {
            linalg::dgemm(tt.ta, tt.tb, n, n, n, 1.0, a.data(), n, b.data(),
                          n, 0.0, c.data(), n);
          },
          flops * 1e-9, reps, min_sample);
      const auto ref = sample_throughput(
          [&] {
            naive_dgemm(tt.ta, tt.tb, n, n, n, 1.0, a.data(), n, b.data(), n,
                        0.0, cref.data(), n);
          },
          flops * 1e-9, std::min(reps, 3), min_sample);
      bc.ref_median = percentile(ref, 50.0);
      std::printf("%-18s %8.2f G %8.2f G %8.2f G %7.2fx\n", bc.name.c_str(),
                  percentile(bc.samples, 50.0), percentile(bc.samples, 10.0),
                  percentile(bc.samples, 90.0),
                  percentile(bc.samples, 50.0) / bc.ref_median);
      report.add(std::move(bc));
    }
  }

  // ---- SORT_4 sweep --------------------------------------------------------
  const std::vector<size_t> sort_dims =
      quick ? std::vector<size_t>{16} : std::vector<size_t>{16, 24};
  const struct {
    const char* name;
    std::array<int, 4> perm;
  } perms[] = {
      {"id", {0, 1, 2, 3}},   {"rot1", {1, 2, 3, 0}}, {"rot2", {2, 3, 0, 1}},
      {"rot3", {3, 0, 1, 2}}, {"generic", {1, 0, 3, 2}},
  };
  for (size_t d : sort_dims) {
    const std::array<size_t, 4> dims{d, d, d, d};
    const size_t elems = d * d * d * d;
    const auto in = random_vec(elems, 3);
    std::vector<double> out(elems), outref(elems);
    const double bytes = 16.0 * static_cast<double>(elems);  // rd + wr
    for (const auto& pc : perms) {
      linalg::sort_4(in.data(), out.data(), dims, pc.perm, 0.5);
      linalg::sort_4_reference(in.data(), outref.data(), dims, pc.perm, 0.5);
      ok &= check_close(out, outref, 0.0, "sort_4");  // bit-for-bit

      bench::BenchCase bc;
      bc.name = std::string("sort4_") + std::to_string(d) + "_" + pc.name;
      bc.kind = "sort4";
      bc.metric = "gbytes";
      bc.params = {{"dim", static_cast<long>(d)},
                   {"fast_path", linalg::sort4_is_fast_path(pc.perm)}};
      bc.samples = sample_throughput(
          [&] { linalg::sort_4(in.data(), out.data(), dims, pc.perm, 0.5); },
          bytes * 1e-9, reps, min_sample);
      const auto ref = sample_throughput(
          [&] {
            linalg::sort_4_reference(in.data(), outref.data(), dims, pc.perm,
                                     0.5);
          },
          bytes * 1e-9, std::min(reps, 3), min_sample);
      bc.ref_median = percentile(ref, 50.0);
      std::printf("%-18s %8.2f GB %7.2f GB %7.2f GB %7.2fx\n",
                  bc.name.c_str(), percentile(bc.samples, 50.0),
                  percentile(bc.samples, 10.0), percentile(bc.samples, 90.0),
                  percentile(bc.samples, 50.0) / bc.ref_median);
      report.add(std::move(bc));
    }
  }

  // ---- scheduler push/pop --------------------------------------------------
  {
    ptg::Scheduler sched(2);
    constexpr int kBurst = 256;
    bench::BenchCase bc;
    bc.name = "sched_push_pop";
    bc.kind = "sched";
    bc.metric = "mops";
    bc.params = {{"burst", kBurst}};
    bc.samples = sample_throughput(
        [&] {
          ptg::ReadyTask t;
          for (int i = 0; i < kBurst; ++i) {
            t.priority = i & 7;
            t.seq = static_cast<uint64_t>(i);
            sched.push(t, 0);
          }
          ptg::ReadyTask got;
          while (sched.try_pop(got, 0)) {
          }
        },
        2.0 * kBurst * 1e-6, reps, min_sample);
    std::printf("%-18s %8.2f M %8.2f M %8.2f M %8s\n", bc.name.c_str(),
                percentile(bc.samples, 50.0), percentile(bc.samples, 10.0),
                percentile(bc.samples, 90.0), "-");
    report.add(std::move(bc));
  }

  std::string why;
  if (!report.validate(&why)) {
    std::fprintf(stderr, "FAIL: report validation: %s\n", why.c_str());
    ok = false;
  }
  if (!report.write(out_path)) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path.c_str());
    ok = false;
  }
  std::printf("\nwrote %s (git_sha=%s isa=%s)\n", out_path.c_str(),
              MP_GIT_SHA, linalg::to_string(linalg::gemm_tier()));
  return ok ? 0 : 1;
}
