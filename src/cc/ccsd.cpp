#include "cc/ccsd.h"

#include <cmath>
#include <deque>

#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "support/error.h"
#include "support/log.h"

namespace mp::cc {
namespace {

/// Index helpers over the dense layouts. O = occupied, V = virtual counts.
struct Idx {
  int O, V;
  size_t t1(int a, int i) const {
    return static_cast<size_t>(a) * O + static_cast<size_t>(i);
  }
  size_t t2(int a, int b, int i, int j) const {
    return ((static_cast<size_t>(a) * V + b) * O + i) * O + j;
  }
  size_t oo(int m, int i) const { return static_cast<size_t>(m) * O + i; }
  size_t vv(int a, int e) const { return static_cast<size_t>(a) * V + e; }
  size_t ov(int m, int e) const { return static_cast<size_t>(m) * V + e; }
  size_t oooo(int m, int n, int i, int j) const {
    return ((static_cast<size_t>(m) * O + n) * O + i) * O + j;
  }
  size_t ovvo(int m, int b, int e, int j) const {
    return ((static_cast<size_t>(m) * V + b) * V + e) * O + j;
  }
};

struct Work {
  const SpinOrbitalSystem* sys;
  Idx ix;
  int O, V;

  // Global orbital index of virtual a / occupied i.
  int vo(int a) const { return O + a; }

  double f_occ(int i) const { return sys->f(i); }
  double f_virt(int a) const { return sys->f(O + a); }

  double v_oovv(int m, int n, int e, int f) const {
    return sys->v(m, n, vo(e), vo(f));
  }
};

double amplitude_rms(const std::vector<double>& a,
                     const std::vector<double>& b) {
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(a.size()));
}

double correlation_energy(const Work& w, const std::vector<double>& t1,
                          const std::vector<double>& t2) {
  const int O = w.O, V = w.V;
  double e = 0.0;
  for (int i = 0; i < O; ++i)
    for (int j = 0; j < O; ++j)
      for (int a = 0; a < V; ++a)
        for (int b = 0; b < V; ++b) {
          const double vij = w.sys->v(i, j, w.vo(a), w.vo(b));
          e += 0.25 * vij * t2[w.ix.t2(a, b, i, j)] +
               0.5 * vij * t1[w.ix.t1(a, i)] * t1[w.ix.t1(b, j)];
        }
  return e;
}

/// Simple DIIS accelerator over the stacked (t1, t2) amplitude vector.
class Diis {
 public:
  explicit Diis(int dim) : dim_(static_cast<size_t>(dim)) {}

  void push(std::vector<double> amps, std::vector<double> error) {
    amps_.push_back(std::move(amps));
    errs_.push_back(std::move(error));
    if (amps_.size() > dim_) {
      amps_.pop_front();
      errs_.pop_front();
    }
  }

  /// Extrapolated amplitudes; falls back to the latest iterate if the DIIS
  /// system is singular or history is too short.
  std::vector<double> extrapolate() const {
    const size_t k = amps_.size();
    if (k < 2) return amps_.back();
    linalg::Matrix B(k + 1, k + 1);
    std::vector<double> rhs(k + 1, 0.0);
    for (size_t p = 0; p < k; ++p) {
      for (size_t q = 0; q < k; ++q) {
        double dot = 0.0;
        for (size_t t = 0; t < errs_[p].size(); ++t) {
          dot += errs_[p][t] * errs_[q][t];
        }
        B(p, q) = dot;
      }
      B(p, k) = B(k, p) = -1.0;
    }
    B(k, k) = 0.0;
    rhs[k] = -1.0;
    std::vector<double> coeff;
    try {
      coeff = linalg::solve_linear(std::move(B), std::move(rhs));
    } catch (const DataError&) {
      return amps_.back();
    }
    std::vector<double> out(amps_.back().size(), 0.0);
    for (size_t p = 0; p < k; ++p) {
      for (size_t t = 0; t < out.size(); ++t) out[t] += coeff[p] * amps_[p][t];
    }
    return out;
  }

 private:
  size_t dim_;
  std::deque<std::vector<double>> amps_;
  std::deque<std::vector<double>> errs_;
};

}  // namespace

void dense_ladder(const SpinOrbitalSystem& sys, const std::vector<double>& tau,
                  std::vector<double>& out) {
  const int O = sys.n_occ(), V = sys.n_virt();
  Idx ix{O, V};
  MP_REQUIRE(tau.size() == static_cast<size_t>(V) * V * O * O,
             "dense_ladder: tau size mismatch");
  MP_REQUIRE(out.size() == tau.size(), "dense_ladder: out size mismatch");
  for (int a = 0; a < V; ++a)
    for (int b = 0; b < V; ++b)
      for (int i = 0; i < O; ++i)
        for (int j = 0; j < O; ++j) {
          double s = 0.0;
          for (int e = 0; e < V; ++e)
            for (int f = 0; f < V; ++f) {
              s += sys.v(O + e, O + f, O + a, O + b) * tau[ix.t2(e, f, i, j)];
            }
          out[ix.t2(a, b, i, j)] += 0.5 * s;
        }
}

void dense_hh_ladder(const SpinOrbitalSystem& sys,
                     const std::vector<double>& tau,
                     std::vector<double>& out) {
  const int O = sys.n_occ(), V = sys.n_virt();
  Idx ix{O, V};
  MP_REQUIRE(tau.size() == static_cast<size_t>(V) * V * O * O,
             "dense_hh_ladder: tau size mismatch");
  MP_REQUIRE(out.size() == tau.size(), "dense_hh_ladder: out size mismatch");
  for (int a = 0; a < V; ++a)
    for (int b = 0; b < V; ++b)
      for (int i = 0; i < O; ++i)
        for (int j = 0; j < O; ++j) {
          double s = 0.0;
          for (int m = 0; m < O; ++m)
            for (int n = 0; n < O; ++n) {
              s += sys.v(m, n, i, j) * tau[ix.t2(a, b, m, n)];
            }
          out[ix.t2(a, b, i, j)] += 0.5 * s;
        }
}

double mp2_energy(const SpinOrbitalSystem& sys) {
  const int O = sys.n_occ(), V = sys.n_virt();
  double e = 0.0;
  for (int i = 0; i < O; ++i)
    for (int j = 0; j < O; ++j)
      for (int a = 0; a < V; ++a)
        for (int b = 0; b < V; ++b) {
          const double vij = sys.v(i, j, O + a, O + b);
          const double d =
              sys.f(i) + sys.f(j) - sys.f(O + a) - sys.f(O + b);
          e += 0.25 * vij * vij / d;
        }
  return e;
}

CcsdResult run_ccsd(const SpinOrbitalSystem& sys, const CcsdOptions& opts) {
  sys.check_integrals();
  const int O = sys.n_occ(), V = sys.n_virt();
  MP_REQUIRE(O >= 1 && V >= 1, "run_ccsd: need occupied and virtual orbitals");
  Work w{&sys, Idx{O, V}, O, V};
  const Idx& ix = w.ix;

  const size_t n1 = static_cast<size_t>(V) * O;
  const size_t n2 = static_cast<size_t>(V) * V * O * O;

  // MP2 initial guess.
  std::vector<double> t1(n1, 0.0), t2(n2, 0.0);
  for (int a = 0; a < V; ++a)
    for (int b = 0; b < V; ++b)
      for (int i = 0; i < O; ++i)
        for (int j = 0; j < O; ++j) {
          const double d = sys.f(i) + sys.f(j) - sys.f(O + a) - sys.f(O + b);
          t2[ix.t2(a, b, i, j)] = sys.v(i, j, O + a, O + b) / d;
        }

  CcsdResult res;
  res.e_mp2 = correlation_energy(w, t1, t2);
  double e_prev = res.e_mp2;

  Diis diis(opts.diis_dim);
  std::vector<double> Fae(static_cast<size_t>(V) * V);
  std::vector<double> Fmi(static_cast<size_t>(O) * O);
  std::vector<double> Fme(static_cast<size_t>(O) * V);
  std::vector<double> Wmnij(static_cast<size_t>(O) * O * O * O);
  std::vector<double> Wmbej(static_cast<size_t>(O) * V * V * O);
  std::vector<double> tau(n2), taut(n2);
  std::vector<double> t1n(n1), t2n(n2), ladder(n2);
  std::vector<double> wrest(static_cast<size_t>(V) * V * V * V);

  for (int iter = 1; iter <= opts.max_iter; ++iter) {
    // tau and tau-tilde.
    for (int a = 0; a < V; ++a)
      for (int b = 0; b < V; ++b)
        for (int i = 0; i < O; ++i)
          for (int j = 0; j < O; ++j) {
            const double tt = t1[ix.t1(a, i)] * t1[ix.t1(b, j)] -
                              t1[ix.t1(b, i)] * t1[ix.t1(a, j)];
            tau[ix.t2(a, b, i, j)] = t2[ix.t2(a, b, i, j)] + tt;
            taut[ix.t2(a, b, i, j)] = t2[ix.t2(a, b, i, j)] + 0.5 * tt;
          }

    // --- one-particle intermediates (canonical basis: f offdiag = 0) ---
    for (int a = 0; a < V; ++a)
      for (int e = 0; e < V; ++e) {
        double s = 0.0;
        for (int m = 0; m < O; ++m)
          for (int f = 0; f < V; ++f) {
            s += t1[ix.t1(f, m)] * sys.v(m, O + a, O + f, O + e);
          }
        for (int m = 0; m < O; ++m)
          for (int n = 0; n < O; ++n)
            for (int f = 0; f < V; ++f) {
              s -= 0.5 * taut[ix.t2(a, f, m, n)] * w.v_oovv(m, n, e, f);
            }
        Fae[ix.vv(a, e)] = s;
      }

    for (int m = 0; m < O; ++m)
      for (int i = 0; i < O; ++i) {
        double s = 0.0;
        for (int e = 0; e < V; ++e)
          for (int n = 0; n < O; ++n) {
            s += t1[ix.t1(e, n)] * sys.v(m, n, i, O + e);
          }
        for (int n = 0; n < O; ++n)
          for (int e = 0; e < V; ++e)
            for (int f = 0; f < V; ++f) {
              s += 0.5 * taut[ix.t2(e, f, i, n)] * w.v_oovv(m, n, e, f);
            }
        Fmi[ix.oo(m, i)] = s;
      }

    for (int m = 0; m < O; ++m)
      for (int e = 0; e < V; ++e) {
        double s = 0.0;
        for (int n = 0; n < O; ++n)
          for (int f = 0; f < V; ++f) {
            s += t1[ix.t1(f, n)] * w.v_oovv(m, n, e, f);
          }
        Fme[ix.ov(m, e)] = s;
      }

    // --- two-particle intermediates ---
    // Wmnij minus its bare-integral part <mn||ij>: that part is the
    // hole-hole ladder, computed through the (possibly distributed) kernel
    // below just like the particle-particle one.
    for (int m = 0; m < O; ++m)
      for (int n = 0; n < O; ++n)
        for (int i = 0; i < O; ++i)
          for (int j = 0; j < O; ++j) {
            double s = 0.0;
            for (int e = 0; e < V; ++e) {
              s += t1[ix.t1(e, j)] * sys.v(m, n, i, O + e) -
                   t1[ix.t1(e, i)] * sys.v(m, n, j, O + e);
            }
            for (int e = 0; e < V; ++e)
              for (int f = 0; f < V; ++f) {
                s += 0.25 * tau[ix.t2(e, f, i, j)] * w.v_oovv(m, n, e, f);
              }
            Wmnij[ix.oooo(m, n, i, j)] = s;
          }

    for (int m = 0; m < O; ++m)
      for (int b = 0; b < V; ++b)
        for (int e = 0; e < V; ++e)
          for (int j = 0; j < O; ++j) {
            double s = sys.v(m, O + b, O + e, j);
            for (int f = 0; f < V; ++f) {
              s += t1[ix.t1(f, j)] * sys.v(m, O + b, O + e, O + f);
            }
            for (int n = 0; n < O; ++n) {
              s -= t1[ix.t1(b, n)] * sys.v(m, n, O + e, j);
            }
            for (int n = 0; n < O; ++n)
              for (int f = 0; f < V; ++f) {
                s -= (0.5 * t2[ix.t2(f, b, j, n)] +
                      t1[ix.t1(f, j)] * t1[ix.t1(b, n)]) *
                     w.v_oovv(m, n, e, f);
              }
            Wmbej[ix.ovvo(m, b, e, j)] = s;
          }

    // --- T1 equations (skipped in CCD mode: t1 stays zero) ---
    if (opts.ccd_only) {
      std::fill(t1n.begin(), t1n.end(), 0.0);
    } else
    for (int a = 0; a < V; ++a)
      for (int i = 0; i < O; ++i) {
        double s = 0.0;
        for (int e = 0; e < V; ++e) s += t1[ix.t1(e, i)] * Fae[ix.vv(a, e)];
        for (int m = 0; m < O; ++m) s -= t1[ix.t1(a, m)] * Fmi[ix.oo(m, i)];
        for (int m = 0; m < O; ++m)
          for (int e = 0; e < V; ++e) {
            s += t2[ix.t2(a, e, i, m)] * Fme[ix.ov(m, e)];
          }
        for (int n = 0; n < O; ++n)
          for (int f = 0; f < V; ++f) {
            s -= t1[ix.t1(f, n)] * sys.v(n, O + a, i, O + f);
          }
        for (int m = 0; m < O; ++m)
          for (int e = 0; e < V; ++e)
            for (int f = 0; f < V; ++f) {
              s -= 0.5 * t2[ix.t2(e, f, i, m)] *
                   sys.v(m, O + a, O + e, O + f);
            }
        for (int m = 0; m < O; ++m)
          for (int n = 0; n < O; ++n)
            for (int e = 0; e < V; ++e) {
              s -= 0.5 * t2[ix.t2(a, e, m, n)] * sys.v(n, m, O + e, i);
            }
        t1n[ix.t1(a, i)] = s / (sys.f(i) - sys.f(O + a));
      }

    // --- T2 equations ---
    // The two pure-integral ladder terms (pp = icsd_t2_7, hh = Wmnij's
    // bare part) go through the (possibly distributed) kernels; everything
    // else is evaluated densely here.
    std::fill(ladder.begin(), ladder.end(), 0.0);
    if (opts.combined_ladders) {
      opts.combined_ladders(tau, ladder);
    } else {
      if (opts.ladder) {
        opts.ladder(tau, ladder);
      } else {
        dense_ladder(sys, tau, ladder);
      }
      if (opts.hh_ladder) {
        opts.hh_ladder(tau, ladder);
      } else {
        dense_hh_ladder(sys, tau, ladder);
      }
    }

    // Wabef - <ab||ef> depends on (a, b, e, f) only: evaluate it once per
    // iteration, not once per (i, j). Same operation order as inline, so
    // the amplitudes stay bit-identical.
    for (int a = 0; a < V; ++a)
      for (int b = 0; b < V; ++b)
        for (int e = 0; e < V; ++e)
          for (int f = 0; f < V; ++f) {
            double r = 0.0;
            for (int m = 0; m < O; ++m) {
              r -= t1[ix.t1(b, m)] * sys.v(O + a, m, O + e, O + f) -
                   t1[ix.t1(a, m)] * sys.v(O + b, m, O + e, O + f);
            }
            for (int m = 0; m < O; ++m)
              for (int n = 0; n < O; ++n) {
                r += 0.25 * tau[ix.t2(a, b, m, n)] * w.v_oovv(m, n, e, f);
              }
            wrest[((static_cast<size_t>(a) * V + b) * V + e) * V + f] = r;
          }

    for (int a = 0; a < V; ++a)
      for (int b = 0; b < V; ++b)
        for (int i = 0; i < O; ++i)
          for (int j = 0; j < O; ++j) {
            double s = sys.v(i, j, O + a, O + b);

            // P(ab) sum_e t2(ae,ij) * [Fae(b,e) - 1/2 sum_m t1(b,m)Fme(m,e)]
            for (int e = 0; e < V; ++e) {
              double xbe = Fae[ix.vv(b, e)];
              double xae = Fae[ix.vv(a, e)];
              for (int m = 0; m < O; ++m) {
                xbe -= 0.5 * t1[ix.t1(b, m)] * Fme[ix.ov(m, e)];
                xae -= 0.5 * t1[ix.t1(a, m)] * Fme[ix.ov(m, e)];
              }
              s += t2[ix.t2(a, e, i, j)] * xbe - t2[ix.t2(b, e, i, j)] * xae;
            }

            // -P(ij) sum_m t2(ab,im) * [Fmi(m,j) + 1/2 sum_e t1(e,j)Fme(m,e)]
            for (int m = 0; m < O; ++m) {
              double ymj = Fmi[ix.oo(m, j)];
              double ymi = Fmi[ix.oo(m, i)];
              for (int e = 0; e < V; ++e) {
                ymj += 0.5 * t1[ix.t1(e, j)] * Fme[ix.ov(m, e)];
                ymi += 0.5 * t1[ix.t1(e, i)] * Fme[ix.ov(m, e)];
              }
              s -= t2[ix.t2(a, b, i, m)] * ymj - t2[ix.t2(a, b, j, m)] * ymi;
            }

            // 1/2 sum_mn tau(ab,mn) Wmnij
            for (int m = 0; m < O; ++m)
              for (int n = 0; n < O; ++n) {
                s += 0.5 * tau[ix.t2(a, b, m, n)] * Wmnij[ix.oooo(m, n, i, j)];
              }

            // 1/2 sum_ef tau(ef,ij) * (Wabef - <ab||ef>): the <ab||ef> part
            // is `ladder`, added below.
            const double* wr = &wrest[(static_cast<size_t>(a) * V + b) * V * V];
            for (int e = 0; e < V; ++e)
              for (int f = 0; f < V; ++f) {
                s += 0.5 * tau[ix.t2(e, f, i, j)] * wr[e * V + f];
              }

            // P(ij)P(ab) sum_me [ t2(ae,im) Wmbej - t1(e,i)t1(a,m)<mb||ej> ]
            for (int m = 0; m < O; ++m)
              for (int e = 0; e < V; ++e) {
                s += t2[ix.t2(a, e, i, m)] * Wmbej[ix.ovvo(m, b, e, j)] -
                     t1[ix.t1(e, i)] * t1[ix.t1(a, m)] *
                         sys.v(m, O + b, O + e, j);
                s -= t2[ix.t2(b, e, i, m)] * Wmbej[ix.ovvo(m, a, e, j)] -
                     t1[ix.t1(e, i)] * t1[ix.t1(b, m)] *
                         sys.v(m, O + a, O + e, j);
                s -= t2[ix.t2(a, e, j, m)] * Wmbej[ix.ovvo(m, b, e, i)] -
                     t1[ix.t1(e, j)] * t1[ix.t1(a, m)] *
                         sys.v(m, O + b, O + e, i);
                s += t2[ix.t2(b, e, j, m)] * Wmbej[ix.ovvo(m, a, e, i)] -
                     t1[ix.t1(e, j)] * t1[ix.t1(b, m)] *
                         sys.v(m, O + a, O + e, i);
              }

            // P(ij) sum_e t1(e,i) <ab||ej>
            for (int e = 0; e < V; ++e) {
              s += t1[ix.t1(e, i)] * sys.v(O + a, O + b, O + e, j) -
                   t1[ix.t1(e, j)] * sys.v(O + a, O + b, O + e, i);
            }
            // -P(ab) sum_m t1(a,m) <mb||ij>
            for (int m = 0; m < O; ++m) {
              s -= t1[ix.t1(a, m)] * sys.v(m, O + b, i, j) -
                   t1[ix.t1(b, m)] * sys.v(m, O + a, i, j);
            }

            s += ladder[ix.t2(a, b, i, j)];

            const double d =
                sys.f(i) + sys.f(j) - sys.f(O + a) - sys.f(O + b);
            t2n[ix.t2(a, b, i, j)] = s / d;
          }

    // --- convergence & DIIS ---
    const double rms =
        amplitude_rms(t1, t1n) + amplitude_rms(t2, t2n);

    if (opts.use_diis) {
      std::vector<double> amps(n1 + n2), err(n1 + n2);
      for (size_t k = 0; k < n1; ++k) {
        amps[k] = t1n[k];
        err[k] = t1n[k] - t1[k];
      }
      for (size_t k = 0; k < n2; ++k) {
        amps[n1 + k] = t2n[k];
        err[n1 + k] = t2n[k] - t2[k];
      }
      diis.push(std::move(amps), std::move(err));
      const auto ex = diis.extrapolate();
      for (size_t k = 0; k < n1; ++k) t1[k] = ex[k];
      for (size_t k = 0; k < n2; ++k) t2[k] = ex[n1 + k];
    } else {
      t1 = t1n;
      t2 = t2n;
    }

    const double e = correlation_energy(w, t1, t2);
    res.iteration_energies.push_back(e);
    res.iterations = iter;
    if (std::fabs(e - e_prev) < opts.tol && rms < opts.tol * 100) {
      res.converged = true;
      res.e_corr = e;
      break;
    }
    e_prev = e;
    res.e_corr = e;
  }

  res.t1 = std::move(t1);
  res.t2 = std::move(t2);
  return res;
}

}  // namespace mp::cc
