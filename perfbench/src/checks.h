#pragma once
/// \file checks.h
/// \brief Correctness gates of the benchmark.  Each recomputes what a solver
/// claims through an operator path that solver never runs, against a bound
/// that follows from the method.  tests/test_perfbench.cpp feeds each gate
/// a perturbed solution and requires it to fail.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "dirac/dense_reference.h"
#include "dirac/staggered.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "fields/clover.h"

namespace perfbench {

struct CheckResult {
  bool ok = false;
  double value = 0;  ///< the measured quantity (residual, difference...)
  double bound = 0;  ///< what it had to stay within
};

// ----------------------------------------------------------------------------
// Wilson-clover (GCR-DD, direct or served)
// ----------------------------------------------------------------------------

/// ||b - M x|| / ||b|| in double with the unpartitioned full-lattice
/// operator M = (4 + m + A) - D/2.  GCR-DD runs only single-precision Schur
/// operators (partitioned or Dirichlet-cut), never this one.
inline double wilson_full_residual(
    const lqcd::WilsonCloverOperator<double>& m,
    const lqcd::WilsonField<double>& x, const lqcd::WilsonField<double>& b) {
  lqcd::WilsonField<double> r(b.geometry());
  m.apply(r, x);
  lqcd::axpy(-1.0, b, r);
  return std::sqrt(lqcd::norm2(r) / lqcd::norm2(b));
}

/// ||b_hat|| / ||b|| for the Schur source b_hat_e = b_e + (1/2) D_eo
/// A_oo^-1 b_o, evaluated as b_e - (M z)_e with z = (0, A_oo^-1 b_o)
/// through the full operator (so no Schur operator is involved).
inline double wilson_schur_source_ratio(
    const lqcd::WilsonCloverOperator<double>& m,
    const lqcd::CloverField<double>* clover, double mass,
    const lqcd::WilsonField<double>& b) {
  const lqcd::LatticeGeometry& g = b.geometry();
  lqcd::WilsonField<double> z(g);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    lqcd::CloverSite<double> cs =
        clover != nullptr ? clover->at(s) : lqcd::CloverSite<double>{};
    cs = lqcd::clover_add_diagonal(cs, 4.0 + mass);
    z.at(s) = lqcd::clover_apply(lqcd::clover_invert(cs), b.at(s));
  }
  lqcd::WilsonField<double> mz(g);
  m.apply(mz, z);
  double bhat2 = 0;
  for (std::int64_t s = 0; s < g.half_volume(); ++s) {
    lqcd::WilsonSpinor<double> v = b.at(s);
    v -= mz.at(s);
    bhat2 += lqcd::norm2(v);
  }
  return std::sqrt(bhat2 / lqcd::norm2(b));
}

/// Bound on the full double residual of a GCR-DD solution.  The solver
/// stops when its single-precision Schur residual satisfies
/// ||b_hat - M_hat x_e|| <= tol ||b_hat||; in exact arithmetic the full
/// residual is that Schur residual on the even sites and zero on the odd
/// ones (x_o is reconstructed exactly).  What remains is the rounding of
/// the single-precision evaluation and of the reconstruction, a few units
/// of eps_single in ||M|| ||x|| with ||M|| <= 4 + |m| + ||A|| + 4
/// (8 hops of unit links, halved).
inline double wilson_residual_bound(double tol, double bhat_over_b,
                                    double x_over_b, double mass,
                                    double clover_norm) {
  const double eps_f = std::numeric_limits<float>::epsilon();
  const double m_norm = 8.0 + std::abs(mass) + clover_norm;
  return tol * bhat_over_b + 4.0 * eps_f * (m_norm * x_over_b + 1.0);
}

/// Largest Frobenius norm of a clover site block (the ||A|| of the bound).
inline double clover_max_norm(const lqcd::CloverField<double>* clover) {
  if (clover == nullptr) return 0.0;
  double worst = 0;
  lqcd::WilsonSpinor<double> e{};
  for (const auto& cs : clover->sites()) {
    // ||A||_2 <= ||A||_F: sum |A e_i|^2 over the 12 unit spinors.
    double f2 = 0;
    for (int i = 0; i < 12; ++i) {
      e = lqcd::WilsonSpinor<double>{};
      e[i / 3][i % 3] = 1.0;
      f2 += lqcd::norm2(lqcd::clover_apply(cs, e));
    }
    worst = std::max(worst, std::sqrt(f2));
  }
  return worst;
}

/// The Wilson gate: the full double residual within the bound above.
inline CheckResult check_wilson_solution(
    const lqcd::WilsonCloverOperator<double>& m,
    const lqcd::CloverField<double>* clover, double mass, double clover_norm,
    double tol, const lqcd::WilsonField<double>& x,
    const lqcd::WilsonField<double>& b) {
  CheckResult c;
  c.value = wilson_full_residual(m, x, b);
  const double x_over_b = std::sqrt(lqcd::norm2(x) / lqcd::norm2(b));
  c.bound = wilson_residual_bound(
      tol, wilson_schur_source_ratio(m, clover, mass, b), x_over_b, mass,
      clover_norm);
  c.ok = std::isfinite(c.value) && c.value <= c.bound;
  return c;
}

/// Cross-check of the operator the Wilson gate trusts: the stencil operator
/// against the dense matrix built from the defining formula
/// (dirac/dense_reference.h) on a lattice small enough to assemble.
inline CheckResult check_wilson_operator_dense(
    const lqcd::WilsonCloverOperator<double>& m,
    const lqcd::GaugeField<double>& u, const lqcd::CloverField<double>* clover,
    double mass, const lqcd::WilsonField<double>& in) {
  lqcd::WilsonField<double> out(in.geometry());
  m.apply(out, in);
  const auto dense = lqcd::dense_wilson_clover(u, clover, mass);
  lqcd::WilsonField<double> expect(in.geometry());
  lqcd::unflatten(dense.multiply(lqcd::flatten(in)), expect);
  lqcd::axpy(-1.0, expect, out);
  CheckResult c;
  c.value = std::sqrt(lqcd::norm2(out) / lqcd::norm2(expect));
  c.bound = 1e-12;  // a few hundred double roundings on O(1) entries
  c.ok = std::isfinite(c.value) && c.value <= c.bound;
  return c;
}

/// Bitwise equality of two fields (served vs single-RHS solution).
template <typename Site>
bool bitwise_equal(const lqcd::LatticeField<Site>& a,
                   const lqcd::LatticeField<Site>& b) {
  const auto sa = a.sites();
  const auto sb = b.sites();
  return sa.size() == sb.size() &&
         std::memcmp(sa.data(), sb.data(), sa.size_bytes()) == 0;
}

// ----------------------------------------------------------------------------
// Asqtad multi-shift
// ----------------------------------------------------------------------------

/// ||b - (M^dag M + sigma) x||_even / ||b|| through the *full* staggered
/// operator M = m + D/2 (both parities, no parity-restricted hop): the
/// refinement stage runs only the even-even Schur operator.  With D
/// anti-Hermitian, M^dag y = 2 m y - M y; for x on the even sites the even
/// part of M^dag M x is (m^2 - D_eo D_oe / 4) x_e, the Schur operator.
inline double staggered_shift_residual(
    const lqcd::StaggeredOperator<double>& m, double sigma,
    const lqcd::StaggeredField<double>& x,
    const lqcd::StaggeredField<double>& b) {
  const lqcd::LatticeGeometry& g = b.geometry();
  lqcd::StaggeredField<double> y(g);
  lqcd::StaggeredField<double> my(g);
  m.apply(y, x);
  m.apply(my, y);
  double r2 = 0;
  for (std::int64_t s = 0; s < g.half_volume(); ++s) {
    lqcd::ColorVector<double> v = y.at(s);
    v *= 2.0 * m.mass();
    v -= my.at(s);
    lqcd::ColorVector<double> sx = x.at(s);
    sx *= sigma;
    v += sx;
    lqcd::ColorVector<double> r = b.at(s);
    r -= v;
    r2 += lqcd::norm2(r);
  }
  return std::sqrt(r2 / lqcd::norm2(b));
}

/// The asqtad gate: each refined shift within twice the refinement target.
/// The refinement stops on its own double residual <= tol_final; the two
/// operator paths differ only by double rounding (~1e-13 here), far inside
/// the slack.
inline CheckResult check_staggered_shift(
    const lqcd::StaggeredOperator<double>& m, double sigma, double tol_final,
    const lqcd::StaggeredField<double>& x,
    const lqcd::StaggeredField<double>& b) {
  CheckResult c;
  c.value = staggered_shift_residual(m, sigma, x, b);
  c.bound = 2.0 * tol_final;
  c.ok = std::isfinite(c.value) && c.value <= c.bound;
  return c;
}

/// For HPD A and b != 0, ||(A + sigma)^-1 b|| strictly decreases as sigma
/// grows.  \p shifts ascending, \p norms the matching solution norms.
inline bool norms_strictly_decreasing(const std::vector<double>& shifts,
                                      const std::vector<double>& norms) {
  if (shifts.size() != norms.size() || norms.empty()) return false;
  for (std::size_t i = 1; i < norms.size(); ++i) {
    if (!(shifts[i] > shifts[i - 1]) || !(norms[i] < norms[i - 1])) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
