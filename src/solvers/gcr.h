#pragma once
/// \file gcr.h
/// \brief Flexible generalized conjugate residual, implementing the paper's
/// Algorithm 1 (mixed-precision GCR-DD) faithfully:
///
///  * flexible: the preconditioner K may change between iterations (an
///    inexact iterative solve), so the full Krylov basis is stored and
///    explicitly orthogonalized;
///  * restarts: when the basis reaches kmax, the solution contribution is
///    recovered by the *implicit update* — back-substitution of the
///    triangular system gamma_l chi_l + sum_{i>l} beta_{l,i} chi_i =
///    alpha_l — which avoids an extra stored vector per step (following
///    Luscher, ref. [20] of the paper);
///  * the delta test: if the in-basis residual has already dropped by more
///    than delta relative to the cycle's starting residual, restart early —
///    protecting the half-precision iterated residual from drifting away
///    from the true residual;
///  * precision split: the Krylov basis and preconditioner run in storage
///    precision emulated by the low_store hook (half in the paper's
///    production config), while every restart recomputes the true residual
///    in the field's working precision;
///  * fault recovery: a ghost exchange that needed repair (a comm retry
///    metered as `comm.retries` by comm/exchange.h) marks the iterate
///    unreliable — the repaired payload is bitwise correct, but the fault
///    indicates the fabric misbehaved, so the solver rolls back to the last
///    reliable update by forcing an immediate restart, which recomputes the
///    true residual in working precision.  Rollbacks are counted in
///    SolverStats::rollbacks and metered as `solver.rollbacks`.  The hook
///    observes the metrics registry rather than the fault library, so
///    fault-free solves pay two relaxed counter loads per iteration.

#include <cmath>
#include <complex>
#include <functional>
#include <vector>

#include "dirac/operator.h"
#include "fields/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solvers/solver_stats.h"
#include "util/log.h"

namespace lqcd {

struct GcrParams {
  double tol = 1e-5;   ///< relative residual target
  int kmax = 16;       ///< maximum Krylov basis size between restarts
  /// Early-restart threshold on the in-cycle residual drop.  The default
  /// here (0.1) is the conservative general-purpose setting for a solver
  /// whose Krylov precision is unknown; it intentionally differs from
  /// GcrDdParams::delta = 0.25 (core/gcr_dd.h), which is tuned for the
  /// paper's §8.1 single-half-half configuration where the half-precision
  /// Krylov space drifts faster and restarting on a mere 4x drop keeps the
  /// iterated residual honest without discarding useful basis vectors.
  double delta = 0.1;
  int max_iter = 2000; ///< total Krylov steps across restarts
  int max_restarts = 500;
  /// Use the fused BLAS kernels (fields/blas.h): the orthogonalization and
  /// residual update of an iteration at basis size k run in 4 lattice
  /// sweeps (block_cdot + block_caxpy_norm2 + scale_cdot + caxpy_norm2)
  /// instead of the 2k+5 of one-op-per-pass code.  Both settings execute
  /// classical Gram-Schmidt with identical per-site operation order and the
  /// fixed reduction grid, so residual histories and iterates are BITWISE
  /// identical either way (asserted in tests) — this switch only changes
  /// how many times memory is traversed.
  bool fused = true;
};

/// Solves A x = b with right-preconditioned flexible GCR.  \p precond may
/// be null (plain GCR).  \p low_store, when set, emulates reduced storage
/// precision on the Krylov vectors (Algorithm 1's hatted quantities).
template <typename Field>
SolverStats gcr_solve(const LinearOperator<Field>& a, Field& x, const Field& b,
                      const LinearOperator<Field>* precond,
                      const GcrParams& params,
                      const std::function<void(Field&)>& low_store = nullptr) {
  SolverStats stats;
  ScopedSpan solve_span("gcr.solve");
  metric_counter("solver.gcr.solves").add();
  const double b2 = norm2(b);
  if (b2 == 0) {
    set_zero(x);
    stats.converged = true;
    return stats;
  }
  const double target = params.tol * std::sqrt(b2);

  const LatticeGeometry& geom = a.geometry();
  Field r(geom);     // high-precision residual r0 of Algorithm 1
  Field rhat(geom);  // iterated (storage-precision) residual
  Field tmp(geom);

  // Krylov storage: preconditioned directions p_hat and images z_hat.
  std::vector<Field> p;
  std::vector<Field> z;
  p.reserve(static_cast<std::size_t>(params.kmax));
  z.reserve(static_cast<std::size_t>(params.kmax));
  std::vector<std::vector<std::complex<double>>> beta(
      static_cast<std::size_t>(params.kmax));
  std::vector<double> gamma(static_cast<std::size_t>(params.kmax));
  std::vector<std::complex<double>> alpha(
      static_cast<std::size_t>(params.kmax));

  int k = 0;
  // r = b - A x (one fused sweep instead of copy + axpy + norm2).
  a.apply(tmp, x);
  ++stats.matvecs;
  double rnorm = std::sqrt(xmy_norm2(b, tmp, r));
  copy(rhat, r);
  if (low_store) low_store(rhat);
  double cycle_start_norm = rnorm;

  // Fault-recovery baseline: repairs during the initial residual
  // computation need no rollback (r is already the true residual).
  static Counter& comm_retries = metric_counter("comm.retries");
  static Counter& rollback_meter = metric_counter("solver.rollbacks");
  // Sweep accounting: `solver.gcr.iter_sweeps` accumulates the blas.sweeps
  // delta of each iteration's orthogonalization + update phase (matvec and
  // preconditioner excluded), so iter_sweeps / iterations is the measured
  // per-iteration pass count the fusion work targets (<= 4 when fused).
  static Counter& sweep_meter = metric_counter("blas.sweeps");
  static Counter& iter_sweep_meter = metric_counter("solver.gcr.iter_sweeps");
  std::uint64_t repairs_seen = comm_retries.value();

  auto restart = [&](bool final_update) {
    ScopedSpan span("gcr.restart");
    // Implicit solution update: back-substitute for chi, then
    // x += sum chi_l p_l.
    for (int l = k - 1; l >= 0; --l) {
      std::complex<double> chi = alpha[static_cast<std::size_t>(l)];
      for (int i = l + 1; i < k; ++i) {
        chi -= beta[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)] *
               alpha[static_cast<std::size_t>(i)];
      }
      // Reuse alpha[l] to hold chi_l (classic in-place back substitution).
      alpha[static_cast<std::size_t>(l)] =
          chi / gamma[static_cast<std::size_t>(l)];
    }
    if (params.fused && k > 0) {
      // One sweep for the whole x update (terms added in l order, bitwise
      // equal to k successive caxpy calls).
      std::vector<const Field*> pp;
      pp.reserve(static_cast<std::size_t>(k));
      for (int l = 0; l < k; ++l) pp.push_back(&p[static_cast<std::size_t>(l)]);
      block_caxpy(
          std::vector<std::complex<double>>(alpha.begin(), alpha.begin() + k),
          pp, x);
    } else {
      for (int l = 0; l < k; ++l) {
        caxpy(alpha[static_cast<std::size_t>(l)],
              p[static_cast<std::size_t>(l)], x);
      }
    }
    k = 0;
    p.clear();
    z.clear();
    if (!final_update) {
      // High-precision restart: recompute the true residual.
      a.apply(tmp, x);
      ++stats.matvecs;
      rnorm = std::sqrt(xmy_norm2(b, tmp, r));
      copy(rhat, r);
      if (low_store) low_store(rhat);
      cycle_start_norm = rnorm;
      ++stats.restarts;
    }
  };

  while (rnorm > target && stats.iterations < params.max_iter &&
         stats.restarts < params.max_restarts) {
    ScopedSpan iter_span("gcr.iter");
    // p_k = K rhat_k ; z_k = A p_k.
    p.emplace_back(geom);
    z.emplace_back(geom);
    Field& pk = p.back();
    Field& zk = z.back();
    if (precond != nullptr) {
      precond->apply(pk, rhat);
    } else {
      copy(pk, rhat);
    }
    if (low_store) low_store(pk);
    a.apply(zk, pk);
    ++stats.matvecs;
    if (low_store) low_store(zk);

    // Orthogonalize z_k against the basis — classical Gram-Schmidt: every
    // projection is taken against the *incoming* z_k, which is what lets a
    // single fused pass (block_cdot) produce all k coefficients at once.
    // The fused and unfused paths perform the same per-site arithmetic in
    // the same order on the same reduction grid: bitwise identical.
    // Sweeps from here to the end of the iteration are metered; the fused
    // path costs 4 (3 on the first iteration of a cycle, where k == 0 and
    // block_cdot is free), the unfused path 2k+5.
    const std::uint64_t iter_sweeps0 = sweep_meter.value();
    auto& beta_k = beta[static_cast<std::size_t>(k)];
    beta_k.assign(static_cast<std::size_t>(params.kmax), {});
    std::vector<const Field*> zp;
    zp.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) zp.push_back(&z[static_cast<std::size_t>(i)]);
    std::vector<std::complex<double>> bik(static_cast<std::size_t>(k));
    if (params.fused) {
      bik = block_cdot(zp, zk);
    } else {
      for (int i = 0; i < k; ++i) {
        bik[static_cast<std::size_t>(i)] =
            dot(z[static_cast<std::size_t>(i)], zk);
      }
    }
    std::vector<std::complex<double>> mbik(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      // Store beta_{i,k} at row i of column k: beta[i][k].
      beta[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)] =
          bik[static_cast<std::size_t>(i)];
      mbik[static_cast<std::size_t>(i)] = -bik[static_cast<std::size_t>(i)];
    }
    double gk2;
    if (params.fused) {
      gk2 = block_caxpy_norm2(mbik, zp, zk);
    } else {
      for (int i = 0; i < k; ++i) {
        caxpy(mbik[static_cast<std::size_t>(i)],
              z[static_cast<std::size_t>(i)], zk);
      }
      gk2 = norm2(zk);
    }
    const double gk = std::sqrt(gk2);
    if (gk == 0) {
      // Exact breakdown: the preconditioned direction added nothing.
      p.pop_back();
      z.pop_back();
      restart(false);
      continue;
    }
    gamma[static_cast<std::size_t>(k)] = gk;
    // Normalize and project onto rhat in one pass.  alpha is computed from
    // the full-precision z_k; low_store truncation applies before the
    // residual update, so the stored basis and the update coefficient stay
    // mutually consistent in both paths.
    std::complex<double> ak;
    if (params.fused) {
      ak = scale_cdot(1.0 / gk, zk, rhat);
    } else {
      scale(1.0 / gk, zk);
      ak = dot(zk, rhat);
    }
    if (low_store) low_store(zk);
    alpha[static_cast<std::size_t>(k)] = ak;
    double rhat_norm2;
    if (params.fused) {
      rhat_norm2 = caxpy_norm2(-ak, zk, rhat);
    } else {
      caxpy(-ak, zk, rhat);
      rhat_norm2 = norm2(rhat);
    }
    if (low_store) low_store(rhat);
    ++k;
    ++stats.iterations;
    iter_sweep_meter.add(sweep_meter.value() - iter_sweeps0);

    const double rhat_norm = std::sqrt(rhat_norm2);
    stats.residual_history.push_back(rhat_norm);
    if (log_enabled(LogLevel::Debug)) {
      log_debug("gcr: iter " + std::to_string(stats.iterations) +
                " |rhat| = " + std::to_string(rhat_norm));
    }
    // Fault-recovery hook: a ghost exchange repaired a fault during this
    // iteration, so roll back to the last reliable update — the restart
    // recomputes the true residual in working precision and starts a fresh
    // cycle from it.
    if (comm_retries.value() != repairs_seen) {
      repairs_seen = comm_retries.value();
      ++stats.rollbacks;
      stats.rollback_iterations.push_back(stats.iterations);
      rollback_meter.add();
      restart(false);
      continue;
    }
    // A cycle that ends because the iterated residual met the target exits
    // the loop with the implicit update only: the post-loop final-residual
    // computation is the authoritative convergence check, so running a
    // full restart here would burn one duplicated matvec on a residual the
    // epilogue recomputes anyway, and would count a restart that never
    // starts a new cycle (eating into max_restarts).
    if (rhat_norm < target) break;
    if (k == params.kmax || rhat_norm < params.delta * cycle_start_norm) {
      restart(false);
    }
  }

  if (k > 0) restart(true);
  // Final true residual (one fused sweep).
  a.apply(tmp, x);
  ++stats.matvecs;
  Field rf(geom);
  stats.final_residual = std::sqrt(xmy_norm2(b, tmp, rf) / b2);
  stats.converged = stats.final_residual <= params.tol;
  metric_counter("solver.gcr.iterations")
      .add(static_cast<std::uint64_t>(stats.iterations));
  metric_counter("solver.gcr.matvecs")
      .add(static_cast<std::uint64_t>(stats.matvecs));
  metric_counter("solver.gcr.restarts")
      .add(static_cast<std::uint64_t>(stats.restarts));
  return stats;
}

/// Convenience overload for unpreconditioned GCR (lets callers pass a
/// literal nullptr without naming the operator type).
template <typename Field>
SolverStats gcr_solve(const LinearOperator<Field>& a, Field& x, const Field& b,
                      std::nullptr_t, const GcrParams& params,
                      const std::function<void(Field&)>& low_store = nullptr) {
  return gcr_solve(a, x, b,
                   static_cast<const LinearOperator<Field>*>(nullptr), params,
                   low_store);
}

}  // namespace lqcd
