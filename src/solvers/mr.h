#pragma once
/// \file mr.h
/// \brief Minimum-residual iteration, including the *block-local* variant
/// driving the additive Schwarz preconditioner: with a Dirichlet-cut
/// operator the blocks are decoupled, each block minimizes its own residual
/// with its own alpha, and no cross-block (i.e. cross-GPU) reduction is
/// needed (§8.1).

#include <functional>
#include <vector>

#include "dirac/operator.h"
#include "fields/blas.h"
#include "obs/trace.h"
#include "solvers/solver_stats.h"

namespace lqcd {

struct MrParams {
  int steps = 10;       ///< fixed step count (paper: 10 for preconditioning)
  double omega = 1.0;   ///< over/under-relaxation of the update
};

/// Runs \p steps MR iterations on A x = b with x's initial content as the
/// guess.  When \p mask is non-null, alpha is computed per Schwarz block
/// (valid only if A does not couple blocks).  \p low_store, when set,
/// emulates reduced storage precision on the iteration vectors.
template <typename Field>
SolverStats mr_solve(const LinearOperator<Field>& a, Field& x, const Field& b,
                     const MrParams& params, const BlockMask* mask = nullptr,
                     const std::function<void(Field&)>& low_store = nullptr) {
  SolverStats stats;
  Field r(a.geometry());
  Field ar(a.geometry());
  a.apply(r, x);
  ++stats.matvecs;
  scale(-1.0, r);
  axpy(1.0, b, r);
  if (low_store) low_store(r);

  for (int k = 0; k < params.steps; ++k) {
    {
      ScopedSpan op_span("mr.op");
      a.apply(ar, r);
    }
    ++stats.matvecs;
    if (mask != nullptr) {
      // Fused one-pass kernels: the alpha reduction (block_dot +
      // block_norm2) and the x/r update pair (two masked caxpys), bitwise
      // identical to the unfused sequence (see blas.h).
      const auto [num, den] = block_dot_norm2(ar, r, *mask);
      std::vector<std::complex<double>> alpha(num.size());
      for (std::size_t i = 0; i < num.size(); ++i) {
        alpha[i] = den[i] > 0 ? params.omega * num[i] / den[i]
                              : std::complex<double>{};
      }
      block_mr_update(alpha, r, ar, x, *mask);
    } else {
      const double den = norm2(ar);
      if (den == 0) break;
      const std::complex<double> alpha = params.omega * dot(ar, r) / den;
      caxpy(alpha, r, x);
      caxpy(-alpha, ar, r);
    }
    if (low_store) {
      low_store(x);
      low_store(r);
    }
    ++stats.iterations;
  }
  stats.final_residual = std::sqrt(norm2(r));
  return stats;
}

}  // namespace lqcd
