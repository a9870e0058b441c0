#pragma once
/// \file block_schwarz.h
/// \brief Non-overlapping additive Schwarz (block-Jacobi) preconditioner
/// (§3.2, §8.1), applied to a batch of right-hand sides.
///
/// K r approximately solves A_D e = r where A_D is the Dirichlet-cut
/// operator (hopping terms crossing block boundaries dropped, blocks
/// matching the per-GPU subdomains).  Because A_D is block diagonal the
/// solve decouples: a fixed number of MR steps with block-local reductions
/// — no inter-block communication at all, which is the whole point.  The
/// paper evaluates the preconditioner exclusively in half precision; pass a
/// half round-trip as \p low_store to reproduce that.
///
/// Inside a GCR-DD iteration the preconditioner performs ~10 MR steps —
/// an order of magnitude more Dirichlet-cut operator applications than the
/// single outer matvec — so the MR steps advance every RHS in lockstep and
/// issue each cut-operator application as one multi-RHS batch (one
/// gauge-link load serves all RHS).  Per-RHS arithmetic does not depend on
/// the batch width: each step is mr_solve's masked step (one fused
/// block_dot_norm2 reduction, one block_mr_update pass), so K applied to
/// any RHS of any batch is bitwise equal to mr_solve(A_D, e, r, mr, &mask,
/// low_store) with e = 0 (asserted in tests/test_gcr_dd.cpp).  A single
/// RHS is a batch of width 1: the LinearOperator face below is that call,
/// for gcr_solve drivers.

#include <complex>
#include <functional>
#include <vector>

#include "dirac/multi_rhs.h"
#include "fields/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solvers/mr.h"

namespace lqcd {

/// Preconditioner interface for the block Krylov drivers: a batched apply
/// plus per-RHS inner-work reporting, so the outer solver attributes
/// preconditioner iterations to individual requests directly (the
/// per-solve stats isolation the serve queue relies on).
template <typename Field>
class BlockPreconditioner {
 public:
  virtual ~BlockPreconditioner() = default;

  /// outs[r] = K ins[r].  When \p inner_steps is non-null it is resized to
  /// the batch width and receives the inner iterations spent on each RHS.
  virtual void apply_multi(const std::vector<Field*>& outs,
                           const std::vector<const Field*>& ins,
                           std::vector<int>* inner_steps = nullptr) const = 0;

  virtual const LatticeGeometry& geometry() const = 0;
};

template <typename Field>
class SchwarzPreconditioner : public BlockPreconditioner<Field>,
                              public LinearOperator<Field> {
 public:
  /// \param dirichlet_op the block-decoupled (communications-off) operator,
  ///        batched (wrap a plain LinearOperator in PerRhsMultiOperator);
  /// \param mask the block decomposition it was cut along.
  SchwarzPreconditioner(const MultiRhsOperator<Field>& dirichlet_op,
                        const BlockMask& mask, MrParams mr,
                        std::function<void(Field&)> low_store = nullptr)
      : op_(&dirichlet_op), mask_(&mask), mr_(mr),
        low_store_(std::move(low_store)) {}

  void apply_multi(const std::vector<Field*>& outs,
                   const std::vector<const Field*>& ins,
                   std::vector<int>* inner_steps = nullptr) const override {
    ScopedSpan span("schwarz.apply");
    const std::size_t w = ins.size();
    const LatticeGeometry& g = op_->geometry();

    // Workspace fields persist across applies (the preconditioner runs once
    // per outer iteration, so reallocating 3w ~MB-scale fields each call
    // costs a measurable slice of the solve).  Every reused buffer is fully
    // overwritten before it is read — rhs by copy, r and ar by the batched
    // operator — so reuse cannot change any value.
    std::vector<Field>& rhs = ws_rhs_;
    std::vector<Field>& r = ws_r_;
    std::vector<Field>& ar = ws_ar_;
    while (rhs.size() < w) {
      rhs.emplace_back(g);
      r.emplace_back(g);
      ar.emplace_back(g);
    }
    for (std::size_t i = 0; i < w; ++i) {
      set_zero(*outs[i]);
      copy(rhs[i], *ins[i]);
      if (low_store_) low_store_(rhs[i]);
    }
    std::vector<Field*> r_ptr(w);
    std::vector<const Field*> r_cptr(w);
    std::vector<Field*> ar_ptr(w);
    std::vector<const Field*> x_cptr(w);
    for (std::size_t i = 0; i < w; ++i) {
      r_ptr[i] = &r[i];
      r_cptr[i] = &r[i];
      ar_ptr[i] = &ar[i];
      x_cptr[i] = outs[i];
    }

    // r = b - A x with x = 0, in mr_solve's exact operation order.
    op_->apply_multi(r_ptr, x_cptr);
    for (std::size_t i = 0; i < w; ++i) {
      scale(-1.0, r[i]);
      axpy(1.0, rhs[i], r[i]);
      if (low_store_) low_store_(r[i]);
    }

    for (int k = 0; k < mr_.steps; ++k) {
      {
        ScopedSpan op_span("mr.op");
        op_->apply_multi(ar_ptr, r_cptr);
      }
      for (std::size_t i = 0; i < w; ++i) {
        const auto [num, den] = block_dot_norm2(ar[i], r[i], *mask_);
        std::vector<std::complex<double>> alpha(num.size());
        for (std::size_t j = 0; j < num.size(); ++j) {
          alpha[j] = den[j] > 0 ? mr_.omega * num[j] / den[j]
                                : std::complex<double>{};
        }
        block_mr_update(alpha, r[i], ar[i], *outs[i], *mask_);
        if (low_store_) {
          low_store_(*outs[i]);
          low_store_(r[i]);
        }
      }
    }

    const int steps = mr_.steps * static_cast<int>(w);
    inner_steps_ += steps;
    metric_counter("solver.schwarz.mr_steps")
        .add(static_cast<std::uint64_t>(steps));
    if (inner_steps != nullptr) {
      inner_steps->assign(w, mr_.steps);
    }
  }

  /// K at width 1, for gcr_solve and other LinearOperator drivers.
  void apply(Field& out, const Field& in) const override {
    apply_multi({&out}, {&in});
  }

  const LatticeGeometry& geometry() const override { return op_->geometry(); }

  /// Total MR steps spent inside the preconditioner since construction,
  /// over every RHS of every apply.  Cumulative: a gcr_solve caller that
  /// reports per-solve work must difference around the solve (the block
  /// drivers get per-RHS counts from apply_multi instead).
  int inner_steps() const { return inner_steps_; }

 private:
  const MultiRhsOperator<Field>* op_;
  const BlockMask* mask_;
  MrParams mr_;
  std::function<void(Field&)> low_store_;
  mutable int inner_steps_ = 0;
  // Reusable per-RHS workspaces, grown to the widest batch seen.  apply is
  // logically const; callers serialize applies (the service dispatches one
  // batch at a time), so no locking.
  mutable std::vector<Field> ws_rhs_;
  mutable std::vector<Field> ws_r_;
  mutable std::vector<Field> ws_ar_;
};

}  // namespace lqcd
