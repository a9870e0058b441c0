#pragma once
/// \file gcr_dd.h
/// \brief The paper's headline solver (contribution (ii)): GCR with a
/// non-overlapping additive-Schwarz (domain-decomposed) preconditioner in
/// the single-half-half mixed-precision configuration of §8.1:
///
///  * outer system: even-odd preconditioned Wilson-clover in single
///    precision, with GCR restarts recomputing the true residual in single;
///  * Krylov space: built and orthogonalized in (emulated) half precision;
///  * preconditioner: a fixed number of MR steps on the Dirichlet-cut
///    operator, entirely in half precision, with block-local reductions —
///    the blocks matching the per-GPU subdomains of the partitioning.

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dirac/even_odd.h"
#include "dirac/multi_rhs.h"
#include "dirac/partitioned_schur.h"
#include "dirac/twisted_mass.h"
#include "fields/precision.h"
#include "lattice/block_mask.h"
#include "lattice/partition.h"
#include "solvers/block_gcr.h"
#include "solvers/block_schwarz.h"

namespace lqcd {

struct GcrDdParams {
  double mass = -0.2;
  double tol = 1e-5;           ///< relative residual (single precision regime)
  int kmax = 16;
  /// Algorithm 1 early-restart threshold.  Deliberately looser than the
  /// general-purpose GcrParams::delta = 0.1 (solvers/gcr.h): with the
  /// Krylov space stored in emulated half precision, the iterated residual
  /// drifts from the true residual faster, so restarting already on a 4x
  /// in-cycle drop (rather than 10x) recomputes the true residual more
  /// often and keeps the half-precision trajectory honest (§8.1).
  double delta = 0.25;
  int max_iter = 2000;
  MrParams mr{10, 1.0};        ///< paper: 10 MR steps in the preconditioner
  std::array<int, kNDim> block_grid{1, 1, 1, 2};  ///< Schwarz domains (= GPUs)
  bool half_preconditioner = true;  ///< run K in emulated half precision
  bool half_krylov = true;          ///< store the Krylov space in half

  /// Twisted-mass term i*mu*gamma5*tau3 (dirac/twisted_mass.h): when
  /// nonzero, the twist is folded into the solver's single-precision
  /// clover copy, so the outer Schur operator and the Dirichlet-cut
  /// Schwarz preconditioner both run the twisted action with no further
  /// changes.  `twist_flavor` (+1/-1) selects the
  /// flavor of the degenerate doublet (tau3 eigenvalue).
  double twisted_mu = 0.0;
  int twist_flavor = +1;

  /// When set, the *outer* Schur operator runs through the virtual-cluster
  /// partitioned dslash on this rank grid (ghost exchange + interior /
  /// exterior overlap, honoring LQCD_RANK_MODE).  The Schwarz
  /// preconditioner stays block-local (Dirichlet cuts need no comms).
  /// Under an active FaultPlan (fault/fault.h) the exchanges repair
  /// injected faults transparently, and GCR rolls back to the last
  /// reliable update whenever a repair is reported
  /// (SolverStats::rollbacks, metric `solver.rollbacks`).
  std::optional<std::array<int, kNDim>> rank_grid;
};

/// GCR-DD solver for the Wilson-clover system M x = b on the full lattice,
/// for one RHS or a batch of them.  The clover field may be null (plain
/// Wilson).
///
/// One operator stack serves every batch width: the outer Krylov matvecs
/// and the Schwarz MR steps are issued as multi-RHS batches
/// (block_gcr_solve + SchwarzPreconditioner), so every reconstructed
/// gauge-link load services the whole batch, and a single RHS is the same
/// call at width 1.  Per-RHS solutions and SolverStats do not depend on
/// the batch width or its composition (asserted in tests/test_serve.cpp).
///
/// With `rank_grid` set, the outer operator runs through the virtual
/// cluster per RHS (PerRhsMultiOperator: the overlap schedule is
/// per-field), while the comm-free Schwarz preconditioner stays natively
/// batched — the same split the paper's multi-GPU practice implies, where
/// the Dirichlet-cut preconditioner is the comms-free bulk of the work.
class GcrDdWilsonSolver {
 public:
  GcrDdWilsonSolver(const GaugeField<double>& u,
                    const CloverField<double>* clover, GcrDdParams params)
      : params_(params),
        u_single_(convert_gauge<float>(u)),
        u_half_(u_single_),
        mask_(u.geometry(), params.block_grid) {
    if (clover != nullptr) {
      clover_single_ = convert_clover<float>(*clover);
    }
    if (params.twisted_mu != 0.0) {
      // Fold i*mu*gamma5 into the clover copy every downstream operator is
      // built from (an empty clover is materialized for plain twisted
      // Wilson) — see dirac/twisted_mass.h for the chiral-block encoding.
      if (!clover_single_.has_value()) {
        clover_single_.emplace(u.geometry());
      }
      for (std::int64_t s = 0; s < u.geometry().volume(); ++s) {
        add_twist(clover_single_->at(s),
                  static_cast<float>(params.twisted_mu), params.twist_flavor);
      }
    }
    half_roundtrip(u_half_);
    const CloverField<float>* a = clover_single_ ? &*clover_single_ : nullptr;
    if (params.rank_grid) {
      op_part_ = std::make_unique<PartitionedWilsonCloverSchur<float>>(
          Partitioning(u.geometry(), *params.rank_grid), u_single_, a,
          params.mass);
      multi_op_ =
          std::make_unique<PerRhsMultiOperator<WilsonField<float>>>(*op_part_);
    } else {
      op_ = std::make_unique<WilsonCloverSchurOperator<float>>(u_single_, a,
                                                               params.mass);
      multi_op_ = std::make_unique<NativeMultiRhsOperator<
          WilsonField<float>, WilsonCloverSchurOperator<float>>>(*op_);
    }
    op_dd_ = std::make_unique<WilsonCloverSchurOperator<float>>(
        params.half_preconditioner ? u_half_ : u_single_, a, params.mass,
        &mask_);
    multi_dd_ = std::make_unique<NativeMultiRhsOperator<
        WilsonField<float>, WilsonCloverSchurOperator<float>>>(*op_dd_);
    std::function<void(WilsonField<float>&)> store;
    if (params.half_preconditioner) {
      // Schur-system fields keep the odd checkerboard zero; truncating only
      // the even half is bitwise identical (see precision.h).
      store = [](WilsonField<float>& f) { half_roundtrip(f, Parity::Even); };
    }
    precond_ = std::make_unique<SchwarzPreconditioner<WilsonField<float>>>(
        *multi_dd_, mask_, params.mr, store);
  }

  /// Solves M xs[r] = bs[r] for every RHS (full lattice, double precision
  /// I/O).  Each entry of the returned stats describes that RHS's solve
  /// only; the final residual reported is the true single-precision Schur
  /// residual, and `inner_iterations` (MR steps) is attributed per RHS by
  /// the block driver, so a reused solver or a long-lived service never
  /// leaks preconditioner work between solves.
  ///
  /// \p ckpt (optional) threads soak checkpoint I/O into the block driver
  /// (solvers/block_gcr.h): capture freezes the whole batch mid-solve at a
  /// driver-round boundary; resume requires the same gauge/clover/params
  /// and the same RHS in the same order — the source preparation is
  /// recomputed (it is a pure function of them), and the restored Krylov
  /// state continues every RHS bitwise.
  std::vector<SolverStats> solve(
      const std::vector<WilsonField<double>*>& xs,
      const std::vector<const WilsonField<double>*>& bs,
      BlockGcrCheckpointIo<WilsonField<float>>* ckpt = nullptr) {
    const std::size_t n = xs.size();
    ScopedSpan span("gcrdd.solve");
    metric_counter("solver.gcrdd.solves").add(n);

    std::vector<WilsonField<float>> b_f;
    std::vector<WilsonField<float>> b_hat;
    std::vector<WilsonField<float>> x_f;
    b_f.reserve(n);
    b_hat.reserve(n);
    x_f.reserve(n);
    std::vector<WilsonField<float>*> x_ptr(n);
    std::vector<const WilsonField<float>*> b_hat_ptr(n);
    for (std::size_t i = 0; i < n; ++i) {
      b_f.push_back(convert_field<float>(*bs[i]));
      b_hat.emplace_back(bs[i]->geometry());
      if (op_part_) {
        op_part_->prepare_source(b_hat[i], b_f[i]);
      } else {
        op_->prepare_source(b_hat[i], b_f[i]);
      }
      x_f.emplace_back(bs[i]->geometry());
      set_zero(x_f[i]);
      x_ptr[i] = &x_f[i];
      b_hat_ptr[i] = &b_hat[i];
    }

    GcrParams gp;
    gp.tol = params_.tol;
    gp.kmax = params_.kmax;
    gp.delta = params_.delta;
    gp.max_iter = params_.max_iter;
    std::function<void(WilsonField<float>&)> low_store;
    if (params_.half_krylov) {
      low_store = [](WilsonField<float>& f) { half_roundtrip(f, Parity::Even); };
    }
    std::vector<SolverStats> stats = block_gcr_solve(
        *multi_op_, x_ptr, b_hat_ptr, precond_.get(), gp, low_store, ckpt);

    // A kill-captured batch returns its partial stats; the iterates live in
    // the checkpoint, so the output fields are left untouched.
    if (ckpt != nullptr && ckpt->stop_after_capture &&
        ckpt->captured != nullptr && ckpt->captured->valid()) {
      return stats;
    }

    for (std::size_t i = 0; i < n; ++i) {
      if (op_part_) {
        op_part_->reconstruct_solution(x_f[i], b_f[i]);
      } else {
        op_->reconstruct_solution(x_f[i], b_f[i]);
      }
      *xs[i] = convert_field<double>(x_f[i]);
    }
    return stats;
  }

  /// Solves M x = b: the batched solve at width 1.
  SolverStats solve(WilsonField<double>& x, const WilsonField<double>& b,
                    BlockGcrCheckpointIo<WilsonField<float>>* ckpt = nullptr) {
    return solve(std::vector<WilsonField<double>*>{&x},
                 std::vector<const WilsonField<double>*>{&b}, ckpt)
        .front();
  }

  const BlockMask& mask() const { return mask_; }
  /// The outer single-precision Schur operator (partitioned iff
  /// `rank_grid` was set).
  const LinearOperator<WilsonField<float>>& schur_operator() const {
    if (op_part_) return *op_part_;
    return *op_;
  }
  /// Non-null iff `rank_grid` was set: exposes the cluster operator's
  /// traffic meters and partitioning for inspection.
  const PartitionedWilsonCloverSchur<float>* partitioned_operator() const {
    return op_part_.get();
  }

 private:
  GcrDdParams params_;
  GaugeField<float> u_single_;
  GaugeField<float> u_half_;
  std::optional<CloverField<float>> clover_single_;
  BlockMask mask_;
  std::unique_ptr<WilsonCloverSchurOperator<float>> op_;
  std::unique_ptr<PartitionedWilsonCloverSchur<float>> op_part_;
  std::unique_ptr<MultiRhsOperator<WilsonField<float>>> multi_op_;
  std::unique_ptr<WilsonCloverSchurOperator<float>> op_dd_;
  std::unique_ptr<NativeMultiRhsOperator<WilsonField<float>,
                                         WilsonCloverSchurOperator<float>>>
      multi_dd_;
  std::unique_ptr<SchwarzPreconditioner<WilsonField<float>>> precond_;
};

}  // namespace lqcd
