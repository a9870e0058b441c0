#pragma once
/// \file block_gcr.h
/// \brief Lockstep multi-RHS flexible GCR: the driver of the GCR-DD stack
/// (core/gcr_dd.h), where a single RHS is a batch of width 1.  N
/// independent recursions of Algorithm 1 are advanced in rounds so that
/// every operator and preconditioner application is issued as one
/// multi-RHS batch over the shared gauge field.
///
/// This is deliberately NOT a true block-Krylov method: sharing the Krylov
/// space across RHS changes the iterates, which would break the serve
/// contract that a queued request converges exactly as it would have
/// solo.  Instead each RHS keeps its own basis, coefficients, restart
/// schedule and fault-rollback state, and the only coupling is *temporal*:
/// per driver round, all RHS needing a preconditioner application are
/// served by one BlockPreconditioner::apply_multi, and all RHS needing an
/// operator application (Krylov matvec, restart or final true-residual
/// recomputation alike) by one MultiRhsOperator::apply_multi.  Since the
/// batched kernels are per-RHS bitwise identical to their single-RHS
/// applications and BLAS never mixes RHS, each RHS's residual history and
/// iterates match gcr_solve — the Algorithm-1 reference — exactly
/// (asserted in tests/test_serve.cpp and tests/test_gcr_dd.cpp).
///
/// RHS finish independently: a converged system simply stops contributing
/// to later rounds while its batch-mates continue (batch occupancy decays
/// toward the tail of a batch — bench_serve meters this).
///
/// Fault handling: each RHS observes `comm.retries` exactly like
/// gcr_solve.  A repair during a batched application is observed by every
/// RHS in flight in that round, so the whole batch rolls back to its last
/// reliable update — requests in *other* batches are untouched, which is
/// the rollback isolation the serve layer requires.
///
/// Instrumentation shares gcr_solve's names: spans `gcr.solve` (one per
/// batch) and `gcr.restart`, counters `solver.gcr.solves` (one per RHS),
/// `.iterations`, `.matvecs`, `.restarts` and `.iter_sweeps`.

#include <cmath>
#include <complex>
#include <functional>
#include <vector>

#include "dirac/multi_rhs.h"
#include "fields/blas.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "solvers/block_schwarz.h"
#include "solvers/gcr.h"
#include "solvers/solver_stats.h"

namespace lqcd {

/// Frozen mid-solve state of a block_gcr_solve in flight: one per-RHS
/// record (the lockstep driver's `St`, minus scratch) plus the driver round
/// counter.  The capture boundary is the end of a driver round — every RHS
/// has finished its post-operator arithmetic, so no RHS is mid-iteration.
/// The contract (DESIGN.md §15): a batch captured at round k and resumed
/// from this state — in the same or another process — produces residual
/// histories, iterates and stats bitwise identical to the uninterrupted
/// run's, in both LQCD_RANK_MODE settings.  The scratch true-residual
/// fields are deliberately absent: each is recomputed before it is read.
/// Serialized by soak/checkpoint.h; carried through the serve layer for
/// kill-restore of an in-flight batch.
template <typename Field>
struct BlockGcrCheckpoint {
  struct Rhs {
    int phase = 0;  ///< driver phase ordinal (Init..Done, stable encoding)
    int k = 0;
    double b2 = 0.0, target = 0.0, rnorm = 0.0, cycle_start_norm = 0.0;
    SolverStats stats;
    std::optional<Field> x;
    std::optional<Field> rhat;
    std::vector<Field> p, z;
    std::vector<std::vector<std::complex<double>>> beta;
    std::vector<double> gamma;
    std::vector<std::complex<double>> alpha;
  };
  std::uint64_t round = 0;  ///< completed driver rounds at capture
  std::vector<Rhs> rhs;

  bool valid() const { return !rhs.empty(); }
};

/// Checkpoint plumbing for one block_gcr_solve call.  `resume` (when
/// non-null) replaces the initial-residual computation with the captured
/// state and must be given the same number of RHS in the same order;
/// `captured` receives a snapshot at the end of driver round
/// `capture_at_round` (1-based count of completed rounds).  With
/// `stop_after_capture` the solve returns its partial stats immediately
/// after capturing, simulating a kill at that round.
template <typename Field>
struct BlockGcrCheckpointIo {
  const BlockGcrCheckpoint<Field>* resume = nullptr;
  std::int64_t capture_at_round = -1;
  BlockGcrCheckpoint<Field>* captured = nullptr;
  bool stop_after_capture = false;
};

/// Solves A xs[r] = bs[r] for all r with right-preconditioned flexible
/// GCR, batching operator work across RHS.  Uses each xs[r] as the initial
/// guess.  \p precond may be null; \p low_store mirrors gcr_solve's.
/// Returns one SolverStats per RHS, with `inner_iterations` already
/// attributed per RHS (no cumulative-counter differencing needed).
template <typename Field>
std::vector<SolverStats> block_gcr_solve(
    const MultiRhsOperator<Field>& a, const std::vector<Field*>& xs,
    const std::vector<const Field*>& bs,
    const BlockPreconditioner<Field>* precond, const GcrParams& params,
    const std::function<void(Field&)>& low_store = nullptr,
    BlockGcrCheckpointIo<Field>* ckpt = nullptr) {
  const std::size_t n = xs.size();
  ScopedSpan solve_span("gcr.solve");
  metric_counter("solver.gcr.solves").add(n);
  const LatticeGeometry& geom = a.geometry();

  Counter& comm_retries = metric_counter("comm.retries");
  Counter& rollback_meter = metric_counter("solver.rollbacks");
  Counter& sweep_meter = metric_counter("blas.sweeps");
  Counter& iter_sweep_meter = metric_counter("solver.gcr.iter_sweeps");

  // One gcr_solve's worth of state per RHS; `phase` names the operator
  // application the RHS is waiting on (the points where gcr_solve calls
  // a.apply or precond->apply).
  enum class Phase { Init, Precond, Matvec, Restart, Final, Done };
  struct St {
    Field* x;
    const Field* b;
    SolverStats stats;
    Phase phase = Phase::Init;
    double b2 = 0, target = 0, rnorm = 0, cycle_start_norm = 0;
    Field r, rhat, tmp;
    std::vector<Field> p, z;
    std::vector<std::vector<std::complex<double>>> beta;
    std::vector<double> gamma;
    std::vector<std::complex<double>> alpha;
    int k = 0;
    std::uint64_t repairs_seen = 0;

    St(const LatticeGeometry& g, Field* x_, const Field* b_, int kmax)
        : x(x_), b(b_), r(g), rhat(g), tmp(g),
          beta(static_cast<std::size_t>(kmax)),
          gamma(static_cast<std::size_t>(kmax)),
          alpha(static_cast<std::size_t>(kmax)) {
      p.reserve(static_cast<std::size_t>(kmax));
      z.reserve(static_cast<std::size_t>(kmax));
    }
  };

  std::vector<St> st;
  st.reserve(n);
  const bool resuming =
      ckpt != nullptr && ckpt->resume != nullptr && ckpt->resume->valid();
  if (resuming) {
    // Restore every per-RHS record bit-for-bit: the continuation is
    // arithmetic on bitwise-identical state, so the batch reproduces the
    // uninterrupted run exactly.  norm2(b) is NOT recomputed (b2 is part of
    // the capture), and the repair baseline restarts from the current
    // counter — the restored process has its own fault stream.
    const BlockGcrCheckpoint<Field>& c = *ckpt->resume;
    if (c.rhs.size() != n) {
      throw std::invalid_argument(
          "block_gcr_solve: resume checkpoint holds " +
          std::to_string(c.rhs.size()) + " RHS, caller passed " +
          std::to_string(n));
    }
    for (std::size_t i = 0; i < n; ++i) {
      st.emplace_back(geom, xs[i], bs[i], params.kmax);
      St& s = st.back();
      const auto& cr = c.rhs[i];
      s.phase = static_cast<Phase>(cr.phase);
      s.k = cr.k;
      s.b2 = cr.b2;
      s.target = cr.target;
      s.rnorm = cr.rnorm;
      s.cycle_start_norm = cr.cycle_start_norm;
      s.stats = cr.stats;
      if (cr.x.has_value()) *s.x = *cr.x;
      if (cr.rhat.has_value()) s.rhat = *cr.rhat;
      s.p = cr.p;
      s.z = cr.z;
      s.beta = cr.beta;
      s.beta.resize(static_cast<std::size_t>(params.kmax));
      s.gamma = cr.gamma;
      s.gamma.resize(static_cast<std::size_t>(params.kmax));
      s.alpha = cr.alpha;
      s.alpha.resize(static_cast<std::size_t>(params.kmax));
      s.repairs_seen = comm_retries.value();
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      st.emplace_back(geom, xs[i], bs[i], params.kmax);
      St& s = st.back();
      s.b2 = norm2(*s.b);
      if (s.b2 == 0) {
        set_zero(*s.x);
        s.stats.converged = true;
        s.phase = Phase::Done;
        continue;
      }
      s.target = params.tol * std::sqrt(s.b2);
    }
  }

  // Implicit solution update — gcr_solve's `restart` lambda minus the
  // true-residual recomputation (that needs a matvec, so the driver issues
  // it as a Phase::Restart application instead).
  auto implicit_update = [&](St& s) {
    ScopedSpan span("gcr.restart");
    for (int l = s.k - 1; l >= 0; --l) {
      std::complex<double> chi = s.alpha[static_cast<std::size_t>(l)];
      for (int i = l + 1; i < s.k; ++i) {
        chi -=
            s.beta[static_cast<std::size_t>(l)][static_cast<std::size_t>(i)] *
            s.alpha[static_cast<std::size_t>(i)];
      }
      s.alpha[static_cast<std::size_t>(l)] =
          chi / s.gamma[static_cast<std::size_t>(l)];
    }
    if (params.fused && s.k > 0) {
      std::vector<const Field*> pp;
      pp.reserve(static_cast<std::size_t>(s.k));
      for (int l = 0; l < s.k; ++l) {
        pp.push_back(&s.p[static_cast<std::size_t>(l)]);
      }
      block_caxpy(std::vector<std::complex<double>>(s.alpha.begin(),
                                                    s.alpha.begin() + s.k),
                  pp, *s.x);
    } else {
      for (int l = 0; l < s.k; ++l) {
        caxpy(s.alpha[static_cast<std::size_t>(l)],
              s.p[static_cast<std::size_t>(l)], *s.x);
      }
    }
    s.k = 0;
    s.p.clear();
    s.z.clear();
  };

  // gcr_solve's while-condition; on exit, the epilogue (implicit update +
  // final true residual) runs instead of another iteration.
  auto enter_loop_or_final = [&](St& s) {
    if (s.rnorm > s.target && s.stats.iterations < params.max_iter &&
        s.stats.restarts < params.max_restarts) {
      s.phase = Phase::Precond;
    } else {
      if (s.k > 0) implicit_update(s);
      s.phase = Phase::Final;
    }
  };

  // Shared postlude of the initial-residual and restart applications:
  // s.tmp holds A x.
  auto post_true_residual = [&](St& s, bool is_restart) {
    ++s.stats.matvecs;
    s.rnorm = std::sqrt(xmy_norm2(*s.b, s.tmp, s.r));
    copy(s.rhat, s.r);
    if (low_store) low_store(s.rhat);
    s.cycle_start_norm = s.rnorm;
    if (is_restart) {
      ++s.stats.restarts;
    } else {
      // Fault baseline: repairs during the initial residual need no
      // rollback (r is already the true residual).
      s.repairs_seen = comm_retries.value();
    }
    enter_loop_or_final(s);
  };

  // One GCR iteration's post-matvec arithmetic — the gcr_solve loop body
  // after `a.apply(zk, pk)`, verbatim per RHS.
  auto advance_iteration = [&](St& s) {
    Field& zk = s.z.back();
    ++s.stats.matvecs;
    if (low_store) low_store(zk);

    const std::uint64_t iter_sweeps0 = sweep_meter.value();
    auto& beta_k = s.beta[static_cast<std::size_t>(s.k)];
    beta_k.assign(static_cast<std::size_t>(params.kmax), {});
    std::vector<const Field*> zp;
    zp.reserve(static_cast<std::size_t>(s.k));
    for (int i = 0; i < s.k; ++i) {
      zp.push_back(&s.z[static_cast<std::size_t>(i)]);
    }
    std::vector<std::complex<double>> bik(static_cast<std::size_t>(s.k));
    if (params.fused) {
      bik = block_cdot(zp, zk);
    } else {
      for (int i = 0; i < s.k; ++i) {
        bik[static_cast<std::size_t>(i)] =
            dot(s.z[static_cast<std::size_t>(i)], zk);
      }
    }
    std::vector<std::complex<double>> mbik(static_cast<std::size_t>(s.k));
    for (int i = 0; i < s.k; ++i) {
      s.beta[static_cast<std::size_t>(i)][static_cast<std::size_t>(s.k)] =
          bik[static_cast<std::size_t>(i)];
      mbik[static_cast<std::size_t>(i)] = -bik[static_cast<std::size_t>(i)];
    }
    double gk2;
    if (params.fused) {
      gk2 = block_caxpy_norm2(mbik, zp, zk);
    } else {
      for (int i = 0; i < s.k; ++i) {
        caxpy(mbik[static_cast<std::size_t>(i)],
              s.z[static_cast<std::size_t>(i)], zk);
      }
      gk2 = norm2(zk);
    }
    const double gk = std::sqrt(gk2);
    if (gk == 0) {
      s.p.pop_back();
      s.z.pop_back();
      implicit_update(s);
      s.phase = Phase::Restart;
      return;
    }
    s.gamma[static_cast<std::size_t>(s.k)] = gk;
    std::complex<double> ak;
    if (params.fused) {
      ak = scale_cdot(1.0 / gk, zk, s.rhat);
    } else {
      scale(1.0 / gk, zk);
      ak = dot(zk, s.rhat);
    }
    if (low_store) low_store(zk);
    s.alpha[static_cast<std::size_t>(s.k)] = ak;
    double rhat_norm2;
    if (params.fused) {
      rhat_norm2 = caxpy_norm2(-ak, zk, s.rhat);
    } else {
      caxpy(-ak, zk, s.rhat);
      rhat_norm2 = norm2(s.rhat);
    }
    if (low_store) low_store(s.rhat);
    ++s.k;
    ++s.stats.iterations;
    iter_sweep_meter.add(sweep_meter.value() - iter_sweeps0);

    const double rhat_norm = std::sqrt(rhat_norm2);
    s.stats.residual_history.push_back(rhat_norm);
    if (comm_retries.value() != s.repairs_seen) {
      s.repairs_seen = comm_retries.value();
      ++s.stats.rollbacks;
      s.stats.rollback_iterations.push_back(s.stats.iterations);
      rollback_meter.add();
      implicit_update(s);
      s.phase = Phase::Restart;
      return;
    }
    if (rhat_norm < s.target) {
      if (s.k > 0) implicit_update(s);
      s.phase = Phase::Final;
      return;
    }
    if (s.k == params.kmax || rhat_norm < params.delta * s.cycle_start_norm) {
      implicit_update(s);
      s.phase = Phase::Restart;
      return;
    }
    enter_loop_or_final(s);
  };

  auto post_final = [&](St& s) {
    ++s.stats.matvecs;
    Field rf(geom);
    s.stats.final_residual = std::sqrt(xmy_norm2(*s.b, s.tmp, rf) / s.b2);
    s.stats.converged = s.stats.final_residual <= params.tol;
    metric_counter("solver.gcr.iterations")
        .add(static_cast<std::uint64_t>(s.stats.iterations));
    metric_counter("solver.gcr.matvecs")
        .add(static_cast<std::uint64_t>(s.stats.matvecs));
    metric_counter("solver.gcr.restarts")
        .add(static_cast<std::uint64_t>(s.stats.restarts));
    s.phase = Phase::Done;
  };

  std::uint64_t round = resuming ? ckpt->resume->round : 0;
  bool captured = false;
  for (;;) {
    // Preconditioner round: one batched apply for every RHS starting an
    // iteration (p_k = K rhat).
    std::vector<Field*> pouts;
    std::vector<const Field*> pins;
    std::vector<St*> pst;
    for (St& s : st) {
      if (s.phase != Phase::Precond) continue;
      s.p.emplace_back(geom);
      s.z.emplace_back(geom);
      if (precond != nullptr) {
        pouts.push_back(&s.p.back());
        pins.push_back(&s.rhat);
        pst.push_back(&s);
      } else {
        copy(s.p.back(), s.rhat);
        if (low_store) low_store(s.p.back());
        s.phase = Phase::Matvec;
      }
    }
    if (!pouts.empty()) {
      std::vector<int> inner;
      precond->apply_multi(pouts, pins, &inner);
      for (std::size_t i = 0; i < pst.size(); ++i) {
        pst[i]->stats.inner_iterations += inner[i];
        if (low_store) low_store(pst[i]->p.back());
        pst[i]->phase = Phase::Matvec;
      }
    }

    // Operator round: Krylov matvecs and true-residual recomputations
    // batch together (they are all applications of the same A).
    std::vector<Field*> aouts;
    std::vector<const Field*> ains;
    std::vector<St*> ast;
    for (St& s : st) {
      if (s.phase == Phase::Matvec) {
        aouts.push_back(&s.z.back());
        ains.push_back(&s.p.back());
        ast.push_back(&s);
      } else if (s.phase == Phase::Init || s.phase == Phase::Restart ||
                 s.phase == Phase::Final) {
        aouts.push_back(&s.tmp);
        ains.push_back(s.x);
        ast.push_back(&s);
      }
    }
    if (ast.empty()) break;  // every RHS is Done
    a.apply_multi(aouts, ains);
    for (St* s : ast) {
      switch (s->phase) {
        case Phase::Init: post_true_residual(*s, false); break;
        case Phase::Restart: post_true_residual(*s, true); break;
        case Phase::Matvec: advance_iteration(*s); break;
        case Phase::Final: post_final(*s); break;
        default: break;
      }
    }
    ++round;
    // Checkpoint boundary: the end of a driver round — every RHS is parked
    // between phases (no Krylov vector half-built, `tmp` fully consumed),
    // so the frozen records are exactly what a resumed driver re-enters.
    if (ckpt != nullptr && ckpt->captured != nullptr && !captured &&
        ckpt->capture_at_round >= 0 &&
        static_cast<std::int64_t>(round) >= ckpt->capture_at_round) {
      captured = true;
      BlockGcrCheckpoint<Field>& c = *ckpt->captured;
      c.round = round;
      c.rhs.clear();
      c.rhs.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        const St& s = st[i];
        auto& cr = c.rhs[i];
        cr.phase = static_cast<int>(s.phase);
        cr.k = s.k;
        cr.b2 = s.b2;
        cr.target = s.target;
        cr.rnorm = s.rnorm;
        cr.cycle_start_norm = s.cycle_start_norm;
        cr.stats = s.stats;
        cr.x.emplace(*s.x);
        cr.rhat.emplace(s.rhat);
        cr.p = s.p;
        cr.z = s.z;
        cr.beta = s.beta;
        cr.gamma = s.gamma;
        cr.alpha = s.alpha;
      }
      if (ckpt->stop_after_capture) {
        // Simulated kill: hand back the partial per-RHS stats.
        std::vector<SolverStats> partial;
        partial.reserve(n);
        for (St& s : st) partial.push_back(s.stats);
        return partial;
      }
    }
  }

  std::vector<SolverStats> out;
  out.reserve(n);
  for (St& s : st) out.push_back(std::move(s.stats));
  return out;
}

}  // namespace lqcd
