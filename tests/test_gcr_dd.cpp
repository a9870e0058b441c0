// GCR-DD (Algorithm 1): convergence, the benefit of the Schwarz
// preconditioner, block-size dependence, and the half-precision emulation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "comm/virtual_cluster.h"
#include "core/gcr_dd.h"
#include "dirac/wilson_ops.h"
#include "fault/fault.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "obs/metrics.h"
#include "solvers/gcr.h"
#include "solvers/mr.h"

namespace lqcd {
namespace {

GaugeField<double> thermalized(const LatticeGeometry& g, std::uint64_t seed) {
  GaugeField<double> u = hot_gauge(g, seed);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 3);
  return u;
}

// Algorithm 1's preconditioner written out directly: a fixed number of
// block-local MR steps on the Dirichlet-cut operator, in the storage
// precision \p store emulates.  An independent reference for the
// solver's batched SchwarzPreconditioner.
class MrSchwarzReference : public LinearOperator<WilsonField<float>> {
 public:
  MrSchwarzReference(const LinearOperator<WilsonField<float>>& dirichlet,
                     const BlockMask& mask, MrParams mr,
                     std::function<void(WilsonField<float>&)> store)
      : dirichlet_(&dirichlet), mask_(&mask), mr_(mr),
        store_(std::move(store)) {}

  void apply(WilsonField<float>& out,
             const WilsonField<float>& in) const override {
    set_zero(out);
    WilsonField<float> rhs(in.geometry());
    copy(rhs, in);
    if (store_) store_(rhs);
    steps += mr_solve(*dirichlet_, out, rhs, mr_, mask_, store_).iterations;
  }
  const LatticeGeometry& geometry() const override {
    return dirichlet_->geometry();
  }

  mutable int steps = 0;

 private:
  const LinearOperator<WilsonField<float>>* dirichlet_;
  const BlockMask* mask_;
  MrParams mr_;
  std::function<void(WilsonField<float>&)> store_;
};

TEST(GcrDd, SolvesWilsonCloverToSinglePrecision) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 121);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 122);

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  GcrDdWilsonSolver solver(u, &a, p);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);

  // Full-system double-precision residual must be near the single target.
  WilsonCloverOperator<double> m(u, &a, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-5);
}

TEST(GcrDd, PreconditionerReducesOuterIterations) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 123);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 124);

  GcrDdParams with;
  with.mass = 0.05;
  with.tol = 1e-5;
  with.block_grid = {1, 1, 1, 2};
  with.mr.steps = 8;
  GcrDdWilsonSolver s_with(u, &a, with);
  WilsonField<double> x1(g);
  const SolverStats stats_with = s_with.solve(x1, b);

  // Baseline: plain GCR (no preconditioner) on the same single-precision
  // Schur system.
  const GaugeField<float> u_f = convert_gauge<float>(u);
  const CloverField<float> a_f = convert_clover<float>(a);
  WilsonCloverSchurOperator<float> schur(u_f, &a_f, with.mass);
  WilsonField<float> b_f = convert_field<float>(b);
  WilsonField<float> b_hat(g);
  schur.prepare_source(b_hat, b_f);
  WilsonField<float> x2(g);
  set_zero(x2);
  GcrParams gp;
  gp.tol = with.tol;
  gp.kmax = with.kmax;
  gp.delta = with.delta;
  const SolverStats stats_without = gcr_solve(schur, x2, b_hat, nullptr, gp);

  EXPECT_TRUE(stats_with.converged);
  EXPECT_TRUE(stats_without.converged);
  EXPECT_LT(stats_with.iterations, stats_without.iterations);
}

TEST(GcrDd, MoreBlocksWeakenPreconditioner) {
  // Smaller Dirichlet blocks approximate the operator less well: the outer
  // iteration count must not decrease when the block grid refines.
  const LatticeGeometry g({4, 4, 8, 8});
  const GaugeField<double> u = thermalized(g, 125);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 126);

  auto iterations_for = [&](std::array<int, 4> grid) {
    GcrDdParams p;
    p.mass = 0.05;
    p.tol = 1e-5;
    p.block_grid = grid;
    p.mr.steps = 8;
    GcrDdWilsonSolver solver(u, &a, p);
    WilsonField<double> x(g);
    const SolverStats stats = solver.solve(x, b);
    EXPECT_TRUE(stats.converged);
    return stats.iterations;
  };

  const int coarse = iterations_for({1, 1, 1, 2});
  const int fine = iterations_for({2, 2, 4, 4});
  EXPECT_LE(coarse, fine);
}

TEST(GcrDd, HalfEmulationStillConverges) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 127);
  const WilsonField<double> b = gaussian_wilson_source(g, 128);

  GcrDdParams half;
  half.mass = 0.1;
  half.tol = 1e-4;
  half.block_grid = {1, 1, 1, 2};
  half.half_krylov = true;
  half.half_preconditioner = true;
  GcrDdWilsonSolver s_half(u, nullptr, half);
  WilsonField<double> x(g);
  const SolverStats stats = s_half.solve(x, b);
  EXPECT_TRUE(stats.converged);

  WilsonCloverOperator<double> m(u, nullptr, half.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-4);
}

TEST(GcrDd, SinglePrecisionKrylovNoWorseThanHalf) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 129);
  const WilsonField<double> b = gaussian_wilson_source(g, 130);

  auto run = [&](bool half_krylov) {
    GcrDdParams p;
    p.mass = 0.1;
    p.tol = 1e-5;
    p.block_grid = {1, 1, 1, 2};
    p.half_krylov = half_krylov;
    GcrDdWilsonSolver solver(u, nullptr, p);
    WilsonField<double> x(g);
    return solver.solve(x, b);
  };
  const SolverStats s_half = run(true);
  const SolverStats s_single = run(false);
  EXPECT_TRUE(s_half.converged);
  EXPECT_TRUE(s_single.converged);
  // Half storage may cost extra iterations but not an order of magnitude.
  EXPECT_LE(s_single.iterations, s_half.iterations + 2);
  EXPECT_LT(s_half.iterations, 4 * std::max(1, s_single.iterations));
}

TEST(GcrDd, CountsPreconditionerWork) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 131);
  const WilsonField<double> b = gaussian_wilson_source(g, 132);
  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-4;
  p.block_grid = {1, 1, 1, 2};
  p.mr.steps = 6;
  GcrDdWilsonSolver solver(u, nullptr, p);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);
  // inner_iterations tallies MR steps: 6 per outer Krylov step (plus any
  // restart-discarded work).
  EXPECT_GE(stats.inner_iterations, 6 * stats.iterations);
}

TEST(GcrDd, ReusedSolverReportsPerSolveInnerIterations) {
  // Regression: the Schwarz preconditioner's MR-step tally is cumulative
  // across applies, and solve() used to report it verbatim — so a reused
  // solver's second solve claimed roughly double the preconditioner work.
  // Identical back-to-back solves must report identical per-solve counts.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 137);
  const WilsonField<double> b = gaussian_wilson_source(g, 138);
  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-4;
  p.block_grid = {1, 1, 1, 2};
  p.mr.steps = 6;
  GcrDdWilsonSolver solver(u, nullptr, p);

  WilsonField<double> x1(g), x2(g);
  const SolverStats first = solver.solve(x1, b);
  const SolverStats second = solver.solve(x2, b);
  EXPECT_TRUE(first.converged);
  EXPECT_TRUE(second.converged);
  ASSERT_GT(first.inner_iterations, 0);
  // Same system, same zero initial guess: the trajectories are identical,
  // so so must be the reported preconditioner work.
  EXPECT_EQ(second.iterations, first.iterations);
  EXPECT_EQ(second.inner_iterations, first.inner_iterations);
}

TEST(GcrDd, PartitionedOuterOperatorConverges) {
  // rank_grid routes the outer Schur operator through the virtual-cluster
  // partitioned dslash; the solve must still converge to the same target.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 133);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 134);

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 2, 2}};
  GcrDdWilsonSolver solver(u, &a, p);
  EXPECT_NE(solver.partitioned_operator(), nullptr);
  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(static_cast<int>(stats.residual_history.size()),
            stats.iterations);

  WilsonCloverOperator<double> m(u, &a, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-5);
  // The cluster operator metered ghost traffic during the solve.
  EXPECT_GT(solver.partitioned_operator()->traffic().spinor.total_bytes(), 0u);
}

TEST(GcrDd, RollsBackAndConvergesAfterCorruptedExchange) {
  // Fault-recovery regression: one ghost message is bit-flipped mid-solve.
  // The exchange repairs it (checksum + resend from the retained copy), the
  // repair is metered as a comm retry, and GCR must observe it, roll back
  // to the last reliable update, and still converge to the same tolerance.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 139);
  const WilsonField<double> b = gaussian_wilson_source(g, 140);

  const RankMode prev = rank_mode();
  set_rank_mode(RankMode::Threads);
  clear_fault_plan();

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 1, 2}};
  // Full single precision: keeps the iterated residual close to the true
  // one so the post-rollback monotonicity check below is meaningful.
  p.half_krylov = false;
  p.half_preconditioner = false;
  GcrDdWilsonSolver solver(u, nullptr, p);

  // One-shot bit-flip a few exchanges in: each Schur matvec on this rank
  // grid posts 8 messages (2 ranks x 1 dim x 2 dirs x 2 hops), so ordinal
  // 20 lands inside an outer GCR iteration, past the initial residual.
  FaultSpec spec;
  spec.seed = 31;
  spec.once[static_cast<int>(FaultKind::BitFlip)] = 20;
  spec.max_retries = 4;
  set_fault_plan(spec);
  const std::uint64_t rollbacks_before =
      metric_counter("solver.rollbacks").value();
  const std::uint64_t retries_before = metric_counter("comm.retries").value();

  WilsonField<double> x(g);
  const SolverStats stats = solver.solve(x, b);
  clear_fault_plan();
  set_rank_mode(prev);

  EXPECT_TRUE(stats.converged);
  EXPECT_GE(stats.rollbacks, 1);
  ASSERT_FALSE(stats.rollback_iterations.empty());
  EXPECT_GE(metric_counter("solver.rollbacks").value(), rollbacks_before + 1);
  EXPECT_GE(metric_counter("comm.retries").value(), retries_before + 1);

  // Converges to the same tolerance as a fault-free solve.
  WilsonCloverOperator<double> m(u, nullptr, p.mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 5e-5);

  // Monotone residual history after the rollback point: the rollback
  // re-anchored on the true residual, so from there the trajectory must
  // descend (5% slack absorbs single-precision re-anchoring at restarts).
  const std::size_t from =
      static_cast<std::size_t>(stats.rollback_iterations.front());
  ASSERT_LT(from, stats.residual_history.size());
  for (std::size_t i = from; i + 1 < stats.residual_history.size(); ++i) {
    EXPECT_LE(stats.residual_history[i + 1],
              stats.residual_history[i] * 1.05)
        << "iter " << i;
  }
}

TEST(GcrDd, ResidualHistoryIdenticalAcrossRankModes) {
  // The whole GCR-DD trajectory — every iterated-residual norm, the
  // iteration count, and the final residual — must be bitwise reproducible
  // between the sequential reference and the concurrent rank runtime.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 135);
  const WilsonField<double> b = gaussian_wilson_source(g, 136);

  auto run = [&](RankMode m) {
    const RankMode prev = rank_mode();
    set_rank_mode(m);
    GcrDdParams p;
    p.mass = 0.1;
    p.tol = 1e-5;
    p.block_grid = {1, 1, 1, 2};
    p.rank_grid = {{1, 1, 1, 2}};
    GcrDdWilsonSolver solver(u, nullptr, p);
    WilsonField<double> x(g);
    const SolverStats stats = solver.solve(x, b);
    set_rank_mode(prev);
    return stats;
  };
  const SolverStats seq = run(RankMode::Seq);
  const SolverStats thr = run(RankMode::Threads);

  EXPECT_TRUE(seq.converged);
  EXPECT_TRUE(thr.converged);
  EXPECT_EQ(seq.iterations, thr.iterations);
  EXPECT_EQ(seq.restarts, thr.restarts);
  EXPECT_EQ(seq.final_residual, thr.final_residual);
  ASSERT_EQ(seq.residual_history.size(), thr.residual_history.size());
  for (std::size_t i = 0; i < seq.residual_history.size(); ++i) {
    EXPECT_EQ(seq.residual_history[i], thr.residual_history[i]) << "iter " << i;
  }
}

TEST(GcrDd, SingleSolveMatchesGcrSolveWithMrSchwarzReference) {
  // The single-RHS solve is the batched solver at width 1.  Against an
  // independent reference — gcr_solve (Algorithm 1) on the solver's own
  // outer Schur operator, preconditioned by mr_solve on a Dirichlet-cut
  // operator built here — it must agree bitwise in both rank modes:
  // solution, iterations, matvecs, MR steps and residual history.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = thermalized(g, 141);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> b = gaussian_wilson_source(g, 142);

  GcrDdParams p;
  p.mass = 0.1;
  p.tol = 1e-5;
  p.block_grid = {1, 1, 1, 2};
  p.rank_grid = {{1, 1, 1, 2}};

  const GaugeField<float> u_f = convert_gauge<float>(u);
  GaugeField<float> u_half = u_f;
  half_roundtrip(u_half);
  const CloverField<float> a_f = convert_clover<float>(a);
  const std::function<void(WilsonField<float>&)> store =
      [](WilsonField<float>& f) { half_roundtrip(f, Parity::Even); };

  for (RankMode mode : {RankMode::Seq, RankMode::Threads}) {
    const RankMode prev = rank_mode();
    set_rank_mode(mode);

    GcrDdWilsonSolver solver(u, &a, p);
    WilsonField<double> x(g);
    const SolverStats got = solver.solve(x, b);

    const PartitionedWilsonCloverSchur<float>& outer =
        *solver.partitioned_operator();
    const WilsonCloverSchurOperator<float> dirichlet(u_half, &a_f, p.mass,
                                                     &solver.mask());
    const MrSchwarzReference precond(dirichlet, solver.mask(), p.mr, store);
    const WilsonField<float> b_f = convert_field<float>(b);
    WilsonField<float> b_hat(g);
    outer.prepare_source(b_hat, b_f);
    WilsonField<float> x_f(g);
    set_zero(x_f);
    GcrParams gp;
    gp.tol = p.tol;
    gp.kmax = p.kmax;
    gp.delta = p.delta;
    gp.max_iter = p.max_iter;
    const SolverStats want =
        gcr_solve(solver.schur_operator(), x_f, b_hat, &precond, gp, store);
    outer.reconstruct_solution(x_f, b_f);
    const WilsonField<double> x_ref = convert_field<double>(x_f);
    set_rank_mode(prev);

    const char* what = mode == RankMode::Seq ? "seq" : "threads";
    EXPECT_TRUE(got.converged) << what;
    EXPECT_EQ(got.iterations, want.iterations) << what;
    EXPECT_EQ(got.matvecs, want.matvecs) << what;
    EXPECT_EQ(got.restarts, want.restarts) << what;
    EXPECT_EQ(got.inner_iterations, precond.steps) << what;
    EXPECT_EQ(got.final_residual, want.final_residual) << what;
    EXPECT_EQ(got.residual_history, want.residual_history) << what;
    ASSERT_EQ(x.sites().size_bytes(), x_ref.sites().size_bytes());
    EXPECT_EQ(std::memcmp(x.sites().data(), x_ref.sites().data(),
                          x.sites().size_bytes()),
              0)
        << what;
  }
}

}  // namespace
}  // namespace lqcd
