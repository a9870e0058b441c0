// Cross-module integration tests:
//  * the full GCR-DD stack running on the *partitioned* operators, with
//    traffic meters proving the preconditioner is communication-free while
//    the outer solver communicates — the paper's §8.1 statement made
//    literal;
//  * the free-field Wilson operator against the analytic lattice
//    dispersion relation on plane waves;
//  * GCR solution invariance under restart policy.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dirac/even_odd.h"
#include "dirac/partitioned.h"
#include "dirac/partitioned_schur.h"
#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "solvers/block_schwarz.h"
#include "solvers/gcr.h"

namespace lqcd {
namespace {

TEST(Integration, GcrDdOnPartitionedOperatorsIsCommunicationFree) {
  const LatticeGeometry g({4, 4, 4, 8});
  GaugeField<double> u = hot_gauge(g, 201);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 2);
  const double mass = 0.1;
  const std::array<int, kNDim> grid{1, 1, 2, 2};

  Partitioning part(g, grid);
  // Outer operator: partitioned, communicating.
  PartitionedWilsonClover<double> outer(part, u, nullptr, mass,
                                        /*comms=*/true);
  // Preconditioner operator: same partitioning, communications off.
  PartitionedWilsonClover<double> dirichlet(part, u, nullptr, mass,
                                            /*comms=*/false);
  const PerRhsMultiOperator<WilsonField<double>> dirichlet_batch(dirichlet);
  BlockMask mask(g, grid);
  SchwarzPreconditioner<WilsonField<double>> precond(dirichlet_batch, mask,
                                                     MrParams{8, 1.0});

  const WilsonField<double> b = gaussian_wilson_source(g, 202);
  WilsonField<double> x(g);
  set_zero(x);
  GcrParams gp;
  gp.tol = 1e-7;
  gp.kmax = 16;
  const SolverStats stats = gcr_solve(outer, x, b, &precond, gp);
  ASSERT_TRUE(stats.converged);

  // The Dirichlet operator must have exchanged zero ghost-spinor bytes
  // despite many applications inside the preconditioner.
  EXPECT_GT(dirichlet.traffic().applications, stats.iterations);
  EXPECT_EQ(dirichlet.traffic().spinor.total_bytes(), 0u);
  EXPECT_EQ(dirichlet.traffic().spinor.messages, 0u);
  // The outer operator communicated on every application.
  EXPECT_GT(outer.traffic().spinor.total_bytes(), 0u);

  // And the answer is right.
  WilsonCloverOperator<double> reference(u, nullptr, mass);
  WilsonField<double> r(g);
  reference.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-6);
}

TEST(Integration, FullProductionStackOnVirtualCluster) {
  // The paper's production configuration end to end: even-odd
  // preconditioned Wilson-clover, GCR outer solver, additive-Schwarz
  // preconditioner on the communications-off operator, all running through
  // the partitioned (virtual multi-GPU) stencil with metered traffic.
  const LatticeGeometry g({4, 4, 4, 8});
  GaugeField<double> u = hot_gauge(g, 211);
  HeatbathParams hb;
  hb.beta = 5.9;
  thermalize(u, hb, 2);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const double mass = 0.05;
  const std::array<int, kNDim> grid{1, 1, 2, 2};
  Partitioning part(g, grid);

  PartitionedWilsonCloverSchur<double> outer(part, u, &a, mass);
  PartitionedWilsonCloverSchur<double> dirichlet(part, u, &a, mass,
                                                 /*comms=*/false);
  const PerRhsMultiOperator<WilsonField<double>> dirichlet_batch(dirichlet);
  BlockMask mask(g, grid);
  SchwarzPreconditioner<WilsonField<double>> precond(dirichlet_batch, mask,
                                                     MrParams{10, 1.0});

  const WilsonField<double> b = gaussian_wilson_source(g, 212);
  WilsonField<double> b_hat(g);
  outer.prepare_source(b_hat, b);

  WilsonField<double> x(g);
  set_zero(x);
  GcrParams gp;
  gp.tol = 1e-7;
  gp.kmax = 16;
  const SolverStats stats = gcr_solve(outer, x, b_hat, &precond, gp);
  ASSERT_TRUE(stats.converged);
  outer.reconstruct_solution(x, b);

  // Full-system residual against the independent single-domain operator.
  WilsonCloverOperator<double> m(u, &a, mass);
  WilsonField<double> r(g);
  m.apply(r, x);
  scale(-1.0, r);
  axpy(1.0, b, r);
  EXPECT_LT(std::sqrt(norm2(r) / norm2(b)), 1e-6);

  // Traffic split exactly as the paper describes: the preconditioner never
  // exchanged a byte, the outer operator did on every parity hop.
  EXPECT_EQ(dirichlet.traffic().spinor.total_bytes(), 0u);
  EXPECT_GT(dirichlet.traffic().applications, 0);
  EXPECT_GT(outer.traffic().spinor.total_bytes(), 0u);
}

TEST(Integration, FreeWilsonDispersionOnPlaneWaves) {
  // On the free field, M acting on psi(x) = w exp(i p.x) gives
  //   [(m + sum_mu (1 - cos p_mu)) + i sum_mu gamma_mu sin p_mu] w
  // with p_mu = 2 pi n_mu / L_mu.  Checked exactly for several momenta.
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = unit_gauge(g);
  const double mass = 0.3;
  WilsonCloverOperator<double> m(u, nullptr, mass);

  Rng rng(203);
  for (const Coord n : {Coord{0, 0, 0, 0}, Coord{1, 0, 0, 0},
                        Coord{0, 1, 1, 0}, Coord{2, 1, 0, 3},
                        Coord{3, 3, 3, 7}}) {
    double p[kNDim], sin_p[kNDim];
    double mass_term = mass;
    for (int mu = 0; mu < kNDim; ++mu) {
      p[mu] = 2.0 * std::numbers::pi * n[mu] / g.dim(mu);
      sin_p[mu] = std::sin(p[mu]);
      mass_term += 1.0 - std::cos(p[mu]);
    }

    // Random constant spinor w.
    WilsonSpinor<double> w;
    for (int sp = 0; sp < kNSpin; ++sp) {
      for (int c = 0; c < kNColor; ++c) {
        w[sp][c] = Cplx<double>(rng.gaussian(), rng.gaussian());
      }
    }

    // psi(x) = w e^{i p.x}.
    WilsonField<double> psi(g);
    for (std::int64_t s = 0; s < g.volume(); ++s) {
      const Coord x = g.eo_coords(s);
      double phase = 0;
      for (int mu = 0; mu < kNDim; ++mu) phase += p[mu] * x[mu];
      WilsonSpinor<double> v = w;
      v *= Cplx<double>(std::cos(phase), std::sin(phase));
      psi.at(s) = v;
    }

    WilsonField<double> out(g);
    m.apply(out, psi);

    // Expected: [mass_term + i gamma.sin(p)] w modulated by the wave.
    WilsonSpinor<double> expect_w = w;
    expect_w *= mass_term;
    for (int mu = 0; mu < kNDim; ++mu) {
      WilsonSpinor<double> gw = apply_gamma(mu, w);
      gw *= Cplx<double>(0.0, sin_p[mu]);
      expect_w += gw;
    }
    WilsonField<double> expect(g);
    for (std::int64_t s = 0; s < g.volume(); ++s) {
      const Coord x = g.eo_coords(s);
      double phase = 0;
      for (int mu = 0; mu < kNDim; ++mu) phase += p[mu] * x[mu];
      WilsonSpinor<double> v = expect_w;
      v *= Cplx<double>(std::cos(phase), std::sin(phase));
      expect.at(s) = v;
    }

    axpy(-1.0, expect, out);
    EXPECT_LT(norm2(out), 1e-20 * norm2(expect))
        << "momentum (" << n[0] << "," << n[1] << "," << n[2] << "," << n[3]
        << ")";
  }
}

TEST(Integration, GcrSolutionIndependentOfRestartPolicy) {
  const LatticeGeometry g({4, 4, 4, 4});
  const GaugeField<double> u = weak_gauge(g, 204, 0.3);
  WilsonCloverOperator<double> m(u, nullptr, 0.2);
  const WilsonField<double> b = gaussian_wilson_source(g, 205);

  auto solve_with = [&](int kmax, double delta) {
    WilsonField<double> x(g);
    set_zero(x);
    GcrParams gp;
    gp.tol = 1e-10;
    gp.kmax = kmax;
    gp.delta = delta;
    const SolverStats s = gcr_solve(m, x, b, nullptr, gp);
    EXPECT_TRUE(s.converged);
    return x;
  };
  const WilsonField<double> a = solve_with(32, 0.0);
  const WilsonField<double> c = solve_with(4, 0.0);
  const WilsonField<double> d = solve_with(16, 0.3);
  WilsonField<double> diff = a;
  axpy(-1.0, c, diff);
  EXPECT_LT(std::sqrt(norm2(diff) / norm2(a)), 1e-8);
  diff = a;
  axpy(-1.0, d, diff);
  EXPECT_LT(std::sqrt(norm2(diff) / norm2(a)), 1e-8);
}

}  // namespace
}  // namespace lqcd
