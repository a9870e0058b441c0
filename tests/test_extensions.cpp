// Extensions beyond the paper's §8 configuration: multiplicative Schwarz
// (SAP) preconditioning, CGNE/CGNR normal-equation solvers, and gauge
// configuration I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "dirac/wilson_ops.h"
#include "fields/blas.h"
#include "gauge/configure.h"
#include "gauge/gauge_io.h"
#include "gauge/heatbath.h"
#include "gauge/observables.h"
#include "solvers/block_schwarz.h"
#include "solvers/gcr.h"
#include "solvers/normal_cg.h"
#include "solvers/overlap_schwarz.h"
#include "solvers/sap.h"

namespace lqcd {
namespace {

struct WilsonSystem {
  LatticeGeometry g{{4, 4, 4, 8}};
  GaugeField<double> u = make_u();
  double mass = 0.05;
  WilsonCloverOperator<double> m{u, nullptr, mass};
  WilsonField<double> b = gaussian_wilson_source(g, 172);

  GaugeField<double> make_u() {
    GaugeField<double> cfg = hot_gauge(g, 171);
    HeatbathParams hb;
    hb.beta = 5.9;
    thermalize(cfg, hb, 3);
    return cfg;
  }

  double residual(const WilsonField<double>& x) {
    WilsonField<double> r(g);
    m.apply(r, x);
    scale(-1.0, r);
    axpy(1.0, b, r);
    return std::sqrt(norm2(r) / norm2(b));
  }
};

TEST(Sap, BlockColoringIsProper) {
  LatticeGeometry g({4, 4, 8, 8});
  BlockMask mask(g, {1, 1, 2, 4});
  // block_coords inverts the id ordering, and adjacent (non-wrapping)
  // blocks along any grid dimension carry opposite colours.
  for (int b = 0; b < mask.num_blocks(); ++b) {
    const Coord c = mask.block_coords(b);
    int id = 0;
    for (int k = kNDim - 1; k >= 0; --k) {
      id = id * mask.grid()[static_cast<std::size_t>(k)] + c[k];
    }
    EXPECT_EQ(id, b);
    for (int mu = 0; mu < kNDim; ++mu) {
      if (c[mu] + 1 >= mask.grid()[static_cast<std::size_t>(mu)]) continue;
      Coord n = c;
      n[mu] += 1;
      int nid = 0;
      for (int k = kNDim - 1; k >= 0; --k) {
        nid = nid * mask.grid()[static_cast<std::size_t>(k)] + n[k];
      }
      EXPECT_NE(mask.block_color(b), mask.block_color(nid));
    }
  }
}

TEST(Sap, RestrictToColorPartitions) {
  LatticeGeometry g({4, 4, 4, 8});
  BlockMask mask(g, {1, 1, 2, 2});
  WilsonField<double> f = gaussian_wilson_source(g, 173);
  WilsonField<double> red = f;
  WilsonField<double> black = f;
  restrict_to_color(red, mask, 0);
  restrict_to_color(black, mask, 1);
  WilsonField<double> sum = red;
  axpy(1.0, black, sum);
  axpy(-1.0, f, sum);
  EXPECT_EQ(norm2(sum), 0.0);
  EXPECT_GT(norm2(red), 0.0);
  EXPECT_GT(norm2(black), 0.0);
}

TEST(Sap, PreconditionerAcceleratesGcr) {
  WilsonSystem sys;
  BlockMask mask(sys.g, {1, 1, 2, 2});
  WilsonCloverOperator<double> dirichlet(sys.u, nullptr, sys.mass, &mask);

  GcrParams gp;
  gp.tol = 1e-7;
  gp.kmax = 16;

  WilsonField<double> x_plain(sys.g);
  set_zero(x_plain);
  const SolverStats plain = gcr_solve(sys.m, x_plain, sys.b, nullptr, gp);

  SapPreconditioner<WilsonField<double>> sap(sys.m, dirichlet, mask,
                                             SapParams{1, {4, 1.0}});
  WilsonField<double> x_sap(sys.g);
  set_zero(x_sap);
  const SolverStats with_sap = gcr_solve(sys.m, x_sap, sys.b, &sap, gp);

  EXPECT_TRUE(plain.converged);
  EXPECT_TRUE(with_sap.converged);
  EXPECT_LT(with_sap.iterations, plain.iterations);
  EXPECT_LT(sys.residual(x_sap), 1e-6);
}

TEST(Sap, MultiplicativeBeatsAdditiveAtEqualInnerWork) {
  // One SAP cycle with n MR steps per colour does the same block-solve work
  // as 2n additive MR steps but refreshes the residual in between; it
  // should not need more outer iterations.
  WilsonSystem sys;
  BlockMask mask(sys.g, {1, 1, 2, 2});
  WilsonCloverOperator<double> dirichlet(sys.u, nullptr, sys.mass, &mask);
  const PerRhsMultiOperator<WilsonField<double>> dirichlet_batch(dirichlet);

  GcrParams gp;
  gp.tol = 1e-6;
  gp.kmax = 16;

  SchwarzPreconditioner<WilsonField<double>> additive(dirichlet_batch, mask,
                                                      MrParams{8, 1.0});
  WilsonField<double> x_add(sys.g);
  set_zero(x_add);
  const SolverStats add = gcr_solve(sys.m, x_add, sys.b, &additive, gp);

  SapPreconditioner<WilsonField<double>> sap(sys.m, dirichlet, mask,
                                             SapParams{1, {4, 1.0}});
  WilsonField<double> x_sap(sys.g);
  set_zero(x_sap);
  const SolverStats mult = gcr_solve(sys.m, x_sap, sys.b, &sap, gp);

  EXPECT_TRUE(add.converged);
  EXPECT_TRUE(mult.converged);
  EXPECT_LE(mult.iterations, add.iterations + 1);
}

TEST(RegionMask, ContainsWithWrap) {
  LatticeGeometry g({8, 8, 8, 8});
  // Region wrapping the X boundary: x in {6, 7, 0, 1}.
  RegionMask region(g, {6, 0, 0, 0}, {4, 8, 8, 8});
  EXPECT_TRUE(region.contains({6, 3, 3, 3}));
  EXPECT_TRUE(region.contains({1, 0, 0, 0}));
  EXPECT_FALSE(region.contains({2, 0, 0, 0}));
  EXPECT_FALSE(region.contains({5, 7, 7, 7}));
}

TEST(RegionMask, CrossesAtRegionBoundaryOnly) {
  LatticeGeometry g({8, 8, 8, 8});
  RegionMask region(g, {2, 0, 0, 0}, {4, 8, 8, 8});  // x in [2, 6)
  EXPECT_FALSE(region.crosses({3, 0, 0, 0}, 0, +1));
  EXPECT_TRUE(region.crosses({5, 0, 0, 0}, 0, +1));
  EXPECT_TRUE(region.crosses({2, 0, 0, 0}, 0, -1));
  EXPECT_TRUE(region.crosses({4, 0, 0, 0}, 0, +3));  // path exits at 6
  // Hops starting outside the region are cut in every direction.
  EXPECT_TRUE(region.crosses({0, 7, 0, 0}, 1, +1));
  // Full-extent dimensions are never cut for in-region sites.
  EXPECT_FALSE(region.crosses({3, 7, 0, 0}, 1, +1));
  EXPECT_FALSE(region.crosses({3, 0, 0, 7}, 3, +3));
}

TEST(OverlapSchwarz, ZeroOverlapEqualsAdditiveSchwarz) {
  WilsonSystem sys;
  BlockMask mask(sys.g, {1, 1, 2, 2});
  WilsonCloverOperator<double> dirichlet(sys.u, nullptr, sys.mass, &mask);
  const PerRhsMultiOperator<WilsonField<double>> dirichlet_batch(dirichlet);
  const MrParams mr{6, 1.0};

  SchwarzPreconditioner<WilsonField<double>> additive(dirichlet_batch, mask,
                                                      mr);
  OverlapSchwarzPreconditioner<WilsonField<double>> overlapped(
      sys.g, mask,
      [&](const LinkCut& cut) {
        return std::make_unique<WilsonCloverOperator<double>>(
            sys.u, nullptr, sys.mass, &cut);
      },
      OverlapSchwarzParams{0, mr});

  WilsonField<double> out_add(sys.g), out_ovl(sys.g);
  additive.apply(out_add, sys.b);
  overlapped.apply(out_ovl, sys.b);
  axpy(-1.0, out_add, out_ovl);
  EXPECT_LT(norm2(out_ovl), 1e-20 * norm2(out_add));
}

TEST(OverlapSchwarz, OverlapReducesOuterIterations) {
  // §3.2: "a larger overlap will typically lead to requiring fewer
  // iterations to reach convergence".
  WilsonSystem sys;
  BlockMask mask(sys.g, {1, 1, 1, 4});
  WilsonCloverOperator<double> dirichlet(sys.u, nullptr, sys.mass, &mask);
  const MrParams mr{6, 1.0};
  auto factory = [&](const LinkCut& cut) {
    return std::make_unique<WilsonCloverOperator<double>>(sys.u, nullptr,
                                                          sys.mass, &cut);
  };

  GcrParams gp;
  gp.tol = 1e-6;
  gp.kmax = 16;

  OverlapSchwarzPreconditioner<WilsonField<double>> o0(
      sys.g, mask, factory, OverlapSchwarzParams{0, mr});
  WilsonField<double> x0(sys.g);
  set_zero(x0);
  const SolverStats s0 = gcr_solve(sys.m, x0, sys.b, &o0, gp);

  OverlapSchwarzPreconditioner<WilsonField<double>> o1(
      sys.g, mask, factory, OverlapSchwarzParams{1, mr});
  WilsonField<double> x1(sys.g);
  set_zero(x1);
  const SolverStats s1 = gcr_solve(sys.m, x1, sys.b, &o1, gp);

  EXPECT_TRUE(s0.converged);
  EXPECT_TRUE(s1.converged);
  EXPECT_LE(s1.iterations, s0.iterations);
  EXPECT_LT(sys.residual(x1), 1e-5);
}

TEST(NormalCg, CgnrSolvesWilson) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  CgParams p;
  p.tol = 1e-10;
  p.max_iter = 20000;
  const SolverStats stats = cgnr_solve(sys.m, x, sys.b, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(sys.residual(x), 1e-7);
}

TEST(NormalCg, CgneSolvesWilson) {
  WilsonSystem sys;
  WilsonField<double> x(sys.g);
  set_zero(x);
  CgParams p;
  p.tol = 1e-10;
  p.max_iter = 20000;
  const SolverStats stats = cgne_solve(sys.m, x, sys.b, p);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(sys.residual(x), 1e-7);
}

TEST(NormalCg, BothAgreeWithEachOther) {
  WilsonSystem sys;
  WilsonField<double> x1(sys.g), x2(sys.g);
  set_zero(x1);
  set_zero(x2);
  CgParams p;
  p.tol = 1e-11;
  p.max_iter = 20000;
  cgnr_solve(sys.m, x1, sys.b, p);
  cgne_solve(sys.m, x2, sys.b, p);
  axpy(-1.0, x2, x1);
  EXPECT_LT(std::sqrt(norm2(x1) / norm2(x2)), 1e-6);
}

TEST(GaugeIo, RoundTripExact) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 174);
  const std::string path = ::testing::TempDir() + "/gauge_roundtrip.lqcd";
  save_gauge(u, path);
  const GaugeField<double> v = load_gauge(path);
  EXPECT_EQ(v.geometry().dims(), g.dims());
  double diff = 0;
  for (std::int64_t s = 0; s < g.volume(); ++s) {
    for (int mu = 0; mu < kNDim; ++mu) {
      diff += norm2(u.link(mu, s) - v.link(mu, s));
    }
  }
  EXPECT_EQ(diff, 0.0);
  EXPECT_EQ(average_plaquette(u), average_plaquette(v));
  std::remove(path.c_str());
}

TEST(GaugeIo, RejectsCorruptedPayload) {
  const LatticeGeometry g({2, 2, 2, 2});
  const GaugeField<double> u = hot_gauge(g, 175);
  const std::string path = ::testing::TempDir() + "/gauge_corrupt.lqcd";
  save_gauge(u, path);
  // Flip one byte in the payload.
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 64 + 100, SEEK_SET);
  const unsigned char x = 0xff;
  std::fwrite(&x, 1, 1, f);
  std::fclose(f);
  EXPECT_THROW((void)load_gauge(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GaugeIo, RejectsWrongMagic) {
  const std::string path = ::testing::TempDir() + "/gauge_bad_magic.lqcd";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[128] = "not a gauge file";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  EXPECT_THROW((void)load_gauge(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(GaugeIo, MissingFileThrows) {
  EXPECT_THROW((void)load_gauge("/nonexistent/path/gauge.lqcd"),
               std::runtime_error);
}

TEST(GaugeIo, ChecksumIsStable) {
  const char data[] = "lattice";
  EXPECT_EQ(fnv1a(data, 7), fnv1a(data, 7));
  EXPECT_NE(fnv1a(data, 7), fnv1a(data, 6));
}

}  // namespace
}  // namespace lqcd
