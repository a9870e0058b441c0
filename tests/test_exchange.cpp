// Ghost-zone exchange: scattered + exchanged fields must reproduce the
// global field's periodic neighbours exactly, and the byte meters must
// match the analytic face sizes.
#include <gtest/gtest.h>

#include <cstring>

#include "comm/domain_map.h"
#include "fields/blas.h"
#include "comm/exchange.h"
#include "gauge/configure.h"

namespace lqcd {
namespace {

struct Case {
  std::array<int, 4> dims;
  std::array<int, 4> grid;
  int max_hop;
};

class ExchangeTest : public ::testing::TestWithParam<Case> {};

TEST_P(ExchangeTest, StaggeredGhostsMatchGlobalNeighbors) {
  const Case c = GetParam();
  Partitioning part(LatticeGeometry(c.dims), c.grid);
  const LatticeGeometry& g = part.global();
  NeighborTable nt(part.local(), part.partitioned_dims(), c.max_hop);
  DomainMap map(part);

  StaggeredField<double> global = gaussian_staggered_source(g, 99);
  std::vector<StaggeredField<double>> locals;
  map.scatter(global, locals);
  std::vector<GhostZones<ColorVector<double>>> ghosts(
      static_cast<std::size_t>(part.num_ranks()),
      GhostZones<ColorVector<double>>(nt));
  ExchangeCounters counters;
  exchange_ghosts<IdentityPacker<ColorVector<double>>>(part, nt, locals,
                                                       ghosts, &counters);

  const std::vector<int> hops = c.max_hop == 3 ? std::vector<int>{1, 3}
                                               : std::vector<int>{1};
  for (int r = 0; r < part.num_ranks(); ++r) {
    for (std::int64_t s = 0; s < part.local().volume(); ++s) {
      const Coord lx = part.local().eo_coords(s);
      const Coord gx = part.global_coord(r, lx);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (int d : {+1, -1}) {
          for (int h : hops) {
            const auto ref = nt.neighbor(s, mu, d, h);
            const Coord gn = g.shifted(gx, mu, d * h);
            ColorVector<double> got;
            if (ref.local()) {
              got = locals[static_cast<std::size_t>(r)].at(ref.index);
            } else {
              got = ghosts[static_cast<std::size_t>(r)].at(ref.zone, ref.index);
            }
            const ColorVector<double> expect = global.at(gn);
            ASSERT_LT(norm2(got - expect), 1e-24)
                << "rank " << r << " mu " << mu << " d " << d << " h " << h;
          }
        }
      }
    }
  }

  // Metered bytes match analytic: per rank and partitioned dim,
  // 2 * depth * face_volume * sizeof(site).
  for (int mu = 0; mu < kNDim; ++mu) {
    std::uint64_t expect = 0;
    if (part.partitioned(mu)) {
      expect = 2ull * static_cast<std::uint64_t>(part.num_ranks()) *
               static_cast<std::uint64_t>(nt.ghost_depth()) *
               static_cast<std::uint64_t>(nt.face_volume(mu)) *
               sizeof(ColorVector<double>);
    }
    EXPECT_EQ(counters.bytes_by_dim[static_cast<std::size_t>(mu)], expect);
  }
}

TEST_P(ExchangeTest, WilsonProjectedGhostsMatchProjection) {
  const Case c = GetParam();
  if (c.max_hop != 1) GTEST_SKIP();
  Partitioning part(LatticeGeometry(c.dims), c.grid);
  const LatticeGeometry& g = part.global();
  NeighborTable nt(part.local(), part.partitioned_dims(), 1);
  DomainMap map(part);

  WilsonField<double> global = gaussian_wilson_source(g, 7);
  std::vector<WilsonField<double>> locals;
  map.scatter(global, locals);
  std::vector<GhostZones<HalfSpinor<double>>> ghosts(
      static_cast<std::size_t>(part.num_ranks()),
      GhostZones<HalfSpinor<double>>(nt));
  exchange_ghosts<WilsonProjectPacker<double>>(part, nt, locals, ghosts,
                                               nullptr);

  for (int r = 0; r < part.num_ranks(); ++r) {
    for (std::int64_t s = 0; s < part.local().volume(); ++s) {
      const Coord lx = part.local().eo_coords(s);
      const Coord gx = part.global_coord(r, lx);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (int d : {+1, -1}) {
          const auto ref = nt.neighbor(s, mu, d, 1);
          if (ref.local()) continue;
          const Coord gn = g.shifted(gx, mu, d);
          // Forward ghosts carry (1 - gamma) projections, backward (1 +).
          const HalfSpinor<double> expect =
              project(mu, d > 0 ? -1 : +1, global.at(gn));
          const HalfSpinor<double>& got =
              ghosts[static_cast<std::size_t>(r)].at(ref.zone, ref.index);
          for (int a = 0; a < 2; ++a) {
            ASSERT_LT(norm2(got[a] - expect[a]), 1e-24);
          }
        }
      }
    }
  }
}

TEST_P(ExchangeTest, GaugeGhostsMatchGlobalLinks) {
  const Case c = GetParam();
  Partitioning part(LatticeGeometry(c.dims), c.grid);
  const LatticeGeometry& g = part.global();
  NeighborTable nt(part.local(), part.partitioned_dims(), c.max_hop);
  DomainMap map(part);

  const GaugeField<double> global = hot_gauge(g, 5);
  std::vector<GaugeField<double>> locals;
  map.scatter_gauge(global, locals);
  std::vector<GhostZones<Matrix3<double>>> ghosts(
      static_cast<std::size_t>(part.num_ranks()),
      GhostZones<Matrix3<double>>(nt));
  exchange_gauge_ghosts(part, nt, locals, ghosts, nullptr);

  const std::vector<int> hops = c.max_hop == 3 ? std::vector<int>{1, 3}
                                               : std::vector<int>{1};
  for (int r = 0; r < part.num_ranks(); ++r) {
    for (std::int64_t s = 0; s < part.local().volume(); ++s) {
      const Coord lx = part.local().eo_coords(s);
      const Coord gx = part.global_coord(r, lx);
      for (int mu = 0; mu < kNDim; ++mu) {
        for (int h : hops) {
          const auto ref = nt.neighbor(s, mu, -1, h);
          if (ref.local()) continue;
          const Coord gn = g.shifted(gx, mu, -h);
          const Matrix3<double>& got =
              ghosts[static_cast<std::size_t>(r)].at(ref.zone, ref.index);
          ASSERT_LT(norm2(got - global.link(mu, g.eo_index(gn))), 1e-24);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grids, ExchangeTest,
    ::testing::Values(Case{{4, 4, 4, 4}, {1, 1, 1, 2}, 1},
                      Case{{4, 4, 4, 4}, {2, 2, 2, 2}, 1},
                      Case{{4, 4, 4, 8}, {1, 2, 1, 2}, 1},
                      Case{{4, 4, 4, 8}, {1, 1, 1, 2}, 3},
                      Case{{4, 4, 8, 8}, {1, 1, 2, 2}, 3},
                      Case{{8, 4, 4, 8}, {2, 1, 1, 2}, 3}));

TEST(DomainMap, ScatterGatherRoundTrip) {
  Partitioning part(LatticeGeometry({4, 4, 4, 8}), {1, 2, 2, 2});
  DomainMap map(part);
  WilsonField<double> global = gaussian_wilson_source(part.global(), 3);
  std::vector<WilsonField<double>> locals;
  map.scatter(global, locals);
  WilsonField<double> back(part.global());
  map.gather(locals, back);
  axpy(-1.0, global, back);
  EXPECT_EQ(norm2(back), 0.0);
}

TEST(DomainMap, RepeatScatterReusesLocalsBitwise) {
  // A second scatter into already-sized locals overwrites them in place
  // (same data pointers) and matches a scatter into fresh fields bit for
  // bit.
  Partitioning part(LatticeGeometry({4, 4, 4, 8}), {1, 2, 2, 2});
  DomainMap map(part);
  std::vector<WilsonField<double>> locals;
  map.scatter(gaussian_wilson_source(part.global(), 5), locals);
  std::vector<const WilsonSpinor<double>*> data;
  for (const auto& f : locals) data.push_back(f.sites().data());

  const WilsonField<double> global = gaussian_wilson_source(part.global(), 6);
  map.scatter(global, locals);
  std::vector<WilsonField<double>> fresh;
  map.scatter(global, fresh);
  ASSERT_EQ(locals.size(), static_cast<std::size_t>(part.num_ranks()));
  ASSERT_EQ(fresh.size(), locals.size());
  for (std::size_t r = 0; r < locals.size(); ++r) {
    EXPECT_EQ(locals[r].sites().data(), data[r]) << "rank " << r;
    ASSERT_EQ(locals[r].sites().size_bytes(), fresh[r].sites().size_bytes());
    EXPECT_EQ(std::memcmp(locals[r].sites().data(), fresh[r].sites().data(),
                          locals[r].sites().size_bytes()),
              0)
        << "rank " << r;
  }
}

}  // namespace
}  // namespace lqcd
