// Unit tests of the benchmark's own arithmetic and of its correctness
// gates: every gate must pass on a genuine solution and fail on a
// perturbed one.  Run with `python3 perfbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "checks.h"
#include "core/gcr_dd.h"
#include "core/staggered_multishift.h"
#include "dirac/partitioned_schur.h"
#include "fields/precision.h"
#include "formulas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/staggered_links.h"
#include "harness.h"
#include "probes.h"
#include "spans.h"

using namespace lqcd;
using namespace perfbench;

// ---------------------------------------------------------------------------
// Order statistics, clocks, RSS, result line
// ---------------------------------------------------------------------------

TEST(Harness, MedianOddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Harness, QuantileInterpolatesLikeNumpy) {
  const std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 20);
  EXPECT_DOUBLE_EQ(quantile(v, 0.1), 14);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 50);
}

TEST(Harness, WallClockFollowsSleep) {
  const double t0 = wall_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const double dt = wall_now() - t0;
  EXPECT_GE(dt, 0.099);
  EXPECT_LT(dt, 0.5);
}

namespace {
void spin_for(double seconds) {
  const double t0 = wall_now();
  volatile double x = 1;
  while (wall_now() - t0 < seconds) x = x * 1.0000001 + 1e-9;
}
}  // namespace

TEST(Harness, CpuTimeCountsEveryThreadAndNotSleep) {
  const double c0 = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_LT(process_cpu_seconds() - c0, 0.05);

  const double c1 = process_cpu_seconds();
  std::thread a(spin_for, 0.3), b(spin_for, 0.3);
  a.join();
  b.join();
  // Two threads busy for 0.3 s each: about 0.6 CPU-seconds (less if the
  // machine is oversubscribed, never the 0.3 s of one thread's clock).
  EXPECT_GT(process_cpu_seconds() - c1, 0.45);
}

TEST(Harness, ParsesVmHwm) {
  EXPECT_EQ(parse_vmhwm_kb("Name:\tx\nVmPeak:\t 900 kB\nVmHWM:\t  12345 kB\n"),
            12345);
  EXPECT_EQ(parse_vmhwm_kb("VmRSS:\t 1 kB\n"), -1);
  EXPECT_EQ(parse_vmhwm_kb("VmHWM:\t banana kB\n"), -1);
  EXPECT_EQ(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), -1);
}

TEST(Harness, PeakRssSeesTouchedMemory) {
  const double before = peak_rss_mb();
  std::vector<char> block(96u << 20);
  std::memset(block.data(), 1, block.size());
  EXPECT_GE(peak_rss_mb(), before);
  EXPECT_GE(peak_rss_mb(), 96.0);
  EXPECT_EQ(block[block.size() / 2], 1);
}

TEST(Harness, ResultLineKeepsDigitsAndRefusesNonFinite) {
  EXPECT_EQ(result_json(true, 3, 0, {{"a_s", 0.125, "s"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
            "{\"a_s\": {\"value\": 0.125, \"unit\": \"s\"}}}");
  EXPECT_NE(result_json(false, 1, 1, {{"x", 1.0 / 3.0, "s"}})
                .find("0.33333333333333331"),
            std::string::npos);
  EXPECT_THROW(result_json(true, 1, 0, {{"x", 0.0 / 0.0, "s"}}),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Flop and byte formulas against perfmodel/stencil.h
// ---------------------------------------------------------------------------

TEST(Formulas, SchurWorkMatchesStencilConstants) {
  const LatticeGeometry g({4, 4, 4, 8});
  // 1320 hop + 504 clover flops per site, V sites per Schur apply.
  EXPECT_DOUBLE_EQ(wilson_schur_flops(g), 512.0 * 1824.0);
  EXPECT_DOUBLE_EQ(wilson_schur_flops(g),
                   512.0 * dslash_flops_per_site(StencilKind::WilsonClover));
  // Single: (8 x 24 + 24 + 72) reals of spinor/clover + 8 x 18 link reals.
  EXPECT_DOUBLE_EQ(wilson_schur_bytes(g, Precision::Single),
                   512.0 * ((8 * 24 + 24 + 72) + 8 * 18) * 4.0);
  EXPECT_DOUBLE_EQ(staggered_schur_flops(g), 512.0 * 1146.0);
  EXPECT_DOUBLE_EQ(staggered_schur_bytes(g, Precision::Single),
                   512.0 * ((16 * 6 + 6) + 16 * 18) * 4.0);
  EXPECT_DOUBLE_EQ(caxpy_norm2_bytes(512, 96), 3.0 * 512 * 96);
}

TEST(Formulas, GhostBytesAndMessagesMatchMeteredApply) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 11);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const GaugeField<float> uf = convert_gauge<float>(u);
  const CloverField<float> af = convert_clover<float>(a);
  for (const std::array<int, kNDim> grid :
       {std::array<int, kNDim>{1, 1, 1, 4}, std::array<int, kNDim>{1, 1, 2, 2}}) {
    const Partitioning part(g, grid);
    const PartitionedWilsonCloverSchur<float> op(part, uf, &af, -0.2);
    WilsonField<float> in = convert_field<float>(gaussian_wilson_source(g, 12));
    WilsonField<float> out(g);
    const ExchangeCounters before = op.traffic().spinor;
    op.apply(out, in);
    op.apply(out, in);
    const ExchangeCounters& after = op.traffic().spinor;
    EXPECT_EQ(static_cast<double>(after.total_bytes() - before.total_bytes()),
              2 * wilson_schur_ghost_bytes(part, Precision::Single));
    EXPECT_EQ(static_cast<double>(after.messages - before.messages),
              2 * wilson_schur_messages(part));
  }
}

// ---------------------------------------------------------------------------
// Span aggregation
// ---------------------------------------------------------------------------

TEST(Spans, InclusiveSelfAndSlowestRank) {
  // Track 1000 (a thread): outer [0,100) holds a [10,40) (which holds
  // b [20,30)) and a second child c [50,60).  Ranks 0 and 1 each run one
  // "work" span of 5 and 9 us.
  std::vector<SpanEvent> ev = {
      {"b", 20, 10, 1000, 2}, {"a", 10, 30, 1000, 1}, {"c", 50, 10, 1000, 1},
      {"outer", 0, 100, 1000, 0}, {"work", 0, 5, 0, 0}, {"work", 0, 9, 1, 0},
  };
  const SpanProfile p = aggregate_spans(ev);
  EXPECT_NEAR(p.of("outer").incl_s, 100e-6, 1e-15);
  EXPECT_NEAR(p.of("outer").self_s, 60e-6, 1e-15);  // minus a and c
  EXPECT_NEAR(p.of("a").self_s, 20e-6, 1e-15);      // minus b
  EXPECT_NEAR(p.of("b").self_s, 10e-6, 1e-15);
  EXPECT_EQ(p.of("work").calls, 2);
  EXPECT_NEAR(p.of("work").incl_s, 14e-6, 1e-15);
  EXPECT_NEAR(p.slowest_rank_incl_s("work"), 9e-6, 1e-15);
  EXPECT_EQ(p.slowest_rank_incl_s("outer"), 0.0);  // not on a rank track
  EXPECT_EQ(p.of("missing").calls, 0);
}

// ---------------------------------------------------------------------------
// Correctness gates: pass on a genuine solution, fail on a perturbed one
// ---------------------------------------------------------------------------

namespace {
struct WilsonProblem {
  LatticeGeometry g{{4, 4, 4, 8}};
  GaugeField<double> u = hot_gauge(g, 21);
  CloverField<double> a = build_clover_field(u, 1.0);
  double mass = 0.1;
  double tol = 1e-5;
  WilsonField<double> b = gaussian_wilson_source(g, 22);
};
}  // namespace

TEST(Gates, WilsonResidualPassesGenuineFailsPerturbed) {
  WilsonProblem p;
  GcrDdParams params;
  params.mass = p.mass;
  params.tol = p.tol;
  params.block_grid = {1, 1, 1, 2};
  params.rank_grid = std::array<int, kNDim>{1, 1, 1, 2};
  GcrDdWilsonSolver solver(p.u, &p.a, params);
  WilsonField<double> x(p.g);
  ASSERT_TRUE(solver.solve(x, p.b).converged);
  const WilsonCloverOperator<double> m(p.u, &p.a, p.mass);
  const double cn = clover_max_norm(&p.a);
  const CheckResult ok =
      check_wilson_solution(m, &p.a, p.mass, cn, p.tol, x, p.b);
  EXPECT_TRUE(ok.ok) << ok.value << " > " << ok.bound;
  EXPECT_LT(ok.bound, 1e-4);

  // One site off by 1e-3 of the solution's scale.
  WilsonField<double> bad = x;
  WilsonSpinor<double> d = bad.at(5);
  d *= 1e-3 * std::sqrt(norm2(x) / norm2(d));
  bad.at(5) += d;
  EXPECT_FALSE(check_wilson_solution(m, &p.a, p.mass, cn, p.tol, bad, p.b).ok);
  // A solution of the wrong mass.
  WilsonField<double> other(p.g);
  params.mass = p.mass + 0.01;
  GcrDdWilsonSolver wrong(p.u, &p.a, params);
  ASSERT_TRUE(wrong.solve(other, p.b).converged);
  EXPECT_FALSE(check_wilson_solution(m, &p.a, p.mass, cn, p.tol, other, p.b).ok);
}

TEST(Gates, SchurSourceRatioMatchesSchurOperator) {
  WilsonProblem p;
  const WilsonCloverOperator<double> m(p.u, &p.a, p.mass);
  const WilsonCloverSchurOperator<double> schur(p.u, &p.a, p.mass);
  WilsonField<double> bhat(p.g);
  schur.prepare_source(bhat, p.b);
  EXPECT_NEAR(wilson_schur_source_ratio(m, &p.a, p.mass, p.b),
              std::sqrt(norm2(bhat) / norm2(p.b)), 1e-12);
}

TEST(Gates, DenseCrossCheckFailsOnWrongOperator) {
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, 31);
  const CloverField<double> a = build_clover_field(u, 1.0);
  const WilsonField<double> in = gaussian_wilson_source(g, 32);
  const WilsonCloverOperator<double> m(u, &a, -0.2);
  EXPECT_TRUE(check_wilson_operator_dense(m, u, &a, -0.2, in).ok);
  const WilsonCloverOperator<double> off(u, &a, -0.2 + 1e-6);
  EXPECT_FALSE(check_wilson_operator_dense(off, u, &a, -0.2, in).ok);
}

TEST(Gates, BitwiseEqualCatchesOneBit) {
  const LatticeGeometry g({2, 2, 2, 4});
  const WilsonField<double> a = gaussian_wilson_source(g, 41);
  WilsonField<double> b = a;
  EXPECT_TRUE(bitwise_equal(a, b));
  // The lowest mantissa bit of the first real of site 3 (little endian).
  reinterpret_cast<unsigned char*>(b.sites().data() + 3)[0] ^= 1;
  EXPECT_FALSE(bitwise_equal(a, b));
}

TEST(Gates, AsqtadShiftsAndNormOrder) {
  const LatticeGeometry g({4, 4, 4, 8});
  const GaugeField<double> u = hot_gauge(g, 51);
  const AsqtadLinks links = build_asqtad_links(u);
  StaggeredMultishiftParams p;
  p.mass = 0.1;
  p.shifts = {0.0, 0.05, 0.25};
  StaggeredField<double> b = gaussian_staggered_source(g, 52);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  StaggeredMultishiftSolver solver(links.fat, links.lng, p);
  const StaggeredMultishiftResult r = solver.solve(b);
  const StaggeredOperator<double> m(links.fat, links.lng, p.mass);
  std::vector<double> norms;
  for (std::size_t i = 0; i < p.shifts.size(); ++i) {
    const CheckResult c =
        check_staggered_shift(m, p.shifts[i], p.tol_final, r.solutions[i], b);
    EXPECT_TRUE(c.ok) << i << ": " << c.value << " > " << c.bound;
    norms.push_back(std::sqrt(norm2(r.solutions[i])));

    StaggeredField<double> bad = r.solutions[i];
    bad.at(7)[0] += 1e-6;
    EXPECT_FALSE(check_staggered_shift(m, p.shifts[i], p.tol_final, bad, b).ok);
    // The solution of a neighbouring shift is not this shift's solution.
    const std::size_t j = (i + 1) % p.shifts.size();
    EXPECT_FALSE(
        check_staggered_shift(m, p.shifts[i], p.tol_final, r.solutions[j], b).ok);
  }
  EXPECT_TRUE(norms_strictly_decreasing(p.shifts, norms));
  std::vector<double> swapped = norms;
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(norms_strictly_decreasing(p.shifts, swapped));
  std::vector<double> tied = norms;
  tied[2] = tied[1];
  EXPECT_FALSE(norms_strictly_decreasing(p.shifts, tied));
  EXPECT_FALSE(norms_strictly_decreasing({0.0, 0.0}, {2.0, 1.0}));
}

// ---------------------------------------------------------------------------
// Probes
// ---------------------------------------------------------------------------

TEST(Probes, TriadAndPeakArePositive) {
  const TriadResult t = stream_triad(4u << 20, 2);
  EXPECT_GT(t.gbs, 0.0);
  EXPECT_EQ(t.array_bytes, 4u << 20);
  EXPECT_GT(peak_gflops_single(1 << 20, 1), 0.0);
  EXPECT_GT(llc_bytes(), 0u);
}
