// Ablation over the Schwarz preconditioner family — the design space the
// paper's conclusions sketch ("more sophisticated methods with overlapping
// domains or multiple levels of Schwarz-type blocking ... can be devised"):
//
//   * additive, non-overlapping (the paper's production GCR-DD setting),
//   * restricted additive with overlap 1 and 2 (§3.2's tunable parameter),
//   * multiplicative (SAP, Luscher's scheme, the paper's ref. [20]).
//
// All run as preconditioners of the same flexible GCR on the same
// thermalized Wilson-clover system; the table shows outer iterations and
// total inner MR work.  Communication cost differs too: additive needs
// none, overlap needs a halo exchange per application, SAP needs a full
// operator application per colour — reported qualitatively in the legend.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "dirac/wilson_ops.h"
#include "solvers/block_schwarz.h"
#include "solvers/gcr.h"
#include "solvers/overlap_schwarz.h"
#include "solvers/sap.h"
#include "tune/schwarz_policy.h"
#include "tune/tune_cache.h"
#include "tune/tune_launch.h"
#include "util/stopwatch.h"

using namespace lqcd;
using namespace lqcd::bench;

int main(int argc, char** argv) {
  lqcd::bench::BenchObs obs(argc, argv);
  const LatticeGeometry g({8, 8, 8, 16});
  const GaugeField<double> u = make_config(g, 5.9, 3, 4242);
  const CloverField<double> clover = build_clover_field(u, 1.0);
  const double mass = -0.4;
  const WilsonField<double> b = gaussian_wilson_source(g, 43);

  WilsonCloverOperator<double> m(u, &clover, mass);
  BlockMask mask(g, {1, 1, 2, 4});
  WilsonCloverOperator<double> dirichlet(u, &clover, mass, &mask);
  const PerRhsMultiOperator<WilsonField<double>> dirichlet_batch(dirichlet);

  GcrParams gp;
  gp.tol = 1e-6;
  gp.kmax = 16;
  gp.max_iter = 500;

  auto residual = [&](const WilsonField<double>& x) {
    WilsonField<double> r(g);
    m.apply(r, x);
    scale(-1.0, r);
    axpy(1.0, b, r);
    return std::sqrt(norm2(r) / norm2(b));
  };

  std::printf("== Schwarz preconditioner ablation (8^3x16, 8 blocks, "
              "Wilson-clover, mass %.2f) ==\n\n",
              mass);
  std::printf("%-26s  %10s  %12s  %12s\n", "preconditioner", "GCR iters",
              "inner MR", "|r|/|b|");

  {
    WilsonField<double> x(g);
    set_zero(x);
    const SolverStats s = gcr_solve(m, x, b, nullptr, gp);
    std::printf("%-26s  %10d  %12s  %12.1e\n", "none", s.iterations, "-",
                residual(x));
  }
  {
    SchwarzPreconditioner<WilsonField<double>> pre(dirichlet_batch, mask,
                                                   MrParams{10, 1.0});
    WilsonField<double> x(g);
    set_zero(x);
    const SolverStats s = gcr_solve(m, x, b, &pre, gp);
    std::printf("%-26s  %10d  %12d  %12.1e\n", "additive (paper, comm-free)",
                s.iterations, pre.inner_steps(), residual(x));
  }
  for (int overlap : {1, 2}) {
    auto factory = [&](const LinkCut& cut) {
      return std::make_unique<WilsonCloverOperator<double>>(u, &clover, mass,
                                                            &cut);
    };
    OverlapSchwarzPreconditioner<WilsonField<double>> pre(
        g, mask, factory, OverlapSchwarzParams{overlap, MrParams{10, 1.0}});
    WilsonField<double> x(g);
    set_zero(x);
    const SolverStats s = gcr_solve(m, x, b, &pre, gp);
    std::printf("restricted additive, o=%d    %10d  %12d  %12.1e\n", overlap,
                s.iterations, pre.inner_steps(), residual(x));
  }
  {
    SapPreconditioner<WilsonField<double>> pre(m, dirichlet, mask,
                                               SapParams{1, MrParams{5, 1.0}});
    WilsonField<double> x(g);
    set_zero(x);
    const SolverStats s = gcr_solve(m, x, b, &pre, gp);
    std::printf("%-26s  %10d  %12d  %12.1e\n", "multiplicative (SAP)",
                s.iterations, pre.inner_steps(), residual(x));
  }

  std::printf("\ncommunication per application: additive none; overlap o "
              "needs an o-deep halo\nexchange; SAP needs one full-operator "
              "residual refresh per colour.\n");

  // --- Policy-class autotuner sweep ---------------------------------------
  // Block geometry and MR step count change the preconditioner (and hence
  // the iterates), so they are TuneClass::policy knobs: the driver refuses
  // them unless the caller opts in with allow_policy.  Each candidate is a
  // full preconditioned GCR solve; the tuner picks the fastest.
  std::printf("\n== Schwarz policy sweep (block grid x MR steps, "
              "policy-class tunable) ==\n\n");

  std::vector<SchwarzPolicy> policies =
      enumerate_schwarz_policies(g, /*max_blocks=*/8, {5, 10});
  if (policies.size() > 8) policies.resize(8);

  struct SweepRow {
    std::string param;
    double seconds = 0.0;
    int iters = 0;
    int inner = 0;
  };
  std::vector<SweepRow> rows;

  SchwarzPolicy active = policies.front();
  SchwarzPolicyTunable tunable(
      g, policies, [&](const SchwarzPolicy& p) { active = p; },
      [&] {
        BlockMask pm(g, active.block_grid);
        WilsonCloverOperator<double> cut(u, &clover, mass, &pm);
        const PerRhsMultiOperator<WilsonField<double>> cut_batch(cut);
        SchwarzPreconditioner<WilsonField<double>> pre(
            cut_batch, pm, MrParams{active.mr_steps, 1.0});
        WilsonField<double> x(g);
        set_zero(x);
        Stopwatch sw;
        const SolverStats s = gcr_solve(m, x, b, &pre, gp);
        rows.push_back(
            {active.param(), sw.seconds(), s.iterations, pre.inner_steps()});
      });

  TuneOptions topts;
  topts.allow_policy = true;  // explicit opt-in: candidates change numerics
  topts.warmups = 0;
  topts.reps = 1;
  TuneCache sweep_cache;  // keep solver-level policies out of the kernel cache
  topts.cache = &sweep_cache;
  const TuneResult best = tune_launch(tunable, topts);

  std::printf("%-16s  %10s  %10s  %12s\n", "bx.by.bz.bt/mr", "GCR iters",
              "inner MR", "solve [ms]");
  for (const SweepRow& r : rows) {
    std::printf("%-16s  %10d  %10d  %12.1f%s\n", r.param.c_str(), r.iters,
                r.inner, 1e3 * r.seconds,
                r.param == best.param ? "   <-- best" : "");
  }
  std::printf("\nbest policy %s: %.1f ms vs %.1f ms for the default (%.2fx)\n",
              best.param.c_str(), best.best_us / 1e3, best.default_us / 1e3,
              best.default_us / best.best_us);
  return 0;
}
