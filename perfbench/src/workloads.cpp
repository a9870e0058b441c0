// The three workloads.  Each run has the same shape:
//
//   input generation  gauge configuration (fixed per workload) and sources
//                     (from --seed); not timed
//   set-up            derived fields, solver or service construction and a
//                     warm-up solve with its tune sessions -> setup_s
//   timed phase       closed loop of solves for --seconds of solve time; each
//                     solution is gated right after its solve, outside the
//                     timed intervals
//   traced run        (--trace 1 instead of the timed phase) fixed solve
//                     counts untraced then traced, span aggregation, and the
//                     public-function microloops of every layer the workload
//                     runs
//
// Sources cycle through a small pool so every source is solved more than
// once: a repeat must reproduce the first solve's iteration and matvec
// counts and its solution bit for bit.

#include "workloads.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>

#include "checks.h"
#include "comm/domain_map.h"
#include "core/gcr_dd.h"
#include "core/staggered_multishift.h"
#include "dirac/even_odd.h"
#include "fault/fault.h"
#include "fields/blas.h"
#include "fields/precision.h"
#include "formulas.h"
#include "gauge/clover_leaf.h"
#include "gauge/configure.h"
#include "gauge/heatbath.h"
#include "gauge/staggered_links.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "probes.h"
#include "serve/service.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace lqcd;

// ----------------------------------------------------------------------------
// Per-layer metric table
// ----------------------------------------------------------------------------

struct LayerSpec {
  const char* name;
  const char* unit;
};

// Grouped by the workload whose end-to-end metrics they should move (see
// README.md for the mapping).
const std::vector<LayerSpec>& layer_specs() {
  static const std::vector<LayerSpec> specs = {
      {"solvers.gcr.iterations", "count"},
      {"solvers.gcr.matvecs", "count"},
      {"solvers.schwarz.mr_steps", "count"},
      {"solvers.gcr.self_s", "s"},
      {"solvers.schwarz.apply_s", "s"},
      {"solvers.schwarz.mr_op_s", "s"},
      {"solvers.schwarz.mr_rest_s", "s"},
      {"solvers.block_gcr.iterations", "count"},
      {"solvers.block_schwarz.apply_s", "s"},
      {"solvers.block_schwarz.mr_op_s", "s"},
      {"solvers.multishift.iterations", "count"},
      {"solvers.multishift.stage_s", "s"},
      {"solvers.refine.inner_iterations", "count"},
      {"solvers.refine.stage_s", "s"},
      {"solvers.staggered.matvecs", "count"},
      {"dirac.wilson_schur_apply_s", "s"},
      {"dirac.wilson_schur_gflops", "Gflop/s"},
      {"dirac.wilson_schur_gbs", "GB/s"},
      {"dirac.dirichlet_apply_s", "s"},
      {"dirac.multi_rhs_apply_s_per_rhs.serve_width", "s"},
      {"dirac.multi_rhs_apply_s_per_rhs.width1", "s"},
      {"dirac.staggered_schur_apply_s", "s"},
      {"dirac.staggered_gflops", "Gflop/s"},
      {"comm.interior_s", "s"},
      {"comm.exterior_s", "s"},
      {"comm.wait_s", "s"},
      {"comm.post_s", "s"},
      {"comm.overlap_efficiency", "ratio"},
      {"comm.ghost_bytes_per_apply", "B"},
      {"comm.messages_per_apply", "count"},
      {"comm.scatter_gather_s", "s"},
      {"fields.half_roundtrip_s", "s"},
      {"fields.convert_s", "s"},
      {"fields.blas.sweeps_per_solve", "count"},
      {"fields.blas.caxpy_norm2_gbs", "GB/s"},
      {"fields.blas.block_cdot_s", "s"},
      {"gauge.clover_build_s", "s"},
      {"gauge.asqtad_links_s", "s"},
      {"tune.session_s", "s"},
      {"tune.misses", "count"},
      {"serve.wait_p50_s", "s"},
      {"serve.batch_occupancy_mean", "count"},
      {"serve.dispatch_busy_s", "s"},
      {"serve.batches", "count"},
      {"machine.stream_triad_gbs", "GB/s"},
      {"machine.peak_gflops_sp", "Gflop/s"},
      {"obs.tracing_overhead_s", "s"},
  };
  return specs;
}

/// Per-layer values of one traced run; absent layers read 0.
class Layers {
 public:
  void set(const std::string& name, double v) {
    for (const auto& s : layer_specs()) {
      if (name == s.name) {
        values_[name] = v;
        return;
      }
    }
    throw std::logic_error("unknown per-layer metric " + name);
  }
  std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const auto& s : layer_specs()) {
      auto it = values_.find(s.name);
      out.push_back({s.name, it == values_.end() ? 0.0 : it->second, s.unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

// ----------------------------------------------------------------------------
// Shared helpers
// ----------------------------------------------------------------------------

/// splitmix64: decorrelated source seeds from (--seed, source index).
std::uint64_t source_seed(std::uint64_t seed, int k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull *
                                                       static_cast<std::uint64_t>(k + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

GaugeField<double> make_config(const LatticeGeometry& g, double beta,
                               int sweeps, std::uint64_t seed) {
  GaugeField<double> u = hot_gauge(g, seed);
  HeatbathParams hb;
  hb.beta = beta;
  hb.seed = seed;
  thermalize(u, hb, sweeps);
  return u;
}

/// Median wall time of one call of \p fn: at least \p min_reps calls and
/// at least \p min_s seconds of calls, after one untimed call.
double time_median(const std::function<void()>& fn, int min_reps = 5,
                   double min_s = 0.3) {
  fn();
  std::vector<double> t;
  const double start = wall_now();
  while (static_cast<int>(t.size()) < min_reps || wall_now() - start < min_s) {
    const double t0 = wall_now();
    fn();
    t.push_back(wall_now() - t0);
  }
  return median(t);
}

std::uint64_t field_hash(const WilsonField<double>& f) {
  return fnv1a(f.sites().data(), f.sites().size_bytes());
}
std::uint64_t field_hash(const StaggeredField<double>& f) {
  return fnv1a(f.sites().data(), f.sites().size_bytes());
}

/// What a repeat solve of a source must reproduce exactly.
struct Fingerprint {
  int iterations = -1;
  int matvecs = -1;
  int inner = -1;
  std::uint64_t hash = 0;
  bool operator==(const Fingerprint&) const = default;
};

/// The timed-phase tally shared by the workloads.
struct TimedPhase {
  std::vector<double> solve_s;  ///< one entry per RHS (submit -> ready)
  double wall_s = 0;            ///< summed timed intervals
  double cpu_s = 0;             ///< process CPU over the same intervals
  long rhs = 0;
};

void end_to_end(RunResult& res, double setup_s, const TimedPhase& tp) {
  if (tp.rhs == 0) throw std::runtime_error("timed phase solved nothing");
  res.metrics = {
      {"setup_s", setup_s, "s"},
      {"solve_p50_s", median(tp.solve_s), "s"},
      {"rhs_per_s", static_cast<double>(tp.rhs) / tp.wall_s, "1/s"},
      {"cpu_s_per_rhs", tp.cpu_s / static_cast<double>(tp.rhs), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

void fail_check(RunResult& res, const char* what, const CheckResult& c) {
  res.correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s (%.6g > bound %.6g)\n",
               what, c.value, c.bound);
}

void fail(RunResult& res, const std::string& what) {
  res.correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

/// Tracing on, span buffers empty.
void start_trace() {
  reset_trace();
  set_trace_enabled(true);
}

SpanProfile stop_trace() {
  set_trace_enabled(false);
  SpanProfile p = aggregate_spans(trace_events());
  reset_trace();
  return p;
}

void print_profile(const char* title, const SpanProfile& p) {
  std::printf("-- spans: %s --\n%-26s %8s %12s %12s\n", title, "name",
              "calls", "incl_s", "self_s");
  for (const auto& [name, t] : p.by_name) {
    std::printf("%-26s %8ld %12.6f %12.6f\n", name.c_str(), t.calls, t.incl_s,
                t.self_s);
  }
  for (const auto& [key, t] : p.by_name_track) {
    if (key.second >= kFallbackTrackBase) continue;
    std::printf("  rank %d %-19s %8ld %12.6f %12.6f\n", key.second,
                key.first.c_str(), t.calls, t.incl_s, t.self_s);
  }
}

/// Machine probes, printed beside the *_gbs and *_gflops figures.  The
/// triad arrays are each 4x the LLC so the probe streams from memory.
void machine_probes(Layers& L) {
  const std::size_t llc = llc_bytes();
  const TriadResult triad = stream_triad(4 * llc);
  const double peak = peak_gflops_single();
  std::printf("probe: LLC %.1f MB, triad arrays 3 x %.1f MB -> %.2f GB/s; "
              "peak single %.2f Gflop/s on %d threads\n",
              llc / 1048576.0, triad.array_bytes / 1048576.0, triad.gbs, peak,
              probe_threads());
  L.set("machine.stream_triad_gbs", triad.gbs);
  L.set("machine.peak_gflops_sp", peak);
}

/// Tune sessions and misses of the set-up (tracing was on during it).
void setup_tune_layers(Layers& L, const MetricsSnapshot& before) {
  const SpanProfile p = aggregate_spans(trace_events());
  L.set("tune.session_s", p.of("tune.session").incl_s);
  L.set("tune.misses", static_cast<double>(metrics_snapshot().counter("tune.misses") -
                                           before.counter("tune.misses")));
}

/// fields.* microloops on Wilson fields of the workload's volume.
void wilson_field_layers(Layers& L, const WilsonField<double>& b, int kmax) {
  const LatticeGeometry& g = b.geometry();
  WilsonField<float> f = convert_field<float>(b);
  L.set("fields.half_roundtrip_s",
        time_median([&] { half_roundtrip(f, Parity::Even); }));
  // One solve converts its source down and its solution back up.
  L.set("fields.convert_s", time_median([&] {
          WilsonField<float> lo = convert_field<float>(b);
          WilsonField<double> hi = convert_field<double>(lo);
        }));
  WilsonField<float> y = convert_field<float>(b);
  const double t_caxpy = time_median([&] { caxpy_norm2({1e-3, 0.0}, f, y); });
  L.set("fields.blas.caxpy_norm2_gbs",
        caxpy_norm2_bytes(g.volume(), sizeof(WilsonSpinor<float>)) / t_caxpy *
            1e-9);
  // Half the Krylov basis: the average projection width of a GCR cycle.
  std::vector<WilsonField<float>> basis(static_cast<std::size_t>(kmax / 2), f);
  std::vector<const WilsonField<float>*> ptrs;
  for (const auto& v : basis) ptrs.push_back(&v);
  L.set("fields.blas.block_cdot_s", time_median([&] { block_cdot(ptrs, y); }));
}

/// The even half of a source, in single precision: the input shape of the
/// Schur operators.
WilsonField<float> even_single(const WilsonField<double>& b) {
  WilsonField<float> f = convert_field<float>(b);
  const LatticeGeometry& g = b.geometry();
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    f.at(s) = WilsonSpinor<float>{};
  }
  return f;
}

/// Once per run: the operator the Wilson gate trusts, against the dense
/// matrix on a lattice small enough to assemble.
void dense_cross_check(RunResult& res, std::uint64_t seed, double mass,
                       double csw) {
  const LatticeGeometry g({2, 2, 2, 4});
  const GaugeField<double> u = hot_gauge(g, source_seed(seed, 1000));
  const CloverField<double> a = build_clover_field(u, csw);
  const WilsonCloverOperator<double> m(u, &a, mass);
  const CheckResult c = check_wilson_operator_dense(
      m, u, &a, mass, gaussian_wilson_source(g, source_seed(seed, 1001)));
  if (!c.ok) fail_check(res, "Wilson operator vs dense reference", c);
}

// ----------------------------------------------------------------------------
// Wilson gate with the per-source repeat rule
// ----------------------------------------------------------------------------

class WilsonGate {
 public:
  WilsonGate(const GaugeField<double>& u, const CloverField<double>& clover,
             double mass, double tol, int sources)
      : m_(u, &clover, mass), clover_(&clover), mass_(mass), tol_(tol),
        clover_norm_(clover_max_norm(&clover)),
        first_(static_cast<std::size_t>(sources)) {}

  /// Gates one solution of source \p k; false if the operation failed.
  bool check(RunResult& res, int k, const SolverStats& st,
             const WilsonField<double>& x, const WilsonField<double>& b) {
    if (!st.converged) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: solve of source %d did not converge\n",
                   k);
      return false;
    }
    const CheckResult c =
        check_wilson_solution(m_, clover_, mass_, clover_norm_, tol_, x, b);
    worst_ = std::max(worst_, c.value / c.bound);
    if (!c.ok) fail_check(res, "Wilson full double residual", c);
    const Fingerprint fp{st.iterations, st.matvecs, st.inner_iterations,
                         field_hash(x)};
    Fingerprint& first = first_[static_cast<std::size_t>(k)];
    if (first.iterations < 0) {
      first = fp;
    } else if (!(first == fp)) {
      fail(res, "repeat solve of source " + std::to_string(k) +
                    " changed its counts or solution");
    }
    return true;
  }
  double worst_ratio() const { return worst_; }

 private:
  WilsonCloverOperator<double> m_;
  const CloverField<double>* clover_;
  double mass_;
  double tol_;
  double clover_norm_;
  std::vector<Fingerprint> first_;
  double worst_ = 0;
};

}  // namespace

const std::vector<std::string>& per_layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& s : layer_specs()) n.emplace_back(s.name);
    return n;
  }();
  return names;
}

// ============================================================================
// wilson_gcrdd_cluster
// ============================================================================

namespace {
constexpr std::array<int, kNDim> kWilsonDims{12, 12, 12, 24};
constexpr double kWilsonBeta = 5.9;
constexpr int kWilsonSweeps = 2;
constexpr std::uint64_t kWilsonGaugeSeed = 2111;
constexpr double kWilsonMass = -0.2;
constexpr double kWilsonCsw = 1.0;
constexpr double kWilsonTol = 1e-5;
constexpr std::array<int, kNDim> kWilsonGrid{1, 1, 1, 4};  // ranks = blocks
constexpr int kWilsonSources = 3;
constexpr int kWilsonApplies = 10;  // partitioned applies in the comm loop
}  // namespace

RunResult run_wilson_gcrdd_cluster(const Options& opt) {
  RunResult res;
  Layers L;
  const LatticeGeometry g(kWilsonDims);
  const GaugeField<double> u =
      make_config(g, kWilsonBeta, kWilsonSweeps, kWilsonGaugeSeed);
  std::vector<WilsonField<double>> b;
  for (int k = 0; k < kWilsonSources; ++k) {
    b.push_back(gaussian_wilson_source(g, source_seed(opt.seed, k)));
  }

  // ---- set-up
  if (opt.trace) start_trace();
  const MetricsSnapshot m0 = metrics_snapshot();
  const double t_setup = wall_now();
  const double t_clover = wall_now();
  const CloverField<double> clover = build_clover_field(u, kWilsonCsw);
  const double clover_s = wall_now() - t_clover;
  GcrDdParams params;
  params.mass = kWilsonMass;
  params.tol = kWilsonTol;
  params.block_grid = kWilsonGrid;
  params.rank_grid = kWilsonGrid;
  GcrDdWilsonSolver solver(u, &clover, params);
  WilsonField<double> x(g);
  const SolverStats warm = solver.solve(x, b[0]);
  const double setup_s = wall_now() - t_setup;
  if (opt.trace) {
    set_trace_enabled(false);
    setup_tune_layers(L, m0);
    L.set("gauge.clover_build_s", clover_s);
  }

  WilsonGate gate(u, clover, kWilsonMass, kWilsonTol, kWilsonSources);
  ++res.attempted;
  gate.check(res, 0, warm, x, b[0]);

  if (!opt.trace) {
    // ---- timed phase: one client, one solve in flight
    TimedPhase tp;
    for (int n = 0; tp.wall_s < opt.seconds; ++n) {
      const int k = n % kWilsonSources;
      const double c0 = process_cpu_seconds();
      const double t0 = wall_now();
      const SolverStats st = solver.solve(x, b[static_cast<std::size_t>(k)]);
      const double dt = wall_now() - t0;
      tp.cpu_s += process_cpu_seconds() - c0;
      tp.wall_s += dt;
      tp.solve_s.push_back(dt);
      ++tp.rhs;
      ++res.attempted;
      std::printf("solve %d (source %d): %.4f s, %d iterations, %d matvecs, "
                  "%d MR steps\n", n, k, dt, st.iterations, st.matvecs,
                  st.inner_iterations);
      gate.check(res, k, st, x, b[static_cast<std::size_t>(k)]);
    }
    end_to_end(res, setup_s, tp);
  } else {
    // ---- traced run: each source untraced, then each source traced
    std::vector<double> untraced, traced;
    std::vector<SolverStats> stats;
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) start_trace();
      const MetricsSnapshot before = metrics_snapshot();
      for (int k = 0; k < kWilsonSources; ++k) {
        const double t0 = wall_now();
        const SolverStats st = solver.solve(x, b[static_cast<std::size_t>(k)]);
        (pass ? traced : untraced).push_back(wall_now() - t0);
        ++res.attempted;
        gate.check(res, k, st, x, b[static_cast<std::size_t>(k)]);
        if (pass == 1) stats.push_back(st);
      }
      if (pass == 1) {
        const SpanProfile p = stop_trace();
        print_profile("traced solves", p);
        const double n = kWilsonSources;
        double it = 0, mv = 0, mr = 0;
        for (const auto& st : stats) {
          it += st.iterations;
          mv += st.matvecs;
          mr += st.inner_iterations;
        }
        L.set("solvers.gcr.iterations", it / n);
        L.set("solvers.gcr.matvecs", mv / n);
        L.set("solvers.schwarz.mr_steps", mr / n);
        L.set("solvers.gcr.self_s", (p.of("gcr.solve").self_s +
                                     p.of("gcr.iter").self_s +
                                     p.of("gcr.restart").self_s) / n);
        L.set("solvers.schwarz.apply_s", p.of("schwarz.apply").incl_s / n);
        L.set("solvers.schwarz.mr_op_s", p.of("mr.op").incl_s / n);
        L.set("solvers.schwarz.mr_rest_s", p.of("schwarz.apply").self_s / n);
        L.set("fields.blas.sweeps_per_solve",
              static_cast<double>(metrics_snapshot().counter("blas.sweeps") -
                                  before.counter("blas.sweeps")) / n);
      }
    }
    L.set("obs.tracing_overhead_s", median(traced) - median(untraced));

    // ---- dirac: the solver's own outer operator and a Dirichlet-cut twin
    const WilsonField<float> in = even_single(b[0]);
    WilsonField<float> out(g);
    const auto& outer = solver.schur_operator();
    const double t_apply = time_median([&] { outer.apply(out, in); });
    L.set("dirac.wilson_schur_apply_s", t_apply);
    L.set("dirac.wilson_schur_gflops", wilson_schur_flops(g) / t_apply * 1e-9);
    L.set("dirac.wilson_schur_gbs",
          wilson_schur_bytes(g, Precision::Single) / t_apply * 1e-9);
    {
      GaugeField<float> u_half = convert_gauge<float>(u);
      half_roundtrip(u_half);
      const CloverField<float> clover_f = convert_clover<float>(clover);
      const WilsonCloverSchurOperator<float> dd(u_half, &clover_f, kWilsonMass,
                                                &solver.mask());
      L.set("dirac.dirichlet_apply_s", time_median([&] { dd.apply(out, in); }));
    }

    // ---- comm: traced partitioned applies, per apply and slowest rank
    const PartitionedWilsonCloverSchur<float>& part_op =
        *solver.partitioned_operator();
    const ExchangeCounters tr0 = part_op.traffic().spinor;
    const MetricsSnapshot ov0 = metrics_snapshot();
    start_trace();
    for (int i = 0; i < kWilsonApplies; ++i) part_op.apply(out, in);
    const SpanProfile cp = stop_trace();
    print_profile("partitioned applies", cp);
    const MetricsSnapshot ov1 = metrics_snapshot();
    const double na = kWilsonApplies;
    L.set("comm.post_s", cp.slowest_rank_incl_s("dslash.post") / na);
    L.set("comm.interior_s", cp.slowest_rank_incl_s("dslash.interior") / na);
    L.set("comm.wait_s", cp.slowest_rank_incl_s("dslash.wait") / na);
    L.set("comm.exterior_s", cp.slowest_rank_incl_s("dslash.exterior") / na);
    const double interior = ov1.gauge("dslash.overlap.interior_s") -
                            ov0.gauge("dslash.overlap.interior_s");
    const double wait = ov1.gauge("dslash.overlap.wait_s") -
                        ov0.gauge("dslash.overlap.wait_s");
    L.set("comm.overlap_efficiency",
          interior + wait > 0 ? interior / (interior + wait) : 1.0);
    const ExchangeCounters& tr1 = part_op.traffic().spinor;
    const double bytes =
        static_cast<double>(tr1.total_bytes() - tr0.total_bytes()) / na;
    const double msgs = static_cast<double>(tr1.messages - tr0.messages) / na;
    const Partitioning& part = part_op.partitioning();
    const double model_bytes = wilson_schur_ghost_bytes(part, Precision::Single);
    std::printf("comm: metered %.0f B/apply, model %.0f B/apply; metered %.0f "
                "messages/apply, model %.0f\n",
                bytes, model_bytes, msgs, wilson_schur_messages(part));
    if (bytes != model_bytes) fail(res, "metered ghost bytes != perfmodel formula");
    if (msgs != wilson_schur_messages(part)) {
      fail(res, "metered messages != formula");
    }
    L.set("comm.ghost_bytes_per_apply", bytes);
    L.set("comm.messages_per_apply", msgs);
    {
      const DomainMap map(part);
      std::vector<WilsonField<float>> locals;
      // Each of the apply's two hops scatters its input and gathers its
      // output.
      L.set("comm.scatter_gather_s", 2.0 * time_median([&] {
                                       map.scatter(in, locals);
                                       map.gather(locals, out);
                                     }));
    }

    wilson_field_layers(L, b[0], params.kmax);
    machine_probes(L);
    res.metrics = L.metrics();
  }
  std::printf("wilson gate: worst residual / bound = %.3g\n",
              gate.worst_ratio());
  dense_cross_check(res, opt.seed, kWilsonMass, kWilsonCsw);
  return res;
}

// ============================================================================
// serve_multi_rhs
// ============================================================================

namespace {
constexpr std::array<int, kNDim> kServeDims{8, 8, 8, 8};
constexpr double kServeBeta = 5.9;
constexpr int kServeSweeps = 2;
constexpr std::uint64_t kServeGaugeSeed = 4711;
constexpr double kServeMass = -0.2;
constexpr double kServeCsw = 1.0;
constexpr double kServeTol = 1e-5;
constexpr std::array<int, kNDim> kServeBlocks{1, 1, 1, 4};
constexpr int kServeWidth = 4;     // Config::max_batch
constexpr int kServeInFlight = 4;  // requests outstanding (= nproc)
constexpr int kServeSources = 8;   // two full batches of distinct sources
constexpr int kServeSampled = 2;   // bitwise-checked against GcrDdWilsonSolver
}  // namespace

RunResult run_serve_multi_rhs(const Options& opt) {
  RunResult res;
  Layers L;
  const LatticeGeometry g(kServeDims);
  const GaugeField<double> u =
      make_config(g, kServeBeta, kServeSweeps, kServeGaugeSeed);
  std::vector<WilsonField<double>> b;
  for (int k = 0; k < kServeSources; ++k) {
    b.push_back(gaussian_wilson_source(g, source_seed(opt.seed, k)));
  }
  const auto request = [&](int k) {
    serve::Request req;
    req.mass = kServeMass;
    req.tol = kServeTol;
    req.rhs.push_back(b[static_cast<std::size_t>(k)]);
    return req;
  };

  // ---- set-up
  if (opt.trace) start_trace();
  const MetricsSnapshot m0 = metrics_snapshot();
  const double t_setup = wall_now();
  const double t_clover = wall_now();
  const CloverField<double> clover = build_clover_field(u, kServeCsw);
  const double clover_s = wall_now() - t_clover;
  GcrDdParams params;
  params.mass = kServeMass;
  params.tol = kServeTol;
  params.block_grid = kServeBlocks;
  serve::Config cfg;
  cfg.queue_capacity = kServeInFlight;
  cfg.max_batch = kServeWidth;
  cfg.solver = params;
  serve::SolveService svc(u, &clover, cfg);
  std::vector<serve::Result> warm;
  {
    // Warm-up at full width over every source once: builds the cached
    // solver and tunes the width-4 kernels and the narrower widths the
    // converging tail passes through.
    std::vector<std::future<serve::Result>> futs;
    for (int k = 0; k < kServeSources; ++k) futs.push_back(svc.submit(request(k)));
    for (auto& f : futs) warm.push_back(f.get());
  }
  const double setup_s = wall_now() - t_setup;
  if (opt.trace) {
    set_trace_enabled(false);
    setup_tune_layers(L, m0);
    L.set("gauge.clover_build_s", clover_s);
  }

  WilsonGate gate(u, clover, kServeMass, kServeTol, kServeSources);
  for (int k = 0; k < kServeSources; ++k) {
    const serve::Result& rs = warm[static_cast<std::size_t>(k)];
    ++res.attempted;
    if (!rs.ok() || rs.solutions.size() != 1) {
      ++res.failed;
      continue;
    }
    gate.check(res, k, rs.stats[0], rs.solutions[0],
               b[static_cast<std::size_t>(k)]);
  }
  warm.clear();
  std::vector<WilsonField<double>> sampled;  // first solutions of sources 0..

  // Closed loop: keep kServeInFlight requests outstanding; when the batch
  // in flight completes, gate its solutions (outside the timed intervals,
  // with nothing in flight) and submit the next round.
  struct Round {
    std::vector<double> latency, wait;
    std::vector<int> iterations;
    double wall = 0, cpu = 0;
  };
  int next = 0;
  const auto run_round = [&](Round& r) {
    std::vector<int> ks;
    std::vector<std::future<serve::Result>> futs;
    std::vector<double> submitted;
    const double c0 = process_cpu_seconds();
    const double t0 = wall_now();
    for (int i = 0; i < kServeInFlight; ++i) {
      ks.push_back(next);
      next = (next + 1) % kServeSources;
      submitted.push_back(wall_now());
      futs.push_back(svc.submit(request(ks.back())));
    }
    std::vector<serve::Result> results;
    for (std::size_t i = 0; i < futs.size(); ++i) {
      results.push_back(futs[i].get());
      r.latency.push_back(wall_now() - submitted[i]);
    }
    r.wall += wall_now() - t0;
    r.cpu += process_cpu_seconds() - c0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      ++res.attempted;
      const serve::Result& rs = results[i];
      if (!rs.ok() || rs.solutions.size() != 1) {
        ++res.failed;
        std::fprintf(stderr, "perfbench: request failed: %s\n", rs.error.c_str());
        continue;
      }
      r.wait.push_back(rs.wait_s);
      r.iterations.push_back(rs.stats[0].iterations);
      const int k = ks[i];
      if (gate.check(res, k, rs.stats[0], rs.solutions[0],
                     b[static_cast<std::size_t>(k)]) &&
          k == static_cast<int>(sampled.size()) && k < kServeSampled) {
        sampled.push_back(rs.solutions[0]);
      }
    }
  };

  if (!opt.trace) {
    Round r;
    while (r.wall < opt.seconds) run_round(r);
    TimedPhase tp;
    tp.solve_s = r.latency;
    tp.wall_s = r.wall;
    tp.cpu_s = r.cpu;
    tp.rhs = static_cast<long>(r.latency.size());
    end_to_end(res, setup_s, tp);
  } else {
    // ---- traced run: two rounds over every source untraced, then traced
    const int rounds = 2 * kServeSources / kServeInFlight;
    Round plain;
    for (int i = 0; i < rounds; ++i) run_round(plain);
    reset_metrics();
    start_trace();
    Round traced;
    for (int i = 0; i < rounds; ++i) run_round(traced);
    const SpanProfile p = stop_trace();
    print_profile("traced requests", p);
    const MetricsSnapshot m = metrics_snapshot();
    const double batches = static_cast<double>(m.counter("serve.batches"));
    const double nreq = static_cast<double>(traced.latency.size());
    L.set("obs.tracing_overhead_s", median(traced.latency) - median(plain.latency));
    double it = 0;
    for (int v : traced.iterations) it += v;
    L.set("solvers.block_gcr.iterations", it / nreq);
    L.set("solvers.block_schwarz.apply_s",
          p.of("schwarz.apply_multi").incl_s / batches);
    L.set("solvers.block_schwarz.mr_op_s", p.of("mr.op_multi").incl_s / batches);
    L.set("fields.blas.sweeps_per_solve",
          static_cast<double>(m.counter("blas.sweeps")) / nreq);
    L.set("serve.wait_p50_s", median(traced.wait));
    L.set("serve.batch_occupancy_mean",
          m.histogram("serve.batch.occupancy").mean());
    L.set("serve.dispatch_busy_s", m.gauge("serve.dispatch_s") / batches);
    L.set("serve.batches", batches);

    // ---- dirac: the batched Schur operator at the serve width and at 1
    GaugeField<float> u_f = convert_gauge<float>(u);
    const CloverField<float> clover_f = convert_clover<float>(clover);
    const WilsonCloverSchurOperator<float> op(u_f, &clover_f, kServeMass);
    std::vector<WilsonField<float>> ins, outs;
    for (int k = 0; k < kServeWidth; ++k) {
      ins.push_back(even_single(b[static_cast<std::size_t>(k)]));
      outs.emplace_back(g);
    }
    for (const int w : {kServeWidth, 1}) {
      std::vector<WilsonField<float>*> o;
      std::vector<const WilsonField<float>*> in;
      for (int k = 0; k < w; ++k) {
        o.push_back(&outs[static_cast<std::size_t>(k)]);
        in.push_back(&ins[static_cast<std::size_t>(k)]);
      }
      L.set(w == 1 ? "dirac.multi_rhs_apply_s_per_rhs.width1"
                   : "dirac.multi_rhs_apply_s_per_rhs.serve_width",
            time_median([&] { op.apply_multi(o, in); }) / w);
    }
    wilson_field_layers(L, b[0], params.kmax);
    machine_probes(L);
    res.metrics = L.metrics();
  }

  // Sampled served solutions against the same RHS on a single-RHS solver:
  // batched == sequential bit for bit.
  svc.shutdown();
  GcrDdWilsonSolver single(u, &clover, params);
  for (std::size_t k = 0; k < sampled.size(); ++k) {
    WilsonField<double> xs(g);
    single.solve(xs, b[k]);
    if (!bitwise_equal(xs, sampled[k])) {
      fail(res, "served solution of source " + std::to_string(k) +
                    " differs from the single-RHS solve");
    }
  }
  if (sampled.size() != static_cast<std::size_t>(kServeSampled)) {
    fail(res, "too few served solutions sampled for the bitwise check");
  }
  std::printf("serve gate: worst residual / bound = %.3g, %zu sampled "
              "solutions bitwise equal to single-RHS solves\n",
              gate.worst_ratio(), sampled.size());
  dense_cross_check(res, opt.seed, kServeMass, kServeCsw);
  return res;
}

// ============================================================================
// asqtad_multishift
// ============================================================================

namespace {
constexpr std::array<int, kNDim> kAsqtadDims{8, 8, 8, 16};
constexpr double kAsqtadBeta = 5.9;
constexpr int kAsqtadSweeps = 2;
constexpr std::uint64_t kAsqtadGaugeSeed = 6047;
constexpr int kAsqtadSources = 3;

StaggeredMultishiftParams asqtad_params() {
  StaggeredMultishiftParams p;
  p.mass = 0.1;
  p.shifts = {0.0, 0.01, 0.05, 0.25};
  p.tol_single = 1e-5;
  p.tol_final = 1e-10;
  return p;
}

/// The even-checkerboard source the multi-shift solver requires.
StaggeredField<double> even_source(const LatticeGeometry& g, std::uint64_t seed) {
  StaggeredField<double> b = gaussian_staggered_source(g, seed);
  for (std::int64_t s = g.half_volume(); s < g.volume(); ++s) {
    b.at(s) = ColorVector<double>{};
  }
  return b;
}

class AsqtadGate {
 public:
  AsqtadGate(const GaugeField<double>& fat, const GaugeField<double>& lng,
             StaggeredMultishiftParams p, int sources)
      : m_(fat, lng, p.mass), p_(std::move(p)),
        first_(static_cast<std::size_t>(sources)) {}

  void check(RunResult& res, int k, const StaggeredMultishiftResult& r,
             const StaggeredField<double>& b) {
    bool converged = r.solutions.size() == p_.shifts.size();
    for (const auto& s : r.refines) converged = converged && s.converged;
    if (!converged) {
      ++res.failed;
      std::fprintf(stderr, "perfbench: multi-shift solve of source %d did not "
                           "converge\n", k);
      return;
    }
    std::vector<double> norms;
    std::uint64_t hash = 0;
    for (std::size_t i = 0; i < p_.shifts.size(); ++i) {
      const CheckResult c = check_staggered_shift(m_, p_.shifts[i],
                                                  p_.tol_final,
                                                  r.solutions[i], b);
      worst_ = std::max(worst_, c.value / c.bound);
      if (!c.ok) fail_check(res, "asqtad shift residual (full operator)", c);
      norms.push_back(std::sqrt(norm2(r.solutions[i])));
      hash = hash * 31 + field_hash(r.solutions[i]);
    }
    if (!norms_strictly_decreasing(p_.shifts, norms)) {
      fail(res, "asqtad solution norms do not decrease with the shift");
    }
    int inner = 0;
    for (const auto& s : r.refines) inner += s.inner_iterations;
    const Fingerprint fp{r.multishift.iterations, r.total_matvecs(), inner, hash};
    Fingerprint& first = first_[static_cast<std::size_t>(k)];
    if (first.iterations < 0) {
      first = fp;
    } else if (!(first == fp)) {
      fail(res, "repeat multi-shift solve of source " + std::to_string(k) +
                    " changed its counts or solutions");
    }
  }
  double worst_ratio() const { return worst_; }

 private:
  StaggeredOperator<double> m_;
  StaggeredMultishiftParams p_;
  std::vector<Fingerprint> first_;
  double worst_ = 0;
};
}  // namespace

RunResult run_asqtad_multishift(const Options& opt) {
  RunResult res;
  Layers L;
  const LatticeGeometry g(kAsqtadDims);
  const GaugeField<double> u =
      make_config(g, kAsqtadBeta, kAsqtadSweeps, kAsqtadGaugeSeed);
  std::vector<StaggeredField<double>> b;
  for (int k = 0; k < kAsqtadSources; ++k) {
    b.push_back(even_source(g, source_seed(opt.seed, k)));
  }
  const StaggeredMultishiftParams params = asqtad_params();

  // ---- set-up
  if (opt.trace) start_trace();
  const MetricsSnapshot m0 = metrics_snapshot();
  const double t_setup = wall_now();
  const double t_links = wall_now();
  const AsqtadLinks links = build_asqtad_links(u);
  const double links_s = wall_now() - t_links;
  StaggeredMultishiftSolver solver(links.fat, links.lng, params);
  const StaggeredMultishiftResult warm = solver.solve(b[0]);
  const double setup_s = wall_now() - t_setup;
  if (opt.trace) {
    set_trace_enabled(false);
    setup_tune_layers(L, m0);
    L.set("gauge.asqtad_links_s", links_s);
  }

  AsqtadGate gate(links.fat, links.lng, params, kAsqtadSources);
  ++res.attempted;
  gate.check(res, 0, warm, b[0]);

  if (!opt.trace) {
    TimedPhase tp;
    for (int n = 0; tp.wall_s < opt.seconds; ++n) {
      const int k = n % kAsqtadSources;
      const double c0 = process_cpu_seconds();
      const double t0 = wall_now();
      const StaggeredMultishiftResult r =
          solver.solve(b[static_cast<std::size_t>(k)]);
      const double dt = wall_now() - t0;
      tp.cpu_s += process_cpu_seconds() - c0;
      tp.wall_s += dt;
      tp.solve_s.push_back(dt);
      ++tp.rhs;
      ++res.attempted;
      std::printf("solve %d (source %d): %.4f s, %d multi-shift iterations, "
                  "%d matvecs\n", n, k, dt, r.multishift.iterations,
                  r.total_matvecs());
      gate.check(res, k, r, b[static_cast<std::size_t>(k)]);
    }
    end_to_end(res, setup_s, tp);
  } else {
    std::vector<double> untraced, traced;
    std::vector<StaggeredMultishiftResult> results;
    for (int pass = 0; pass < 2; ++pass) {
      if (pass == 1) start_trace();
      for (int k = 0; k < kAsqtadSources; ++k) {
        const double t0 = wall_now();
        StaggeredMultishiftResult r = solver.solve(b[static_cast<std::size_t>(k)]);
        (pass ? traced : untraced).push_back(wall_now() - t0);
        ++res.attempted;
        gate.check(res, k, r, b[static_cast<std::size_t>(k)]);
        if (pass == 1) results.push_back(std::move(r));
      }
    }
    const SpanProfile p = stop_trace();
    print_profile("traced solves", p);
    L.set("obs.tracing_overhead_s", median(traced) - median(untraced));
    const double n = kAsqtadSources;
    double ms_it = 0, inner = 0, mv = 0;
    for (const auto& r : results) {
      ms_it += r.multishift.iterations;
      for (const auto& s : r.refines) inner += s.inner_iterations;
      mv += r.total_matvecs();
    }
    L.set("solvers.multishift.iterations", ms_it / n);
    L.set("solvers.refine.inner_iterations", inner / n);
    L.set("solvers.staggered.matvecs", mv / n);

    // ---- the two stages, timed through the public solver functions on the
    // solver's own operators; their counts must match the solver's.
    const GaugeField<float> fat_f = convert_gauge<float>(links.fat);
    const GaugeField<float> lng_f = convert_gauge<float>(links.lng);
    const StaggeredSchurOperator<float> base_f(fat_f, lng_f, params.mass, 0.0);
    std::vector<double> stage1, stage2;
    for (int k = 0; k < kAsqtadSources; ++k) {
      const StaggeredField<double>& bk = b[static_cast<std::size_t>(k)];
      const double t0 = wall_now();
      const StaggeredField<float> b_f = convert_field<float>(bk);
      std::vector<StaggeredField<float>> xs_f(params.shifts.size(),
                                              StaggeredField<float>(g));
      MultishiftParams msp;
      msp.tol = params.tol_single;
      msp.max_iter = params.max_iter;
      const SolverStats ms =
          multishift_cg_solve(base_f, xs_f, params.shifts, b_f, msp);
      const double t1 = wall_now();
      int inner_k = 0;
      for (std::size_t i = 0; i < params.shifts.size(); ++i) {
        const StaggeredSchurOperator<double> op_d(links.fat, links.lng,
                                                  params.mass, params.shifts[i]);
        const StaggeredSchurOperator<float> op_f(fat_f, lng_f, params.mass,
                                                 params.shifts[i]);
        StaggeredField<double> xi = convert_field<double>(xs_f[i]);
        MixedCgParams mp;
        mp.tol = params.tol_final;
        mp.inner_tol = params.refine_inner_tol;
        mp.max_outer = params.refine_max_outer;
        mp.inner_max_iter = params.max_iter;
        inner_k += mixed_cg_solve(
                       op_d, op_f, xi, bk, mp,
                       [](const StaggeredField<double>& f) {
                         return convert_field<float>(f);
                       },
                       [](const StaggeredField<float>& f) {
                         return convert_field<double>(f);
                       })
                       .inner_iterations;
      }
      stage1.push_back(t1 - t0);
      stage2.push_back(wall_now() - t1);
      const StaggeredMultishiftResult& r = results[static_cast<std::size_t>(k)];
      int inner_r = 0;
      for (const auto& s : r.refines) inner_r += s.inner_iterations;
      if (ms.iterations != r.multishift.iterations || inner_k != inner_r) {
        fail(res, "stage replay disagrees with the solver's counts");
      }
    }
    L.set("solvers.multishift.stage_s", median(stage1));
    L.set("solvers.refine.stage_s", median(stage2));

    StaggeredField<float> in = convert_field<float>(b[0]);
    StaggeredField<float> out(g);
    const double t_apply = time_median([&] { base_f.apply(out, in); });
    L.set("dirac.staggered_schur_apply_s", t_apply);
    L.set("dirac.staggered_gflops", staggered_schur_flops(g) / t_apply * 1e-9);
    machine_probes(L);
    res.metrics = L.metrics();
  }
  std::printf("asqtad gate: worst residual / bound = %.3g\n", gate.worst_ratio());
  return res;
}

}  // namespace perfbench
