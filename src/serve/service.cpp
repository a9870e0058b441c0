#include "serve/service.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gauge/configure.h"
#include "obs/trace.h"
#include "tune/batch_policy.h"
#include "util/stopwatch.h"

namespace lqcd::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

SolveService::SolveService(const GaugeField<double>& u,
                           const CloverField<double>* clover, Config cfg)
    : u_(&u), clover_(clover), cfg_(cfg),
      batch_width_(resolve_batch_width()),
      queue_(cfg.queue_capacity) {
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SolveService::~SolveService() { shutdown(); }

int SolveService::resolve_batch_width() const {
  if (cfg_.max_batch > 0) return cfg_.max_batch;
  // Policy sweep probe (LQCD_SERVE_BATCH=tune): solve a fixed total of
  // synthetic RHS in ceil(total/width) batches so every candidate does the
  // same work and only the amortization differs.  The probe uses its own
  // solver instance: the sweep runs whole solves, and scratch must not
  // alias a live solver's tmp fields.
  const LatticeGeometry& g = u_->geometry();
  std::unique_ptr<GcrDdWilsonSolver> probe_solver;
  std::vector<WilsonField<double>> probe_b;
  auto run_with = [&](int width) {
    constexpr int kProbeTotal = 8;
    if (!probe_solver) {
      probe_solver =
          std::make_unique<GcrDdWilsonSolver>(*u_, clover_, cfg_.solver);
      for (int i = 0; i < kProbeTotal; ++i) {
        probe_b.push_back(gaussian_wilson_source(g, 977u + std::uint64_t(i)));
      }
    }
    if (width < 1) width = 1;
    for (int base = 0; base < kProbeTotal; base += width) {
      const int w = std::min(width, kProbeTotal - base);
      std::vector<WilsonField<double>> x(
          static_cast<std::size_t>(w), WilsonField<double>(g));
      std::vector<WilsonField<double>*> xs(static_cast<std::size_t>(w));
      std::vector<const WilsonField<double>*> bs(static_cast<std::size_t>(w));
      for (int i = 0; i < w; ++i) {
        xs[static_cast<std::size_t>(i)] = &x[static_cast<std::size_t>(i)];
        bs[static_cast<std::size_t>(i)] =
            &probe_b[static_cast<std::size_t>(base + i)];
      }
      probe_solver->solve(xs, bs);
    }
  };
  return select_batch_width("serve", "gcr_dd", g.half_volume(),
                            kDefaultServeBatch, run_with);
}

std::future<Result> SolveService::submit(Request req) {
  Pending p;
  p.req = std::move(req);
  p.enqueued = std::chrono::steady_clock::now();
  std::future<Result> fut = p.promise.get_future();
  metric_counter("serve.requests").add();
  metric_counter("serve.rhs").add(p.req.rhs.size());
  if (!queue_.push(std::move(p))) {
    Result r;
    r.status = Status::ShuttingDown;
    r.error = "solve service is shut down";
    p.promise.set_value(std::move(r));
  }
  return fut;
}

void SolveService::shutdown() {
  queue_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
}

GcrDdWilsonSolver& SolveService::solver_for(const CompatKey& key) {
  auto it = solvers_.find(key);
  if (it == solvers_.end()) {
    GcrDdParams params = cfg_.solver;
    params.mass = key.mass;
    params.tol = key.tol;
    params.twisted_mu = key.action == Action::TwistedMass ? key.twisted_mu : 0.0;
    it = solvers_
             .emplace(key,
                      std::make_unique<GcrDdWilsonSolver>(*u_, clover_, params))
             .first;
  }
  return *it->second;
}

void SolveService::dispatcher_loop() {
  Counter& expired_meter = metric_counter("serve.deadline_expired");
  for (;;) {
    if (carry_.empty()) {
      std::optional<Pending> head = queue_.pop();
      if (!head.has_value()) break;  // closed and fully drained
      carry_.push_back(std::move(*head));
    }
    // Batching window: pull whatever is already queued, and if the oldest
    // request's compatibility class is still short of the batch width,
    // linger briefly for stragglers — full batches amortize gauge-link
    // loads across the whole width, and the linger is invisible next to a
    // solve.  A closed queue or a full batch ends the window immediately.
    const auto window_end =
        std::chrono::steady_clock::now() + cfg_.linger;
    for (;;) {
      while (std::optional<Pending> more = queue_.try_pop()) {
        carry_.push_back(std::move(*more));
      }
      const CompatKey head_key = key_of(carry_.front().req);
      std::size_t head_rhs = 0;
      for (const Pending& p : carry_) {
        if (key_of(p.req) == head_key) head_rhs += p.req.rhs.size();
      }
      if (head_rhs >= static_cast<std::size_t>(batch_width_) ||
          queue_.closed()) {
        break;
      }
      std::optional<Pending> more = queue_.pop_until(window_end);
      if (!more.has_value()) break;  // window elapsed (or queue exhausted)
      carry_.push_back(std::move(*more));
    }
    // Deadline sweep: expired requests fail typed instead of hanging
    // behind (or inside) a batch.
    const auto now = std::chrono::steady_clock::now();
    for (auto it = carry_.begin(); it != carry_.end();) {
      if (it->req.deadline.has_value() && *it->req.deadline <= now) {
        Result r;
        r.status = Status::DeadlineExpired;
        r.error = "deadline expired before dispatch";
        r.wait_s = seconds_between(it->enqueued, now);
        expired_meter.add();
        it->promise.set_value(std::move(r));
        it = carry_.erase(it);
      } else {
        ++it;
      }
    }
    if (carry_.empty()) continue;
    // Coalesce around the oldest pending request: gather its compatibility
    // class up to the batch width (a multi-RHS request is kept whole).
    const CompatKey key = key_of(carry_.front().req);
    std::vector<Pending> batch;
    std::size_t nrhs = 0;
    for (auto it = carry_.begin(); it != carry_.end();) {
      const std::size_t req_rhs = it->req.rhs.size();
      if (key_of(it->req) == key &&
          (batch.empty() ||
           nrhs + req_rhs <= static_cast<std::size_t>(batch_width_))) {
        nrhs += req_rhs;
        batch.push_back(std::move(*it));
        it = carry_.erase(it);
        if (nrhs >= static_cast<std::size_t>(batch_width_)) break;
      } else {
        ++it;
      }
    }
    dispatch(std::move(batch));
  }
}

void SolveService::dispatch(std::vector<Pending> batch) {
  ScopedSpan span("serve.dispatch");
  GcrDdWilsonSolver& solver = solver_for(key_of(batch.front().req));
  const auto start = std::chrono::steady_clock::now();

  // Soak-harness checkpoint plumbing: pair this dispatch ordinal with the
  // configured capture plan and/or the resume state (first dispatch only).
  const std::uint64_t ordinal = dispatched_++;
  BlockGcrCheckpointIo<WilsonField<float>> ckpt_io;
  BlockGcrCheckpointIo<WilsonField<float>>* ckpt = nullptr;
  if (cfg_.resume != nullptr && ordinal == 0) {
    ckpt_io.resume = cfg_.resume;
    ckpt = &ckpt_io;
  }
  if (cfg_.checkpoint.has_value() &&
      cfg_.checkpoint->batch_ordinal == ordinal) {
    ckpt_io.capture_at_round = cfg_.checkpoint->at_round;
    ckpt_io.captured = cfg_.checkpoint->captured;
    ckpt_io.stop_after_capture = cfg_.checkpoint->kill;
    ckpt = &ckpt_io;
  }

  // Solutions live in the results from the start so the solver writes the
  // final fields in place.
  std::vector<Result> results(batch.size());
  std::vector<WilsonField<double>*> xs;
  std::vector<const WilsonField<double>*> bs;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (const WilsonField<double>& b : batch[i].req.rhs) {
      results[i].solutions.emplace_back(b.geometry());
      bs.push_back(&b);
    }
    for (WilsonField<double>& x : results[i].solutions) xs.push_back(&x);
  }

  Stopwatch sw;
  std::vector<SolverStats> stats = solver.solve(xs, bs, ckpt);
  const double solve_s = sw.seconds();

  // A checkpoint-killed batch completes typed: partial per-request stats,
  // no solutions (the iterates live in the captured state).  Latency
  // histograms are not fed — serve metrics describe completed work.
  if (ckpt != nullptr && ckpt_io.stop_after_capture &&
      ckpt_io.captured != nullptr && ckpt_io.captured->valid()) {
    metric_counter("serve.batches.interrupted").add();
    std::size_t at = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Result r;
      r.status = Status::Interrupted;
      r.error = "batch checkpoint-killed mid-solve";
      r.wait_s = seconds_between(batch[i].enqueued, start);
      r.solve_s = solve_s;
      const std::size_t w = batch[i].req.rhs.size();
      r.stats.assign(stats.begin() + static_cast<std::ptrdiff_t>(at),
                     stats.begin() + static_cast<std::ptrdiff_t>(at + w));
      at += w;
      batch[i].promise.set_value(std::move(r));
    }
    return;
  }

  metric_counter("serve.batches").add();
  metric_histogram("serve.batch.occupancy")
      .record(static_cast<double>(bs.size()));
  metric_gauge("serve.dispatch_s").add(solve_s);

  const auto done = std::chrono::steady_clock::now();
  std::size_t next = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Result& r = results[i];
    r.status = Status::Ok;
    r.wait_s = seconds_between(batch[i].enqueued, start);
    r.solve_s = solve_s;
    const std::size_t w = batch[i].req.rhs.size();
    r.stats.assign(stats.begin() + static_cast<std::ptrdiff_t>(next),
                   stats.begin() + static_cast<std::ptrdiff_t>(next + w));
    next += w;
    metric_histogram("serve.request.wait_s").record(r.wait_s);
    metric_histogram("serve.request.latency_s")
        .record(seconds_between(batch[i].enqueued, done));
    batch[i].promise.set_value(std::move(r));
  }
}

}  // namespace lqcd::serve
