#pragma once
/// \file probes.h
/// \brief Machine probes measured in the same run as the kernels they are
/// printed beside: a STREAM-triad bandwidth probe and a peak single-
/// precision flop probe, both on every hardware thread, built with the
/// library's own compiler flags (so "peak" is what this build's
/// instruction set reaches).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

/// Last-level cache size in bytes from sysfs (index3, else the highest
/// index present); \p fallback when unreadable.
inline std::size_t llc_bytes(std::size_t fallback = 32u << 20) {
  for (int idx = 3; idx >= 0; --idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(idx) + "/size");
    std::string s;
    if (!(f >> s) || s.empty()) continue;
    std::size_t mult = 1;
    const char unit = s.back();
    if (unit == 'K') mult = 1u << 10;
    if (unit == 'M') mult = 1u << 20;
    if (unit == 'K' || unit == 'M') s.pop_back();
    try {
      return static_cast<std::size_t>(std::stoull(s)) * mult;
    } catch (...) {
      continue;
    }
  }
  return fallback;
}

inline int probe_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

template <typename Fn>
void run_threads(int n, Fn&& fn) {
  std::vector<std::thread> ts;
  ts.reserve(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) ts.emplace_back([&fn, t] { fn(t); });
  for (auto& t : ts) t.join();
}

struct TriadResult {
  double gbs = 0;             ///< best of the repetitions, 24 B per element
  std::size_t array_bytes = 0;
};

/// a = b + s c over three double arrays of \p array_bytes each, split over
/// the hardware threads (each thread first-touches its own slice).  Best of
/// \p reps, in the STREAM convention of 3 x 8 bytes per element.
inline TriadResult stream_triad(std::size_t array_bytes, int reps = 5) {
  const std::size_t n = array_bytes / sizeof(double);
  std::vector<double> a, b, c;
  a.resize(n);
  b.resize(n);
  c.resize(n);
  const int nt = probe_threads();
  const auto slice = [&](int t, std::size_t& lo, std::size_t& hi) {
    lo = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(nt);
    hi = n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(nt);
  };
  run_threads(nt, [&](int t) {
    std::size_t lo, hi;
    slice(t, lo, hi);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double s = 3.0 + r;
    const double t0 = wall_now();
    run_threads(nt, [&](int t) {
      std::size_t lo, hi;
      slice(t, lo, hi);
      double* __restrict pa = a.data();
      const double* __restrict pb = b.data();
      const double* __restrict pc = c.data();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    best = std::min(best, wall_now() - t0);
  }
  if (a[n / 2] != 1.0 + (3.0 + reps - 1) * 2.0) return {};  // not computed
  return {3.0 * 8.0 * static_cast<double>(n) / best * 1e-9, array_bytes};
}

/// Independent multiply-add chains in registers on every hardware thread:
/// 2 flops per element per step, 16 lanes x 8 chains per thread, best of
/// \p reps.
inline double peak_gflops_single(long steps = 200000000, int reps = 3) {
  const int nt = probe_threads();
  constexpr int kLanes = 16;
  constexpr int kChains = 8;
  std::vector<float> sink(static_cast<std::size_t>(nt));
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_now();
    run_threads(nt, [&](int t) {
      float acc[kChains][kLanes];
      for (int c = 0; c < kChains; ++c) {
        for (int l = 0; l < kLanes; ++l) acc[c][l] = 0.001f * float(c + l + t);
      }
      const float mul = 0.999999f;
      const float add = 1e-7f;
      for (long i = 0; i < steps / (kChains * kLanes); ++i) {
        for (int c = 0; c < kChains; ++c) {
          for (int l = 0; l < kLanes; ++l) acc[c][l] = acc[c][l] * mul + add;
        }
      }
      float s = 0;
      for (int c = 0; c < kChains; ++c) {
        for (int l = 0; l < kLanes; ++l) s += acc[c][l];
      }
      sink[static_cast<std::size_t>(t)] = s;
    });
    best = std::min(best, wall_now() - t0);
  }
  volatile float keep = sink[0];
  (void)keep;
  const long per_thread = (steps / (kChains * kLanes)) * kChains * kLanes;
  return 2.0 * static_cast<double>(per_thread) * nt / best * 1e-9;
}

}  // namespace perfbench
