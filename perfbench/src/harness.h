#pragma once
/// \file harness.h
/// \brief The benchmark's own arithmetic: wall and CPU clocks, the peak-RSS
/// reader, order statistics and the result line.  Header-only so the unit
/// tests (tests/test_perfbench.cpp) exercise exactly what the benchmark
/// runs.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Wall-clock seconds on the monotonic clock (never CPU time: the solvers
/// run on a worker pool and on one thread per virtual rank).
inline double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User plus system CPU seconds of the whole process (every thread).
inline double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set in kB from the text of /proc/<pid>/status (the VmHWM
/// line); -1 when the line is missing or malformed.
inline long parse_vmhwm_kb(const std::string& status_text) {
  std::istringstream in(status_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    long kb = -1;
    std::string unit;
    if (!(fields >> kb >> unit) || unit != "kB" || kb < 0) return -1;
    return kb;
  }
  return -1;
}

/// Peak resident memory of this process in MB (2^20 bytes): VmHWM, or the
/// kernel's ru_maxrss (also kB on Linux) where /proc is unavailable.
inline double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::stringstream ss;
  ss << f.rdbuf();
  long kb = parse_vmhwm_kb(ss.str());
  if (kb < 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = ru.ru_maxrss;
  }
  return static_cast<double>(kb) / 1024.0;
}

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (numpy's default; q = 0.5 is the usual median).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The last line of a run: {"correct", "attempted", "failed", "metrics"}.
/// Values keep all their digits (%.17g); a non-finite value would not be
/// JSON, so it is refused.
inline std::string result_json(bool correct, long attempted, long failed,
                               const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      throw std::runtime_error("metric " + metrics[i].name + " is not finite");
    }
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
