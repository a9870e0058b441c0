#pragma once
/// \file workloads.h
/// \brief The three workloads of the benchmark (see README.md for their
/// inputs and why each was chosen).

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
};

/// Names of every per-layer metric, in output order; a traced run reports
/// each of them (a layer the workload bypasses reads 0 there).
const std::vector<std::string>& per_layer_metric_names();

RunResult run_wilson_gcrdd_cluster(const Options& opt);
RunResult run_serve_multi_rhs(const Options& opt);
RunResult run_asqtad_multishift(const Options& opt);

}  // namespace perfbench
