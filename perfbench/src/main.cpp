// perfbench: time to solution of the library's production solvers.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress and check results, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exit code 0 after
// a result line, 2 on bad arguments, 1 on an unexpected error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<wilson_gcrdd_cluster|serve_multi_rhs|asqtad_multishift> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (a == "--trace") {
      have_trace = v == "0" || v == "1";
      opt.trace = v == "1";
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace need valid values");
  }

  try {
    perfbench::RunResult r;
    if (opt.workload == "wilson_gcrdd_cluster") {
      r = perfbench::run_wilson_gcrdd_cluster(opt);
    } else if (opt.workload == "serve_multi_rhs") {
      r = perfbench::run_serve_multi_rhs(opt);
    } else if (opt.workload == "asqtad_multishift") {
      r = perfbench::run_asqtad_multishift(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
    const std::string line =
        perfbench::result_json(r.correct, r.attempted, r.failed, r.metrics);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
