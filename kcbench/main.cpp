// kcbench: one process runs one workload of the cpkcore benchmark and
// prints its metrics as JSON on the last line of stdout.
//
//   kcbench --workload core-batch|cluster-ryw --seed N
//           --seconds S --trace 0|1 [--small] [--inject GATE]
//
// run.py builds this binary and is the intended entry point; README.md in
// this directory describes the workloads and metrics.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "measure.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "kcbench: %s\nusage: kcbench --workload "
               "core-batch|cluster-ryw --seed N --seconds S "
               "--trace 0|1 [--small] [--inject GATE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  kcbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = std::stoi(value()) != 0;
      } else if (a == "--small") {
        o.small = true;
      } else if (a == "--inject") {
        o.inject = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.seconds <= 0) usage("--seconds must be positive");
  mkdir(kcbench::kOutDir, 0755);
  kcbench::pin_main_thread();
  try {
    if (o.workload == "core-batch") return kcbench::run_core_batch(o);
    if (o.workload == "cluster-ryw") return kcbench::run_cluster_ryw(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kcbench: %s failed: %s\n", o.workload.c_str(),
                 e.what());
    return 1;
  }
  usage(("unknown workload '" + o.workload + "'").c_str());
}
