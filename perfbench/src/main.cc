// The WARLOCK benchmark harness. Usage:
//
//   perfbench --workload <advise_cold|whatif_tuning|service_warm|
//                         sweep_generated>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Runs one workload's seeded op list to completion in this process, checks
// every op's output against a second path, and prints as its last stdout
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics with --trace 1.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <advise_cold|whatif_tuning|service_warm|"
               "sweep_generated> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (!(args.seconds > 0.0)) return Usage(argv[0]);
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage(argv[0]);
      }
      args.trace = value[0] == '1';
    } else if (arg == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return Usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') return Usage(argv[0]);
  }

  perfbench::Outcome outcome;
  if (args.workload == "advise_cold") {
    outcome = perfbench::RunAdviseCold(args);
  } else if (args.workload == "whatif_tuning") {
    outcome = perfbench::RunWhatIfTuning(args);
  } else if (args.workload == "service_warm") {
    outcome = perfbench::RunServiceWarm(args);
  } else if (args.workload == "sweep_generated") {
    outcome = perfbench::RunSweepGenerated(args);
  } else {
    return Usage(argv[0]);
  }
  std::printf("%s\n", perfbench::OutcomeJson(outcome).c_str());
  return outcome.correct ? 0 : 1;
}
