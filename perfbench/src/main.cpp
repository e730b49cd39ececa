// Entry point of the repository benchmark binary (driven by perfbench/run.py):
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-file PATH]
// Prints one JSON record on stdout: correct/attempted/failed, the metrics
// with their units, and an "info" object with run details.

#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-file PATH]\nworkloads:",
               argv0);
  for (const auto& s : perfbench::all_specs()) std::fprintf(stderr, " %s", s.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--replica") {
    return perfbench::replica_main(argc, argv);
  }
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.spec = perfbench::find_spec(value);
      if (args.spec == nullptr) return usage(argv[0]);
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(value) == "1";
    } else if (flag == "--trace-file") {
      args.trace_file = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (args.spec == nullptr || argc % 2 == 0 || !(args.seconds > 0)) return usage(argv[0]);
  // A replica child that dies must not take the harness down with it.
  ::signal(SIGPIPE, SIG_IGN);

  perfbench::Report report =
      args.spec->sim ? perfbench::run_sim(args) : perfbench::run_tcp(args);
  report.note("workload", "\"" + args.spec->name + "\"");
  report.note_number("seed", static_cast<double>(args.seed));
  report.note("trace", args.trace ? "true" : "false");
  report.note("build_type", "\"" PERFBENCH_BUILD_TYPE "\"");
  report.note("compiler", "\"" __VERSION__ "\"");
  if (report.metrics.empty()) {
    // The run could not measure anything (e.g. the cluster did not start).
    std::fprintf(stderr, "perfbench: no result: %s\n", report.to_json().c_str());
    return 1;
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
