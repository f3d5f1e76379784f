// davbench: the campaign benchmark's entry point.
//
//   davbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>]
//   davbench --self-test [--work-dir <dir>]
//
// Workloads: table1_recovery_serial, cpu_permanent_pool. The last
// line of standard output is the JSON result; progress goes to stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  const davbench::Clock::time_point start = davbench::Clock::now();
  davbench::Options opts;
  bool self_test = false;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") {
        self_test = true;
        continue;
      }
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + arg);
      const std::string value = argv[++i];
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opts.trace = value == "1";
        if (value != "0" && value != "1") {
          throw std::invalid_argument("--trace takes 0 or 1");
        }
      } else if (arg == "--work-dir") {
        opts.work_dir = value;
      } else {
        throw std::invalid_argument("unknown argument: " + arg);
      }
    }
    if (self_test) return davbench::run_self_test(opts.work_dir);
    if (!have_workload || !davbench::known_workload(opts.workload)) {
      throw std::invalid_argument(
          "--workload must be table1_recovery_serial or cpu_permanent_pool");
    }
    if (!(opts.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
    if (opts.trace) {
      davbench::run_traced(opts);
    } else {
      davbench::run_end_to_end(opts, start);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "davbench: %s\n", e.what());
    return 2;
  }
}
