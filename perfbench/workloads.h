// Entry points of the campaign benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace davbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for journals and trace files (created by run.py).
  std::string work_dir = ".";
};

/// The recovery sweep on LeadSlowdown: a fixed subset of the GPU-permanent
/// opcodes and one run per sensor-fault model, all with online detection
/// (rw=3), restart-recovery and fusion. `lut` must outlive the configs.
struct RecoverySweep {
  std::vector<dav::RunConfig> gpu_permanent;
  std::vector<dav::RunConfig> sensor;
};
RecoverySweep recovery_sweep(const dav::CampaignManager& mgr,
                             std::uint64_t seed, const dav::ThresholdLut& lut);

/// The CPU-permanent ISA sweep of one scenario: a fixed subset of `runs`
/// opcodes (every opcode by default), once each, with fixed run seeds, in
/// an order drawn from `seed`.
std::vector<dav::RunConfig> cpu_permanent_sweep(
    const dav::CampaignManager& mgr, std::uint64_t seed,
    dav::ScenarioId scenario, std::size_t runs = SIZE_MAX);

/// The two workloads, by name.
bool known_workload(const std::string& name);

/// One end-to-end run of `opts.workload`: builds the reference, measures
/// the FI sweep in interleaved passes, checks the outputs and prints the
/// end-to-end metrics. `process_start` anchors the cold set-up time.
void run_end_to_end(const Options& opts, Clock::time_point process_start);

/// The traced run: per-layer timings and work counts from the benchmark's
/// own code around public calls, with the exact-reproduction check against
/// run_experiment. Prints the per-layer metrics.
void run_traced(const Options& opts);

/// Shows that the output checks reject corrupted inputs. Returns the exit
/// code: 0 when every check accepts its clean input and rejects its
/// corrupted one.
int run_self_test(const std::string& work_dir);

}  // namespace davbench
