// Shared pieces of the campaign benchmark: timing, seed derivation, the
// fault-free reference every workload builds before its first FI run, and
// the operation ledger behind the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "core/detector.h"

namespace davbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Seed of the fault lists (plans and opcode subsets), of the run seeds of
/// the Table-I runs and of cpu_permanent_pool, and of the transient-site
/// profile runs: the repository's campaign seed. They stay the same for every
/// --seed, so the mix of short (crashed) and full runs, which sets
/// fi_runs_per_s, does not vary from seed to seed.
constexpr std::uint64_t kFaultListSeed = 2022;

/// Nearest-rank percentile, p in [0, 100], of a non-empty sample.
double percentile(std::vector<double> v, double p);

/// Median of a non-empty sample (mean of the middle two when even).
double median(std::vector<double> v);

/// Seed of one named input, derived from --seed and up to four tags.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0, std::uint64_t c = 0,
                          std::uint64_t d = 0);

/// Seed-chosen subset of `n` distinct indices of [0, size), in order.
std::vector<std::size_t> choose_subset(std::uint64_t seed, std::size_t size,
                                       std::size_t n);

/// Peak resident set of this process plus that of its largest reaped child
/// (a pool worker), in MiB.
double peak_rss_mb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Counts the operations a run attempts (simulation runs, batches and
/// output checks) and those that fail. A failure is reported on stderr.
class Ledger {
 public:
  void op(bool ok, const std::string& what);
  /// An output check: `error` is empty when the property holds.
  void check(const std::string& error, const std::string& what);

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }

 private:
  long attempted_ = 0;
  long failed_ = 0;
};

/// Prints {"correct", "attempted", "failed", "metrics"} as the last line of
/// standard output.
void print_result(const Ledger& ledger, const std::vector<Metric>& metrics);

/// Campaign sizing shared by all workloads: the paper's 30 s safety
/// scenarios and 60 s training routes, with training and golden counts at
/// their DAV_SCALE=0.25 values (one trace per training route, three golden
/// runs per scenario).
dav::CampaignScale bench_scale();

/// The campaign's fault-free reference: LUT-training traces and the rw=3
/// LUT, golden runs and their baseline per scenario, and (on request) the
/// profile run behind each scenario's transient sites.
struct Reference {
  std::vector<std::vector<dav::StepObservation>> training;
  dav::ThresholdLut lut;
  std::map<dav::ScenarioId, std::vector<dav::RunResult>> golden;
  /// Table I's trajectory violations are counted against it (the outcome
  /// accounting check and the campaign rows on stderr).
  std::map<dav::ScenarioId, dav::Trajectory> baseline;
  std::map<dav::ScenarioId, dav::RunResult> profile_run;

  dav::ExecutionProfile profile(dav::ScenarioId s,
                                dav::FaultDomain domain) const;
};

/// Golden run `index` of `scenario` (also the traced run's input).
dav::RunConfig golden_config(const dav::CampaignManager& mgr,
                             std::uint64_t seed, dav::ScenarioId scenario,
                             int index);

/// Builds the reference in process, one run_experiment at a time, for
/// `scenarios`. Runs that throw are counted as failed operations.
Reference build_reference(const dav::CampaignManager& mgr, std::uint64_t seed,
                          const std::vector<dav::ScenarioId>& scenarios,
                          bool with_profiles, Ledger& ledger);

/// Runs the reference's own output checks (training traces and golden runs).
void check_reference(const Reference& ref, Ledger& ledger);

/// Online detection plus restart-recovery, as the recovery sweep and the
/// traced run configure it. `lut` must outlive the configs.
dav::MitigationSetup recovery_setup(const dav::ThresholdLut& lut);

}  // namespace davbench
