#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>

#include "campaign/metrics.h"
#include "checks.h"
#include "util/rng.h"

namespace davbench {

double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v.at(std::min(i, v.size() - 1));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v.at(n / 2) : 0.5 * (v.at(n / 2 - 1) + v.at(n / 2));
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b, std::uint64_t c, std::uint64_t d) {
  std::uint64_t s = seed;
  for (const std::uint64_t tag : {a, b, c, d}) {
    s = dav::splitmix64(s) ^ (tag * 0x9E3779B97F4A7C15ULL);
  }
  return dav::splitmix64(s);
}

std::vector<std::size_t> choose_subset(std::uint64_t seed, std::size_t size,
                                       std::size_t n) {
  std::vector<std::size_t> all(size);
  for (std::size_t i = 0; i < size; ++i) all[i] = i;
  dav::Rng rng(seed);
  n = std::min(n, size);
  for (std::size_t i = 0; i < n; ++i) {  // partial Fisher-Yates
    std::swap(all[i], all[i + rng.uniform_index(size - i)]);
  }
  all.resize(n);
  std::sort(all.begin(), all.end());
  return all;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

void Ledger::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "davbench: FAILED %s\n", what.c_str());
}

void Ledger::check(const std::string& error, const std::string& what) {
  op(error.empty(), what + ": " + error);
}

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::fflush(stderr);
  std::string line = "{\"correct\": ";
  line += ledger.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

dav::CampaignScale bench_scale() {
  dav::CampaignScale s;
  s.golden_runs = 3;
  s.training_runs_per_scenario = 1;
  return s;
}

dav::ExecutionProfile Reference::profile(dav::ScenarioId s,
                                         dav::FaultDomain domain) const {
  const dav::RunResult& r = profile_run.at(s);
  dav::ExecutionProfile p;
  p.domain = domain;
  p.total_dyn_instructions = domain == dav::FaultDomain::kGpu
                                 ? r.gpu_instructions
                                 : r.cpu_instructions;
  return p;
}

dav::RunConfig golden_config(const dav::CampaignManager& mgr,
                             std::uint64_t seed, dav::ScenarioId scenario,
                             int index) {
  dav::RunConfig cfg = mgr.base_config(scenario, dav::AgentMode::kRoundRobin);
  cfg.run_seed = derive_seed(seed, 1, static_cast<std::uint64_t>(scenario),
                             static_cast<std::uint64_t>(index));
  return cfg;
}

namespace {

/// run_experiment, with a throw counted as a failed operation.
bool run_counted(const dav::RunConfig& cfg, dav::RunResult& out,
                 Ledger& ledger, const std::string& what) {
  try {
    out = dav::run_experiment(cfg);
    ledger.op(true, what);
    return true;
  } catch (const std::exception& e) {
    ledger.op(false, what + ": " + e.what());
    return false;
  }
}

}  // namespace

Reference build_reference(const dav::CampaignManager& mgr, std::uint64_t seed,
                          const std::vector<dav::ScenarioId>& scenarios,
                          bool with_profiles, Ledger& ledger) {
  Reference ref;
  const dav::AgentMode mode = dav::AgentMode::kRoundRobin;
  for (const dav::ScenarioId s : dav::training_scenarios()) {
    for (int i = 0; i < mgr.scale().training_runs_per_scenario; ++i) {
      dav::RunConfig cfg = mgr.base_config(s, mode);
      cfg.run_seed = derive_seed(seed, 2, static_cast<std::uint64_t>(s),
                                 static_cast<std::uint64_t>(i));
      dav::RunResult r;
      if (run_counted(cfg, r, ledger, "training run")) {
        ref.training.push_back(std::move(r.observations));
      }
    }
  }
  ref.lut = dav::train_lut(ref.training, /*rw=*/3);
  for (const dav::ScenarioId s : scenarios) {
    for (int i = 0; i < mgr.scale().golden_runs; ++i) {
      const dav::RunConfig cfg = golden_config(mgr, seed, s, i);
      dav::RunResult r;
      if (run_counted(cfg, r, ledger, "golden run")) {
        ref.golden[s].push_back(std::move(r));
      }
    }
    ref.baseline[s] = dav::golden_baseline(ref.golden[s]);
    if (with_profiles) {
      dav::RunConfig cfg = mgr.base_config(s, mode);
      cfg.run_seed =
          derive_seed(kFaultListSeed, 3, static_cast<std::uint64_t>(s));
      run_counted(cfg, ref.profile_run[s], ledger, "profile run");
    }
  }
  return ref;
}

void check_reference(const Reference& ref, Ledger& ledger) {
  ledger.check(check_training_traces(ref.training, ref.lut),
               "LUT training traces");
  for (const auto& [scenario, runs] : ref.golden) {
    ledger.check(check_golden(runs), "golden runs");
    std::fprintf(stderr, "davbench: %s golden runs alarming offline: %d/%zu\n",
                 dav::to_string(scenario).c_str(),
                 golden_offline_alarms(runs, ref.lut), runs.size());
  }
}

dav::MitigationSetup recovery_setup(const dav::ThresholdLut& lut) {
  dav::MitigationSetup m;
  m.policy = dav::MitigationPolicy::kRestartRecovery;
  m.online_lut = &lut;
  m.online_detector.rw = 3;
  return m;
}

}  // namespace davbench
