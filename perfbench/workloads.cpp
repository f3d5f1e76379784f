// The two end-to-end workloads. Each builds its fault-free reference
// (timed once, cold, as setup_s), then measures its FI sweep in interleaved
// passes: every timed unit runs once per pass, and the fastest of its
// repetitions enters fi_runs_per_s and sim_ticks_per_s. On a shared host
// whose memory speed drops for seconds to minutes at a time, the fastest
// repetition of a short unit holds while its mean and median follow the
// share of slow time in the run (README.md, "Why the fastest repetition").
// Each workload is sized so that a unit repeats at least six times in 55 s.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <functional>
#include <utility>

#include "campaign/metrics.h"
#include "campaign/serialize.h"
#include "checks.h"
#include "fi/sensor_fault.h"
#include "util/rng.h"
#include "workloads.h"

namespace davbench {

namespace {

using dav::FaultDomain;
using dav::FaultModelKind;
using dav::RunConfig;
using dav::RunResult;
using dav::ScenarioId;

constexpr int kMinPasses = 3;
/// Runs per {GPU, CPU} x {transient, permanent} campaign and scenario in
/// table1_recovery_serial's Table-I part (12 runs per pass).
constexpr int kTable1RunsPerCampaign = 1;
/// GPU-permanent opcodes in table1_recovery_serial's recovery sweep (of 41).
constexpr int kRecoveryGpuRuns = 2;
/// CPU-permanent opcodes per scenario in cpu_permanent_pool (of 32), and
/// the run_all batches they are split into.
constexpr std::size_t kPoolRunsPerScenario = 16;
constexpr std::size_t kPoolBatchesPerScenario = 4;
/// Pool workers in cpu_permanent_pool. With two, fi_runs_per_s spread 0.26
/// over ten seeds on a busy host (README.md); one worker takes the batch
/// makespan and the two simulations' contention out of the figure.
constexpr int kPoolJobs = 1;

/// What one execution of a unit returns: its results and the time the
/// timed call took.
struct Execution {
  std::vector<RunResult> results;
  double seconds = 0.0;
};

/// One timed unit: a run_experiment call, or a run_all batch.
struct Unit {
  std::string name;
  int campaign = 0;  // index into the workload's campaign names
  std::function<Execution(int pass)> execute;
  /// Optional per-pass check of the execution (the journal, the pool
  /// against in-process execution).
  std::function<void(int pass, const std::vector<RunResult>&, Ledger&)> after;

  std::vector<RunResult> first;  // results of the first pass
  std::string first_bytes;
  std::vector<double> seconds;   // one per pass
};

std::string serialize_all(const std::vector<RunResult>& results) {
  std::string out;
  for (const RunResult& r : results) out += dav::serialize_run_result(r);
  return out;
}

Execution run_in_process(const RunConfig& cfg) {
  const Clock::time_point t0 = Clock::now();
  RunResult r = dav::run_experiment(cfg);
  return {{std::move(r)}, seconds_since(t0)};
}

Unit in_process_unit(std::string name, int campaign, RunConfig cfg) {
  Unit u;
  u.name = std::move(name);
  u.campaign = campaign;
  u.execute = [cfg](int) { return run_in_process(cfg); };
  return u;
}

/// Interleaved passes over `units` until `seconds` are spent (at least
/// kMinPasses), every other pass in reverse order so that no unit always
/// runs at the same point of a pass. Counts every execution and every
/// repeat comparison.
void measure(std::vector<Unit>& units, double seconds, Ledger& ledger) {
  const Clock::time_point t0 = Clock::now();
  for (int pass = 0;; ++pass) {
    for (std::size_t k = 0; k < units.size(); ++k) {
      Unit& u = units[pass % 2 == 0 ? k : units.size() - 1 - k];
      Execution e;
      try {
        e = u.execute(pass);
      } catch (const std::exception& ex) {
        ledger.op(false, u.name + ": " + ex.what());
        continue;
      }
      ledger.op(true, u.name);
      if (u.after) u.after(pass, e.results, ledger);
      std::string bytes = serialize_all(e.results);
      if (pass == 0) {
        u.first = std::move(e.results);
        u.first_bytes = std::move(bytes);
      } else {
        ledger.check(check_same_bytes(u.first_bytes, bytes),
                     "repeat " + std::to_string(pass) + " of " + u.name);
      }
      u.seconds.push_back(e.seconds);
    }
    const double elapsed = seconds_since(t0);
    const double per_pass = elapsed / (pass + 1);
    if (pass + 1 >= kMinPasses && elapsed + per_pass > seconds) {
      std::fprintf(stderr, "davbench: %d passes in %.1f s\n", pass + 1,
                   elapsed);
      for (const Unit& u : units) {
        std::string times;
        for (const double t : u.seconds) {
          char buf[32];
          std::snprintf(buf, sizeof(buf), " %.4f", t);
          times += buf;
        }
        std::fprintf(stderr, "davbench: unit times (s)%s | %s\n",
                     times.c_str(), u.name.c_str());
      }
      return;
    }
  }
}

/// First-pass results of every unit of one campaign, in unit order.
std::vector<RunResult> campaign_results(const std::vector<Unit>& units,
                                        int campaign) {
  std::vector<RunResult> out;
  for (const Unit& u : units) {
    if (u.campaign != campaign) continue;
    out.insert(out.end(), u.first.begin(), u.first.end());
  }
  return out;
}

/// Checks each campaign's outcome accounting against its scenario's golden
/// baseline and prints its Table-I row to stderr.
void report_campaigns(const std::vector<Unit>& units,
                      const std::vector<std::string>& names,
                      const Reference& ref, Ledger& ledger) {
  for (std::size_t c = 0; c < names.size(); ++c) {
    const std::vector<RunResult> runs =
        campaign_results(units, static_cast<int>(c));
    if (runs.empty()) continue;  // every execution failed and was counted
    const dav::Trajectory& baseline = ref.baseline.at(runs.front().scenario);
    ledger.check(check_outcome_accounting(runs, baseline),
                 "outcome accounting of " + names[c]);
    const dav::CampaignSummary s = dav::summarize_campaign(runs, baseline, kTd);
    long ticks = 0;
    for (const RunResult& r : runs) ticks += r.steps;
    std::fprintf(stderr, "davbench: %-32s total %3d active %3d hang/crash %3d "
                 "acc %3d traj-viol %3d ticks %6ld\n", names[c].c_str(),
                 s.total, s.active, s.hang_crash, s.accidents,
                 s.traj_violations, ticks);
  }
}

std::vector<Metric> end_to_end_metrics(const std::vector<Unit>& units,
                                       double setup_s) {
  double seconds = 0.0;
  double runs = 0.0;
  double ticks = 0.0;
  for (const Unit& u : units) {
    seconds += *std::min_element(u.seconds.begin(), u.seconds.end());
    runs += static_cast<double>(u.first.size());
    for (const RunResult& r : u.first) ticks += r.steps;
  }
  return {{"fi_runs_per_s", runs / seconds, "runs/s"},
          {"sim_ticks_per_s", ticks / seconds, "ticks/s"},
          {"setup_s", setup_s, "s"},
          {"peak_rss_mb", peak_rss_mb(), "MiB"}};
}

/// Shuffles `v` in an order drawn from `seed` (Fisher-Yates).
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  dav::Rng order(seed);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[order.uniform_index(i)]);
  }
}

std::uint64_t tag(ScenarioId s) { return static_cast<std::uint64_t>(s); }
std::uint64_t tag(FaultDomain d) { return static_cast<std::uint64_t>(d); }
std::uint64_t tag(FaultModelKind k) { return static_cast<std::uint64_t>(k); }

/// The plan generator of one campaign's fault list.
dav::InjectionPlanGenerator fault_list(ScenarioId s, std::uint64_t domain,
                                       std::uint64_t kind) {
  return dav::InjectionPlanGenerator(
      derive_seed(kFaultListSeed, 5, tag(s), domain, kind));
}

/// A fixed subset of the permanent-fault ISA sweep.
std::vector<dav::FaultPlan> permanent_subset(ScenarioId s, FaultDomain domain,
                                             std::size_t n) {
  const std::vector<dav::FaultPlan> all =
      fault_list(s, tag(domain), tag(FaultModelKind::kPermanent))
          .permanent_plans(domain, 1);
  std::vector<dav::FaultPlan> out;
  for (const std::size_t i : choose_subset(
           derive_seed(kFaultListSeed, 6, tag(s), tag(domain)), all.size(),
           n)) {
    out.push_back(all[i]);
  }
  return out;
}

RunConfig fi_config(const dav::CampaignManager& mgr, std::uint64_t seed,
                    ScenarioId s, const dav::FaultPlan& plan, std::size_t i) {
  RunConfig cfg = mgr.base_config(s, dav::AgentMode::kRoundRobin);
  cfg.fault = plan;
  cfg.run_seed = derive_seed(seed, 4, tag(s), tag(plan.domain) * 4 + tag(plan.kind),
                             i);
  return cfg;
}

// --- table1_recovery_serial: the Table-I part ------------------------------

/// The runs' seeds are fixed like the fault lists: with seed-drawn run
/// seeds, whether a CPU fault crashes early is a draw of its own, and the
/// mix of short and full runs moved fi_runs_per_s by a spread of 0.34 over
/// six seeds while sim_ticks_per_s held 0.12. --seed sets the order of the
/// units in a pass and the reference's training and golden runs.
void table1_units(const dav::CampaignManager& mgr, const Reference& ref,
                  std::vector<Unit>& units, std::vector<std::string>& names,
                  std::vector<int>& gpu_transient) {
  for (const ScenarioId s : dav::safety_scenarios()) {
    for (const FaultModelKind kind :
         {FaultModelKind::kTransient, FaultModelKind::kPermanent}) {
      for (const FaultDomain domain : {FaultDomain::kGpu, FaultDomain::kCpu}) {
        std::vector<dav::FaultPlan> plans;
        if (kind == FaultModelKind::kTransient) {
          // The sampling span of CampaignManager::fi_campaign: GPU sites
          // within the profiled execution, CPU sites oversampled past it.
          const double over = domain == FaultDomain::kGpu ? 0.95 : 1.3;
          plans = fault_list(s, tag(domain), tag(kind))
                      .transient_plans(ref.profile(s, domain),
                                       kTable1RunsPerCampaign, over);
        } else {
          plans = permanent_subset(s, domain, kTable1RunsPerCampaign);
        }
        const int campaign = static_cast<int>(names.size());
        names.push_back(dav::to_string(domain) + "-" + dav::to_string(kind) +
                        " " + dav::to_string(s));
        if (domain == FaultDomain::kGpu && kind == FaultModelKind::kTransient) {
          gpu_transient.push_back(campaign);
        }
        for (std::size_t i = 0; i < plans.size(); ++i) {
          units.push_back(in_process_unit(
              names.back() + " #" + std::to_string(i), campaign,
              fi_config(mgr, kFaultListSeed, s, plans[i], i)));
        }
      }
    }
  }
}

// --- cpu_permanent_pool -----------------------------------------------------

Unit pool_unit(const Options& opts, ScenarioId s, std::size_t batch,
               std::vector<RunConfig> cfgs, int campaign,
               std::size_t sample) {
  Unit u;
  u.name = "CPU-permanent batch " + dav::to_string(s) + " #" +
           std::to_string(batch);
  u.campaign = campaign;
  const std::string stem = opts.work_dir + "/journal_" +
                           std::to_string(campaign) + "_" +
                           std::to_string(batch) + "_";
  u.execute = [cfgs, stem, seed = opts.seed](int pass) {
    const std::string path = stem + std::to_string(pass);
    std::remove(path.c_str());
    dav::EnvOptions env;
    env.jobs = kPoolJobs;
    env.journal_path = path;
    dav::CampaignManager mgr(bench_scale(), env, seed);
    const Clock::time_point t0 = Clock::now();
    std::vector<RunResult> results = mgr.run_all(cfgs);
    return Execution{std::move(results), seconds_since(t0)};
  };
  u.after = [stem, cfgs, sample](int pass,
                                 const std::vector<RunResult>& results,
                                 Ledger& ledger) {
    const std::string path = stem + std::to_string(pass);
    const dav::JournalLoad journal =
        dav::load_journal(path, journal_fingerprint(path));
    ledger.check(check_journal(journal, cfgs, results),
                 "journal of pass " + std::to_string(pass));
    std::remove(path.c_str());
    if (pass != 0) return;
    const RunResult direct = dav::run_experiment(cfgs.at(sample));
    ledger.check(check_same_bytes(dav::serialize_run_result(results.at(sample)),
                                  dav::serialize_run_result(direct)),
                 "pool against in-process run of config " +
                     std::to_string(sample));
  };
  return u;
}

}  // namespace

RecoverySweep recovery_sweep(const dav::CampaignManager& mgr,
                             std::uint64_t seed, const dav::ThresholdLut& lut) {
  const ScenarioId s = ScenarioId::kLeadSlowdown;
  const dav::MitigationSetup mitigation = recovery_setup(lut);
  dav::FusionConfig fusion;
  fusion.enabled = true;
  RecoverySweep sweep;
  const std::vector<dav::FaultPlan> plans =
      permanent_subset(s, FaultDomain::kGpu, kRecoveryGpuRuns);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    RunConfig cfg = fi_config(mgr, seed, s, plans[i], i);
    cfg.fusion = fusion;
    mitigation.apply(cfg);
    sweep.gpu_permanent.push_back(cfg);
  }
  const std::vector<dav::SensorFaultPlan> sensor_plans =
      fault_list(s, 2, 3).sensor_plans(dav::all_sensor_fault_models(),
                                       /*runs_per_model=*/1,
                                       /*onset_tick=*/40,
                                       /*duration_ticks=*/80);
  for (std::size_t i = 0; i < sensor_plans.size(); ++i) {
    RunConfig cfg = mgr.base_config(s, dav::AgentMode::kRoundRobin);
    cfg.sensor_fault = sensor_plans[i];
    cfg.fusion = fusion;
    cfg.run_seed = derive_seed(seed, 4, tag(s), 9, i);
    mitigation.apply(cfg);
    sweep.sensor.push_back(cfg);
  }
  return sweep;
}

std::vector<RunConfig> cpu_permanent_sweep(const dav::CampaignManager& mgr,
                                           std::uint64_t seed, ScenarioId s,
                                           std::size_t runs) {
  const std::vector<dav::FaultPlan> plans =
      fault_list(s, tag(FaultDomain::kCpu), tag(FaultModelKind::kPermanent))
          .permanent_plans(FaultDomain::kCpu, /*repeats=*/1);
  // The run seeds are fixed too: with seed-drawn run seeds the number of
  // data-opcode runs that crash early instead of running the full 600 ticks
  // moved fi_runs_per_s by a spread of 0.29 over ten seeds, while
  // sim_ticks_per_s held within 0.06. --seed sets the dispatch order.
  std::vector<RunConfig> cfgs;
  for (const std::size_t i : choose_subset(
           derive_seed(kFaultListSeed, 8, tag(s)), plans.size(), runs)) {
    cfgs.push_back(fi_config(mgr, kFaultListSeed, s, plans[i], i));
  }
  shuffle(cfgs, derive_seed(seed, 10, tag(s)));
  return cfgs;
}

bool known_workload(const std::string& name) {
  return name == "table1_recovery_serial" || name == "cpu_permanent_pool";
}

void run_end_to_end(const Options& opts, Clock::time_point process_start) {
  Ledger ledger;
  const std::uint64_t seed = opts.seed;
  const dav::CampaignManager mgr(bench_scale(), seed);
  std::vector<Unit> units;
  std::vector<std::string> names;
  std::vector<int> gpu_transient;
  std::vector<int> sensor_campaigns;

  Reference ref;
  if (opts.workload == "table1_recovery_serial") {
    ref = build_reference(mgr, seed, dav::safety_scenarios(), true, ledger);
    table1_units(mgr, ref, units, names, gpu_transient);
    const ScenarioId s = ScenarioId::kLeadSlowdown;
    const RecoverySweep sweep = recovery_sweep(mgr, seed, ref.lut);
    int campaign = static_cast<int>(names.size());
    names.push_back("GPU-permanent recovery " + dav::to_string(s));
    for (std::size_t i = 0; i < sweep.gpu_permanent.size(); ++i) {
      units.push_back(in_process_unit(names.back() + " #" + std::to_string(i),
                                      campaign, sweep.gpu_permanent[i]));
    }
    campaign = static_cast<int>(names.size());
    names.push_back("sensor-fault recovery " + dav::to_string(s));
    sensor_campaigns.push_back(campaign);
    for (const RunConfig& cfg : sweep.sensor) {
      units.push_back(in_process_unit(
          names.back() + " " + dav::to_string(cfg.sensor_fault.model),
          campaign, cfg));
    }
    shuffle(units, derive_seed(seed, 10));
  } else {
    ref = build_reference(mgr, seed, dav::safety_scenarios(), false, ledger);
    for (const ScenarioId s : dav::safety_scenarios()) {
      // Each batch holds the same opcodes for every seed, so the number of
      // full-length runs per batch does not move with the seed; --seed
      // draws the dispatch order within a batch.
      const std::vector<RunConfig> cfgs =
          cpu_permanent_sweep(mgr, kFaultListSeed, s, kPoolRunsPerScenario);
      const int campaign = static_cast<int>(names.size());
      names.push_back("CPU-permanent " + dav::to_string(s));
      const std::size_t per_batch = cfgs.size() / kPoolBatchesPerScenario;
      for (std::size_t b = 0; b < kPoolBatchesPerScenario; ++b) {
        std::vector<RunConfig> batch(
            cfgs.begin() + static_cast<std::ptrdiff_t>(b * per_batch),
            cfgs.begin() + static_cast<std::ptrdiff_t>((b + 1) * per_batch));
        shuffle(batch, derive_seed(seed, 10, tag(s), b));
        const std::size_t sample =
            choose_subset(derive_seed(seed, 7, tag(s), b), batch.size(), 1)
                .front();
        units.push_back(pool_unit(opts, s, b, std::move(batch), campaign,
                                  sample));
      }
    }
  }
  const double setup_s = seconds_since(process_start);
  check_reference(ref, ledger);

  measure(units, opts.seconds, ledger);

  report_campaigns(units, names, ref, ledger);
  for (const int c : gpu_transient) {
    ledger.check(check_transients_activate(campaign_results(units, c)),
                 "activation of " + names[static_cast<std::size_t>(c)]);
  }
  for (const int c : sensor_campaigns) {
    ledger.check(check_sensor_faults(campaign_results(units, c)),
                 "sensor faults of " + names[static_cast<std::size_t>(c)]);
  }
  print_result(ledger, end_to_end_metrics(units, setup_s));
}

}  // namespace davbench
