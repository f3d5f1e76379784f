// Self-test of the output checks: each must accept its clean input and
// reject the same input with one defect planted (a corrupted RunResult, a
// dropped journal record, a flipped outcome). The inputs come from a real
// pool batch of four CPU-permanent runs with a write-ahead journal.
#include <cstdio>
#include <iterator>

#include "campaign/journal.h"
#include "campaign/metrics.h"
#include "campaign/serialize.h"
#include "checks.h"
#include "workloads.h"

namespace davbench {

namespace {

/// Prints one verdict line; true when the check accepted `clean` and
/// rejected `corrupted`.
bool expect(const std::string& name, const std::string& clean,
            const std::string& corrupted) {
  const bool ok = clean.empty() && !corrupted.empty();
  std::printf("self-test %-22s clean: %s; corrupted: %s -> %s\n",
              name.c_str(), clean.empty() ? "accepted" : clean.c_str(),
              corrupted.empty() ? "ACCEPTED" : corrupted.c_str(),
              ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int run_self_test(const std::string& work_dir) {
  const std::uint64_t seed = 1;
  const dav::CampaignManager mgr(bench_scale(), seed);
  std::vector<dav::RunConfig> cfgs =
      cpu_permanent_sweep(mgr, seed, dav::ScenarioId::kLeadSlowdown);
  cfgs.resize(4);
  const std::string journal_path = work_dir + "/self_test_journal";
  std::remove(journal_path.c_str());
  dav::EnvOptions env;
  env.jobs = 1;
  env.journal_path = journal_path;
  dav::CampaignManager pool(bench_scale(), env, seed);
  const std::vector<dav::RunResult> results = pool.run_all(cfgs);
  const dav::JournalLoad journal =
      dav::load_journal(journal_path, journal_fingerprint(journal_path));
  std::remove(journal_path.c_str());

  bool ok = true;

  // A repeat (here the in-process execution of the same config) must match
  // byte for byte; one corrupted counter must not.
  const std::string first = dav::serialize_run_result(results[0]);
  dav::RunResult corrupted = dav::run_experiment(cfgs[0]);
  const std::string again = dav::serialize_run_result(corrupted);
  corrupted.cpu_instructions ^= 1;
  ok &= expect("repeat bytes", check_same_bytes(first, again),
               check_same_bytes(first, dav::serialize_run_result(corrupted)));

  dav::JournalLoad dropped = journal;
  dropped.records.erase(std::prev(dropped.records.end()));
  ok &= expect("journal", check_journal(journal, cfgs, results),
               check_journal(dropped, cfgs, results));

  std::vector<dav::RunResult> flipped = results;
  flipped[0].outcome = flipped[0].due ? dav::FaultOutcome::kMasked
                                      : dav::FaultOutcome::kCrash;
  const dav::Trajectory baseline = dav::golden_baseline(
      {dav::run_experiment(golden_config(mgr, seed, cfgs[0].scenario, 0))});
  ok &= expect("outcome accounting",
               check_outcome_accounting(results, baseline),
               check_outcome_accounting(flipped, baseline));

  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace davbench
