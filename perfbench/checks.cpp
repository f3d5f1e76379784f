#include "checks.h"

#include <array>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "campaign/metrics.h"
#include "campaign/serialize.h"

namespace davbench {

using dav::FaultOutcome;
using dav::RunResult;

std::string check_same_bytes(const std::string& first,
                             const std::string& again) {
  if (first == again) return "";
  std::size_t at = 0;
  while (at < first.size() && at < again.size() && first[at] == again[at]) {
    ++at;
  }
  return "outputs differ at byte " + std::to_string(at) + " (" +
         std::to_string(first.size()) + " vs " +
         std::to_string(again.size()) + " bytes)";
}

std::string check_outcome_accounting(const std::vector<RunResult>& runs,
                                     const dav::Trajectory& baseline) {
  int active = 0;
  int due = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    if (r.outcome > FaultOutcome::kHarnessError) {
      return "run " + std::to_string(i) + ": no outcome class";
    }
    const std::string at =
        "run " + std::to_string(i) + " (" + dav::to_string(r.outcome) + ")";
    if (r.outcome == FaultOutcome::kHarnessError) return at + " quarantined";
    const bool due_class = r.outcome == FaultOutcome::kCrash ||
                           r.outcome == FaultOutcome::kHang;
    if (due_class != r.due) return at + ": DUE flag disagrees with class";
    const bool silent_class = r.outcome == FaultOutcome::kSdc ||
                              r.outcome == FaultOutcome::kMasked;
    if ((r.outcome == FaultOutcome::kNotActivated && r.fault_activated) ||
        (silent_class && !r.fault_activated)) {
      return at + ": activation flag disagrees with class";
    }
    active += r.fault_activated || r.due ? 1 : 0;
    due += r.due ? 1 : 0;
  }
  const dav::CampaignSummary s = dav::summarize_campaign(runs, baseline, kTd);
  const auto row = [&s] {
    return " (summary: total " + std::to_string(s.total) + ", active " +
           std::to_string(s.active) + ", hang/crash " +
           std::to_string(s.hang_crash) + ")";
  };
  if (s.total != static_cast<int>(runs.size())) {
    return "summary total differs from the " + std::to_string(runs.size()) +
           " runs" + row();
  }
  if (s.harness_errors != 0) return "summary counts quarantined runs" + row();
  if (s.active != active) {
    return "summary active differs from the " + std::to_string(active) +
           " activated or DUE runs" + row();
  }
  if (s.hang_crash != due) {
    return "summary hang/crash differs from the " + std::to_string(due) +
           " DUE runs" + row();
  }
  return "";
}

std::string check_transients_activate(
    const std::vector<RunResult>& gpu_transient_runs) {
  for (std::size_t i = 0; i < gpu_transient_runs.size(); ++i) {
    if (!gpu_transient_runs[i].fault_activated) {
      return "GPU-transient run " + std::to_string(i) + " never activated";
    }
  }
  return "";
}

std::string check_golden(const std::vector<RunResult>& golden) {
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const RunResult& r = golden[i];
    const std::string at = "golden run " + std::to_string(i) + " of " +
                           dav::to_string(r.scenario);
    if (r.collision) return at + " collided";
    if (r.due) return at + " raised a DUE";
  }
  return "";
}

int golden_offline_alarms(const std::vector<RunResult>& golden,
                          const dav::ThresholdLut& lut) {
  int alarms = 0;
  for (const RunResult& r : golden) {
    if (dav::detect_run(r, lut, 3).alarm) ++alarms;
  }
  return alarms;
}

std::string check_training_traces(
    const std::vector<std::vector<dav::StepObservation>>& traces,
    const dav::ThresholdLut& lut) {
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (dav::replay_detector(traces[i], lut, {3}).alarmed) {
      return "training trace " + std::to_string(i) + " alarms";
    }
  }
  return "";
}

std::string check_journal(const dav::JournalLoad& journal,
                          const std::vector<dav::RunConfig>& cfgs,
                          const std::vector<RunResult>& results) {
  if (journal.records.size() != cfgs.size()) {
    return "journal holds " + std::to_string(journal.records.size()) +
           " records for " + std::to_string(cfgs.size()) + " configs";
  }
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const auto it = journal.records.find(dav::run_config_digest(cfgs[i]));
    if (it == journal.records.end()) {
      return "no journal record for config " + std::to_string(i);
    }
    const dav::ResultPayload p = dav::parse_result_payload(it->second);
    if (!p.ok) return "journal record " + std::to_string(i) + " quarantined";
    if (dav::serialize_run_result(p.result) !=
        dav::serialize_run_result(results.at(i))) {
      return "journal record " + std::to_string(i) +
             " differs from the returned result";
    }
  }
  return "";
}

std::string check_sensor_faults(const std::vector<RunResult>& runs) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const RunResult& r = runs[i];
    const std::string at = "run " + std::to_string(i) + " (" +
                           dav::to_string(r.sensor_fault.model) + ")";
    if (r.sensor_fault.active() && r.sensor_fault.onset_tick < r.steps &&
        r.sensor_corruptions == 0) {
      return at + " corrupted nothing after its onset";
    }
    const double a = dav::availability_fraction(r);
    if (!(a >= 0.0 && a <= 1.0)) {
      return at + ": availability " + std::to_string(a) + " outside [0, 1]";
    }
  }
  return "";
}

std::uint64_t journal_fingerprint(const std::string& path) {
  // Header: "DAVJRNL\x01" | u32 version | u64 fingerprint, little-endian.
  std::ifstream in(path, std::ios::binary);
  std::array<unsigned char, 20> h{};
  if (!in.read(reinterpret_cast<char*>(h.data()), h.size())) {
    throw std::runtime_error("journal " + path + " has no header");
  }
  std::uint64_t fp = 0;
  for (int i = 7; i >= 0; --i) fp = (fp << 8) | h[12 + i];
  return fp;
}

}  // namespace davbench
