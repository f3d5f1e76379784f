// Output checks of the campaign benchmark. Each tests a property the method
// must have, or compares against an independent execution path; none
// compares against stored output. Each returns an empty string when the
// property holds and a description of the first violation otherwise.
#pragma once

#include <string>
#include <vector>

#include "campaign/driver.h"
#include "campaign/journal.h"
#include "core/detector.h"

namespace davbench {

/// A repeat of a unit must serialise to the same bytes as its first run.
std::string check_same_bytes(const std::string& first,
                             const std::string& again);

/// Trajectory-violation threshold of the Table-I summary, in metres (as in
/// the repository's bench_table1_fi_summary).
constexpr double kTd = 2.0;

/// Every run has one outcome class, which agrees with its own record (a DUE
/// class iff a DUE; "not activated" never with an activation; masked or SDC
/// only with one), and no run was quarantined. The campaign's Table-I row
/// (dav::summarize_campaign against `baseline`) must then agree with counts
/// taken here from the runs' flags: total == runs, active == runs activated
/// or with a DUE (so active <= total), hang/crash == runs with a DUE.
std::string check_outcome_accounting(const std::vector<dav::RunResult>& runs,
                                     const dav::Trajectory& baseline);

/// Every GPU-transient run activates: its site is drawn within 0.95 of the
/// profiled instruction count.
std::string check_transients_activate(
    const std::vector<dav::RunResult>& gpu_transient_runs);

/// No golden run collides or raises a DUE.
std::string check_golden(const std::vector<dav::RunResult>& golden);

/// Golden runs that alarm offline under the rw=3 LUT. Reported, not
/// checked: about one seed in five has one such run (see CHANGES.md).
int golden_offline_alarms(const std::vector<dav::RunResult>& golden,
                          const dav::ThresholdLut& lut);

/// Replaying each LUT-training trace through the detector raises no alarm.
std::string check_training_traces(
    const std::vector<std::vector<dav::StepObservation>>& traces,
    const dav::ThresholdLut& lut);

/// A journal holds exactly one record per config, keyed by its run digest,
/// and each record decodes to the result the batch returned.
std::string check_journal(const dav::JournalLoad& journal,
                          const std::vector<dav::RunConfig>& cfgs,
                          const std::vector<dav::RunResult>& results);

/// Every active sensor plan whose onset precedes the run's end corrupted at
/// least one element, and availability lies in [0, 1].
std::string check_sensor_faults(const std::vector<dav::RunResult>& runs);

/// The campaign fingerprint a journal file's header binds it to.
std::uint64_t journal_fingerprint(const std::string& path);

}  // namespace davbench
