// The traced run. Its per-layer timings come from the benchmark's own code
// around public calls of each layer (sim, sensors, agent, core, fi,
// campaign, obs); engine instruction counters are read before and after.
// For the runs it traces it drives run_experiment's tick loop itself and
// must reproduce run_experiment byte for byte, which shows that the
// per-layer numbers describe the same program the end-to-end runs measure.
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <utility>

#include "agent/agent.h"
#include "agent/tensor.h"
#include "campaign/journal.h"
#include "campaign/serialize.h"
#include "checks.h"
#include "core/ads_system.h"
#include "core/recovery.h"
#include "sensors/sensor_rig.h"
#include "util/rng.h"
#include "workloads.h"

namespace davbench {

namespace {

using namespace dav;

using Samples = std::vector<double>;

double us_since(Clock::time_point t0) { return seconds_since(t0) * 1e6; }

/// Per-call timings of the traced tick loops, in microseconds.
struct LoopTimes {
  Samples capture;         // SensorRig::capture, plain rig
  Samples capture_fused;   // SensorRig::capture, LiDAR + fault injector
  Samples ads_step;        // AdsSystem::step
  Samples recovery_tick;   // RecoveryManager::tick
  Samples world_step;      // World::step
  Samples tick;            // capture + step + world step
  Samples render;          // CameraRenderer::render, per camera
  std::vector<SensorFrame> frames;  // sampled captured frames
};

constexpr int kSampleEvery = 10;  // ticks between sampled frames and renders
/// A-B-B-A rounds of the paired units: untraced against flight-recorded
/// golden run (about 0.4 s), and in-process against pool batch (0.2 s).
constexpr int kRunRounds = 5;
constexpr int kBatchRounds = 10;

/// The agent configuration run_experiment builds for a scenario.
AgentConfig agent_config(const Scenario& scenario,
                         const CameraModel& center_cam,
                         const FusionConfig& fusion) {
  AgentConfig ac;
  ac.perception.center_cam = center_cam;
  ac.mission_speed = scenario.target_speed;
  ac.route_start_s = scenario.ego_start_s;
  ac.control.wheelbase = scenario.ego_spec.wheelbase;
  ac.control.max_steer_angle = scenario.ego_spec.max_steer_angle;
  ac.fusion = fusion;
  return ac;
}

/// run_experiment's tick loop (src/campaign/driver.cpp) with each layer
/// call timed: the same seeding, engines, mitigation and watchdogs, without
/// the checkpoint tier, the flight recorder and the trace series, which the
/// traced configs leave off. `sample` keeps every kSampleEvery-th frame and
/// times the rig's renderers on that tick, after the tick's own timings.
RunResult traced_run(const RunConfig& cfg, LoopTimes& t, bool sample) {
  if (cfg.record_traces || cfg.checkpoint.enabled || cfg.trace.enabled()) {
    throw std::invalid_argument("traced_run: trace series, checkpoints and "
                                "the flight recorder must be off");
  }
  cfg.validate();
  World world(make_scenario(cfg.scenario, cfg.scenario_seed,
                            cfg.scenario_opts));
  const auto rig_models =
      front_camera_rig(cfg.cam_width, cfg.cam_height, cfg.camera_noise_sigma);
  Rng seeder(cfg.run_seed);
  SensorRig rig(rig_models, seeder.split(1)(), cfg.fusion.enabled);
  std::optional<SensorFaultInjector> sensor_inj;
  if (cfg.sensor_fault.active()) {
    sensor_inj.emplace(cfg.sensor_fault);
    rig.attach_fault_injector(&*sensor_inj);
  }
  Samples& capture_times =
      cfg.fusion.enabled || sensor_inj ? t.capture_fused : t.capture;

  GpuEngine gpu0;
  CpuEngine cpu0;
  GpuEngine gpu1;
  CpuEngine cpu1;
  const auto engine_seed = seeder.split(2)();
  gpu0.configure(cfg.fault, engine_seed,
                 CrashHangModel::for_model(FaultDomain::kGpu, cfg.fault.kind));
  cpu0.configure(cfg.fault, engine_seed ^ 0xC0FFEE,
                 CrashHangModel::for_model(FaultDomain::kCpu, cfg.fault.kind));
  const FaultPlan none;
  gpu1.configure(none, 0);
  cpu1.configure(none, 0);

  const bool duplicate = cfg.mode == AgentMode::kDuplicate;
  AdsSystem ads(cfg.mode,
                agent_config(world.scenario(), rig_models[1], cfg.fusion),
                gpu0, cpu0, duplicate ? &gpu1 : nullptr,
                duplicate ? &cpu1 : nullptr, &world.map(), cfg.overlap_ratio);
  if (sensor_inj) ads.attach_sensor_fault_injector(&*sensor_inj);

  std::optional<ErrorDetector> online_det;
  if (cfg.online_lut != nullptr) {
    online_det.emplace(*cfg.online_lut, cfg.online_detector);
  }
  std::optional<RecoveryManager> rec;
  if (cfg.mitigation == MitigationPolicy::kRestartRecovery) {
    rec.emplace(ads, cfg.recovery, cfg.watchdog_sec,
                online_det ? &*online_det : nullptr);
    if (cfg.fusion.enabled) rec->enable_sensor_monitor(cfg.fusion.health);
  }

  RunResult result;
  result.scenario = cfg.scenario;
  result.mode = cfg.mode;
  result.fault = cfg.fault;
  result.sensor_fault = cfg.sensor_fault;
  result.run_seed = cfg.run_seed;
  result.scheduled_duration = world.scenario().duration_sec;
  result.sensor_frame_bytes = rig.frame_bytes();

  Actuation last_applied;
  bool failing_back = false;
  double stationary_sec = 0.0;
  int step = 0;
  int failback_ticks = 0;
  Rng render_noise(cfg.run_seed ^ 0x5EED);

  const auto capture = [&]() {
    const Clock::time_point c0 = Clock::now();
    SensorFrame frame = rig.capture(world, step);
    capture_times.push_back(us_since(c0));
    if (sample && step % kSampleEvery == 0) t.frames.push_back(frame);
    return frame;
  };
  const auto world_step = [&](const Actuation& a) {
    const Clock::time_point w0 = Clock::now();
    world.step(a, cfg.dt);
    t.world_step.push_back(us_since(w0));
  };
  const auto legitimately_stopped = [&]() {
    if (world.cvip() < 12.0) return true;
    const auto light = world.map().next_light_after(world.ego_route_s());
    return light && light->s - world.ego_route_s() < 15.0 &&
           light->phase_at(world.time()) != TrafficLight::Phase::kGreen;
  };
  const auto record_due = [&](DueSource source, double at,
                              FaultOutcome outcome) {
    if (result.due) return;
    result.due = true;
    result.due_source = source;
    result.due_time = at;
    result.outcome = outcome;
  };
  const auto coast_on_hang = [&]() {
    const int coast_steps = static_cast<int>(cfg.watchdog_sec / cfg.dt);
    for (int i = 0; i < coast_steps && !world.done(); ++i) {
      world_step(last_applied);
    }
    if (result.due_source == DueSource::kHangWatchdog) {
      result.due_time = std::min(result.due_time, world.time());
    }
  };

  while (!world.done()) {
    const Clock::time_point tick0 = Clock::now();
    Actuation applied = last_applied;
    if (failing_back) {
      applied = Actuation{0.0, 0.45, 0.0};
      ++failback_ticks;
      if (world.ego().v < 0.05) break;
    } else if (rec) {
      const SensorFrame frame = capture();
      const Clock::time_point r0 = Clock::now();
      const RecoveryManager::TickOutcome o =
          rec->tick(frame, cfg.dt, world.ego(), world.time(), step);
      t.recovery_tick.push_back(us_since(r0));
      if (o.due != DueSource::kNone) {
        const bool is_hang = o.due == DueSource::kHangWatchdog;
        record_due(o.due,
                   is_hang ? world.time() + cfg.watchdog_sec : world.time(),
                   is_hang ? FaultOutcome::kHang : FaultOutcome::kCrash);
      }
      if (o.hang) coast_on_hang();
      if (o.have_delta) {
        result.observations.push_back(
            StepObservation{world.time(), world.ego(), o.delta});
      }
      applied = o.applied;
      if (o.failback) failing_back = true;
    } else {
      const SensorFrame frame = capture();
      try {
        const Clock::time_point s0 = Clock::now();
        const AdsSystem::StepResult sr = ads.step(frame, cfg.dt);
        t.ads_step.push_back(us_since(s0));
        if (!sr.applied.finite()) {
          record_due(DueSource::kOutputValidator, world.time(),
                     FaultOutcome::kCrash);
          failing_back = true;
          continue;
        }
        applied = sr.applied.clamped();
        if (sr.have_delta) {
          result.observations.push_back(
              StepObservation{world.time(), world.ego(), sr.delta});
          if (online_det && online_det->observe(result.observations.back())) {
            if (!result.online_alarmed) {
              result.online_alarmed = true;
              result.online_alarm_time = online_det->first_alarm_time();
            }
            failing_back = true;
          }
        }
        ++result.recovery.nominal_ticks;
      } catch (const CrashError&) {
        record_due(DueSource::kEngineCrash, world.time(),
                   FaultOutcome::kCrash);
        failing_back = true;
        applied = last_applied;
      } catch (const HangError&) {
        record_due(DueSource::kHangWatchdog,
                   world.time() + cfg.watchdog_sec, FaultOutcome::kHang);
        coast_on_hang();
        failing_back = true;
        applied = last_applied;
      }
    }
    world_step(applied);
    last_applied = applied;
    ++step;

    if (!failing_back && cfg.stuck_watchdog_sec > 0.0) {
      if (world.ego().v < 0.3 && !legitimately_stopped()) {
        stationary_sec += cfg.dt;
        if (stationary_sec >= cfg.stuck_watchdog_sec) {
          record_due(DueSource::kStuckWatchdog, world.time(),
                     FaultOutcome::kHang);
          failing_back = true;
        }
      } else {
        stationary_sec = 0.0;
      }
    }
    t.tick.push_back(us_since(tick0));
    if (sample && (step - 1) % kSampleEvery == 0) {
      for (const CameraRenderer& r : rig.renderers()) {
        const Clock::time_point r0 = Clock::now();
        const Image img = r.render(world, render_noise);
        t.render.push_back(us_since(r0));
      }
    }
  }

  result.dt = cfg.dt;
  result.collision = world.flags().collision;
  result.collision_time = world.first_collision_time();
  result.flags = world.flags();
  result.trajectory = world.trajectory();
  result.duration = world.time();
  result.steps = world.step_count();
  result.sensor_corruptions = sensor_inj ? sensor_inj->corruptions() : 0;
  result.fault_activated = gpu0.fault_activated() || cpu0.fault_activated() ||
                           result.sensor_corruptions > 0;
  if (rec) {
    const int nominal_before = result.recovery.nominal_ticks;
    result.recovery = rec->stats();
    result.recovery.nominal_ticks += nominal_before;
    if (result.recovery.first_detector_alarm_time >= 0.0) {
      result.online_alarmed = true;
      result.online_alarm_time = result.recovery.first_detector_alarm_time;
    }
  }
  result.recovery.failback_ticks += failback_ticks;
  if (result.outcome != FaultOutcome::kCrash &&
      result.outcome != FaultOutcome::kHang) {
    const bool any_fault = cfg.fault.active() || cfg.sensor_fault.active();
    if (!any_fault) {
      result.outcome = FaultOutcome::kMasked;
    } else if (!result.fault_activated) {
      result.outcome = FaultOutcome::kNotActivated;
    } else if (gpu0.corruption_count() + cpu0.corruption_count() +
                   result.sensor_corruptions > 0) {
      result.outcome = FaultOutcome::kSdc;
    } else {
      result.outcome = FaultOutcome::kMasked;
    }
  }
  result.gpu_instructions =
      gpu0.total_dyn_instructions() + gpu1.total_dyn_instructions();
  result.cpu_instructions =
      cpu0.total_dyn_instructions() + cpu1.total_dyn_instructions();
  result.agent_state_bytes = ads.state_bytes();
  return result;
}

/// Traces `cfg` and checks the result against run_experiment.
RunResult trace_and_compare(const RunConfig& cfg, LoopTimes& t, bool sample,
                            const std::string& what, Ledger& ledger) {
  RunResult traced = traced_run(cfg, t, sample);
  const RunResult direct = run_experiment(cfg);
  ledger.op(true, what);
  ledger.check(check_same_bytes(serialize_run_result(direct),
                                serialize_run_result(traced)),
               "traced " + what + " against run_experiment");
  const bool same_counts =
      traced.gpu_instructions == direct.gpu_instructions &&
      traced.cpu_instructions == direct.cpu_instructions;
  ledger.check(same_counts ? "" : "instruction totals differ",
               "instruction totals of traced " + what);
  return traced;
}

/// Fastest of `repeats` calls of `fn`, in seconds.
template <typename Fn>
double fastest(int repeats, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

/// Two paired units timed in A B B A order over a number of rounds, so that
/// neither always runs first and both sample the same stretch of the host's
/// fast and slow phases. In seconds.
struct Paired {
  double a = 0.0;     // median of A's repetitions
  double b = 0.0;     // median of B's repetitions
  double diff = 0.0;  // median over rounds of B minus A within the round
};

template <typename A, typename B>
Paired paired_medians(const char* what, int rounds, A&& a, B&& b) {
  Samples ta;
  Samples tb;
  const auto time = [](auto& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    return seconds_since(t0);
  };
  Samples diff;
  for (int i = 0; i < rounds; ++i) {
    const double a1 = time(a);
    const double b1 = time(b);
    const double b2 = time(b);
    const double a2 = time(a);
    ta.insert(ta.end(), {a1, a2});
    tb.insert(tb.end(), {b1, b2});
    diff.push_back(0.5 * ((b1 + b2) - (a1 + a2)));
  }
  std::fprintf(stderr, "davbench: %s: median %.4g s vs %.4g s, median paired "
               "difference %+.4g s over %d A-B-B-A rounds\n", what,
               median(ta), median(tb), median(diff), rounds);
  return {median(ta), median(tb), median(diff)};
}

/// Per-call timings of `fn` over `repeats` calls, in microseconds.
template <typename Fn>
Samples per_call_us(int repeats, Fn&& fn) {
  Samples out;
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    out.push_back(us_since(t0));
  }
  return out;
}

double p50(const Samples& s) { return percentile(s, 50.0); }
double p99(const Samples& s) { return percentile(s, 99.0); }

}  // namespace

void run_traced(const Options& opts) {
  Ledger ledger;
  const std::uint64_t seed = opts.seed;
  const CampaignManager mgr(bench_scale(), seed);
  const Reference ref = build_reference(mgr, seed, {}, false, ledger);
  check_reference(ref, ledger);
  std::vector<Metric> m;
  const auto add = [&m](const std::string& name, double value,
                        const std::string& unit) {
    m.push_back({name, value, unit});
  };

  // --- traced tick loops ----------------------------------------------------
  LoopTimes golden_t;
  LoopTimes recovery_t;
  std::vector<RunResult> golden;
  std::vector<RunConfig> golden_cfgs;
  for (const ScenarioId s : safety_scenarios()) {
    golden_cfgs.push_back(golden_config(mgr, seed, s, 0));
    golden.push_back(trace_and_compare(
        golden_cfgs.back(), golden_t, s == ScenarioId::kLeadSlowdown,
        "golden run of " + to_string(s), ledger));
  }
  ledger.check(check_golden(golden), "traced golden runs");
  const RecoverySweep sweep = recovery_sweep(mgr, seed, ref.lut);
  std::vector<RunConfig> recovery_cfgs = sweep.sensor;
  recovery_cfgs.insert(recovery_cfgs.end(), sweep.gpu_permanent.begin(),
                       sweep.gpu_permanent.begin() + 2);
  for (const RunConfig& cfg : recovery_cfgs) {
    trace_and_compare(cfg, recovery_t, false, "recovery run", ledger);
  }

  double gpu = 0.0;
  double cpu = 0.0;
  double steps = 0.0;
  for (const RunResult& r : golden) {
    gpu += static_cast<double>(r.gpu_instructions);
    cpu += static_cast<double>(r.cpu_instructions);
    steps += r.steps;
  }
  Samples all_ticks = golden_t.tick;
  all_ticks.insert(all_ticks.end(), recovery_t.tick.begin(),
                   recovery_t.tick.end());

  // --- single layers on captured frames ------------------------------------
  const World world(make_scenario(ScenarioId::kLeadSlowdown,
                                  golden_cfgs[0].scenario_seed,
                                  golden_cfgs[0].scenario_opts));
  const auto rig_models = front_camera_rig();
  const AgentConfig ac =
      agent_config(world.scenario(), rig_models[1], FusionConfig{});
  const FaultPlan none;
  GpuEngine eng;
  eng.configure(none, 0);
  const std::vector<SensorFrame>& frames = golden_t.frames;
  Samples perception_us;
  Samples to_tensor_us;
  Samples conv_us;
  Samples pool_us;
  Perception perception(eng, ac.perception);
  static const std::vector<float> kBox(9, 1.0f / 9.0f);
  for (int rep = 0; rep < 3; ++rep) {
    for (const SensorFrame& f : frames) {
      Clock::time_point t0 = Clock::now();
      perception.process(f.cameras);
      perception_us.push_back(us_since(t0));
      const Image& center = f.cameras[1];
      const int h = center.height();
      t0 = Clock::now();
      const Tensor rgb = image_rows_to_tensor(eng, center, h / 2, h);
      to_tensor_us.push_back(us_since(t0));
      Tensor plane(1, rgb.height(), rgb.width());
      std::copy(rgb.data().begin(),
                rgb.data().begin() + static_cast<long>(plane.size()),
                plane.data().begin());
      t0 = Clock::now();
      const Tensor smoothed = conv2d_plane(eng, plane, kBox, 1);
      conv_us.push_back(us_since(t0));
      const Tensor side = image_rows_to_tensor(eng, f.cameras[0], h / 2, h);
      t0 = Clock::now();
      const Tensor pooled = avg_pool(eng, side, 4);
      pool_us.push_back(us_since(t0));
    }
  }
  GpuEngine agent_gpu;
  CpuEngine agent_cpu;
  agent_gpu.configure(none, 0);
  agent_cpu.configure(none, 0);
  SensorimotorAgent agent("davbench", ac, agent_gpu, agent_cpu, &world.map());
  const std::uint64_t gpu_before = agent_gpu.total_dyn_instructions();
  Samples act_us;
  for (const SensorFrame& f : frames) {
    const Clock::time_point t0 = Clock::now();
    agent.act(f, 2.0 * golden_cfgs[0].dt);
    act_us.push_back(us_since(t0));
  }
  const double gpu_per_act =
      static_cast<double>(agent_gpu.total_dyn_instructions() - gpu_before) /
      static_cast<double>(frames.size());
  const Samples construct_us = per_call_us(10, [&] {
    GpuEngine g;
    CpuEngine c;
    g.configure(none, 0);
    c.configure(none, 0);
    const AdsSystem ads(AgentMode::kRoundRobin, ac, g, c, nullptr, nullptr,
                        &world.map());
  });
  Samples scenario_us;
  for (const ScenarioId s : safety_scenarios()) {
    const Samples one = per_call_us(5, [&] {
      const Scenario sc = make_scenario(s, golden_cfgs[0].scenario_seed,
                                        golden_cfgs[0].scenario_opts);
    });
    scenario_us.insert(scenario_us.end(), one.begin(), one.end());
  }

  // --- core -----------------------------------------------------------------
  Samples observe_ns;
  for (const RunResult& r : golden) {
    ErrorDetector det(ref.lut, DetectorConfig{});
    for (const StepObservation& o : r.observations) {
      const Clock::time_point t0 = Clock::now();
      det.observe(o);
      observe_ns.push_back(us_since(t0) * 1e3);
    }
  }
  const double train_s =
      fastest(3, [&] { const ThresholdLut l = train_lut(ref.training, 3); });

  // --- campaign and obs -----------------------------------------------------
  const RunConfig& run_cfg = golden_cfgs[0];
  RunConfig traced_cfg = run_cfg;
  traced_cfg.trace.dir = opts.work_dir + "/flight_recorder";
  traced_cfg.trace.label = "davbench";
  RunResult recorded;
  const Paired runs = paired_medians(
      "golden run untraced vs flight-recorded", kRunRounds,
      [&] { run_experiment(run_cfg); },
      [&] { recorded = run_experiment(traced_cfg); });
  ledger.check(check_same_bytes(serialize_run_result(golden[0]),
                                serialize_run_result(recorded)),
               "flight-recorded run against the untraced run");

  const std::string result_bytes = serialize_run_result(golden[0]);
  const Samples encode_us =
      per_call_us(50, [&] { serialize_run_result(golden[0]); });
  const Samples decode_us =
      per_call_us(50, [&] { deserialize_run_result(result_bytes); });
  const std::vector<RunConfig> sweep_cfgs =
      cpu_permanent_sweep(mgr, seed, ScenarioId::kLeadSlowdown);
  const Samples config_encode_us =
      per_call_us(200, [&] { serialize_run_config(sweep_cfgs[0]); });
  const Samples digest_us =
      per_call_us(200, [&] { run_config_digest(sweep_cfgs[0]); });

  // The executor's batch: the sweep's runs that end early in a DUE, where
  // per-run fixed cost is the largest share of the batch.
  std::vector<RunConfig> batch;
  for (const RunConfig& cfg : sweep_cfgs) {
    if (run_experiment(cfg).due) batch.push_back(cfg);
  }
  if (batch.empty()) {
    throw std::runtime_error("no CPU-permanent LeadSlowdown run ended in a DUE");
  }
  std::vector<RunResult> in_process;
  std::vector<RunResult> pooled;
  const std::string journal = opts.work_dir + "/traced_journal";
  const Paired batches = paired_medians(
      "DUE batch in process vs on 1 pool worker", kBatchRounds,
      [&] {
        in_process.clear();
        for (const RunConfig& cfg : batch) {
          in_process.push_back(run_experiment(cfg));
        }
      },
      [&] {
        std::remove(journal.c_str());
        EnvOptions env;
        env.jobs = 1;
        env.journal_path = journal;
        CampaignManager pool_mgr(bench_scale(), env, seed);
        pooled = pool_mgr.run_all(batch);
      });
  ledger.op(true, "pool batches");
  ledger.op(true, "in-process batches");
  std::string pooled_bytes;
  std::string direct_bytes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    pooled_bytes += serialize_run_result(pooled.at(i));
    direct_bytes += serialize_run_result(in_process.at(i));
  }
  ledger.check(check_same_bytes(direct_bytes, pooled_bytes),
               "pool batch against in-process batch");
  const std::uint64_t fp = journal_fingerprint(journal);
  JournalLoad loaded;
  const double load_s =
      fastest(5, [&] { loaded = load_journal(journal, fp); });
  ledger.check(check_journal(loaded, batch, pooled), "traced pool journal");
  std::remove(journal.c_str());

  const double act_p50 = p50(act_us);
  add("sim.world_step_us", p50(golden_t.world_step), "us");
  add("sim.make_scenario_ms", p50(scenario_us) / 1e3, "ms");
  add("sensors.capture_us.p50", p50(golden_t.capture), "us");
  add("sensors.capture_us.p99", p99(golden_t.capture), "us");
  add("sensors.render_us", p50(golden_t.render), "us");
  add("sensors.capture_fused_us", p50(recovery_t.capture_fused), "us");
  add("agent.perception_us", p50(perception_us), "us");
  add("agent.image_rows_to_tensor_us", p50(to_tensor_us), "us");
  add("agent.conv2d_plane_us", p50(conv_us), "us");
  add("agent.avg_pool_us", p50(pool_us), "us");
  add("agent.act_us", act_p50, "us");
  add("agent.construct_ms", p50(construct_us) / 1e3, "ms");
  add("agent.gpu_instr_per_act", gpu_per_act, "count");
  add("core.ads_step_us.p50", p50(golden_t.ads_step), "us");
  add("core.ads_step_us.p99", p99(golden_t.ads_step), "us");
  add("core.recovery_tick_us.p50", p50(recovery_t.recovery_tick), "us");
  add("core.recovery_tick_us.p99", p99(recovery_t.recovery_tick), "us");
  add("core.detector_observe_ns", p50(observe_ns), "ns");
  add("core.train_lut_ms", train_s * 1e3, "ms");
  add("fi.gpu_instr_per_tick", gpu / steps, "count");
  add("fi.cpu_instr_per_tick", cpu / steps, "count");
  add("fi.host_ns_per_gpu_instr", act_p50 * 1e3 / gpu_per_act, "ns");
  add("campaign.tick_us.p50", p50(all_ticks), "us");
  add("campaign.tick_us.p99", p99(all_ticks), "us");
  add("campaign.run_experiment_ms", runs.a * 1e3, "ms");
  add("campaign.result_bytes", static_cast<double>(result_bytes.size()),
      "count");
  add("campaign.result_encode_us", p50(encode_us), "us");
  add("campaign.result_decode_us", p50(decode_us), "us");
  add("campaign.config_encode_us", p50(config_encode_us), "us");
  add("campaign.config_digest_us", p50(digest_us), "us");
  add("campaign.pool_batch_s", batches.b, "s");
  add("campaign.inprocess_batch_s", batches.a, "s");
  add("campaign.executor_cost_per_run_ms",
      batches.diff * 1e3 / static_cast<double>(batch.size()), "ms");
  add("campaign.journal_load_ms", load_s * 1e3, "ms");
  add("obs.traced_run_ms", runs.b * 1e3, "ms");
  add("obs.tracing_overhead_ms", runs.diff * 1e3, "ms");
  print_result(ledger, m);
}

}  // namespace davbench
