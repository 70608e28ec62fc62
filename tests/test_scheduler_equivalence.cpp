// Scheduler equivalence: the slot-calendar wheel is the only scheduler.
// These scenarios used to run under both the wheel and the binary heap, with
// the two records asserted bit-identical; that shared record is pinned in
// golden_metrics.hpp, so each scenario now runs on the wheel and must
// reproduce it exactly — any change in event order would shift RNG
// consumption and move the digest.  Each run is traced: the trace must be
// chronological (the calendar fires in time order) and attaching it must
// not change the record.  The calendar itself is checked event for event
// against the heap oracle in test_slot_calendar.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/trace.hpp"
#include "golden_metrics.hpp"

namespace {

using namespace firefly;

core::RunMetrics run_on_wheel(const std::string& key, core::Protocol protocol,
                              const core::ScenarioConfig& config) {
  core::TraceSink trace;
  const core::RunMetrics metrics = core::run_trial(protocol, config, {.trace = &trace});
  golden::expect_golden(key, metrics);

  const std::vector<core::TraceEvent>& events = trace.events();
  EXPECT_GT(trace.count(core::TraceKind::kFire), 0U) << key;
  for (std::size_t k = 1; k < events.size(); ++k) {
    if (events[k].time_ms < events[k - 1].time_ms) {
      ADD_FAILURE() << key << ": trace event " << k << " at " << events[k].time_ms
                    << " ms precedes its predecessor at " << events[k - 1].time_ms << " ms";
      break;
    }
  }
  return metrics;
}

TEST(SchedulerEquivalence, StStaticRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 120;
  config.seed = 7001;
  const core::RunMetrics wheel = run_on_wheel("paper/st-120", core::Protocol::kSt, config);
  EXPECT_TRUE(wheel.converged);
}

TEST(SchedulerEquivalence, StSecondSeedIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 80;
  config.seed = 42;
  run_on_wheel("paper/st-80", core::Protocol::kSt, config);
}

TEST(SchedulerEquivalence, FstStaticRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7002;
  run_on_wheel("paper/fst-60", core::Protocol::kFst, config);
}

TEST(SchedulerEquivalence, StMobilityRunIsBitIdentical) {
  // Mobility adds the periodic mobility timer and per-step cache rebuilds
  // to the event mix.  Bounded observation window so devices keep moving.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7003;
  config.protocol.mobility_speed_mps = 1.5;
  config.protocol.stop_on_convergence = false;
  config.protocol.max_periods = 20;
  run_on_wheel("mobility/st-60", core::Protocol::kSt, config);
}

TEST(SchedulerEquivalence, StFaultInjectionRunIsBitIdentical) {
  // Churn and fade events schedule far ahead of the firing pattern and
  // cancel/reschedule under recovery — the ugliest event mix we have.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7004;
  config.protocol.max_periods = 30;
  config.protocol.faults.churn_rate_per_min = 20.0;
  config.protocol.faults.mean_downtime_ms = 1000.0;
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.fade_rate_per_min = 10.0;
  config.protocol.faults.drift_max_ppm = 50.0;
  run_on_wheel("faults/st-60-fades", core::Protocol::kSt, config);
}

TEST(SchedulerEquivalence, DesyncStaticRunIsBitIdentical) {
  // The DESYNC backend schedules jump-adjusted fires through the same
  // cancel/reschedule path.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7005;
  const core::RunMetrics wheel =
      run_on_wheel("paper/desync-60", core::Protocol::kDesync, config);
  EXPECT_TRUE(wheel.converged);
}

TEST(SchedulerEquivalence, DesyncFaultInjectionRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 40;
  config.seed = 7006;
  config.protocol.max_periods = 30;
  config.protocol.faults.churn_rate_per_min = 20.0;
  config.protocol.faults.mean_downtime_ms = 1000.0;
  config.protocol.faults.drop_probability = 0.05;
  run_on_wheel("churn/desync-drops", core::Protocol::kDesync, config);
}

TEST(SchedulerEquivalence, AllFourSchedulerSpatialCombinationsMatch) {
  // This scenario used to run on {wheel, heap} × {grid, dense}; the four
  // records were identical, and the wheel on the grid must still give it.
  core::ScenarioConfig config;
  config.n = 100;
  config.seed = 31337;
  run_on_wheel("paper/st-100", core::Protocol::kSt, config);
}

}  // namespace
