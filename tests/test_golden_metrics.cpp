// Golden RunMetrics: every scenario's serialised RunMetrics record is pinned
// to a recorded FNV-1a digest of write_run_metrics_json.  The simulator has
// one production path per layer (SoA hot arrays, slot-calendar scheduler,
// grid candidate index), so these digests are what keeps a refactor or a
// speed change from quietly moving the science: any ULP of divergence in
// any field, or any shift in event or RNG-draw order, changes the digest.
//
// Scenarios: every registered backend on a static fixed-area deployment; ST
// and FST with duty-cycled receivers; ST, FST and DESYNC on the
// density-scaled paper deployment; ST with mobility; ST and DESYNC under
// fault injection; ST and FST under churn and fades with no drop draw; the
// other backends under churn; and the service-mode snapshot → restore →
// run-to-end path for every backend, plus ST with the checkpoint inside a
// live fade episode.
//
// The digests live in golden_metrics.hpp, shared with the layout, scheduler
// and spatial suites.  A mismatch prints the full JSON record.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "golden_metrics.hpp"
#include "proto/registry.hpp"
#include "proto/st.hpp"

namespace {

using namespace firefly;

using golden::expect_golden;
using golden::metrics_json;

core::ScenarioConfig fixed_area(std::size_t n, std::uint64_t seed) {
  core::ScenarioConfig config;
  config.n = n;
  config.seed = seed;
  config.area_policy = core::AreaPolicy::kFixed;
  return config;
}

core::ScenarioConfig with_churn(core::ScenarioConfig config) {
  config.protocol.max_periods = 30;
  config.protocol.faults.churn_rate_per_min = 20.0;
  config.protocol.faults.mean_downtime_ms = 1000.0;
  return config;
}

TEST(GoldenMetrics, EveryBackendStaticFixedArea) {
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    core::ScenarioConfig config = fixed_area(50, 8101);
    config.protocol.max_periods = 120;
    expect_golden("static/" + name, core::run_trial(registry.find(name)->id, config));
  }
}

TEST(GoldenMetrics, PaperDeploymentRuns) {
  struct Case {
    const char* key;
    core::Protocol protocol;
    std::size_t n;
    std::uint64_t seed;
  };
  for (const Case& c : {Case{"paper/st-120", core::Protocol::kSt, 120, 7001},
                        Case{"paper/st-80", core::Protocol::kSt, 80, 42},
                        Case{"paper/st-100", core::Protocol::kSt, 100, 31337},
                        Case{"paper/fst-60", core::Protocol::kFst, 60, 7002},
                        Case{"paper/desync-60", core::Protocol::kDesync, 60, 7005}}) {
    core::ScenarioConfig config;
    config.n = c.n;
    config.seed = c.seed;
    const core::RunMetrics metrics = core::run_trial(c.protocol, config);
    EXPECT_TRUE(metrics.converged) << c.key;
    expect_golden(c.key, metrics);
  }
}

TEST(GoldenMetrics, StMobility) {
  // Mobility moves devices through the grid and rebuilds the candidate
  // cache every step.  A bounded window keeps them moving.
  for (const auto& [key, n, seed] : {std::tuple{"mobility/st-40", 40, 8102},
                                     std::tuple{"mobility/st-60", 60, 7003}}) {
    core::ScenarioConfig config;
    config.n = static_cast<std::size_t>(n);
    config.seed = static_cast<std::uint64_t>(seed);
    config.protocol.mobility_speed_mps = 1.5;
    config.protocol.stop_on_convergence = false;
    config.protocol.max_periods = 20;
    expect_golden(key, core::run_trial(core::Protocol::kSt, config));
  }
}

TEST(GoldenMetrics, StFaultInjection) {
  // Churn, drops, drift and (for the second case) deep fades: crash and
  // recovery clear hot state, the fault hook forces the scalar delivery
  // sweep, and recoveries cancel and reschedule fire events.
  core::ScenarioConfig config = with_churn(fixed_area(40, 8103));
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.drift_max_ppm = 50.0;
  expect_golden("faults/st-40", core::run_trial(core::Protocol::kSt, config));

  core::ScenarioConfig paper = with_churn(core::ScenarioConfig{});
  paper.n = 60;
  paper.seed = 7004;
  paper.protocol.faults.drop_probability = 0.05;
  paper.protocol.faults.fade_rate_per_min = 10.0;
  paper.protocol.faults.drift_max_ppm = 50.0;
  expect_golden("faults/st-60-fades", core::run_trial(core::Protocol::kSt, paper));
}

TEST(GoldenMetrics, OtherBackendsUnderChurn) {
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    if (name == "st") continue;
    const core::ScenarioConfig config = with_churn(fixed_area(40, 8104));
    expect_golden("churn/" + name, core::run_trial(registry.find(name)->id, config));
  }
  core::ScenarioConfig desync = with_churn(core::ScenarioConfig{});
  desync.n = 40;
  desync.seed = 7006;
  desync.protocol.faults.drop_probability = 0.05;
  expect_golden("churn/desync-drops", core::run_trial(core::Protocol::kDesync, desync));
}

TEST(GoldenMetrics, DutyCycledFixedArea) {
  // Receivers listen 30 slots out of every 100: the listening gate decides,
  // per candidate and slot, which receivers draw a fade at all.
  for (const auto& [key, protocol] : {std::pair{"duty/st", core::Protocol::kSt},
                                      std::pair{"duty/fst", core::Protocol::kFst}}) {
    core::ScenarioConfig config = fixed_area(50, 8106);
    config.protocol.max_periods = 60;
    config.protocol.duty_awake_slots = 30;
    config.protocol.duty_period_slots = 100;
    expect_golden(key, core::run_trial(protocol, config));
  }
}

core::ScenarioConfig with_fades_only(core::ScenarioConfig config) {
  config.protocol.faults.fade_rate_per_min = 120.0;
  config.protocol.faults.drop_probability = 0.0;  // no drop draw per candidate
  return config;
}

TEST(GoldenMetrics, FadesOnlyFixedArea) {
  // Churn and deep fades with no drop draw: only the endpoints of a live
  // fade episode can be faulted, so every other sender is a fault-free
  // sweep while the hook answers for the faded ones.
  for (const auto& [key, protocol] : {std::pair{"fades/st", core::Protocol::kSt},
                                      std::pair{"fades/fst", core::Protocol::kFst}}) {
    const core::ScenarioConfig config = with_fades_only(with_churn(fixed_area(40, 8107)));
    const core::RunMetrics metrics = core::run_trial(protocol, config);
    EXPECT_GT(metrics.fade_episodes, 0U) << key;
    EXPECT_GT(metrics.fault_drops, 0U) << key;
    expect_golden(key, metrics);
  }
}

// Exposes the engine's fault injector, so the test can see which fades a
// restored checkpoint carries.
class InspectableSt : public proto::StEngine {
 public:
  using proto::StEngine::injector;
  using proto::StEngine::StEngine;
};

TEST(GoldenMetrics, FadesOnlyServiceSnapshotInsideAFade) {
  // The slot-8k checkpoint lands while a fade episode is live, so the
  // restored engine must carry the active-fade state of the injector.
  core::ScenarioConfig config;
  config.n = 24;
  config.seed = 8108;
  config.protocol.faults.churn_rate_per_min = 120.0;
  config.protocol.faults.mean_downtime_ms = 900.0;
  config.protocol.faults.fade_mean_duration_ms = 2'000.0;
  config = with_fades_only(config);

  core::ServiceConfig service;
  service.duration_slots = 12'000;
  service.window_slots = 1'000;
  const std::vector<geo::Vec2> positions = core::deploy(config);

  InspectableSt reference(positions, config.protocol, config.radio, config.seed);
  const core::ServiceReport ref = reference.run_service(service);
  ASSERT_TRUE(ref.ok()) << ref.error;

  core::ServiceConfig snapped = service;
  snapped.snapshot_every_slots = 8'000;
  InspectableSt engine(positions, config.protocol, config.radio, config.seed);
  const core::ServiceReport first = engine.run_service(snapped);
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_NE(engine.service_snapshot(), nullptr);
  engine.restore(*engine.service_snapshot());
  bool faded = false;
  for (std::uint32_t a = 0; a < config.n; ++a) {
    for (std::uint32_t b = a + 1; b < config.n; ++b) {
      faded = faded || engine.injector()->link_attenuation_db(a, b) > 0.0;
    }
  }
  ASSERT_TRUE(faded) << "the checkpoint must fall inside a fade episode";
  const core::ServiceReport resumed = engine.run_service(snapped);
  ASSERT_TRUE(resumed.ok()) << resumed.error;

  EXPECT_EQ(metrics_json(resumed.metrics), metrics_json(ref.metrics)) << "restored tail diverged";
  EXPECT_GT(resumed.metrics.fault_drops, 0U);
  expect_golden("fades/service-st", resumed.metrics);
}

TEST(GoldenMetrics, ServiceSnapshotRestoreEveryBackend) {
  // Restoring the slot-8k checkpoint and re-running the tail must land on
  // the uninterrupted run's exact record, and that record on its golden.
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    core::ScenarioConfig config;
    config.n = 24;
    config.seed = 8105;
    config.protocol.faults.churn_rate_per_min = 120.0;
    config.protocol.faults.mean_downtime_ms = 900.0;

    core::ServiceConfig service;
    service.duration_slots = 12'000;
    service.window_slots = 1'000;
    const std::vector<geo::Vec2> positions = core::deploy(config);

    std::unique_ptr<core::EngineBase> reference =
        registry.make(name, positions, config.protocol, config.radio, config.seed);
    const core::ServiceReport ref = reference->run_service(service);
    ASSERT_TRUE(ref.ok()) << name << ": " << ref.error;

    core::ServiceConfig snapped = service;
    snapped.snapshot_every_slots = 8'000;
    std::unique_ptr<core::EngineBase> engine =
        registry.make(name, positions, config.protocol, config.radio, config.seed);
    const core::ServiceReport first = engine->run_service(snapped);
    ASSERT_TRUE(first.ok()) << name << ": " << first.error;
    ASSERT_NE(engine->service_snapshot(), nullptr) << name;
    engine->restore(*engine->service_snapshot());
    const core::ServiceReport resumed = engine->run_service(snapped);
    ASSERT_TRUE(resumed.ok()) << name << ": " << resumed.error;

    EXPECT_EQ(metrics_json(resumed.metrics), metrics_json(ref.metrics))
        << name << ": restored tail diverged";
    expect_golden("service/" + name, resumed.metrics);
  }
}

}  // namespace
