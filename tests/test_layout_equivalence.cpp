// Device-layout equivalence: hot per-device state lives only in
// core::DeviceHot's index-aligned flat arrays.  These scenarios used to run
// under both the struct core and the SoA core, with the two records asserted
// byte-identical; that shared record is pinned in golden_metrics.hpp, so
// each scenario now runs on the SoA layout and must reproduce it exactly.
// After the run the hot arrays must still be aligned with the cold device
// vector: index i holds device i's state, and every neighbour-table key
// names another registered device.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "core/scenario.hpp"
#include "golden_metrics.hpp"
#include "proto/registry.hpp"

namespace {

using namespace firefly;

/// Run `config` on an engine built as run_trial builds it, pin the record to
/// its golden and check the hot arrays' alignment on the finished engine.
void expect_soa_run_matches(const std::string& key, core::Protocol protocol,
                            const core::ScenarioConfig& config) {
  std::unique_ptr<core::EngineBase> engine = proto::Registry::instance().make(
      protocol, core::deploy(config), config.protocol, config.radio, config.seed);
  ASSERT_NE(engine, nullptr) << key;
  golden::expect_golden(key, engine->run());

  const core::EngineBase& finished = *engine;
  const auto n = static_cast<std::uint32_t>(config.n);
  ASSERT_EQ(finished.devices().size(), config.n) << key;
  std::size_t entries = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_EQ(finished.devices()[i].id, i) << key;
    for (const auto& [id, info] : finished.neighbors(i)) {
      EXPECT_LT(id, n) << key << ": device " << i;
      EXPECT_NE(id, i) << key << ": device " << i << " lists itself";
      ++entries;
    }
  }
  EXPECT_GT(entries, 0U) << key;
}

TEST(LayoutEquivalence, StMobilityRunIsByteIdentical) {
  // Mobility re-registers positions and rebuilds the candidate cache every
  // step; the hot arrays are indexed by registration slot and must track.
  core::ScenarioConfig config;
  config.n = 40;
  config.seed = 8102;
  config.protocol.mobility_speed_mps = 1.5;
  config.protocol.stop_on_convergence = false;
  config.protocol.max_periods = 20;
  expect_soa_run_matches("mobility/st-40", core::Protocol::kSt, config);
}

TEST(LayoutEquivalence, StFaultRunIsByteIdentical) {
  // Churn exercises crash_device/recover_device (which clear hot state) and
  // drift exercises the per-period drift accumulator in the hot arrays.
  core::ScenarioConfig config;
  config.n = 40;
  config.seed = 8103;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 30;
  config.protocol.faults.churn_rate_per_min = 20.0;
  config.protocol.faults.mean_downtime_ms = 1000.0;
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.drift_max_ppm = 50.0;
  expect_soa_run_matches("faults/st-40", core::Protocol::kSt, config);
}

TEST(LayoutEquivalence, OtherBackendsFaultRunIsByteIdentical) {
  // The remaining backends under churn; DESYNC also keeps its phase memory
  // in the hot arrays.
  const proto::Registry& registry = proto::Registry::instance();
  for (const std::string& name : registry.names()) {
    if (name == "st") continue;
    core::ScenarioConfig config;
    config.n = 40;
    config.seed = 8104;
    config.area_policy = core::AreaPolicy::kFixed;
    config.protocol.max_periods = 30;
    config.protocol.faults.churn_rate_per_min = 20.0;
    config.protocol.faults.mean_downtime_ms = 1000.0;
    expect_soa_run_matches("churn/" + name, registry.find(name)->id, config);
  }
}

}  // namespace
