#include "core/scenario.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <sstream>

#include "core/engine.hpp"
#include "geo/grid.hpp"
#include "obs/timer.hpp"
#include "proto/registry.hpp"
#include "util/rng.hpp"

namespace firefly::core {

const char* to_string(Protocol p) {
  switch (p) {
    case Protocol::kFst: return "FST";
    case Protocol::kSt: return "ST";
    case Protocol::kBirthday: return "Birthday";
    case Protocol::kDesync: return "DESYNC";
  }
  return "?";
}

geo::Area ScenarioConfig::area() const {
  if (area_policy == AreaPolicy::kFixed) return geo::kPaperArea;
  return geo::scaled_area_for(n);
}

std::string validate(const ScenarioConfig& config) {
  const ProtocolParams& p = config.protocol;
  const fault::FaultPlan& f = p.faults;
  std::ostringstream err;  // first violation wins
  const auto require = [&](bool ok, const char* message) {
    if (err.tellp() == 0 && !ok) err << message;
  };
  // Finite and within [lo, hi]; `open_lo` excludes lo itself.
  const auto in = [&](const char* name, double v, double lo, double hi, bool open_lo = false) {
    if (err.tellp() != 0) return;
    if (!std::isfinite(v) || v < lo || (open_lo && v == lo) || v > hi) {
      err << name << " = " << v << " is outside " << (open_lo ? '(' : '[') << lo << ", "
          << hi << ']';
    }
  };
  constexpr double kAny = 1e12;  // bound for knobs with no natural maximum

  if (config.n < 1 || config.n > kMaxDevices) {
    err << "n = " << config.n << " is outside [1, " << kMaxDevices << "]";
  }
  require(p.period_slots > p.refractory_slots && p.period_slots > p.tolerance_slots,
          "period_slots must exceed refractory_slots and tolerance_slots");
  require(p.max_periods >= 1, "max_periods must be at least 1 (horizon shorter than a period)");
  require(p.check_interval_slots >= 1, "check_interval_slots must be at least 1");
  require(p.service_count >= 1, "service_count must be at least 1");
  require(p.mobility_speed_mps == 0.0 || p.mobility_update_slots >= 1,
          "mobility_update_slots must be at least 1");
  in("epsilon", p.prc.epsilon, 0.0, 1.0, true);
  in("mobility_speed_mps", p.mobility_speed_mps, 0.0, kAny);
  in("churn_rate_per_min", f.churn_rate_per_min, 0.0, kAny);
  in("mean_downtime_ms", f.mean_downtime_ms, 0.0, kAny, true);
  in("churn_stop_ms", f.churn_stop_ms, -kAny, kAny);
  in("drift_max_ppm", f.drift_max_ppm, 0.0, kAny);
  in("drop_probability", f.drop_probability, 0.0, 1.0);
  in("fade_rate_per_min", f.fade_rate_per_min, 0.0, kAny);
  in("fade_mean_duration_ms", f.fade_mean_duration_ms, 0.0, kAny, true);
  in("fade_depth_db", f.fade_depth_db, 0.0, kAny);
  return err.str();
}

std::vector<geo::Vec2> deploy(const ScenarioConfig& config) {
  util::RngFactory factory(config.seed);
  util::Rng rng = factory.make("scenario.deploy");
  return geo::deploy_uniform(config.n, config.area(), rng);
}

graph::Graph proximity_graph(const std::vector<geo::Vec2>& positions, phy::Channel& channel) {
  graph::Graph g(positions.size());
  const auto admit = [&](std::uint32_t u, std::uint32_t v) {
    const util::Dbm forward =
        channel.mean_received_power_uncached(u, positions[u], v, positions[v]);
    const util::Dbm backward =
        channel.mean_received_power_uncached(v, positions[v], u, positions[u]);
    const util::Dbm strongest = std::max(forward, backward);
    if (channel.detectable(strongest)) g.add_edge(u, v, strongest.value);
  };
  // Edges need mean power >= threshold, which the shadowing clamp bounds by
  // a hard range — enumerate only grid-near pairs when that bound is finite.
  const double range = channel.max_detectable_range();
  if (std::isfinite(range) && range > 0.0 && positions.size() > 1) {
    geo::SpatialGrid grid;
    grid.build(positions, range);
    std::vector<std::uint32_t> near;
    for (std::uint32_t u = 0; u < positions.size(); ++u) {
      near.clear();
      grid.gather(positions[u], range, near);
      std::sort(near.begin(), near.end());
      for (const std::uint32_t v : near) {
        if (v > u) admit(u, v);
      }
    }
  } else {
    for (std::uint32_t u = 0; u < positions.size(); ++u) {
      for (std::uint32_t v = u + 1; v < positions.size(); ++v) admit(u, v);
    }
  }
  return g;
}

RunMetrics run_trial(Protocol protocol, const ScenarioConfig& config,
                     const RunHooks& hooks) {
  // One span per trial, set-up included, whoever calls: the CLI, a bench or
  // a pooled core::sweep worker.
  const obs::ScopedTimer span(hooks.telemetry, obs::SpanId::kTrial);
  std::vector<geo::Vec2> positions = deploy(config);
  std::unique_ptr<EngineBase> engine = proto::Registry::instance().make(
      protocol, std::move(positions), config.protocol, config.radio, config.seed);
  assert(engine != nullptr);  // every Protocol enumerator has a built-in backend
  engine->set_trace(hooks.trace);
  engine->set_telemetry(hooks.telemetry);
  RunMetrics metrics = engine->run();
  if (hooks.progress != nullptr) hooks.progress->advance();
  return metrics;
}

}  // namespace firefly::core
