// Spatial-index equivalence: the grid candidate index must be a pure
// optimisation.  The radio's candidate cache is checked pair for pair
// against a brute-force all-pairs oracle (static and after moves), the
// memoised means against direct channel queries, and the grid-accelerated
// proximity_graph builder against an inline dense reference.  The whole-run
// scenarios below used to run on both the grid and the dense index, with the
// two records asserted bit-identical; each now checks its own deployment's
// candidate cache against the oracle and reproduces that shared record,
// pinned in golden_metrics.hpp.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "golden_metrics.hpp"
#include "graph/graph.hpp"
#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;

struct CandidatePair {
  std::uint32_t u, v;
  double mean_dbm;
  friend bool operator==(const CandidatePair&, const CandidatePair&) = default;
};

std::vector<CandidatePair> cached_pairs(const mac::RadioMedium& radio) {
  std::vector<CandidatePair> pairs;
  radio.for_each_candidate_pair([&](std::uint32_t u, std::uint32_t v, util::Dbm mean) {
    pairs.push_back(CandidatePair{u, v, mean.value});
  });
  return pairs;
}

/// Brute-force oracle: every pair u < v, the cache-free channel query and
/// the candidate cutoff the radio applies, in index-lexicographic order.
std::vector<CandidatePair> all_pairs_reference(phy::Channel& channel,
                                               const std::vector<geo::Vec2>& positions) {
  const util::Dbm cutoff = channel.params().detection_threshold -
                           util::Db{phy::RadioParams::kCandidateFadingMarginDb};
  std::vector<CandidatePair> pairs;
  for (std::uint32_t u = 0; u < positions.size(); ++u) {
    for (std::uint32_t v = u + 1; v < positions.size(); ++v) {
      const util::Dbm mean =
          channel.mean_received_power_uncached(u, positions[u], v, positions[v]);
      if (mean >= cutoff) pairs.push_back(CandidatePair{u, v, mean.value});
    }
  }
  return pairs;
}

/// Deploy `config`, register it on a radio, rebuild, and compare the grid
/// candidate cache with the brute-force oracle.
void expect_cache_matches_oracle(const core::ScenarioConfig& config) {
  const std::vector<geo::Vec2> positions = core::deploy(config);
  auto channel = phy::make_paper_channel(config.seed);

  sim::Simulator sim;
  mac::RadioMedium radio(&sim, channel.get(), channel->params().capture_margin_db);
  for (std::uint32_t id = 0; id < positions.size(); ++id) radio.add_device(id, positions[id]);
  radio.rebuild();

  const std::vector<CandidatePair> reference = all_pairs_reference(*channel, positions);
  EXPECT_GT(reference.size(), 0U) << "n=" << config.n << " seed=" << config.seed;
  EXPECT_EQ(cached_pairs(radio), reference) << "n=" << config.n << " seed=" << config.seed;
}

/// One whole run on the grid: its deployment's cache must equal the oracle
/// and its record the golden one.
core::RunMetrics expect_grid_run_matches(const std::string& key, core::Protocol protocol,
                                         const core::ScenarioConfig& config) {
  expect_cache_matches_oracle(config);
  const core::RunMetrics metrics = core::run_trial(protocol, config);
  golden::expect_golden(key, metrics);
  return metrics;
}

TEST(SpatialEquivalence, GridCandidateCacheMatchesAllPairsOracle) {
  // Delivery reads only the candidate cache (sender slices of ascending
  // receivers, memoised means), so an identical ordered (u, v, mean) list
  // means identical delivery.  Covers both the density-scaled paper
  // deployment and a dense fixed-area hotspot.
  for (const core::AreaPolicy policy :
       {core::AreaPolicy::kDensityScaled, core::AreaPolicy::kFixed}) {
    expect_cache_matches_oracle(core::ScenarioConfig{.n = 300, .seed = 9003, .area_policy = policy});
  }
}

TEST(SpatialEquivalence, GridCandidateCacheTracksMovesAndRebuild) {
  // Mobility moves devices across grid cells incrementally (move_device),
  // decorrelates shadowing and rebuilds; the cache must again equal the
  // brute-force enumeration over the new positions, step after step.
  const core::ScenarioConfig config{.n = 200, .seed = 9004};
  std::vector<geo::Vec2> positions = core::deploy(config);
  const geo::Area area = config.area();
  auto channel = phy::make_paper_channel(config.seed);

  sim::Simulator sim;
  mac::RadioMedium radio(&sim, channel.get(), channel->params().capture_margin_db);
  for (std::uint32_t id = 0; id < positions.size(); ++id) radio.add_device(id, positions[id]);
  radio.rebuild();

  util::Rng rng(77);
  for (int step = 0; step < 5; ++step) {
    for (std::uint32_t id = 0; id < positions.size(); ++id) {
      if (id % 3 == 0) continue;  // a third stay put
      // Large jumps, so most movers change cell.
      positions[id] = geo::Vec2{rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)};
      radio.move_device(id, positions[id]);
    }
    channel->shadowing().invalidate();
    radio.rebuild();
    const std::vector<CandidatePair> reference = all_pairs_reference(*channel, positions);
    EXPECT_GT(reference.size(), 0U) << "step " << step;
    EXPECT_EQ(cached_pairs(radio), reference) << "step " << step;
  }
}

TEST(SpatialEquivalence, StSecondSeedIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 80;
  config.seed = 42;
  expect_grid_run_matches("paper/st-80", core::Protocol::kSt, config);
}

TEST(SpatialEquivalence, FstStaticRunIsBitIdentical) {
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7002;
  expect_grid_run_matches("paper/fst-60", core::Protocol::kFst, config);
}

TEST(SpatialEquivalence, StFaultInjectionRunIsBitIdentical) {
  // Faults hit the delivery fast path's bail-out (the fault hook must see
  // every reception, so the fading skip is disabled) plus churn-driven
  // cache invalidation.  Faulted runs go to max_periods; keep it short.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7004;
  config.protocol.max_periods = 30;
  config.protocol.faults.churn_rate_per_min = 20.0;
  config.protocol.faults.mean_downtime_ms = 1000.0;
  config.protocol.faults.drop_probability = 0.05;
  config.protocol.faults.fade_rate_per_min = 10.0;
  config.protocol.faults.drift_max_ppm = 50.0;
  expect_grid_run_matches("faults/st-60-fades", core::Protocol::kSt, config);
}

TEST(SpatialEquivalence, DesyncStaticRunIsBitIdentical) {
  // The DESYNC backend consumes the same delivery stream; the spatial
  // index must not change which pulses seed its phase-neighbour memory.
  core::ScenarioConfig config;
  config.n = 60;
  config.seed = 7005;
  const core::RunMetrics grid =
      expect_grid_run_matches("paper/desync-60", core::Protocol::kDesync, config);
  EXPECT_TRUE(grid.converged);
}

TEST(SpatialEquivalence, MemoisedCandidateMeansMatchDirectChannelQueries) {
  // The candidate cache stores slot-averaged powers computed through the
  // cache-free bulk path; the protocols later query the memoised per-link
  // path.  Both must return the exact same dBm for every candidate pair.
  const core::ScenarioConfig config{.n = 150, .seed = 9001};
  const std::vector<geo::Vec2> positions = core::deploy(config);
  auto channel = phy::make_paper_channel(config.seed);

  sim::Simulator sim;
  mac::RadioMedium radio(&sim, channel.get(), channel->params().capture_margin_db);
  for (std::uint32_t id = 0; id < positions.size(); ++id) {
    radio.add_device(id, positions[id]);
  }
  radio.rebuild();

  std::size_t pairs = 0;
  radio.for_each_candidate_pair([&](std::uint32_t u, std::uint32_t v, util::Dbm mean) {
    const util::Dbm direct =
        channel->mean_received_power(u, positions[u], v, positions[v]);
    EXPECT_EQ(mean.value, direct.value) << "pair (" << u << ", " << v << ")";
    // Symmetric by construction: hypot and the shadow key are symmetric.
    const util::Dbm reverse =
        channel->mean_received_power(v, positions[v], u, positions[u]);
    EXPECT_EQ(direct.value, reverse.value);
    ++pairs;
  });
  EXPECT_GT(pairs, 0U);
}

TEST(SpatialEquivalence, ProximityGraphMatchesDenseReference) {
  const core::ScenarioConfig config{.n = 200, .seed = 9002};
  const std::vector<geo::Vec2> positions = core::deploy(config);

  auto channel = phy::make_paper_channel(config.seed);
  const graph::Graph via_grid = core::proximity_graph(positions, *channel);

  // Inline dense reference, same admission rule and edge order.
  auto reference_channel = phy::make_paper_channel(config.seed);
  graph::Graph dense(positions.size());
  for (std::uint32_t u = 0; u < positions.size(); ++u) {
    for (std::uint32_t v = u + 1; v < positions.size(); ++v) {
      const util::Dbm forward =
          reference_channel->mean_received_power_uncached(u, positions[u], v, positions[v]);
      const util::Dbm backward =
          reference_channel->mean_received_power_uncached(v, positions[v], u, positions[u]);
      const util::Dbm strongest = std::max(forward, backward);
      if (reference_channel->detectable(strongest)) dense.add_edge(u, v, strongest.value);
    }
  }

  ASSERT_EQ(via_grid.edge_count(), dense.edge_count());
  EXPECT_EQ(via_grid.edges(), dense.edges());
  EXPECT_GT(dense.edge_count(), 0U);
}

}  // namespace
