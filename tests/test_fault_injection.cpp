// Tests for the fault-injection subsystem: FaultInjector schedule
// expansion (src/fault/), the radio's down/fault-hook plumbing and the
// engine's crash/recover lifecycle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/scenario.hpp"
#include "proto/st.hpp"
#include "fault/fault_injector.hpp"
#include "full_scan_radio.hpp"
#include "mac/radio.hpp"

namespace {

using namespace firefly;
using fault::ChurnEvent;
using fault::FadeEpisode;
using fault::FaultInjector;
using fault::FaultPlan;

FaultPlan busy_plan() {
  FaultPlan plan;
  plan.churn_rate_per_min = 30.0;
  plan.mean_downtime_ms = 1500.0;
  plan.drift_max_ppm = 200.0;
  plan.drop_probability = 0.1;
  plan.fade_rate_per_min = 60.0;
  plan.fade_mean_duration_ms = 400.0;
  return plan;
}

TEST(FaultPlan, EnabledFlags) {
  FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  plan.drift_max_ppm = 10.0;
  EXPECT_TRUE(plan.enabled());
  EXPECT_FALSE(plan.churn_enabled());
  EXPECT_FALSE(plan.channel_enabled());
  plan = {};
  plan.scheduled.push_back(ChurnEvent{100, 0, true});
  EXPECT_TRUE(plan.churn_enabled());
  plan = {};
  plan.drop_probability = 0.01;
  EXPECT_TRUE(plan.channel_enabled());
}

TEST(FaultInjector, SchedulesAreDeterministic) {
  const FaultInjector a(busy_plan(), 20, 60'000, 42);
  const FaultInjector b(busy_plan(), 20, 60'000, 42);
  EXPECT_EQ(a.churn_schedule(), b.churn_schedule());
  EXPECT_EQ(a.fade_schedule(), b.fade_schedule());
  for (std::uint32_t d = 0; d < 20; ++d) {
    EXPECT_EQ(a.drift_ppm(d), b.drift_ppm(d));
  }
  // A different master seed produces a different schedule.
  const FaultInjector c(busy_plan(), 20, 60'000, 43);
  EXPECT_NE(a.churn_schedule(), c.churn_schedule());
}

TEST(FaultInjector, NeverCrashesADownDevice) {
  const FaultInjector inj(busy_plan(), 10, 120'000, 7);
  ASSERT_FALSE(inj.churn_schedule().empty());
  std::vector<bool> down(10, false);
  std::int64_t last_slot = 0;
  for (const ChurnEvent& e : inj.churn_schedule()) {
    EXPECT_GE(e.slot, last_slot) << "schedule must be sorted";
    last_slot = e.slot;
    EXPECT_LT(e.slot, 120'000);
    EXPECT_LT(e.device, 10U);
    if (e.crash) {
      EXPECT_FALSE(down[e.device]) << "crash of an already-down device";
      down[e.device] = true;
    } else {
      EXPECT_TRUE(down[e.device]) << "recovery of a device that is up";
      down[e.device] = false;
    }
  }
}

TEST(FaultInjector, ChurnStopLeavesAQuietTail) {
  FaultPlan plan;
  plan.churn_rate_per_min = 60.0;
  plan.mean_downtime_ms = 1000.0;
  plan.churn_stop_ms = 30'000.0;
  const FaultInjector inj(plan, 10, 120'000, 11);
  ASSERT_FALSE(inj.churn_schedule().empty());
  for (const ChurnEvent& e : inj.churn_schedule()) {
    if (e.crash) {
      EXPECT_LT(e.slot, 30'000);
    }
  }
}

TEST(FaultInjector, ScheduledChurnReplayedVerbatimAndHorizonFiltered) {
  FaultPlan plan;
  plan.scheduled = {ChurnEvent{500, 2, true}, ChurnEvent{2'500, 2, false},
                    ChurnEvent{99'999, 1, true}};
  const FaultInjector inj(plan, 5, 10'000, 3);
  ASSERT_EQ(inj.churn_schedule().size(), 2U);  // beyond-horizon event dropped
  EXPECT_EQ(inj.churn_schedule()[0], (ChurnEvent{500, 2, true}));
  EXPECT_EQ(inj.churn_schedule()[1], (ChurnEvent{2'500, 2, false}));
}

TEST(FaultInjector, DriftWithinBoundsAndZeroWhenDisabled) {
  const FaultInjector inj(busy_plan(), 50, 10'000, 9);
  bool any_nonzero = false;
  for (std::uint32_t d = 0; d < 50; ++d) {
    EXPECT_LE(std::abs(inj.drift_ppm(d)), 200.0);
    if (inj.drift_ppm(d) != 0.0) any_nonzero = true;
  }
  EXPECT_TRUE(any_nonzero);
  const FaultInjector off(FaultPlan{}, 50, 10'000, 9);
  for (std::uint32_t d = 0; d < 50; ++d) EXPECT_EQ(off.drift_ppm(d), 0.0);
}

TEST(FaultInjector, DropStreamMatchesProbabilityAndReplays) {
  FaultPlan plan;
  plan.drop_probability = 0.3;
  FaultInjector a(plan, 2, 1'000, 77);
  FaultInjector b(plan, 2, 1'000, 77);
  int drops = 0;
  for (int i = 0; i < 10'000; ++i) {
    const bool d = a.drop_reception();
    EXPECT_EQ(d, b.drop_reception()) << "drop stream must replay";
    if (d) ++drops;
  }
  EXPECT_NEAR(drops / 10'000.0, 0.3, 0.03);
  FaultInjector off(FaultPlan{}, 2, 1'000, 77);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(off.drop_reception());
}

TEST(FaultInjector, OverlappingFadesKeepTheLinkFaded) {
  FaultPlan plan;
  plan.fade_rate_per_min = 1.0;  // enables the channel path
  plan.fade_depth_db = 40.0;
  FaultInjector inj(plan, 4, 10'000, 5);
  const FadeEpisode first{100, 500, 1, 2};
  const FadeEpisode second{200, 800, 1, 2};
  // Every device's count of live episodes it is an endpoint of.
  using Degrees = std::vector<std::uint16_t>;
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 0.0);
  EXPECT_EQ(inj.fade_degree(), (Degrees{0, 0, 0, 0}));
  inj.fade_started(first);
  EXPECT_EQ(inj.fade_degree(), (Degrees{0, 1, 1, 0}));
  inj.fade_started(second);
  EXPECT_EQ(inj.fade_degree(), (Degrees{0, 2, 2, 0}));
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 40.0);
  EXPECT_EQ(inj.link_attenuation_db(2, 1), 40.0);  // symmetric
  EXPECT_EQ(inj.link_attenuation_db(0, 3), 0.0);   // other links clear
  inj.fade_ended(FadeEpisode{100, 500, 0, 3});     // never started
  EXPECT_EQ(inj.fade_degree(), (Degrees{0, 2, 2, 0})) << "an unknown episode ends nothing";
  inj.fade_ended(first);
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 40.0) << "second episode still open";
  EXPECT_EQ(inj.fade_degree(), (Degrees{0, 1, 1, 0}));
  inj.fade_ended(second);
  EXPECT_EQ(inj.link_attenuation_db(1, 2), 0.0);
  EXPECT_EQ(inj.fade_degree(), (Degrees{0, 0, 0, 0}));
  inj.fade_ended(second);  // already ended: no longer known
  EXPECT_EQ(inj.fade_degree(), (Degrees{0, 0, 0, 0}));
}

TEST(RadioFaults, DownDeviceNeitherSendsNorReceives) {
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(1);
  mac::RadioMedium radio(&sim, channel.get());
  int heard_by_1 = 0;
  int heard_by_2 = 0;
  radio.add_device(0, {0.0, 0.0});
  radio.add_device(1, {10.0, 0.0});
  radio.add_device(2, {10.0, 1.0});
  radio.set_delivery_sink([&](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      if (batch.records[k].rx_index == 1) ++heard_by_1;
      if (batch.records[k].rx_index == 2) ++heard_by_2;
    }
  });
  radio.set_down(2, true);
  EXPECT_TRUE(radio.is_down(2));
  sim.schedule_at(sim::SimTime::zero(), [&] {
    radio.broadcast(0, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, 0);
    radio.broadcast(2, {mac::RachCodec::kRach1, 1}, mac::PsType::kSyncPulse, 0);
  });
  sim.run();
  EXPECT_EQ(heard_by_1, 1) << "only device 0's broadcast goes out";
  EXPECT_EQ(heard_by_2, 0);
  EXPECT_EQ(radio.counters().rach1_tx, 1U) << "a down sender is not metered";
}

TEST(RadioFaults, HookVetoIsCountedAndAttenuationFlowsThrough) {
  sim::Simulator sim;
  // Deterministic propagation, so an attenuated power can be compared with
  // the clear one exactly.
  phy::Channel channel(phy::RadioParams{}, std::make_unique<phy::PaperDualSlope>(),
                       std::make_unique<phy::NoShadowing>(),
                       std::make_unique<phy::NoFading>(), util::Rng(1));
  mac::RadioMedium radio(&sim, &channel);
  std::vector<util::Dbm> heard;
  radio.add_device(0, {0.0, 0.0});
  radio.add_device(1, {10.0, 0.0});
  radio.set_delivery_sink([&](const mac::RxBatch& batch) {
    for (std::size_t k = 0; k < batch.count; ++k) {
      if (batch.records[k].rx_index == 1) heard.push_back(batch.records[k].rx_power);
    }
  });
  std::optional<util::Db> verdict;  // nullopt = veto
  radio.set_fault_hook([&](std::uint32_t, std::uint32_t, mac::PsType) { return verdict; });
  const auto send_one = [&] {
    sim.schedule_at(sim.now(), [&] {
      radio.broadcast(0, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, 0);
    });
    sim.run();
  };
  send_one();
  EXPECT_TRUE(heard.empty());
  EXPECT_EQ(radio.counters().fault_drops, 1U);

  verdict = util::Db{0.0};  // clear link: the power passes through unchanged
  send_one();
  ASSERT_EQ(heard.size(), 1U);
  EXPECT_EQ(radio.counters().fault_drops, 1U);
  const util::Dbm clear = heard[0];
  EXPECT_EQ(clear.value, channel.mean_received_power(0, {0.0, 0.0}, 1, {10.0, 0.0}).value);

  verdict = util::Db{3.0};  // the radio applies the attenuation itself
  send_one();
  ASSERT_EQ(heard.size(), 2U);
  EXPECT_EQ(heard[1].value, (clear - util::Db{3.0}).value);
  EXPECT_EQ(radio.counters().fault_drops, 1U);

  verdict = util::Db{200.0};  // faded below threshold: a fault drop, not a miss
  send_one();
  EXPECT_EQ(heard.size(), 2U);
  EXPECT_EQ(radio.counters().fault_drops, 2U);
}

/// One differential radio scenario: a 12-device, 10 m-pitch line under
/// Rayleigh fading and no shadowing, so every pair is a candidate and the
/// memoised sweep and the full-scan oracle consume the same fading stream.
/// Near pairs are audible in most fades; the far end (~110 m, beyond the
/// ~89 m median range) is sub-threshold in most.
struct LineScenario {
  bool fault_hook = false;              ///< install the drop/veto/attenuation hook
  bool duty_gate = false;               ///< device 5 listens one slot in three
  std::optional<std::uint32_t> crashed; ///< a receiver that is down throughout
  /// nullopt: the two codecs alternate by sender and slot.
  std::optional<mac::RachCodec> codec;
  /// Scope the hook to senders 6, 0 and 11 (the faulted links' endpoints);
  /// the hook answers 0 dB, with no drop draw, for every other sender.
  bool scoped = false;
};

/// The senders a scoped line scenario's hook can fault.
bool line_scoped(std::uint32_t sender) { return sender == 6 || sender == 0 || sender == 11; }

struct LineRun {
  std::vector<mac::RxRecord> records;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hook_calls;
  mac::TrafficCounters counters;
};

constexpr std::uint32_t kLineN = 12;

template <typename Medium>
LineRun run_line(const LineScenario& scenario) {
  LineRun out;
  sim::Simulator sim;
  phy::Channel channel(phy::RadioParams{}, std::make_unique<phy::PaperDualSlope>(),
                       std::make_unique<phy::NoShadowing>(),
                       std::make_unique<phy::RayleighFading>(), util::Rng(9));
  Medium radio(&sim, &channel);
  for (std::uint32_t id = 0; id < kLineN; ++id) {
    mac::RadioMedium::ListenFn listening = nullptr;
    if (scenario.duty_gate && id == 5) {
      listening = [&sim] { return mac::RadioMedium::slot_index(sim.now()) % 3 == 0; };
    }
    radio.add_device(id, {10.0 * id, 0.0}, std::move(listening));
  }
  if constexpr (std::is_same_v<Medium, mac::RadioMedium>) {
    radio.rebuild();
    std::size_t pairs = 0;
    radio.for_each_candidate_pair([&](std::uint32_t, std::uint32_t, util::Dbm) { ++pairs; });
    EXPECT_EQ(pairs, kLineN * (kLineN - 1) / 2) << "every pair must be a candidate";
  }
  if (scenario.crashed) radio.set_down(*scenario.crashed, true);  // no draw, no hook call
  radio.set_delivery_sink([&](const mac::RxBatch& batch) {
    out.records.insert(out.records.end(), batch.records, batch.records + batch.count);
  });
  util::Rng drop_rng(3);
  std::vector<std::uint16_t> scope(kLineN, 0);
  for (std::uint32_t id = 0; id < kLineN; ++id) scope[id] = line_scoped(id) ? 1 : 0;
  if (scenario.fault_hook) {
    mac::RadioMedium::FaultFn hook = [&](std::uint32_t sender, std::uint32_t receiver,
                                         mac::PsType) -> std::optional<util::Db> {
      out.hook_calls.emplace_back(sender, receiver);
      if (scenario.scoped && !line_scoped(sender)) return util::Db{0.0};
      if (drop_rng.bernoulli(0.1)) return std::nullopt;     // random drop
      if (sender == 2 && receiver == 7) return std::nullopt;  // vetoed link
      if (sender == 6 || receiver == 6) return util::Db{8.0};  // attenuated
      // The 0 <-> 11 link (110 m) is already below threshold in most fades.
      if ((sender == 0 && receiver == 11) || (sender == 11 && receiver == 0)) {
        return util::Db{20.0};
      }
      return util::Db{0.0};
    };
    if constexpr (std::is_same_v<Medium, mac::RadioMedium>) {
      radio.set_fault_hook(std::move(hook), scenario.scoped ? &scope : nullptr);
    } else {
      radio.set_fault_hook(std::move(hook));  // the oracle asks for every candidate
    }
  }
  for (std::int64_t slot = 0; slot < 40; ++slot) {
    sim.schedule_at(sim::SimTime::milliseconds(slot), [&, slot] {
      for (std::uint32_t id = 0; id < kLineN; ++id) {
        if (scenario.crashed == id) continue;
        const bool even = (id + static_cast<std::uint32_t>(slot)) % 2 == 0;
        const mac::RachCodec codec = scenario.codec.value_or(
            even ? mac::RachCodec::kRach1 : mac::RachCodec::kRach2);
        // A three-preamble pool: many same-resource groups.
        radio.broadcast(id, {codec, id % 3}, mac::PsType::kSyncPulse, id);
      }
    });
  }
  sim.run();
  out.counters = radio.counters();
  return out;
}

/// Run `scenario` on the radio and on the full-scan oracle; everything the
/// radio delivers, counts and asks the hook must match.
void expect_sweep_matches_full_scan(const LineScenario& scenario) {
  const LineRun scan = run_line<mac::FullScanRadio>(scenario);
  const LineRun cached = run_line<mac::RadioMedium>(scenario);
  if (scenario.fault_hook) {
    EXPECT_GT(scan.counters.fault_drops, 0U);
  } else {
    EXPECT_EQ(scan.counters.fault_drops, 0U);
  }
  EXPECT_GT(scan.counters.collisions, 0U);
  EXPECT_GT(scan.counters.deliveries, 0U);
  EXPECT_EQ(cached.counters.fault_drops, scan.counters.fault_drops);
  EXPECT_EQ(cached.counters.collisions, scan.counters.collisions);
  EXPECT_EQ(cached.counters.deliveries, scan.counters.deliveries);
  if (scenario.scoped) {
    // The radio asks exactly for the scoped senders' gated candidates, in
    // the order the full scan asks for them.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> scoped_calls;
    for (const auto& call : scan.hook_calls) {
      if (line_scoped(call.first)) scoped_calls.push_back(call);
    }
    EXPECT_GT(scoped_calls.size(), 0U);
    EXPECT_LT(scoped_calls.size(), scan.hook_calls.size());
    EXPECT_EQ(cached.hook_calls, scoped_calls);
  } else {
    EXPECT_EQ(cached.hook_calls, scan.hook_calls);
  }
  mac::expect_same_records(scan.records, cached.records);
}

TEST(RadioFaults, MemoisedSweepMatchesFullScanUnderFaultHook) {
  // The sweep skips the fading math for provably sub-threshold candidates
  // but must still call the fault hook once per gated candidate, in order,
  // and count the same drops as the full scan.  The hook draws its own drop
  // stream, so a missing, extra or reordered call changes the result.
  expect_sweep_matches_full_scan(LineScenario{
      .fault_hook = true, .duty_gate = false, .crashed = 4, .codec = std::nullopt});
}

TEST(RadioFaults, DutyGatedReceiverUnderFaultHookMatchesFullScan) {
  // A sleeping receiver draws no fade and gets no hook call; on the slots it
  // listens it is an ordinary candidate.
  for (const mac::RachCodec codec : {mac::RachCodec::kRach1, mac::RachCodec::kRach2}) {
    SCOPED_TRACE(mac::to_string(codec));
    expect_sweep_matches_full_scan(
        LineScenario{.fault_hook = true, .duty_gate = true, .crashed = std::nullopt, .codec = codec});
  }
}

TEST(RadioFaults, CrashedReceiverWithoutHookMatchesFullScan) {
  // A crash alone (no fault hook) gates the sweep: the crashed receiver is
  // skipped before the batched draw, so the other candidates' fades stay in
  // the full scan's order.
  for (const mac::RachCodec codec : {mac::RachCodec::kRach1, mac::RachCodec::kRach2}) {
    SCOPED_TRACE(mac::to_string(codec));
    expect_sweep_matches_full_scan(
        LineScenario{.fault_hook = false, .duty_gate = false, .crashed = 4, .codec = codec});
  }
}

TEST(RadioFaults, ScopedHookMatchesFullScan) {
  // Only senders 6, 0 and 11 can be faulted; every other sender's slice
  // skips the hook and takes the fault-free sweep.  The oracle still asks
  // the hook for every candidate and gets 0 dB back for those senders, so
  // skipping them must change no record, counter or drop draw.
  for (const mac::RachCodec codec : {mac::RachCodec::kRach1, mac::RachCodec::kRach2}) {
    SCOPED_TRACE(mac::to_string(codec));
    expect_sweep_matches_full_scan(LineScenario{
        .fault_hook = true, .duty_gate = false, .crashed = 4, .codec = codec, .scoped = true});
  }
}

/// Two devices 10 m apart on a deterministic channel, with a hook that
/// vetoes everything it is asked and counts its calls.  A veto is not a
/// 0 dB answer, so whether a sender's broadcast reaches device 1 shows
/// whether the radio asked the hook for it.
struct VetoPair {
  sim::Simulator sim;
  phy::Channel channel{phy::RadioParams{}, std::make_unique<phy::PaperDualSlope>(),
                       std::make_unique<phy::NoShadowing>(),
                       std::make_unique<phy::NoFading>(), util::Rng(1)};
  mac::RadioMedium radio{&sim, &channel};
  int hook_calls = 0;
  int heard = 0;

  VetoPair() {
    radio.add_device(0, {0.0, 0.0});
    radio.add_device(1, {10.0, 0.0});
    radio.set_delivery_sink(
        [this](const mac::RxBatch& batch) { heard += static_cast<int>(batch.count); });
  }
  mac::RadioMedium::FaultFn veto() {
    return [this](std::uint32_t, std::uint32_t, mac::PsType) -> std::optional<util::Db> {
      ++hook_calls;
      return std::nullopt;
    };
  }
  void send_from_0() {
    sim.schedule_at(sim.now(), [this] {
      radio.broadcast(0, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, 0);
    });
    sim.run();
  }
};

TEST(RadioFaults, ScopeEntryIsReadAtEveryFlush) {
  VetoPair pair;
  std::vector<std::uint16_t> scope(2, 0);
  pair.radio.set_fault_hook(pair.veto(), &scope);
  pair.send_from_0();
  EXPECT_EQ(pair.hook_calls, 0) << "sender 0 is outside the scope";
  EXPECT_EQ(pair.heard, 1);
  EXPECT_EQ(pair.radio.counters().fault_drops, 0U);

  scope[0] = 1;  // sender 0 becomes faultable between slots
  pair.send_from_0();
  EXPECT_EQ(pair.hook_calls, 1);
  EXPECT_EQ(pair.heard, 1) << "the veto now applies";
  EXPECT_EQ(pair.radio.counters().fault_drops, 1U);

  scope[0] = 0;
  pair.send_from_0();
  EXPECT_EQ(pair.hook_calls, 1);
  EXPECT_EQ(pair.heard, 2);
}

TEST(RadioFaults, InstallingAHookWithoutScopeDropsTheOldScope) {
  VetoPair pair;
  const std::vector<std::uint16_t> scope(2, 0);
  pair.radio.set_fault_hook(pair.veto(), &scope);
  pair.send_from_0();
  EXPECT_EQ(pair.hook_calls, 0);
  EXPECT_EQ(pair.heard, 1);

  pair.radio.set_fault_hook(pair.veto());  // unscoped: every sender asks
  pair.send_from_0();
  EXPECT_EQ(pair.hook_calls, 1);
  EXPECT_EQ(pair.heard, 1);
  EXPECT_EQ(pair.radio.counters().fault_drops, 1U);
}

// Exposes the protected stepping interface for lifecycle tests.
class SteppableSt : public proto::StEngine {
 public:
  using proto::StEngine::StEngine;
  using proto::StEngine::collect_metrics;
  using proto::StEngine::crash_device;
  using proto::StEngine::recover_device;
  using proto::StEngine::start_run;
  sim::Simulator& sim() { return sim_; }
  /// Read-only view: the engine's public hot-state readers.
  const SteppableSt& view() const { return *this; }
};

TEST(EngineFaults, CrashParksAndRecoverColdBoots) {
  const std::vector<geo::Vec2> positions{{0.0, 0.0}, {15.0, 0.0}, {0.0, 15.0}};
  core::ProtocolParams params;
  params.max_periods = 100;
  params.stop_on_convergence = false;
  SteppableSt engine(positions, params, phy::RadioParams{}, 21);
  engine.start_run();
  engine.sim().run_until(sim::SimTime::milliseconds(1'000));
  ASSERT_FALSE(engine.view().neighbors(1).empty());

  engine.crash_device(1);
  EXPECT_TRUE(engine.view().down(1));
  engine.sim().run_until(sim::SimTime::milliseconds(2'000));
  const std::int64_t fire_while_down = engine.view().last_fire_slot(1);
  engine.sim().run_until(sim::SimTime::milliseconds(3'000));
  EXPECT_EQ(engine.view().last_fire_slot(1), fire_while_down)
      << "a crashed oscillator must not fire";

  engine.recover_device(1);
  EXPECT_FALSE(engine.view().down(1));
  EXPECT_TRUE(engine.view().neighbors(1).empty()) << "cold boot clears the table";
  EXPECT_TRUE(engine.view().is_head(1)) << "ST restarts as a singleton head";
  EXPECT_EQ(engine.view().fragment_size(1), 1U);
  engine.sim().run_until(sim::SimTime::milliseconds(5'000));
  EXPECT_GT(engine.view().last_fire_slot(1), fire_while_down) << "oscillator restarted";
  EXPECT_FALSE(engine.view().neighbors(1).empty()) << "rediscovers the neighbourhood";

  const core::RunMetrics m = engine.collect_metrics();
  EXPECT_EQ(m.crashes, 1U);
  EXPECT_EQ(m.recoveries, 1U);
  EXPECT_EQ(m.alive_at_end, 3U);
}

TEST(EngineFaults, FaultedRunObservesThroughConvergence) {
  // With a fault plan the engine must keep running past first convergence
  // (resilience is measured on the tail), even though the config asks for
  // stop_on_convergence.
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 31;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 120;
  config.protocol.stop_on_convergence = true;
  config.protocol.faults.drop_probability = 0.02;
  const core::RunMetrics m = core::run_trial(core::Protocol::kSt, config);
  ASSERT_TRUE(m.converged);
  EXPECT_GE(m.simulated_ms, static_cast<double>(config.protocol.max_slots()));
  EXPECT_GT(m.fault_drops, 0U);
  EXPECT_GT(m.sync_uptime, 0.0);
}

TEST(EngineFaults, DeepFadesAreMeteredAndSurvived) {
  core::ScenarioConfig config;
  config.n = 20;
  config.seed = 8;
  config.area_policy = core::AreaPolicy::kFixed;
  config.protocol.max_periods = 200;
  config.protocol.faults.fade_rate_per_min = 120.0;
  config.protocol.faults.fade_mean_duration_ms = 500.0;
  const core::RunMetrics m = core::run_trial(core::Protocol::kSt, config);
  EXPECT_GT(m.fade_episodes, 0U);
  EXPECT_TRUE(m.converged);
}

}  // namespace
