// Tests for the broadcast radio medium (src/mac/radio.hpp): slot-boundary
// delivery, threshold filtering, collisions, capture, counters and the
// candidate cache.
#include "mac/radio.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "full_scan_radio.hpp"
#include "phy/channel.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using mac::PsType;
using mac::RachCodec;
using mac::RadioMedium;
using mac::RxRecord;

struct World {
  sim::Simulator sim;
  std::unique_ptr<phy::Channel> channel;
  std::unique_ptr<RadioMedium> radio;
  // Per-receiver inboxes, filled by the radio's batched delivery sink.  All
  // tests here add devices in id order, so rx_index == id.
  std::vector<std::vector<RxRecord>> inbox;

  explicit World(double capture_margin_db = 3.0, phy::RadioParams params = {}) {
    channel = std::make_unique<phy::Channel>(
        params, std::make_unique<phy::PaperDualSlope>(),
        std::make_unique<phy::NoShadowing>(), std::make_unique<phy::NoFading>(),
        util::Rng(1));
    radio = std::make_unique<RadioMedium>(&sim, channel.get(), capture_margin_db);
    radio->set_delivery_sink([this](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) {
        const RxRecord& r = batch.records[k];
        inbox[r.rx_index].push_back(r);
      }
    });
  }

  void add(std::uint32_t id, geo::Vec2 pos) {
    if (inbox.size() <= id) inbox.resize(id + 1);
    radio->add_device(id, pos);
  }
};

TEST(Radio, DeliversAtNextSlotBoundary) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {10.0, 0.0});
  w.sim.schedule_at(sim::SimTime::microseconds(3'500), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 1}, PsType::kDiscovery, 42);
  });
  w.sim.run();
  ASSERT_EQ(w.inbox[1].size(), 1U);
  // Sent inside slot 3, delivered at the slot-4 boundary.
  EXPECT_EQ(w.sim.now().us, 4000);
  EXPECT_EQ(w.inbox[1][0].sender, 0U);
  EXPECT_EQ(w.inbox[1][0].payload, 42U);
  EXPECT_EQ(w.inbox[1][0].slot_start.us, 3000);
}

TEST(Radio, NoSelfReception) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {5.0, 0.0});
  w.sim.schedule_at(sim::SimTime::zero(), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_TRUE(w.inbox[0].empty());
  EXPECT_EQ(w.inbox[1].size(), 1U);
}

TEST(Radio, SubThresholdReceiverHearsNothing) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {95.0, 0.0});   // beyond the ~89 m median range
  w.add(2, {50.0, 0.0});   // inside
  w.sim.schedule_at(sim::SimTime::zero(), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_TRUE(w.inbox[1].empty());
  EXPECT_EQ(w.inbox[2].size(), 1U);
}

TEST(Radio, SameResourceSameSlotCollides) {
  for (const RachCodec codec : {RachCodec::kRach1, RachCodec::kRach2}) {
    World w;
    // Two equidistant senders on the SAME preamble: neither captures.
    w.add(0, {0.0, 0.0});
    w.add(1, {20.0, 0.0});
    w.add(2, {10.0, 0.0});  // receiver in the middle
    w.sim.schedule_at(sim::SimTime::zero(), [&] {
      w.radio->broadcast(0, {codec, 7}, PsType::kSyncPulse, 0);
      w.radio->broadcast(1, {codec, 7}, PsType::kSyncPulse, 0);
    });
    w.sim.run();
    EXPECT_TRUE(w.inbox[2].empty()) << mac::to_string(codec);
    EXPECT_EQ(w.radio->counters().collisions, 2U) << mac::to_string(codec);
  }
}

TEST(Radio, DifferentPreamblesDoNotCollide) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 0.0});
  w.sim.schedule_at(sim::SimTime::zero(), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 0);
    w.radio->broadcast(1, {RachCodec::kRach1, 8}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_EQ(w.inbox[2].size(), 2U);
  EXPECT_EQ(w.radio->counters().collisions, 0U);
}

TEST(Radio, DifferentCodecsAreOrthogonal) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 0.0});
  w.sim.schedule_at(sim::SimTime::zero(), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 0);
    w.radio->broadcast(1, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 0);
  });
  w.sim.run();
  EXPECT_EQ(w.inbox[2].size(), 2U);
}

TEST(Radio, CaptureEffectDecodesTheStrongSignal) {
  for (const RachCodec codec : {RachCodec::kRach1, RachCodec::kRach2}) {
    World w(3.0);
    w.add(0, {9.0, 0.0});    // 1 m from the receiver: strong
    w.add(1, {60.0, 10.0});  // far away: weak interferer
    w.add(2, {10.0, 0.0});
    w.sim.schedule_at(sim::SimTime::zero(), [&] {
      w.radio->broadcast(0, {codec, 7}, PsType::kSyncPulse, 111);
      w.radio->broadcast(1, {codec, 7}, PsType::kSyncPulse, 222);
    });
    w.sim.run();
    // The strong one captures; the weak one is lost (collision counted).
    ASSERT_EQ(w.inbox[2].size(), 1U) << mac::to_string(codec);
    EXPECT_EQ(w.inbox[2][0].payload, 111U) << mac::to_string(codec);
    EXPECT_EQ(w.radio->counters().collisions, 1U) << mac::to_string(codec);
  }
}

TEST(Radio, MixedCodecBucketCollidesOnlyWithinItsCodec) {
  // One receiver hears RACH1 #7 and two RACH2 #7 in the same slot.  The two
  // codecs map to disjoint collision resources: the RACH2 pair collides,
  // the RACH1 entry decodes untouched.
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {20.0, 0.0});
  w.add(2, {10.0, 10.0});
  w.add(3, {10.0, 0.0});  // receiver
  w.sim.schedule_at(sim::SimTime::zero(), [&] {
    w.radio->broadcast(0, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 0);
    w.radio->broadcast(2, {RachCodec::kRach1, 7}, PsType::kSyncPulse, 33);
    w.radio->broadcast(1, {RachCodec::kRach2, 7}, PsType::kConnectRequest, 0);
  });
  w.sim.run();
  ASSERT_EQ(w.inbox[3].size(), 1U);
  EXPECT_EQ(w.inbox[3][0].sender, 2U);
  EXPECT_EQ(w.inbox[3][0].preamble.codec, RachCodec::kRach1);
  EXPECT_EQ(w.inbox[3][0].payload, 33U);
  // The RACH1 sender sits on the same bisector, so the RACH2 pair collides
  // there too: two collisions per receiver, none charged to RACH1.
  EXPECT_TRUE(w.inbox[2].empty());
  EXPECT_EQ(w.radio->counters().collisions, 4U);
}

TEST(Radio, CountersByCodec) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {10.0, 0.0});
  w.sim.schedule_at(sim::SimTime::zero(), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
    w.radio->broadcast(0, {RachCodec::kRach2, 0}, PsType::kConnectRequest, 0);
    w.radio->broadcast(0, {RachCodec::kRach2, 1}, PsType::kConnectAccept, 0);
  });
  w.sim.run();
  EXPECT_EQ(w.radio->counters().rach1_tx, 1U);
  EXPECT_EQ(w.radio->counters().rach2_tx, 2U);
  EXPECT_EQ(w.radio->counters().total_tx(), 3U);
  EXPECT_EQ(w.radio->counters().deliveries, 3U);
  w.radio->reset_counters();
  EXPECT_EQ(w.radio->counters().total_tx(), 0U);
}

/// One broadcast from the end of a 4 m-pitch line of 31 devices, on either
/// medium; returns every decoded record.
template <typename Medium>
std::vector<RxRecord> line_broadcast() {
  sim::Simulator sim;
  phy::Channel channel(phy::RadioParams{}, std::make_unique<phy::PaperDualSlope>(),
                       std::make_unique<phy::NoShadowing>(), std::make_unique<phy::NoFading>(),
                       util::Rng(1));
  Medium medium(&sim, &channel, 3.0);
  std::vector<RxRecord> records;
  medium.set_delivery_sink([&](const mac::RxBatch& batch) {
    records.insert(records.end(), batch.records, batch.records + batch.count);
  });
  medium.add_device(0, {0.0, 0.0});
  for (std::uint32_t i = 1; i <= 30; ++i) {
    medium.add_device(i, {static_cast<double>(i * 4), 0.0});
  }
  sim.schedule_at(sim::SimTime::zero(), [&] {
    medium.broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  sim.run();
  return records;
}

TEST(Radio, CandidateCacheMatchesFullScan) {
  // With deterministic propagation the cache must not change what is
  // delivered: the radio (which builds its cache at the first flush) hears
  // exactly what the full-scan oracle hears.
  const std::vector<RxRecord> scan = line_broadcast<mac::FullScanRadio>();
  const std::vector<RxRecord> cached = line_broadcast<RadioMedium>();
  // Devices at 4..88 m hear it (~89 m range): exactly 22 of them.
  EXPECT_EQ(scan.size(), 22U) << "full scan";
  EXPECT_EQ(cached.size(), 22U) << "cache";
  mac::expect_same_records(scan, cached);
}

TEST(Radio, MoveDeviceChangesConnectivity) {
  World w;
  w.add(0, {0.0, 0.0});
  w.add(1, {200.0, 0.0});
  w.sim.schedule_at(sim::SimTime::zero(), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run_until(sim::SimTime::milliseconds(2));
  EXPECT_TRUE(w.inbox[1].empty());
  w.radio->move_device(1, {10.0, 0.0});
  EXPECT_EQ(w.radio->device_position(1).x, 10.0);
  w.sim.schedule_in(sim::SimTime::microseconds(10), [&] {
    w.radio->broadcast(0, {RachCodec::kRach1, 0}, PsType::kSyncPulse, 0);
  });
  w.sim.run();
  EXPECT_EQ(w.inbox[1].size(), 1U);
}

TEST(Radio, SlotIndexHelper) {
  EXPECT_EQ(RadioMedium::slot_index(sim::SimTime::microseconds(0)), 0);
  EXPECT_EQ(RadioMedium::slot_index(sim::SimTime::microseconds(999)), 0);
  EXPECT_EQ(RadioMedium::slot_index(sim::SimTime::microseconds(1000)), 1);
  EXPECT_EQ(RadioMedium::slot_index(sim::SimTime::milliseconds(42)), 42);
}

}  // namespace
