// full_scan_radio.hpp — per-slot full-scan broadcast medium, the test oracle
// for the radio's memoised delivery sweep (src/mac/radio.hpp).
//
// For every transmission and every registered receiver, in registration
// order, it applies the gates (no self-reception, crashed, asleep), asks the
// channel for a freshly faded received power, calls the fault hook and
// applies the detection threshold.  It then resolves each receiver's
// audible set with the plain all-pairs capture rule: an entry's
// interference is the sum over every *other* entry on the same preamble.
// No candidate cache, no skip bounds, no resource table: simple enough to
// be obviously right, which is its whole job.
//
// It draws one fade and makes one hook call per gated receiver, so it
// matches RadioMedium draw for draw when every gated pair is a candidate of
// the radio's cache (or the channel has no fading and the hook draws
// nothing).  The API mirrors the RadioMedium calls the differential tests
// make, so one scenario body drives both.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "sim/simulator.hpp"

namespace firefly::mac {

class FullScanRadio {
 public:
  FullScanRadio(sim::Simulator* sim, phy::Channel* channel, double capture_margin_db = 6.0)
      : sim_(sim), channel_(channel), capture_margin_db_(capture_margin_db) {}

  void add_device(std::uint32_t id, geo::Vec2 position,
                  RadioMedium::ListenFn listening = nullptr) {
    devices_.push_back(Device{id, position, std::move(listening), false});
  }
  void set_down(std::uint32_t id, bool down) { device(id).down = down; }
  void set_fault_hook(RadioMedium::FaultFn fn) { fault_ = std::move(fn); }
  void set_delivery_sink(RadioMedium::DeliverFn fn) { sink_ = std::move(fn); }
  [[nodiscard]] const TrafficCounters& counters() const { return counters_; }

  void broadcast(std::uint32_t sender, Preamble preamble, PsType type, std::uint64_t payload) {
    if (device(sender).down) return;
    const std::int64_t slot = RadioMedium::slot_index(sim_->now());
    pending_.push_back(Tx{sender, preamble, type, payload, sim::SimTime{slot * sim::kLteSlot.us}});
    if (preamble.codec == RachCodec::kRach1) {
      ++counters_.rach1_tx;
    } else {
      ++counters_.rach2_tx;
    }
    if (flush_scheduled_) return;
    flush_scheduled_ = true;
    sim_->schedule_at(sim::SimTime{(slot + 1) * sim::kLteSlot.us}, [this] { flush(); });
  }

 private:
  struct Device {
    std::uint32_t id;
    geo::Vec2 position;
    RadioMedium::ListenFn listening;
    bool down;
  };
  struct Tx {
    std::uint32_t sender;
    Preamble preamble;
    PsType type;
    std::uint64_t payload;
    sim::SimTime slot_start;
  };
  struct Heard {
    const Tx* tx;
    util::Dbm power;
  };

  Device& device(std::uint32_t id) {
    for (Device& d : devices_) {
      if (d.id == id) return d;
    }
    ADD_FAILURE() << "unknown device " << id;
    return devices_.front();
  }

  void flush() {
    flush_scheduled_ = false;
    std::vector<Tx> txs;
    txs.swap(pending_);
    std::vector<std::vector<Heard>> heard(devices_.size());
    std::vector<std::size_t> order;  // receivers in order of first reception
    for (const Tx& tx : txs) {
      const geo::Vec2 tx_pos = device(tx.sender).position;
      for (std::size_t r = 0; r < devices_.size(); ++r) {
        const Device& rx = devices_[r];
        if (rx.id == tx.sender || rx.down) continue;
        if (rx.listening && !rx.listening()) continue;
        util::Dbm power = channel_->received_power(tx.sender, tx_pos, rx.id, rx.position);
        if (fault_) {
          const std::optional<util::Db> attenuation = fault_(tx.sender, rx.id, tx.type);
          if (!attenuation.has_value()) {
            ++counters_.fault_drops;
            continue;
          }
          if (attenuation->value > 0.0) {
            power = power - *attenuation;
            if (!channel_->detectable(power)) {
              ++counters_.fault_drops;
              continue;
            }
          }
        }
        if (!channel_->detectable(power)) continue;
        if (heard[r].empty()) order.push_back(r);
        heard[r].push_back(Heard{&tx, power});
      }
    }
    const double noise_mw = channel_->params().noise_floor.milliwatts();
    std::vector<RxRecord> records;
    for (const std::size_t r : order) {
      const std::vector<Heard>& bucket = heard[r];
      for (std::size_t i = 0; i < bucket.size(); ++i) {
        double interference_mw = 0.0;
        for (std::size_t j = 0; j < bucket.size(); ++j) {
          if (j != i && bucket[j].tx->preamble == bucket[i].tx->preamble) {
            interference_mw += bucket[j].power.milliwatts();
          }
        }
        if (interference_mw > 0.0) {
          const util::Dbm denominator = util::dbm_from_milliwatts(interference_mw + noise_mw);
          if ((bucket[i].power - denominator).value < capture_margin_db_) {
            ++counters_.collisions;
            continue;
          }
        }
        ++counters_.deliveries;
        const Tx& tx = *bucket[i].tx;
        records.push_back(RxRecord{tx.sender, static_cast<std::uint32_t>(r), tx.preamble,
                                   tx.type, tx.payload, bucket[i].power, tx.slot_start});
      }
    }
    if (sink_ && !records.empty()) sink_(RxBatch{records.data(), records.size()});
  }

  sim::Simulator* sim_;
  phy::Channel* channel_;
  double capture_margin_db_;
  std::vector<Device> devices_;
  RadioMedium::FaultFn fault_;
  RadioMedium::DeliverFn sink_;
  std::vector<Tx> pending_;
  bool flush_scheduled_ = false;
  TrafficCounters counters_;
};

/// Expect two delivery logs to agree record for record.
inline void expect_same_records(const std::vector<RxRecord>& expected,
                                const std::vector<RxRecord>& actual) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const RxRecord& a = expected[i];
    const RxRecord& b = actual[i];
    EXPECT_EQ(b.sender, a.sender) << "record " << i;
    EXPECT_EQ(b.rx_index, a.rx_index) << "record " << i;
    EXPECT_EQ(b.preamble, a.preamble) << "record " << i;
    EXPECT_EQ(b.payload, a.payload) << "record " << i;
    EXPECT_EQ(b.rx_power.value, a.rx_power.value) << "record " << i;
    EXPECT_EQ(b.slot_start.us, a.slot_start.us) << "record " << i;
  }
}

}  // namespace firefly::mac
