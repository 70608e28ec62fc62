// timed_engine.hpp — outside-in timing of one protocol engine.
//
// `Timed<E>` subclasses a protocol backend (proto::StEngine, proto::FstEngine)
// and wraps its protected `deliver_batched` hook — the proto layer's entry
// point, called once per radio slot flush with the slot's decoded batch — in
// a steady-clock timer.  It also exposes the simulator and radio counters the
// engine owns.  It adds two clock reads per flush and changes nothing about
// the simulated behaviour, so RunMetrics stay byte-identical to a run of `E`.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "mac/radio.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

template <typename E>
class Timed final : public E {
 public:
  using E::E;

  /// Host time spent inside the protocol's batch sink.
  [[nodiscard]] std::chrono::nanoseconds sink_time() const { return sink_time_; }
  /// Decoded records handed to the sink, and the size of every batch.
  [[nodiscard]] std::uint64_t records() const { return records_; }
  [[nodiscard]] const std::vector<std::uint32_t>& batch_sizes() const { return batch_sizes_; }

  [[nodiscard]] std::uint64_t events_processed() const { return this->sim_.events_processed(); }
  [[nodiscard]] firefly::sim::Simulator::SchedulerStats scheduler_stats() const {
    return this->sim_.scheduler_stats();
  }
  [[nodiscard]] const firefly::mac::TrafficCounters& radio_counters() const {
    return this->radio_.counters();
  }

 protected:
  void deliver_batched(const firefly::mac::RxBatch& batch) override {
    const auto start = std::chrono::steady_clock::now();
    E::deliver_batched(batch);
    sink_time_ += std::chrono::steady_clock::now() - start;
    records_ += batch.count;
    batch_sizes_.push_back(static_cast<std::uint32_t>(batch.count));
  }

 private:
  std::chrono::nanoseconds sink_time_{0};
  std::uint64_t records_ = 0;
  std::vector<std::uint32_t> batch_sizes_;
};

}  // namespace perfbench
