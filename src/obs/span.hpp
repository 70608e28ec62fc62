// span.hpp — profiling span collection and Chrome trace-event export.
//
// A `SpanSink` buffers completed wall-clock spans (what the RAII timers in
// timer.hpp measure) and serialises them in the Chrome trace-event JSON
// format, loadable in chrome://tracing and https://ui.perfetto.dev.  Span
// timestamps are wall-clock nanoseconds relative to the telemetry epoch —
// the timeline shows where *real* time goes — and each span carries the
// simulated time at which it ran as an argument, so the two clocks can be
// cross-referenced in the viewer.
//
// The sink is a ring: with a nonzero capacity the oldest spans are
// overwritten and counted in `dropped()`, bounding memory on multi-hour
// runs.  Default capacity is 1M spans (~48 MB); 0 means unlimited.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace firefly::obs {

/// Instrumented code regions.  Extend here and in span_name().
enum class SpanId : std::uint8_t {
  kSlotDelivery = 0,  ///< RadioMedium::flush_slot — one radio slot boundary
  kPcoUpdate = 1,     ///< EngineBase::apply_pulse_coupling — one PRC jump
  kHConnect = 2,      ///< StEngine::attempt_connect — one H_Connect attempt
  kMerge = 3,         ///< StEngine::local_merge — one fragment merge
  kTrial = 4,         ///< core::run_trial — one trial, set-up included
};
inline constexpr std::size_t kSpanIdCount = 5;

/// Stable lowercase name ("slot_delivery", ...), used for metric names and
/// trace-event names alike.
[[nodiscard]] const char* span_name(SpanId id);

struct Span {
  SpanId id;
  std::uint32_t tid;       ///< reporting thread (dense, assigned on first use)
  std::int64_t start_ns;   ///< wall clock, relative to the telemetry epoch
  std::int64_t duration_ns;
  double sim_ms;           ///< simulated time at span start; < 0 when n/a
};

class SpanSink {
 public:
  explicit SpanSink(std::size_t capacity = kDefaultCapacity);

  void add(const Span& span);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::uint64_t dropped() const;
  /// Buffered spans in chronological (insertion) order.
  [[nodiscard]] std::vector<Span> snapshot() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}) with "X" (complete)
  /// events; timestamps/durations in microseconds as the format requires.
  void write_chrome_trace(std::ostream& out) const;
  /// Same, to a file; returns false when the file cannot be opened.
  bool write_chrome_trace(const std::string& path) const;

  static constexpr std::size_t kDefaultCapacity = 1'000'000;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::size_t head_ = 0;  ///< next overwrite position once full
  std::uint64_t dropped_ = 0;
};

}  // namespace firefly::obs
