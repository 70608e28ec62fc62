// device_soa.hpp — hot/cold split of the per-device protocol state.
//
// The per-slot sweeps read only a small hot subset of each device's state —
// oscillator slots, fault flags, drift, ST fragment label, DESYNC phase
// memory.  `DeviceHot` is the only storage of that subset: flat arrays,
// index-aligned with the radio's dense device order, carved out of ONE
// `util::RegionArena` block per trial:
//
//   * a receiver sweep walks contiguous memory instead of striding structs,
//   * snapshot/restore of all hot scalars is a single memcpy of the region,
//   * a trial performs exactly one allocation for its hot state.
//
// Neighbor tables are hot too but own heap storage, so they sit beside the
// region in an index-aligned vector (restored element-wise, capacity-reusing).
// Cold fields — identity, position, ST tree bookkeeping, dedup sets — live in
// the `core::Device` struct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/neighbor_table.hpp"
#include "sim/slot_calendar.hpp"  // EventId
#include "util/arena.hpp"

namespace firefly::core {

struct DeviceHot {
  // --- oscillator ---
  std::int64_t* next_fire_slot = nullptr;
  std::int64_t* last_fire_slot = nullptr;
  std::int64_t* refractory_until_slot = nullptr;
  sim::EventId* fire_event = nullptr;

  // --- fault injection ---
  double* drift_ppm = nullptr;
  double* drift_residual = nullptr;
  bool* down = nullptr;

  // --- ST fragment hot subset ---
  std::uint16_t* fragment = nullptr;
  std::uint16_t* fragment_size = nullptr;
  bool* is_head = nullptr;

  // --- DESYNC phase memory ---
  std::int64_t* desync_last_heard_slot = nullptr;
  std::int64_t* desync_prev_slot = nullptr;
  std::int32_t* desync_residual = nullptr;
  bool* desync_adjusted = nullptr;

  /// Index-aligned discovery tables (hot, but heap-owning — see header note).
  std::vector<NeighborTable> neighbors;

  [[nodiscard]] std::size_t size() const { return count_; }

  /// One region snapshot = these bytes, verbatim.
  [[nodiscard]] const std::byte* block() const { return arena_.data(); }
  [[nodiscard]] std::byte* block() { return arena_.data(); }
  [[nodiscard]] std::size_t block_bytes() const { return arena_.used(); }

  /// Allocate the region and carve every array for `n` devices, each set
  /// to a fresh device's state: never fired, up, no drift, fragment size 1,
  /// no DESYNC pulse heard.  Fragment labels are the engine's to seed.
  void build(std::size_t n);

 private:
  util::RegionArena arena_;
  std::size_t count_ = 0;
};

}  // namespace firefly::core
