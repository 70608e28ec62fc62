// radio.hpp — the shared broadcast medium.
//
// All proximity signals flow through one `RadioMedium`.  A transmission is
// buffered for the current slot; at the slot boundary every registered
// receiver hears the set of transmissions, the channel assigns each one a
// received power, sub-threshold receptions are dropped, and same-resource
// receptions collide unless one captures (dominates the sum of the rest by
// the capture margin).  The medium is also the *single meter* for Fig. 4:
// every transmission is counted here by codec class, so FST and ST message
// counts are measured identically.
//
// Delivery is batched: decoding appends one `RxRecord` per successful
// reception to a flat per-slot buffer (in receiver-bucket order — the same
// order the old per-pair callbacks fired in), and the slot's whole batch is
// handed to the owner's delivery sink in one call.  Protocol reactions run
// sequentially inside the sink in record order, so any state they mutate is
// visible to later records of the same slot exactly as it was under
// per-pair dispatch.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "geo/grid.hpp"
#include "geo/point.hpp"
#include "mac/rach.hpp"
#include "obs/telemetry.hpp"
#include "phy/channel.hpp"
#include "phy/energy.hpp"
#include "sim/simulator.hpp"

namespace firefly::mac {

/// One decoded PS, addressed by *receiver index* (the dense registration
/// slot, equal to the device id for engine-registered populations) so batch
/// consumers can index flat per-device arrays directly.
struct RxRecord {
  std::uint32_t sender;
  std::uint32_t rx_index;  ///< receiver's dense device index
  Preamble preamble;       ///< the RACH resource the PS occupied
  PsType type;
  std::uint64_t payload;   ///< protocol-defined (fragment id, phase, etc.)
  util::Dbm rx_power;
  sim::SimTime slot_start; ///< slot in which the PS was transmitted (records
                           ///< in one batch can differ: a broadcast executing
                           ///< at the flush boundary joins the closing batch
                           ///< with the next slot's stamp)
};

/// The contiguous span of every successful reception of one slot flush, in
/// decode order (receiver-bucket order, in-bucket transmission order).
struct RxBatch {
  const RxRecord* records;
  std::size_t count;
};

/// Per-codec transmission counters (the Fig. 4 meter).
struct TrafficCounters {
  std::uint64_t rach1_tx = 0;
  std::uint64_t rach2_tx = 0;
  std::uint64_t collisions = 0;   ///< receiver-side collision events
  std::uint64_t deliveries = 0;   ///< successful receptions
  std::uint64_t fault_drops = 0;  ///< receptions vetoed by the fault hook

  [[nodiscard]] std::uint64_t total_tx() const { return rach1_tx + rach2_tx; }
};

class RadioMedium {
 public:
  /// The per-slot delivery sink: called at most once per flush with the
  /// slot's whole decoded batch.  There is one sink for the medium (not one
  /// callback per device); receivers are identified by RxRecord::rx_index.
  using DeliverFn = std::function<void(const RxBatch&)>;
  /// Receiver-side duty cycling: evaluated at delivery time; a device whose
  /// predicate returns false is asleep and decodes nothing that slot.
  using ListenFn = std::function<bool()>;
  /// Channel-fault hook (fault-injection runs): for each transmission whose
  /// sender is in the hook's scope (see `set_fault_hook`), called exactly
  /// once per candidate (tx, rx) pair that passes the down and duty-cycle
  /// gates, in candidate order, whether or not the faded power could be
  /// detectable; never called for a sender outside the scope.  Returns the
  /// link's extra attenuation (>= 0 dB), or nullopt to veto the reception
  /// at this receiver outright.  The radio applies the
  /// attenuation itself: a veto, or an attenuation > 0 that leaves the
  /// reception below the detection threshold, counts in
  /// `TrafficCounters::fault_drops`; the surviving power then flows through
  /// the normal threshold and collision rules.  Because the attenuation
  /// never raises a power, a candidate whose fade alone is provably
  /// sub-threshold skips the fading math but still calls the hook (so the
  /// hook's own random draws stay in order) and is a fault drop exactly
  /// when the hook vetoes or attenuates.  A veto is a per-receiver decode
  /// failure; the transmission still reaches other receivers normally.
  ///
  /// The radio draws a transmission's fades in one batch *before* it calls
  /// the hook for that transmission's candidates.  The hook must therefore
  /// not draw from the channel's fading stream (nor read anything the
  /// fades change); the engine's hook draws only the fault injector's own
  /// drop stream, so neither stream depends on that interleaving.
  using FaultFn = std::function<std::optional<util::Db>(std::uint32_t sender,
                                                        std::uint32_t receiver, PsType type)>;

  /// `capture_margin_db`: a same-resource reception is decoded anyway when
  /// its power exceeds the *sum* of the interferers by this margin.
  RadioMedium(sim::Simulator* sim, phy::Channel* channel, double capture_margin_db = 6.0);

  /// Register a device.  Devices must be registered before the first slot
  /// boundary they use, in the index order the owner's delivery sink
  /// expects (RxRecord::rx_index is the registration slot).  `listening`
  /// may be null (always awake).
  void add_device(std::uint32_t id, geo::Vec2 position, ListenFn listening = nullptr);
  /// Update a device position (mobility support).
  void move_device(std::uint32_t id, geo::Vec2 position);
  [[nodiscard]] geo::Vec2 device_position(std::uint32_t id) const;
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

  /// Crash/recover lifecycle: a down device neither transmits (broadcasts
  /// are silently discarded and not metered) nor receives anything.
  void set_down(std::uint32_t id, bool down);
  [[nodiscard]] bool is_down(std::uint32_t id) const;

  /// Install the channel-fault hook (null = fault-free delivery) with an
  /// optional per-sender scope, indexed by device index and read at every
  /// flush.  A sender whose scope entry is 0 promises that the hook would
  /// answer `Db{0}` for every receiver without drawing any randomness, so
  /// its transmissions skip the hook and take the fault-free sweep; an
  /// attenuation of 0 never counts a fault drop nor changes a power, so the
  /// skip is exactly equivalent.  With no scope every sender is in scope.
  /// The scope is not owned and must outlive the hook; installing a hook
  /// replaces the previous scope with `scope`.
  void set_fault_hook(FaultFn fn, const std::vector<std::uint16_t>* scope = nullptr) {
    fault_ = std::move(fn);
    fault_scope_ = scope;
  }

  /// Install the per-slot delivery sink (null = decoded PSs are metered but
  /// discarded, which is what the radio-only unit tests want).
  void set_delivery_sink(DeliverFn fn) { sink_ = std::move(fn); }

  /// Queue a broadcast for the slot containing now(); it is delivered to
  /// every in-range receiver at the next slot boundary.  The preamble index
  /// must lie in the pool (`preamble.index < kPreamblePoolSize`).
  void broadcast(std::uint32_t sender, Preamble preamble, PsType type, std::uint64_t payload);

  /// Rebuild the candidate cache: for every device, the receivers whose
  /// slot-averaged power is within `kCandidateFadingMarginDb` of being
  /// detectable, with that mean memoised so delivery never recomputes path
  /// loss or shadowing.  Enumeration is grid-indexed (O(N·k) cell queries
  /// keyed by the channel's max detectable range) and yields exactly the
  /// pairs an all-pairs scan would admit, in the same order.  The cache is
  /// stored structure-of-arrays (one flat `ids`/`mean`/`skip` array per
  /// field, prefix-offset indexed per sender) so a slot flush sweeps
  /// contiguous memory.  `add_device` and `move_device` mark the cache
  /// stale and the next slot flush rebuilds it; call this directly to read
  /// `for_each_candidate_pair` before any slot has flushed.
  void rebuild();

  /// Visit every cached candidate pair once as fn(id_u, id_v, mean_dbm)
  /// with index(id_u) < index(id_v), in deterministic index-lexicographic
  /// order.  Requires a current cache (`rebuild`).  The engine derives
  /// reliable links from this instead of a second O(N²) channel sweep.
  template <typename Fn>
  void for_each_candidate_pair(Fn&& fn) const {
    assert(!cache_stale_);
    for (std::size_t u = 0; u + 1 < cand_offsets_.size(); ++u) {
      for (std::size_t k = cand_offsets_[u]; k < cand_offsets_[u + 1]; ++k) {
        if (cand_rx_[k] <= u) continue;
        fn(devices_[u].id, devices_[cand_rx_[k]].id, util::Dbm{cand_mean_[k]});
      }
    }
  }

  [[nodiscard]] const TrafficCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }
  /// Optional energy meter: charged one tx slot per broadcast and one rx
  /// slot per successful delivery.  Not owned; may be null.
  void set_energy_meter(phy::EnergyMeter* meter) { energy_ = meter; }
  /// Optional telemetry: a slot-delivery span per flush plus a batch-size
  /// histogram.  Not owned; null (the default) costs one pointer test per
  /// flush and nothing per delivery.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  [[nodiscard]] phy::Channel& channel() { return *channel_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Slot index containing time t.
  [[nodiscard]] static std::int64_t slot_index(sim::SimTime t) {
    return t.us / sim::kLteSlot.us;
  }

 private:
  struct DeviceEntry {
    std::uint32_t id;
    geo::Vec2 position;
    ListenFn listening;
  };
  struct PendingTx {
    std::uint32_t sender;
    Preamble preamble;
    PsType type;
    std::uint64_t payload;
    sim::SimTime slot_start;
  };

 public:
  /// Mutable-state checkpoint for the engine's in-process snapshot/restore.
  /// Geometry, the candidate cache and the installed hooks are not captured
  /// — they are position-derived and snapshots are restricted to static
  /// scenarios — so only traffic state is: the counters, the two slot
  /// buffers, the flush-armed flag and the down set.  The per-resource
  /// collision scratch is epoch-tagged and rewound wholesale on restore.
  struct StateSnapshot {
    TrafficCounters counters;
    std::vector<PendingTx> pending;
    std::vector<PendingTx> flushing;
    bool flush_scheduled = false;
    std::vector<std::uint8_t> down;
    std::size_t down_count = 0;
  };
  [[nodiscard]] StateSnapshot save_state() const;
  void restore_state(const StateSnapshot& snap);

  /// Pre-size the per-slot delivery scratch (the pending/flushing double
  /// buffer, the per-receiver audible buckets and their side arrays) for a
  /// worst case of `max_tx_per_slot` simultaneous transmissions.  These
  /// vectors never shrink, so they only allocate when a slot sets a new
  /// lifetime-record load; reserving past the workload's record up front
  /// makes a long soak's steady state allocation-free (the service-mode
  /// heap gate relies on this).  Purely a capacity hint — delivery
  /// behaviour is unchanged.
  void reserve_delivery(std::size_t max_tx_per_slot);

 private:
  /// A transmission audible at one receiver, pre-collision-resolution.
  struct Audible {
    const PendingTx* tx;
    util::Dbm power;
  };
  /// One admitted candidate pair, staged during rebuild before the scatter
  /// into the flat per-sender arrays.
  struct PairRec {
    std::uint32_t u, v;
    double mean_dbm;
    double skip_u;
  };

  void ensure_flush_scheduled();
  void flush_slot();
  [[nodiscard]] std::size_t index_of(std::uint32_t id) const;
  void admit_candidate(std::size_t u, std::size_t v, util::Dbm mean, util::Dbm cutoff);
  void scatter_candidates();
  void deliver_candidates();
  void resolve_receivers();

  sim::Simulator* sim_;
  phy::Channel* channel_;
  double capture_margin_db_;
  std::vector<DeviceEntry> devices_;
  std::vector<std::size_t> id_to_index_;  // device id -> devices_ slot
  std::vector<std::uint8_t> down_;        // by device index; 1 = crashed
  std::size_t down_count_ = 0;            // crashed devices (live receiver gate)
  FaultFn fault_;
  const std::vector<std::uint16_t>* fault_scope_ = nullptr;  // null: every sender in scope
  bool any_listening_ = false;  // duty-cycle gates exist: the sweep must probe them
  std::vector<PendingTx> pending_;
  std::vector<PendingTx> flushing_;  // double buffer: swap per flush, no allocation
  bool flush_scheduled_ = false;
  TrafficCounters counters_;
  phy::EnergyMeter* energy_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  // Candidate cache, structure-of-arrays: sender u's candidates occupy flat
  // slots [cand_offsets_[u], cand_offsets_[u+1]), ascending rx index —
  // the order that pins the fading stream.  Parallel arrays so the delivery sweep reads each field
  // contiguously.
  std::vector<std::size_t> cand_offsets_;   // n+1 prefix offsets
  std::vector<std::uint32_t> cand_rx_;      // receiver device index
  std::vector<double> cand_mean_;           // memoised mean received power, dBm
  std::vector<double> cand_skip_u_;         // uniforms at/above this are sub-threshold
  std::vector<PairRec> pair_scratch_;       // rebuild staging (reused)
  std::vector<std::size_t> cand_cursor_;    // rebuild scatter cursors (reused)
  // Per-transmission sweep scratch, grown lazily to the largest slice.
  std::vector<double> fade_u_;              // one uniform per gated candidate
  std::vector<std::uint32_t> survivors_;    // gated positions that pass the skip test
  std::vector<std::uint32_t> gated_;        // slice offset per gated position
  std::vector<double> gated_skip_u_;        // skip bound per gated position
  std::vector<std::vector<Audible>> buckets_;  // per-receiver audible sets
  std::vector<std::size_t> touched_;           // receivers with non-empty buckets
  DeliverFn sink_;                             // per-slot batch consumer
  std::vector<RxRecord> rx_records_;           // this slot's decoded batch
  std::vector<std::uint32_t> res_key_;         // per-bucket resource keys
  std::vector<double> aud_mw_;                 // per-bucket memoised milliwatts
  // Epoch-marked per-resource chains for the collision prepass: one slot per
  // (codec, preamble) pool entry, keyed (codec - 1) * kPreamblePoolSize +
  // index, valid only while its epoch tag matches — no clearing between
  // buckets.
  static constexpr std::uint32_t kGroupNil = 0xFFFFFFFFU;
  static constexpr std::size_t kResourceSlots = 2 * std::size_t{kPreamblePoolSize};
  std::uint64_t group_epoch_ = 0;
  std::uint64_t group_seen_[kResourceSlots] = {};
  std::uint32_t group_head_[kResourceSlots] = {};
  std::uint32_t group_tail_[kResourceSlots] = {};
  std::uint32_t group_count_[kResourceSlots] = {};
  std::vector<std::uint32_t> group_next_;      // per-bucket chain links
  bool cache_stale_ = true;  // positions or population changed since rebuild
  geo::SpatialGrid grid_;
  bool grid_ready_ = false;  // cell membership current (maintained by move_device)
};

}  // namespace firefly::mac
