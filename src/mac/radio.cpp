#include "mac/radio.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "obs/timer.hpp"
#include "util/log.hpp"

namespace firefly::mac {

namespace {

static_assert(static_cast<std::uint32_t>(RachCodec::kRach1) == 1 &&
                  static_cast<std::uint32_t>(RachCodec::kRach2) == 2,
              "resource_key packs RACH1 into slots [0, 64) and RACH2 into [64, 128)");

// Collision-table slot of one RACH resource.  Distinct codecs are
// orthogonal, so the two pools map to disjoint key ranges.
std::uint32_t resource_key(Preamble p) {
  return (static_cast<std::uint32_t>(p.codec) - 1U) * kPreamblePoolSize + p.index;
}

}  // namespace

RadioMedium::RadioMedium(sim::Simulator* sim, phy::Channel* channel, double capture_margin_db)
    : sim_(sim), channel_(channel), capture_margin_db_(capture_margin_db) {
  assert(sim_ != nullptr && channel_ != nullptr);
}

void RadioMedium::add_device(std::uint32_t id, geo::Vec2 position, ListenFn listening) {
  if (id >= id_to_index_.size()) {
    id_to_index_.resize(id + 1, std::numeric_limits<std::size_t>::max());
  }
  assert(id_to_index_[id] == std::numeric_limits<std::size_t>::max() && "duplicate device id");
  id_to_index_[id] = devices_.size();
  devices_.push_back(DeviceEntry{id, position, std::move(listening)});
  if (devices_.back().listening) any_listening_ = true;
  down_.push_back(0);
  cache_stale_ = true;
  grid_ready_ = false;  // population changed: next rebuild re-seeds the grid
}

void RadioMedium::set_down(std::uint32_t id, bool down) {
  std::uint8_t& flag = down_[index_of(id)];
  const std::uint8_t next = down ? 1 : 0;
  if (flag == next) return;
  flag = next;
  if (down) {
    ++down_count_;
  } else {
    assert(down_count_ > 0);
    --down_count_;
  }
}

bool RadioMedium::is_down(std::uint32_t id) const {
  return down_[index_of(id)] != 0;
}

std::size_t RadioMedium::index_of(std::uint32_t id) const {
  assert(id < id_to_index_.size());
  const std::size_t idx = id_to_index_[id];
  assert(idx != std::numeric_limits<std::size_t>::max());
  return idx;
}

void RadioMedium::move_device(std::uint32_t id, geo::Vec2 position) {
  const std::size_t idx = index_of(id);
  devices_[idx].position = position;
  // Cell membership tracks the move incrementally; the memoised means are
  // stale until the next flush rebuilds them (mobility steps move every
  // device, so one rebuild covers the whole step).
  if (grid_ready_) grid_.move(idx, position);
  cache_stale_ = true;
}

geo::Vec2 RadioMedium::device_position(std::uint32_t id) const {
  return devices_[index_of(id)].position;
}

void RadioMedium::admit_candidate(std::size_t u, std::size_t v, util::Dbm mean,
                                  util::Dbm cutoff) {
  if (mean < cutoff) return;
  // Fading headroom of the link.  Gains strictly below skip_gain provably
  // leave the reception sub-threshold (1e-9 dB of slack absorbs pow/log
  // rounding); borderline gains fall through to the exact dBm comparison,
  // so the skip decides bit-identically with a full channel evaluation.
  // When the headroom exceeds the fade-loss cap the link is audible in any
  // fade (skip_gain 0, whose u-space bound is never reached).
  const double headroom_db = (mean - channel_->params().detection_threshold).value;
  const double max_loss_db = -10.0 * std::log10(phy::FadingModel::kGainFloor);
  double skip_gain = 0.0;
  if (headroom_db < max_loss_db) {
    skip_gain = std::pow(10.0, -(headroom_db + 1e-9) / 10.0);
  }
  pair_scratch_.push_back(PairRec{static_cast<std::uint32_t>(u),
                                  static_cast<std::uint32_t>(v), mean.value,
                                  channel_->fading().skip_u(skip_gain)});
}

void RadioMedium::scatter_candidates() {
  const std::size_t n = devices_.size();
  cand_offsets_.assign(n + 1, 0);
  for (const PairRec& p : pair_scratch_) {
    ++cand_offsets_[p.u + 1];
    ++cand_offsets_[p.v + 1];
  }
  for (std::size_t i = 0; i < n; ++i) cand_offsets_[i + 1] += cand_offsets_[i];
  const std::size_t total = cand_offsets_[n];
  cand_rx_.resize(total);
  cand_mean_.resize(total);
  cand_skip_u_.resize(total);
  cand_cursor_.assign(cand_offsets_.begin(), cand_offsets_.end() - 1);
  // Scatter in admission order.  Pairs are admitted with u ascending and v
  // ascending within u, so each sender's slice fills in ascending receiver
  // index — the same per-sender order the per-sender push_backs used to
  // produce, which is what pins the fading-draw order at delivery.
  for (const PairRec& p : pair_scratch_) {
    const std::size_t ku = cand_cursor_[p.u]++;
    cand_rx_[ku] = p.v;
    cand_mean_[ku] = p.mean_dbm;
    cand_skip_u_[ku] = p.skip_u;
    const std::size_t kv = cand_cursor_[p.v]++;
    cand_rx_[kv] = p.u;
    cand_mean_[kv] = p.mean_dbm;
    cand_skip_u_[kv] = p.skip_u;
  }
}

void RadioMedium::rebuild() {
  constexpr double kMarginDb = phy::RadioParams::kCandidateFadingMarginDb;
  const std::size_t n = devices_.size();
  pair_scratch_.clear();
  const util::Dbm cutoff = channel_->params().detection_threshold - util::Db{kMarginDb};

  // Grid-indexed enumeration.  The range bound holds because candidate
  // admission needs mean >= cutoff, i.e. PL(d) <= tx − threshold + margin +
  // max shadowing gain — exactly max_detectable_range(margin), finite for
  // every shadowing model.  Gathered cells are a superset of that disc; the
  // cutoff test is the only filter, so the cache equals a brute-force
  // all-pairs enumeration (test_spatial_equivalence checks it pair for
  // pair).
  const double range = channel_->max_detectable_range(kMarginDb);
  assert(std::isfinite(range) && range > 0.0);
  if (n > 1) {
    if (!grid_ready_) {
      std::vector<geo::Vec2> positions(n);
      for (std::size_t i = 0; i < n; ++i) positions[i] = devices_[i].position;
      grid_.build(positions, range);
      grid_ready_ = true;
    }
    std::vector<std::uint32_t> near;
    for (std::size_t u = 0; u < n; ++u) {
      near.clear();
      grid_.gather(devices_[u].position, range, near);
      std::sort(near.begin(), near.end());
      for (const std::uint32_t v : near) {
        if (v <= u) continue;
        const util::Dbm mean = channel_->mean_received_power_uncached(
            devices_[u].id, devices_[u].position, devices_[v].id, devices_[v].position);
        admit_candidate(u, v, mean, cutoff);
      }
    }
  }
  scatter_candidates();
  cache_stale_ = false;
}

void RadioMedium::broadcast(std::uint32_t sender, Preamble preamble, PsType type,
                            std::uint64_t payload) {
  assert(preamble.index < kPreamblePoolSize && "preamble outside the RACH pool");
  if (down_[index_of(sender)] != 0) return;  // crashed: PA is off
  const std::int64_t slot = slot_index(sim_->now());
  const sim::SimTime slot_start = sim::SimTime{slot * sim::kLteSlot.us};
  pending_.push_back(PendingTx{sender, preamble, type, payload, slot_start});
  if (energy_ != nullptr) energy_->record_tx(sender);
  switch (preamble.codec) {
    case RachCodec::kRach1: ++counters_.rach1_tx; break;
    case RachCodec::kRach2: ++counters_.rach2_tx; break;
  }
  ensure_flush_scheduled();
}

void RadioMedium::ensure_flush_scheduled() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // Deliver at the end of the current slot.
  const std::int64_t slot = slot_index(sim_->now());
  const sim::SimTime boundary = sim::SimTime{(slot + 1) * sim::kLteSlot.us};
  sim_->schedule_at(boundary, [this] { flush_slot(); });
}

void RadioMedium::deliver_candidates() {
  // One memoised sweep per transmission over the sender's candidate slice
  // (ascending receiver index; the cached mean replaces path loss and
  // shadowing):
  //   1. gate: skip crashed and sleeping receivers;
  //   2. draw one fading uniform per gated candidate, in one batched fill;
  //   3. survivors: the u < skip_u compare, which discards provably
  //      sub-threshold fades before paying the gain transform;
  //   4. fault hook: once per gated candidate, in candidate order, when the
  //      sender is in the hook's scope;
  //   5. admit the survivors whose exact faded power clears the threshold.
  // Gating before the draw is what makes the fading stream one draw per
  // gated candidate in candidate order; drawing a whole slice's fades ahead
  // of its hook calls is safe by the FaultFn contract.  With no crash and
  // no duty cycle live the gated set is the slice itself, read in place.
  // A sender outside the scope takes the hook-free branch: the hook would
  // answer 0 dB for each of its candidates, which changes nothing.
  const bool gating = down_count_ != 0 || any_listening_;
  assert(fault_scope_ == nullptr || fault_scope_->size() >= devices_.size());
  for (const PendingTx& tx : flushing_) {
    const std::size_t s = index_of(tx.sender);
    const std::size_t begin = cand_offsets_[s];
    const std::size_t m = cand_offsets_[s + 1] - begin;
    if (fade_u_.size() < m) {
      fade_u_.resize(m);
      survivors_.resize(m);
    }
    const double* skip_u = cand_skip_u_.data() + begin;
    std::size_t g = m;
    if (gating) {
      if (gated_.size() < m) {
        gated_.resize(m);
        gated_skip_u_.resize(m);
      }
      g = 0;
      for (std::size_t k = 0; k < m; ++k) {
        const std::uint32_t rxi = cand_rx_[begin + k];
        if (down_[rxi] != 0) continue;  // crashed receiver hears nothing
        if (any_listening_) {  // avoid the DeviceEntry load when no gates exist
          const ListenFn& listening = devices_[rxi].listening;
          if (listening && !listening()) continue;  // duty-cycled, asleep
        }
        gated_[g] = static_cast<std::uint32_t>(k);
        gated_skip_u_[g] = skip_u[k];
        ++g;
      }
      skip_u = gated_skip_u_.data();
    }
    if (g == 0) continue;
    channel_->fill_fading_uniforms(fade_u_.data(), g);

    // Admit gated position i with the hook's attenuation applied.
    const auto admit = [&](std::size_t i, double attenuation_db) {
      const std::size_t k = begin + (gating ? gated_[i] : i);
      const double gain = channel_->fading().gain_from_uniform(fade_u_[i]);
      util::Dbm power = util::Dbm{cand_mean_[k]} - phy::FadingModel::loss_from_gain(gain);
      if (attenuation_db > 0.0) {
        power = power - util::Db{attenuation_db};
        // A faded-below-threshold reception is a fault drop, not an
        // ordinary out-of-range miss.
        if (!channel_->detectable(power)) {
          ++counters_.fault_drops;
          return;
        }
      }
      if (!channel_->detectable(power)) return;  // borderline fade: exact compare
      const std::uint32_t rxi = cand_rx_[k];
      if (buckets_[rxi].empty()) touched_.push_back(rxi);
      buckets_[rxi].push_back(Audible{&tx, power});
    };

    if (fault_ && (fault_scope_ == nullptr || (*fault_scope_)[s] != 0)) {
      for (std::size_t i = 0; i < g; ++i) {
        const std::uint32_t rxi = cand_rx_[begin + (gating ? gated_[i] : i)];
        const std::optional<util::Db> attenuation = fault_(tx.sender, devices_[rxi].id, tx.type);
        if (!attenuation.has_value()) {
          ++counters_.fault_drops;
          continue;
        }
        assert(attenuation->value >= 0.0 && "a fault hook attenuates, never amplifies");
        if (fade_u_[i] >= skip_u[i]) {
          // Already provably sub-threshold, and an attenuation keeps it
          // there: a fault drop if the fault acted, an ordinary miss if not.
          if (attenuation->value > 0.0) ++counters_.fault_drops;
          continue;
        }
        admit(i, attenuation->value);
      }
      continue;
    }
    // No hook call: a branch-free compare compacts the survivors first.
    std::size_t count = 0;
    for (std::size_t i = 0; i < g; ++i) {
      survivors_[count] = static_cast<std::uint32_t>(i);
      count += static_cast<std::size_t>(fade_u_[i] < skip_u[i]);
    }
    for (std::size_t j = 0; j < count; ++j) admit(survivors_[j], 0.0);
  }
}

void RadioMedium::resolve_receivers() {
  // Resolve same-resource collisions per receiver with the capture rule.
  // Decoded receptions are appended to the slot's flat RxRecord batch in
  // bucket order — exactly the order the old per-pair callbacks fired in —
  // and the owner's sink consumes the whole batch after this returns.
  const double noise_mw = channel_->params().noise_floor.milliwatts();
  const std::size_t nbuckets = touched_.size();
  rx_records_.clear();
  for (std::size_t t = 0; t < nbuckets; ++t) {
    const std::size_t rx_index = touched_[t];
    auto& audible = buckets_[rx_index];
    const DeviceEntry& rx = devices_[rx_index];
    const std::size_t k = audible.size();
    if (k > 1) {
      // Contention prepass: chain the bucket's entries per RACH resource in
      // one O(k) epoch-marked pass (no clearing between buckets), and
      // convert contended entries to milliwatts exactly once.  The
      // interference sum then walks only an entry's own chain — in entry
      // order, so it adds the same doubles in the same order as an
      // all-pairs scan over the bucket would.
      ++group_epoch_;
      res_key_.resize(k);
      group_next_.resize(k);
      aud_mw_.resize(k);
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint32_t key = resource_key(audible[i].tx->preamble);
        res_key_[i] = key;
        group_next_[i] = kGroupNil;
        if (group_seen_[key] != group_epoch_) {
          group_seen_[key] = group_epoch_;
          group_head_[key] = static_cast<std::uint32_t>(i);
          group_count_[key] = 1;
        } else {
          group_next_[group_tail_[key]] = static_cast<std::uint32_t>(i);
          ++group_count_[key];
        }
        group_tail_[key] = static_cast<std::uint32_t>(i);
      }
      for (std::size_t i = 0; i < k; ++i) {
        aud_mw_[i] = group_count_[res_key_[i]] > 1 ? audible[i].power.milliwatts() : 0.0;
      }
    }
    for (std::size_t i = 0; i < k; ++i) {
      const Audible& a = audible[i];
      double interference_mw = 0.0;
      if (k > 1 && group_count_[res_key_[i]] > 1) {
        for (std::uint32_t j = group_head_[res_key_[i]]; j != kGroupNil; j = group_next_[j]) {
          if (j != i) interference_mw += aud_mw_[j];
        }
      }
      bool decoded = true;
      if (interference_mw > 0.0) {
        // SINR capture: signal over summed interference *plus noise*.
        const util::Dbm denominator =
            util::dbm_from_milliwatts(interference_mw + noise_mw);
        decoded = (a.power - denominator).value >= capture_margin_db_;
        if (!decoded) ++counters_.collisions;
      }
      if (!decoded) continue;
      ++counters_.deliveries;
      if (energy_ != nullptr) energy_->record_rx(rx.id);
      rx_records_.push_back(RxRecord{a.tx->sender, static_cast<std::uint32_t>(rx_index),
                                     a.tx->preamble, a.tx->type, a.tx->payload, a.power,
                                     a.tx->slot_start});
    }
    audible.clear();
  }
}

void RadioMedium::flush_slot() {
  flush_scheduled_ = false;
  // Double buffer: swap the pending list into the flushing list (both keep
  // their capacity), so steady-state slot delivery never allocates.
  flushing_.clear();
  flushing_.swap(pending_);
  if (flushing_.empty()) return;
  if (cache_stale_) rebuild();
  const obs::ScopedTimer span(telemetry_, obs::SpanId::kSlotDelivery,
                              telemetry_ != nullptr ? sim_->now().as_milliseconds() : -1.0);
  if (telemetry_ != nullptr) {
    telemetry_->observe("radio.slot_batch", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
                        static_cast<double>(flushing_.size()));
  }

  if (buckets_.size() < devices_.size()) buckets_.resize(devices_.size());
  touched_.clear();
  deliver_candidates();
  resolve_receivers();
  // Hand the slot's whole decoded batch to the owner in one call.  Protocol
  // reactions run here, sequentially in record order; broadcasts they issue
  // land in pending_ for the next slot, exactly as under per-pair dispatch
  // (now() already sits at the flush boundary either way).
  if (sink_ && !rx_records_.empty()) sink_(RxBatch{rx_records_.data(), rx_records_.size()});
}

void RadioMedium::reserve_delivery(std::size_t max_tx_per_slot) {
  pending_.reserve(max_tx_per_slot);
  flushing_.reserve(max_tx_per_slot);
  if (buckets_.size() < devices_.size()) buckets_.resize(devices_.size());
  touched_.reserve(devices_.size());
  for (std::vector<Audible>& bucket : buckets_) bucket.reserve(max_tx_per_slot);
  // Worst case one decoded record per (transmission, receiver) pair; the
  // soak heap gate needs this buffer to hit its lifetime-record size during
  // warm-up, so reserve for the storm, not the steady state.
  rx_records_.reserve(std::min<std::size_t>(max_tx_per_slot * devices_.size(), 1u << 20));
  res_key_.reserve(max_tx_per_slot);
  group_next_.reserve(max_tx_per_slot);
  aud_mw_.reserve(max_tx_per_slot);
}

RadioMedium::StateSnapshot RadioMedium::save_state() const {
  StateSnapshot snap;
  snap.counters = counters_;
  snap.pending = pending_;
  snap.flushing = flushing_;
  snap.flush_scheduled = flush_scheduled_;
  snap.down = down_;
  snap.down_count = down_count_;
  return snap;
}

void RadioMedium::restore_state(const StateSnapshot& snap) {
  counters_ = snap.counters;
  pending_ = snap.pending;
  flushing_ = snap.flushing;
  flush_scheduled_ = snap.flush_scheduled;
  down_ = snap.down;
  down_count_ = snap.down_count;
  // The collision prepass tags per-resource slots with the current epoch and
  // pre-increments before each bucket, so rewinding the epoch to zero (no
  // slot carries tag 0 after a fill) is equivalent to clearing the table.
  group_epoch_ = 0;
  std::fill(std::begin(group_seen_), std::end(group_seen_), std::uint64_t{0});
}

}  // namespace firefly::mac
