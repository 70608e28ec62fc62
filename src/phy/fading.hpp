// fading.hpp — small-scale (fast) fading.
//
// Table I specifies "UMi (NLOS)" fast fading.  NLOS small-scale fading is
// classically Rayleigh: the power gain is exponential with unit mean, i.e.
// −10·log10(Exp(1)) dB of extra loss per slot.  Fast fading is redrawn
// every slot, unlike shadowing which is static per link.
//
// Every model draws exactly one uniform per reception: the gain is a
// transform of that one generator step.  The radio relies on this to draw
// a whole slice of fades in one batched fill, discard provably
// sub-threshold receptions on the raw uniform and pay the transform only
// for the rest.
#pragma once

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace firefly::phy {

class FadingModel {
 public:
  /// Floor on the linear power gain: a deep fade produces a large but
  /// finite loss (60 dB) rather than −inf, which would poison dB
  /// arithmetic.
  static constexpr double kGainFloor = 1e-6;

  virtual ~FadingModel() = default;
  /// The linear power gain (unit mean) for one uniform draw u ∈ (0, 1).
  [[nodiscard]] virtual double gain_from_uniform(double u) const = 0;
  /// Conservative uniform bound: u ≥ skip_u(g) guarantees the gain is
  /// below g.  Default 2.0 (> any uniform) never skips.
  [[nodiscard]] virtual double skip_u(double /*min_gain*/) const { return 2.0; }
  [[nodiscard]] virtual double mean_power_gain() const = 0;

  /// Linear power gain for one reception: one generator step.
  [[nodiscard]] double sample_gain(util::Rng& rng) const {
    return gain_from_uniform(rng.unit_open());
  }
  /// Extra loss in dB for one reception (negative values = constructive).
  [[nodiscard]] util::Db sample(util::Rng& rng) const { return loss_from_gain(sample_gain(rng)); }

  /// dB loss for a linear power gain, floored at `kGainFloor`.
  [[nodiscard]] static util::Db loss_from_gain(double gain) {
    return util::Db{-10.0 * std::log10(std::max(gain, kGainFloor))};
  }
};

/// No fast fading: deterministic tests and analytic validation.  Still
/// draws (and ignores) one uniform per reception, like every model.
class NoFading final : public FadingModel {
 public:
  [[nodiscard]] double gain_from_uniform(double /*u*/) const override { return 1.0; }
  [[nodiscard]] double mean_power_gain() const override { return 1.0; }
};

/// Rayleigh fading: power gain ~ Exp(1), drawn as −ln(u).
class RayleighFading final : public FadingModel {
 public:
  [[nodiscard]] double gain_from_uniform(double u) const override { return -std::log(u); }
  [[nodiscard]] double mean_power_gain() const override { return 1.0; }

  // Gain = −ln(u) is a decreasing transform of one uniform step, so
  // "gain < g" is exactly "u > e^{−g}"; the 1e-12 relative slack absorbs
  // the rounding of exp/log (≲1 ulp each), keeping the skip conservative —
  // borderline draws fall through to the exact dBm comparison.
  [[nodiscard]] double skip_u(double min_gain) const override {
    return std::exp(-min_gain) * (1.0 + 1e-12);
  }
};

}  // namespace firefly::phy
