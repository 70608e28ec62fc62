// shadowing.hpp — log-normal shadow fading (paper eq. 9).
//
// The paper models medium-scale fading as a zero-mean Gaussian `x` in dB
// with standard deviation σ = 10 dB (Table I).  For a *static* deployment a
// link's shadowing is constant over the run (obstructions don't move), so
// the default model draws once per unordered link and memoises — this also
// makes the link symmetric, which the ranging analysis assumes.  Every
// model's gain is bounded, so the radio's candidate range is always finite.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace firefly::phy {

class ShadowingModel {
 public:
  virtual ~ShadowingModel() = default;
  /// Shadowing loss in dB for the (a, b) link (may be negative = gain).
  [[nodiscard]] virtual util::Db sample(std::uint32_t a, std::uint32_t b) = 0;
  /// Like `sample`, but guaranteed not to grow memoised state — the
  /// spatial-index bulk rebuilds use it so scanning millions of candidate
  /// pairs does not inflate the per-link cache.  Models without a memo
  /// simply forward to `sample`.
  [[nodiscard]] virtual util::Db sample_uncached(std::uint32_t a, std::uint32_t b) {
    return sample(a, b);
  }
  [[nodiscard]] virtual double sigma_db() const = 0;
  /// Finite upper bound on the shadowing *gain* (−sample) in dB, used to
  /// bound the maximum detectable range for spatial pruning.
  [[nodiscard]] virtual double max_gain_db() const = 0;
  /// Invalidate memoised link state after large-scale movement; models
  /// without memoised state ignore it.
  virtual void invalidate() {}
};

/// No shadowing (σ = 0): for deterministic unit tests.
class NoShadowing final : public ShadowingModel {
 public:
  [[nodiscard]] util::Db sample(std::uint32_t, std::uint32_t) override { return util::Db{0.0}; }
  [[nodiscard]] double sigma_db() const override { return 0.0; }
  [[nodiscard]] double max_gain_db() const override { return 0.0; }
};

/// One Gaussian draw per unordered link: the static-scenario model.
/// Symmetric by construction: sample(a,b) == sample(b,a).
///
/// The draw is *hash-derived* from (seed, link, epoch) rather than consumed
/// from a sequential stream, so a link's value never depends on which other
/// links were queried first — the property that lets the spatial-index
/// radio path evaluate exactly the same channel as a dense scan.  Draws are
/// clamped at ±`kClampSigmas`·σ, giving the hard `max_gain_db` bound that
/// makes range-based candidate pruning exact; the clamp shifts the per-link
/// variance by < 0.5% (truncation probability ≈ 2.7e-3 per link).
/// `sample` memoises into a per-link cache (the protocols' per-link queries);
/// `sample_uncached` recomputes the identical value without touching it.
class PerLinkShadowing final : public ShadowingModel {
 public:
  /// Truncation point for link draws, in standard deviations.
  static constexpr double kClampSigmas = 3.0;

  PerLinkShadowing(double sigma_db, std::uint64_t seed) : sigma_(sigma_db), seed_(seed) {}
  /// Compatibility constructor: derives the hash seed from the stream.
  PerLinkShadowing(double sigma_db, util::Rng rng) : sigma_(sigma_db), seed_(rng.bits()) {}

  [[nodiscard]] util::Db sample(std::uint32_t a, std::uint32_t b) override;
  [[nodiscard]] util::Db sample_uncached(std::uint32_t a, std::uint32_t b) override {
    return util::Db{draw(a, b)};
  }
  [[nodiscard]] double sigma_db() const override { return sigma_; }
  [[nodiscard]] double max_gain_db() const override { return kClampSigmas * sigma_; }
  /// Decorrelate every link (epoch bump) and drop the memoised draws.
  void reset() {
    ++epoch_;
    cache_.clear();
  }
  void invalidate() override { reset(); }

 private:
  [[nodiscard]] double draw(std::uint32_t a, std::uint32_t b) const;

  double sigma_;
  std::uint64_t seed_;
  std::uint64_t epoch_ = 0;
  std::unordered_map<std::uint64_t, double> cache_;
};

}  // namespace firefly::phy
