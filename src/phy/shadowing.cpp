#include "phy/shadowing.hpp"

#include <algorithm>
#include <cmath>

namespace firefly::phy {

double PerLinkShadowing::draw(std::uint32_t a, std::uint32_t b) const {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 32) | hi;
  // Hash-derived Box–Muller draw: identical regardless of query order.
  util::SplitMix64 mixer(seed_ ^ (key * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL) ^
                         (epoch_ * 0xA0761D6478BD642FULL));
  const double u1 = (static_cast<double>(mixer.next() >> 11) + 0.5) * 0x1.0p-53;
  const double u2 = static_cast<double>(mixer.next() >> 11) * 0x1.0p-53;
  const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return sigma_ * std::clamp(z, -kClampSigmas, kClampSigmas);
}

util::Db PerLinkShadowing::sample(std::uint32_t a, std::uint32_t b) {
  const std::uint32_t lo = std::min(a, b);
  const std::uint32_t hi = std::max(a, b);
  const std::uint64_t key = (static_cast<std::uint64_t>(lo) << 32) | hi;
  const auto it = cache_.find(key);
  if (it != cache_.end()) return util::Db{it->second};
  const double value = draw(a, b);
  cache_.emplace(key, value);
  return util::Db{value};
}

}  // namespace firefly::phy
