// Tests for the PHY extensions: the Rician reference sampler that
// cross-checks the Rayleigh model, and the noise floor in the capture rule.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "phy/fading.hpp"
#include "phy/shadowing.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;
using util::Rng;

/// One linear power gain drawn by a sampler from `rng`.
using GainSampler = std::function<double(Rng&)>;

/// Rician power gain with K-factor `k` (LOS-dominated links): the amplitude
/// is |sqrt(K/(K+1)) + CN(0, 1/(K+1))|, unit mean power.  K = 0 is
/// Rayleigh, drawn from two Gaussians instead of one uniform, so it is an
/// independent reference for phy::RayleighFading.  Not a phy::FadingModel:
/// it needs more than one uniform per reception.
GainSampler rician(double k) {
  return [k](Rng& rng) {
    const double los = std::sqrt(k / (k + 1.0));
    const double scatter_scale = std::sqrt(1.0 / (2.0 * (k + 1.0)));
    const double re = los + scatter_scale * rng.normal();
    const double im = scatter_scale * rng.normal();
    return re * re + im * im;
  };
}

GainSampler model_gain(const phy::FadingModel& model) {
  return [&model](Rng& rng) { return model.sample_gain(rng); };
}

/// dB loss of one draw, floored like the models' own `sample`.
double sample_loss_db(const GainSampler& gain, Rng& rng) {
  return phy::FadingModel::loss_from_gain(gain(rng)).value;
}

double empirical_mean_gain(const GainSampler& gain, int n, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += std::pow(10.0, -sample_loss_db(gain, rng) / 10.0);
  return sum / n;
}

double empirical_gain_variance(const GainSampler& gain, int n, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = std::pow(10.0, -sample_loss_db(gain, rng) / 10.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  return sum2 / n - mean * mean;
}

class RicianKTest : public ::testing::TestWithParam<double> {};

TEST_P(RicianKTest, UnitMeanPower) {
  EXPECT_NEAR(empirical_mean_gain(rician(GetParam()), 150000, 11), 1.0, 0.02)
      << "K=" << GetParam();
}

TEST_P(RicianKTest, VarianceMatchesTheory) {
  // Rician power gain variance = (2K+1)/(K+1)².
  const double k = GetParam();
  const double expected = (2.0 * k + 1.0) / ((k + 1.0) * (k + 1.0));
  EXPECT_NEAR(empirical_gain_variance(rician(k), 150000, 13), expected, 0.08 * expected + 0.01)
      << "K=" << k;
}

INSTANTIATE_TEST_SUITE_P(SweepK, RicianKTest, ::testing::Values(0.0, 1.0, 4.0, 10.0));

TEST(Rician, KZeroMatchesRayleighStatistics) {
  const phy::RayleighFading rayleigh;
  EXPECT_NEAR(empirical_gain_variance(rician(0.0), 200000, 17),
              empirical_gain_variance(model_gain(rayleigh), 200000, 17), 0.05);
}

TEST(Rician, LargeKApproachesNoFading) {
  const GainSampler gain = rician(100.0);
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(sample_loss_db(gain, rng), 0.0, 3.0);  // within ±3 dB
  }
}

TEST(NoiseFloor, DefaultSitsBelowDetectionThreshold) {
  const phy::RadioParams params;
  EXPECT_LT(params.noise_floor.value, params.detection_threshold.value);
  EXPECT_NEAR(params.detection_threshold.value - params.noise_floor.value, 9.0, 1e-9);
}

TEST(NoiseFloor, NoiseBreaksMarginalCapture) {
  // Geometry built so the wanted signal arrives at −60 dBm and the
  // same-preamble interferer at −64 dBm: 4 dB of SIR, just above the 3 dB
  // capture margin.  With a negligible noise floor the capture succeeds;
  // raising the noise floor to the interferer's level (−64 dBm) turns the
  // denominator into −61 dBm, SINR drops to 1 dB, and the capture fails.
  auto run_with_noise = [](double noise_dbm) {
    sim::Simulator sim;
    phy::RadioParams params;
    params.noise_floor = util::Dbm{noise_dbm};
    auto channel = std::make_unique<phy::Channel>(
        params, std::make_unique<phy::PaperDualSlope>(),
        std::make_unique<phy::NoShadowing>(), std::make_unique<phy::NoFading>(),
        Rng(1));
    mac::RadioMedium radio(&sim, channel.get(), 3.0);
    int heard = 0;
    // PL(d)=83 dB -> d=10^(43/40)≈11.885 m: rx = 23−83 = −60 dBm.
    radio.add_device(0, {10.0 + 11.885, 0.0});
    // PL(d)=87 dB -> d≈14.962 m on the other side: rx = −64 dBm.
    radio.add_device(1, {10.0 - 14.962, 0.0});
    radio.set_delivery_sink([&](const mac::RxBatch& batch) {
      for (std::size_t k = 0; k < batch.count; ++k) {
        if (batch.records[k].rx_index == 2 && batch.records[k].sender == 0) ++heard;
      }
    });
    radio.add_device(2, {10.0, 0.0});
    sim.schedule_at(sim::SimTime::zero(), [&] {
      radio.broadcast(0, {mac::RachCodec::kRach1, 9}, mac::PsType::kSyncPulse, 0);
      radio.broadcast(1, {mac::RachCodec::kRach1, 9}, mac::PsType::kSyncPulse, 0);
    });
    sim.run();
    return heard;
  };
  EXPECT_EQ(run_with_noise(-200.0), 1);  // quiet: capture succeeds
  EXPECT_EQ(run_with_noise(-64.0), 0);   // noisy: capture fails
}

}  // namespace
