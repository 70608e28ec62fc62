// Tests for fast-fading models (src/phy/fading.hpp): the one-uniform
// contract the radio's batched sweep relies on, and the models' statistics
// (cross-checked against an independent Nakagami-1 sampler).
#include "phy/fading.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace {

using namespace firefly::phy;
using firefly::util::Rng;

TEST(NoFading, Zero) {
  NoFading model;
  Rng rng(1);
  EXPECT_DOUBLE_EQ(model.sample(rng).value, 0.0);
  EXPECT_DOUBLE_EQ(model.mean_power_gain(), 1.0);
}

TEST(FadingContract, SampleGainIsOneUniformThroughTheTransform) {
  // sample_gain(rng) == gain_from_uniform(rng.unit_open()), bit for bit,
  // and it leaves the generator exactly one step on: the radio draws a
  // slice's uniforms in one batch and transforms only the survivors.
  const RayleighFading rayleigh;
  const NoFading none;
  for (const FadingModel* model : std::vector<const FadingModel*>{&rayleigh, &none}) {
    Rng sampled(21), raw(21);
    for (int i = 0; i < 10000; ++i) {
      const double gain = model->sample_gain(sampled);
      ASSERT_EQ(gain, model->gain_from_uniform(raw.unit_open())) << "draw " << i;
    }
    EXPECT_EQ(sampled.bits(), raw.bits()) << "generator states diverged";
  }
}

TEST(FadingContract, SkipBoundIsConservative) {
  // u >= skip_u(g) must imply gain < g: a skipped draw is provably below
  // the gain the reception needed.  Checked at skip_u itself, the next
  // representable uniform above it, and a grid of uniforms over (0, 1).
  const RayleighFading rayleigh;
  const NoFading none;
  std::vector<double> uniforms;
  for (int i = 1; i < 4096; ++i) uniforms.push_back(i / 4096.0);
  for (const double g : {0.0, 1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 1.0, 1.5, 2.0,
                         5.0, 10.0, 20.0, 40.0}) {
    for (const FadingModel* model : std::vector<const FadingModel*>{&rayleigh, &none}) {
      const double bound = model->skip_u(g);
      std::vector<double> probes = uniforms;
      probes.push_back(bound);
      probes.push_back(std::nextafter(bound, 2.0));
      for (const double u : probes) {
        if (!(u > 0.0 && u < 1.0) || u < bound) continue;
        EXPECT_LT(model->gain_from_uniform(u), g) << "g=" << g << " u=" << u;
      }
    }
  }
}

/// Nakagami-m power gain ~ Gamma(m, 1/m), unit mean; m = 1 is Rayleigh.
/// Drawn by Marsaglia–Tsang rather than from one uniform, so it is an
/// independent reference for RayleighFading (and not a FadingModel).
double nakagami_gain(Rng& rng, double m) { return rng.gamma(m, 1.0 / m); }

double empirical_mean_gain(const FadingModel& model, int n, std::uint64_t seed) {
  Rng rng(seed);
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += std::pow(10.0, -model.sample(rng).value / 10.0);
  }
  return sum / n;
}

TEST(Rayleigh, UnitMeanPowerGain) {
  RayleighFading model;
  EXPECT_NEAR(empirical_mean_gain(model, 200000, 2), 1.0, 0.02);
}

TEST(Rayleigh, MedianLossNearOnePointSixDb) {
  // Median of Exp(1) is ln 2 → median loss = -10·log10(ln 2) ≈ 1.59 dB.
  RayleighFading model;
  Rng rng(3);
  int deeper = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (model.sample(rng).value > 1.59) ++deeper;
  }
  EXPECT_NEAR(deeper / static_cast<double>(n), 0.5, 0.01);
}

TEST(Rayleigh, DeepFadesAreBounded) {
  // The -60 dB gain floor keeps losses finite.
  RayleighFading model;
  Rng rng(4);
  for (int i = 0; i < 200000; ++i) {
    const double loss = model.sample(rng).value;
    ASSERT_LE(loss, 60.0 + 1e-9);
    ASSERT_TRUE(std::isfinite(loss));
  }
}

class NakagamiParamTest : public ::testing::TestWithParam<double> {};

TEST_P(NakagamiParamTest, UnitMeanPowerGain) {
  const double m = GetParam();
  Rng rng(5);
  const int n = 150000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += nakagami_gain(rng, m);
  EXPECT_NEAR(sum / n, 1.0, 0.025) << "m=" << m;
}

TEST_P(NakagamiParamTest, VarianceShrinksWithM) {
  // Power gain ~ Gamma(m, 1/m): variance = 1/m.
  const double m = GetParam();
  Rng rng(6);
  const int n = 150000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = nakagami_gain(rng, m);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(var, 1.0 / m, 0.1 / m + 0.01) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(SweepM, NakagamiParamTest, ::testing::Values(0.5, 1.0, 2.0, 4.0));

TEST(Nakagami, MEqualsOneMatchesRayleighDistribution) {
  // Nakagami-1 is Rayleigh: compare empirical exceedance at a few points.
  const RayleighFading ray;
  Rng rng_n(7), rng_r(7);
  const int n = 100000;
  int nak_deep = 0, ray_deep = 0;
  for (int i = 0; i < n; ++i) {
    if (nakagami_gain(rng_n, 1.0) < 0.1) ++nak_deep;  // a fade deeper than 10 dB
    if (ray.sample(rng_r).value > 10.0) ++ray_deep;
  }
  EXPECT_NEAR(nak_deep / static_cast<double>(n), ray_deep / static_cast<double>(n), 0.01);
}

}  // namespace
