// Unit tests for the RNG substrate: determinism, range contracts, stream
// independence and distributional sanity of the deviate generators.

#include "stats/random.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/distributions.hpp"
#include "stats/gof_tests.hpp"
#include "stats/ziggurat.hpp"

namespace {

using reldiv::stats::rng;

TEST(SplitMix64, IsDeterministicAndNonTrivial) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  EXPECT_EQ(reldiv::stats::splitmix64_next(s1), reldiv::stats::splitmix64_next(s2));
  EXPECT_NE(s1, 42u);  // state advanced
  const std::uint64_t a = reldiv::stats::splitmix64_next(s1);
  const std::uint64_t b = reldiv::stats::splitmix64_next(s1);
  EXPECT_NE(a, b);
}

TEST(Rng, SameSeedSameStream) {
  rng a(123);
  rng b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  rng a(1);
  rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, UniformInUnitInterval) {
  rng r(99);
  for (int i = 0; i < 100000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRange) {
  rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform(-3.0, 2.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 2.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  rng r(2024);
  reldiv::stats::running_moments m;
  for (int i = 0; i < 200000; ++i) m.add(r.uniform());
  EXPECT_NEAR(m.mean(), 0.5, 0.005);
  EXPECT_NEAR(m.variance(), 1.0 / 12.0, 0.002);
}

TEST(Rng, BelowRespectsBoundAndCoversRange) {
  rng r(31);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t v = r.below(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowOneAlwaysZero) {
  rng r(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BernoulliFrequency) {
  rng r(17);
  int hits = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  rng r(18);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, JumpedStreamsDoNotCollide) {
  rng a = rng::stream(555, 0);
  rng b = rng::stream(555, 1);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, StreamIndexingIsStable) {
  rng a = rng::stream(9, 3);
  rng b = rng::stream(9, 3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a(), b());
}

TEST(NormalDeviate, MomentsMatchStandardNormal) {
  rng r(77);
  reldiv::stats::running_moments m;
  for (int i = 0; i < 300000; ++i) m.add(reldiv::stats::normal_deviate(r));
  EXPECT_NEAR(m.mean(), 0.0, 0.01);
  EXPECT_NEAR(m.variance(), 1.0, 0.02);
  EXPECT_NEAR(m.skewness(), 0.0, 0.05);
  EXPECT_NEAR(m.excess_kurtosis(), 0.0, 0.1);
}

TEST(NormalDeviate, FirstOutputsArePinned) {
  // normal_deviate feeds the copula sampler, the demand profiles and the
  // universe generators, whose outputs are fingerprinted: its stream must
  // not drift.  fill_normals is a separate generator and leaves it alone.
  rng r(20010701);
  const double pinned[] = {0x1.cab4be7e74963p-3,  -0x1.d033ada05d88fp+0, -0x1.7b0e96b44e0fep-4,
                           -0x1.a4c3a685867d7p-1, -0x1.134a3382ecc7dp-1, -0x1.220056689e2d5p+0};
  for (const double v : pinned) EXPECT_DOUBLE_EQ(reldiv::stats::normal_deviate(r), v);
}

TEST(Ziggurat, TablesCloseEveryLayerAtTheSameArea) {
  namespace z = reldiv::stats::ziggurat;
  EXPECT_EQ(z::kX[1], z::kR);
  EXPECT_EQ(z::kX[z::kLayers], 0.0);
  EXPECT_EQ(z::kF[z::kLayers], 1.0);
  for (int i = 0; i <= z::kLayers; ++i) {
    EXPECT_NEAR(z::kF[i], std::exp(-0.5 * z::kX[i] * z::kX[i]), 1e-15) << i;
  }
  // Base strip: rectangle to kR plus the tail, drawn with virtual width kX[0].
  const double tail = std::sqrt(2.0 * std::acos(-1.0)) * (1.0 - reldiv::stats::normal_cdf(z::kR));
  EXPECT_NEAR(z::kR * z::kF[1] + tail, z::kV, 1e-12);
  EXPECT_NEAR(z::kX[0] * z::kF[1], z::kV, 1e-15);
  for (int i = 1; i < z::kLayers; ++i) {
    EXPECT_NEAR(z::kX[i] * (z::kF[i + 1] - z::kF[i]), z::kV, 1e-15) << i;
  }
}

TEST(FillNormals, MatchesStandardNormal) {
  constexpr std::size_t n = 1'000'000;
  std::vector<double> x(n);
  rng r(1406);
  reldiv::stats::fill_normals(r, x);
  reldiv::stats::running_moments m;
  std::size_t positive = 0;
  std::size_t tail = 0;
  for (const double v : x) {
    m.add(v);
    if (v > 0.0) ++positive;
    if (std::fabs(v) > reldiv::stats::ziggurat::kR) ++tail;
  }
  const auto gof = reldiv::stats::kolmogorov_smirnov(
      x, [](double v) { return reldiv::stats::normal_cdf(v); });
  EXPECT_GT(gof.p_value, 1e-3) << "D = " << gof.statistic;
  const double sd = 1.0 / std::sqrt(static_cast<double>(n));
  EXPECT_NEAR(m.mean(), 0.0, 5.0 * sd);
  EXPECT_NEAR(m.variance(), 1.0, 5.0 * std::sqrt(2.0) * sd);
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 2.5 * sd);
  // The tail path is taken: P(|Z| > kR) = 2.58e-4, about 258 +- 16 draws.
  const double p_tail = 2.0 * (1.0 - reldiv::stats::normal_cdf(reldiv::stats::ziggurat::kR));
  EXPECT_NEAR(static_cast<double>(tail), p_tail * n, 5.0 * std::sqrt(p_tail * n));
}

TEST(FillNormals, BlockSplitDoesNotChangeTheStream) {
  // No state is buffered across calls: one fill of 300 equals three of 100.
  std::vector<double> whole(300);
  std::vector<double> parts(300);
  rng a(5);
  rng b(5);
  reldiv::stats::fill_normals(a, whole);
  for (std::size_t i = 0; i < 3; ++i) {
    reldiv::stats::fill_normals(b, std::span<double>(parts).subspan(100 * i, 100));
  }
  EXPECT_EQ(whole, parts);
  EXPECT_EQ(a(), b());
}

TEST(GammaDeviate, MomentsMatchShape) {
  rng r(88);
  for (const double shape : {0.5, 1.0, 2.5, 9.0}) {
    reldiv::stats::running_moments m;
    for (int i = 0; i < 100000; ++i) m.add(reldiv::stats::gamma_deviate(r, shape));
    EXPECT_NEAR(m.mean(), shape, 0.05 * shape + 0.02) << "shape=" << shape;
    EXPECT_NEAR(m.variance(), shape, 0.08 * shape + 0.05) << "shape=" << shape;
  }
}

TEST(GammaDeviate, RejectsNonPositiveShape) {
  rng r(1);
  EXPECT_THROW((void)reldiv::stats::gamma_deviate(r, 0.0), std::invalid_argument);
  EXPECT_THROW((void)reldiv::stats::gamma_deviate(r, -1.0), std::invalid_argument);
}

TEST(BetaDeviate, MomentsMatch) {
  rng r(4);
  const double a = 2.0;
  const double b = 5.0;
  reldiv::stats::running_moments m;
  for (int i = 0; i < 100000; ++i) m.add(reldiv::stats::beta_deviate(r, a, b));
  EXPECT_NEAR(m.mean(), a / (a + b), 0.005);
  EXPECT_NEAR(m.variance(), a * b / ((a + b) * (a + b) * (a + b + 1.0)), 0.002);
}

TEST(BetaDeviate, StaysInUnitInterval) {
  rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double x = reldiv::stats::beta_deviate(r, 0.5, 0.5);
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, 1.0);
  }
}

TEST(BetaDeviate, RejectsBadParameters) {
  rng r(1);
  EXPECT_THROW((void)reldiv::stats::beta_deviate(r, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)reldiv::stats::beta_deviate(r, 1.0, -2.0), std::invalid_argument);
}

}  // namespace
