// Protection-system simulator (Fig. 1): channel semantics, OR adjudication,
// and the integration property that campaign PFDs match the geometric model.

#include "protection/system.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "stats/gof_tests.hpp"
#include "stats/special_functions.hpp"

namespace {

using namespace reldiv;
using namespace reldiv::protection;
using reldiv::demand::box;
using reldiv::demand::make_box_region;

TEST(SoftwareChannel, FailsExactlyInsideItsRegions) {
  software_channel ch({make_box_region(box({0.0, 0.0}, {0.2, 0.2}))});
  EXPECT_FALSE(ch.responds_correctly({0.1, 0.1}));
  EXPECT_TRUE(ch.responds_correctly({0.5, 0.5}));
  EXPECT_EQ(ch.fault_count(), 1u);
  software_channel perfect;
  EXPECT_TRUE(perfect.responds_correctly({0.1, 0.1}));
}

TEST(OneOutOfTwo, OrAdjudication) {
  software_channel a({make_box_region(box({0.0, 0.0}, {0.5, 1.0}))});  // fails left half
  software_channel b({make_box_region(box({0.25, 0.0}, {0.75, 1.0}))});
  one_out_of_two sys(a, b);
  EXPECT_TRUE(sys.responds_correctly({0.1, 0.5}));   // b ok
  EXPECT_TRUE(sys.responds_correctly({0.6, 0.5}));   // a ok
  EXPECT_FALSE(sys.responds_correctly({0.3, 0.5}));  // both fail: common region
  EXPECT_TRUE(sys.responds_correctly({0.9, 0.5}));   // both ok
}

TEST(DevelopChannel, RespectsFaultProbabilities) {
  const std::vector<demand::region_fault> faults = {
      {make_box_region(box({0.0, 0.0}, {0.1, 0.1})), 1.0},
      {make_box_region(box({0.5, 0.5}, {0.6, 0.6})), 0.0}};
  stats::rng r(1);
  const auto ch = develop_channel(faults, r);
  EXPECT_EQ(ch.fault_count(), 1u);
  EXPECT_FALSE(ch.responds_correctly({0.05, 0.05}));
  EXPECT_TRUE(ch.responds_correctly({0.55, 0.55}));
}

TEST(Campaign, PfdsMatchGeometryUnderUniformDemands) {
  // Channel A fails on a 0.1-measure strip, channel B on a 0.1-measure
  // strip overlapping A on 0.05: the system PFD is the overlap measure.
  software_channel a({make_box_region(box({0.0, 0.0}, {0.1, 1.0}))});
  software_channel b({make_box_region(box({0.05, 0.0}, {0.15, 1.0}))});
  one_out_of_two sys(a, b);
  const demand::uniform_profile prof(box::unit(2));
  stats::rng r(2);
  const auto res = run_profile_campaign(prof, sys, 400000, r);
  EXPECT_NEAR(res.channel_a_pfd(), 0.10, 0.003);
  EXPECT_NEAR(res.channel_b_pfd(), 0.10, 0.003);
  EXPECT_NEAR(res.system_pfd(), 0.05, 0.002);
  EXPECT_TRUE(res.system_pfd_ci(0.99).contains(0.05));
  // 1-out-of-2 never does worse than either channel.
  EXPECT_LE(res.system_pfd(), std::min(res.channel_a_pfd(), res.channel_b_pfd()));
}

TEST(Campaign, IdenticalChannelsGainNothing) {
  // The degenerate "no diversity" case: both channels carry the same fault.
  const auto region = make_box_region(box({0.4, 0.4}, {0.6, 0.6}));
  software_channel a({region});
  software_channel b({region});
  one_out_of_two sys(a, b);
  const demand::uniform_profile prof(box::unit(2));
  stats::rng r(3);
  const auto res = run_profile_campaign(prof, sys, 100000, r);
  EXPECT_EQ(res.system_failures, res.channel_a_failures);
  EXPECT_EQ(res.system_failures, res.channel_b_failures);
}

TEST(Plant, ProducesDemandsInUnitBox) {
  plant::config cfg;
  plant pl(cfg);
  stats::rng r(4);
  for (int i = 0; i < 200; ++i) {
    const auto x = pl.next_demand(r);
    ASSERT_EQ(x.size(), cfg.dims);
    for (const double v : x) {
      ASSERT_GE(v, 0.0);
      ASSERT_LE(v, 1.0);
    }
  }
}

TEST(Plant, DemandsClusterNearTripBoundary) {
  // Demands are threshold crossings, so the normalized coordinates should
  // concentrate away from the centre (0.5 would be the setpoint).
  plant::config cfg;
  plant pl(cfg);
  stats::rng r(5);
  int extreme = 0;
  const int n = 500;
  for (int i = 0; i < n; ++i) {
    const auto x = pl.next_demand(r);
    for (const double v : x) {
      if (std::fabs(v - 0.5) >= 0.19) {  // |state| >= ~0.76*threshold
        ++extreme;
        break;
      }
    }
  }
  EXPECT_GT(extreme, n / 2);
}

TEST(Plant, Validation) {
  plant::config bad;
  bad.dims = 0;
  EXPECT_THROW(plant{bad}, std::invalid_argument);
  plant::config bad2;
  bad2.volatility = 0.0;
  EXPECT_THROW(plant{bad2}, std::invalid_argument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto rejects = [](auto edit) {
    plant::config cfg;
    edit(cfg);
    EXPECT_THROW(plant{cfg}, std::invalid_argument);
  };
  rejects([&](plant::config& c) { c.transient_rate = nan; });
  rejects([](plant::config& c) { c.transient_rate = -0.01; });
  rejects([](plant::config& c) { c.transient_rate = 1.5; });
  rejects([&](plant::config& c) { c.transient_size = inf; });
  rejects([&](plant::config& c) { c.transient_size = nan; });
  rejects([&](plant::config& c) { c.trip_threshold = inf; });
  rejects([&](plant::config& c) { c.trip_threshold = nan; });
  rejects([&](plant::config& c) { c.volatility = inf; });
  rejects([](plant::config& c) { c.max_steps_per_demand = 0; });
  plant::config stuck;
  stuck.volatility = 1e-9;
  stuck.transient_rate = 0.0;
  stuck.max_steps_per_demand = 100;
  plant pl(stuck);
  stats::rng r(6);
  EXPECT_THROW((void)pl.next_demand(r), std::runtime_error);
}

TEST(Plant, RateZeroNeverKicks) {
  // A single kick would trip at once; with rate 0 none comes, so the
  // near-silent plant runs out of steps.  Tiny positive rates take the
  // saturated-gap path (the gap overflows any step count) the same way.
  for (const double rate : {0.0, 1e-300, std::numeric_limits<double>::denorm_min()}) {
    plant::config cfg;
    cfg.volatility = 1e-9;
    cfg.transient_rate = rate;
    cfg.transient_size = 100.0;
    cfg.max_steps_per_demand = 1000;
    plant pl(cfg);
    stats::rng r(61);
    EXPECT_THROW((void)pl.next_demand(r), std::runtime_error) << rate;
  }
}

TEST(Plant, RateOneKicksEveryStep) {
  // Full reversion keeps no memory, so each step's state is its kick plus
  // negligible noise: with a one-step budget every call must trip on its
  // first step's kick, in both directions over many calls.
  plant::config cfg;
  cfg.reversion = 1.0;
  cfg.volatility = 1e-9;
  cfg.transient_rate = 1.0;
  cfg.transient_size = 1.0;
  cfg.max_steps_per_demand = 1;
  plant pl(cfg);
  stats::rng r(62);
  std::array<int, 2> up{};
  for (int i = 0; i < 400; ++i) {
    const auto x = pl.next_demand(r);
    for (const double v : x) {
      ASSERT_NEAR(std::fabs(v - 0.5), 1.0 / (4.0 * cfg.trip_threshold), 1e-6);
      ++up[v > 0.5 ? 1 : 0];
    }
  }
  EXPECT_GT(up[0], 300);
  EXPECT_GT(up[1], 300);
}

// The step-by-step plant loop that next_demand replaced, kept verbatim as
// the oracle of the distributional contract: one polar-method normal and
// one Bernoulli kick trial per dimension and step.
class reference_plant {
 public:
  explicit reference_plant(plant::config cfg) : cfg_(cfg), state_(cfg.dims, 0.0) {}

  demand::point next_demand(stats::rng& r) {
    for (std::uint64_t step = 0; step < cfg_.max_steps_per_demand; ++step) {
      bool tripped = false;
      for (auto& s : state_) {
        s += -cfg_.reversion * s + cfg_.volatility * stats::normal_deviate(r);
        if (r.bernoulli(cfg_.transient_rate)) {
          s += cfg_.transient_size * (r.bernoulli(0.5) ? 1.0 : -1.0);
        }
        if (std::fabs(s) >= cfg_.trip_threshold) tripped = true;
      }
      if (tripped) {
        // Normalize the excursion snapshot to the unit box: map deviation in
        // [-2*threshold, 2*threshold] to [0,1], clamped.
        demand::point x(state_.size());
        for (std::size_t d = 0; d < state_.size(); ++d) {
          x[d] = std::clamp(0.5 + state_[d] / (4.0 * cfg_.trip_threshold), 0.0, 1.0);
        }
        // Reset toward normal operation after the event.
        std::fill(state_.begin(), state_.end(), 0.0);
        return x;
      }
    }
    throw std::runtime_error("plant: no demand within max_steps_per_demand");
  }

 private:
  plant::config cfg_;
  std::vector<double> state_;
};

/// Which coordinate tripped (the farthest from the setpoint) and its sign:
/// category 2 * dim + (above the setpoint).
std::size_t trip_arm(const demand::point& x) {
  std::size_t arm = 0;
  for (std::size_t d = 1; d < x.size(); ++d) {
    if (std::fabs(x[d] - 0.5) > std::fabs(x[arm] - 0.5)) arm = d;
  }
  return 2 * arm + (x[arm] > 0.5 ? 1 : 0);
}

/// Two-sample KS per coordinate and on the untripped coordinates' distance
/// from the setpoint (the OU spread at the trip), and a chi-square
/// homogeneity test on the tripped arm and sign: block kernel against the
/// reference loop.
void expect_same_demand_law(const plant::config& cfg, int demands, std::uint64_t seed) {
  plant fast(cfg);
  reference_plant slow(cfg);
  stats::rng rf(seed);
  stats::rng rs(seed + 1);
  std::vector<std::vector<double>> xf(cfg.dims), xs(cfg.dims);
  std::vector<double> quiet_f, quiet_s;
  std::vector<double> arms_f(2 * cfg.dims, 0.0), arms_s(2 * cfg.dims, 0.0);
  auto record = [&](const demand::point& x, std::vector<std::vector<double>>& coords,
                    std::vector<double>& quiet, std::vector<double>& arms) {
    const std::size_t arm = trip_arm(x);
    for (std::size_t d = 0; d < cfg.dims; ++d) {
      coords[d].push_back(x[d]);
      if (d != arm / 2) quiet.push_back(std::fabs(x[d] - 0.5));
    }
    ++arms[arm];
  };
  for (int i = 0; i < demands; ++i) {
    record(fast.next_demand(rf), xf, quiet_f, arms_f);
    record(slow.next_demand(rs), xs, quiet_s, arms_s);
  }
  for (std::size_t d = 0; d < cfg.dims; ++d) {
    const auto ks = stats::ks_two_sample(xf[d], xs[d]);
    EXPECT_GT(ks.p_value, 1e-3) << "dim " << d << ": D = " << ks.statistic;
  }
  const auto quiet = stats::ks_two_sample(quiet_f, quiet_s);
  EXPECT_GT(quiet.p_value, 1e-3) << "untripped spread: D = " << quiet.statistic;
  double chi2 = 0.0;
  int cells = 0;
  for (std::size_t c = 0; c < arms_f.size(); ++c) {
    const double expected = 0.5 * (arms_f[c] + arms_s[c]);
    if (expected == 0.0) continue;
    ++cells;
    chi2 += (arms_f[c] - expected) * (arms_f[c] - expected) / expected;
    chi2 += (arms_s[c] - expected) * (arms_s[c] - expected) / expected;
  }
  const double p_value = stats::gamma_q(0.5 * (cells - 1), 0.5 * chi2);
  EXPECT_GT(p_value, 1e-3) << "chi2 = " << chi2 << " on " << cells - 1 << " df";
}

TEST(Plant, BlockKernelMatchesReferenceLoopInDistribution) {
  expect_same_demand_law(plant::config{}, 1200, 1401);
}

TEST(Plant, BlockKernelMatchesReferenceLoopInThreeDims) {
  // Faster, noisier plant in three dimensions: demands in a few hundred steps.
  plant::config cfg;
  cfg.dims = 3;
  cfg.volatility = 0.1;
  cfg.transient_rate = 0.02;
  expect_same_demand_law(cfg, 1000, 1403);
}

TEST(Campaign, PlantDrivenRunsEndToEnd) {
  const std::vector<demand::region_fault> faults = {
      {make_box_region(box({0.0, 0.0}, {0.3, 0.3})), 0.5},
      {make_box_region(box({0.7, 0.7}, {1.0, 1.0})), 0.5}};
  stats::rng dev_rng(7);
  one_out_of_two sys(develop_channel(faults, dev_rng), develop_channel(faults, dev_rng));
  plant::config cfg;
  plant pl(cfg);
  stats::rng op_rng(8);
  const auto res = run_campaign(pl, sys, 2000, op_rng);
  EXPECT_EQ(res.demands, 2000u);
  EXPECT_LE(res.system_failures, res.channel_a_failures);
  EXPECT_LE(res.system_failures, res.channel_b_failures);
}

TEST(Campaign, Validation) {
  one_out_of_two sys{software_channel{}, software_channel{}};
  const demand::uniform_profile prof(box::unit(2));
  stats::rng r(9);
  EXPECT_THROW((void)run_profile_campaign(prof, sys, 0, r), std::invalid_argument);
}

}  // namespace
