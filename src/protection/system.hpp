#pragma once
// A concrete realization of the paper's Fig. 1: a plant whose state
// occasionally demands protective shut-down, sensed by two software
// channels in a 1-out-of-2 (parallel, OR) arrangement.  The channels run
// separately developed versions; a version's faults are failure regions in
// the sensed demand space, so the channel fails to demand shut-down exactly
// when the demand lands in one of its regions.
//
// The simulator closes the loop between the geometric substrate (demand/)
// and the abstract model (core/): the empirically measured per-channel and
// system PFDs must match Σ q_i over the versions' (common) faults, which
// integration tests and bench E17 verify.

#include <cstdint>
#include <vector>

#include "demand/binding.hpp"
#include "demand/demand_space.hpp"
#include "demand/region.hpp"
#include "mc/campaign.hpp"
#include "stats/confint.hpp"
#include "stats/random.hpp"

namespace reldiv::protection {

/// Stochastic plant: state variables mean-revert around an operating point
/// (discretized Ornstein-Uhlenbeck) with occasional transient excursions.
/// A *demand* occurs when any variable crosses its trip threshold; the
/// demand presented to the protection system is the state snapshot,
/// normalized to the unit demand-space box.
class plant {
 public:
  struct config {
    std::size_t dims = 2;
    double reversion = 0.05;        ///< OU pull toward the operating point
    double volatility = 0.03;       ///< per-step noise
    double transient_rate = 0.01;   ///< probability per step of a kick
    double transient_size = 0.35;   ///< kick magnitude
    double trip_threshold = 0.8;    ///< |state - setpoint| that demands action
    std::uint64_t max_steps_per_demand = 1'000'000;
  };

  explicit plant(config cfg);

  /// Advance until the next demand and return the demanded state as a point
  /// in [0,1]^dims.  Throws std::runtime_error, keeping the state reached,
  /// when no demand occurs within max_steps_per_demand steps.
  ///
  /// The contract is distributional, not bit-level: each call draws its
  /// step noise from `r` in blocks of normals (stats::fill_normals) and its
  /// kick arrivals as geometric gaps, so the demands have the law of the
  /// per-step loop (one normal and one Bernoulli(transient_rate) kick trial
  /// per dimension and step) but not its rng stream.  Every draw of a call
  /// comes from that call's `r`; nothing random carries across calls.
  [[nodiscard]] demand::point next_demand(stats::rng& r);

  [[nodiscard]] const config& parameters() const noexcept { return cfg_; }

 private:
  config cfg_;
  std::vector<double> state_;  ///< deviation from setpoint per dimension
};

/// A software channel: the failure regions of the faults its version contains.
class software_channel {
 public:
  software_channel() = default;
  explicit software_channel(std::vector<demand::region_ptr> failure_regions);

  /// Channel responds correctly (demands shut-down) unless the demand lies
  /// in one of its failure regions.
  [[nodiscard]] bool responds_correctly(const demand::point& x) const;

  [[nodiscard]] std::size_t fault_count() const noexcept { return regions_.size(); }

 private:
  std::vector<demand::region_ptr> regions_;
};

/// Independently develop a channel: each potential fault's region is
/// included with its probability p (the paper's fault-creation process).
[[nodiscard]] software_channel develop_channel(
    const std::vector<demand::region_fault>& potential_faults, stats::rng& r);

/// 1-out-of-2 system with OR adjudication: shut-down happens if either
/// channel demands it, so the system fails only when BOTH channels fail.
class one_out_of_two {
 public:
  one_out_of_two(software_channel a, software_channel b);

  [[nodiscard]] bool responds_correctly(const demand::point& x) const;
  [[nodiscard]] const software_channel& channel_a() const noexcept { return a_; }
  [[nodiscard]] const software_channel& channel_b() const noexcept { return b_; }

 private:
  software_channel a_;
  software_channel b_;
};

/// Outcome of an operational campaign.
struct campaign_result {
  std::uint64_t demands = 0;
  std::uint64_t channel_a_failures = 0;
  std::uint64_t channel_b_failures = 0;
  std::uint64_t system_failures = 0;

  [[nodiscard]] double channel_a_pfd() const;
  [[nodiscard]] double channel_b_pfd() const;
  [[nodiscard]] double system_pfd() const;
  [[nodiscard]] stats::interval system_pfd_ci(double level = 0.99) const;
};

/// Drive `demands` plant demands through the system.
[[nodiscard]] campaign_result run_campaign(plant& pl, const one_out_of_two& system,
                                           std::uint64_t demands, stats::rng& r);

/// Same, but demands come straight from a demand profile (bypassing plant
/// dynamics) — used to cross-check that plant demands and profile demands
/// give consistent PFDs when the profile matches the plant.
[[nodiscard]] campaign_result run_profile_campaign(const demand::demand_profile& profile,
                                                   const one_out_of_two& system,
                                                   std::uint64_t demands, stats::rng& r);

/// Deterministic campaign-layer variant: the demand budget is decomposed
/// over budget-scaled logical rng shards (mc::make_shard_plan), each shard
/// sampling its demands from stream(cfg.seed, shard), per-shard failure
/// counts merged in shard order — multithreaded, and bit-identical across
/// thread counts for a given (seed, demands, shards).
[[nodiscard]] campaign_result run_profile_campaign(const demand::demand_profile& profile,
                                                   const one_out_of_two& system,
                                                   std::uint64_t demands,
                                                   const mc::campaign_config& cfg);

}  // namespace reldiv::protection
