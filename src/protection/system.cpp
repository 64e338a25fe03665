#include "protection/system.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/fault_mask.hpp"
#include "mc/sampler.hpp"
#include "mc/shard_runner.hpp"

namespace reldiv::protection {

plant::plant(config cfg) : cfg_(cfg), state_(cfg.dims, 0.0) {
  if (cfg_.dims == 0) throw std::invalid_argument("plant: dims must be > 0");
  if (!(cfg_.reversion >= 0.0) || cfg_.reversion > 1.0) {
    throw std::invalid_argument("plant: reversion must be in [0,1]");
  }
  if (!(cfg_.volatility > 0.0) || !std::isfinite(cfg_.volatility)) {
    throw std::invalid_argument("plant: volatility must be finite and > 0");
  }
  if (!(cfg_.transient_rate >= 0.0) || cfg_.transient_rate > 1.0) {
    throw std::invalid_argument("plant: transient_rate must be in [0,1]");
  }
  if (!std::isfinite(cfg_.transient_size)) {
    throw std::invalid_argument("plant: transient_size must be finite");
  }
  if (!(cfg_.trip_threshold > 0.0) || !std::isfinite(cfg_.trip_threshold)) {
    throw std::invalid_argument("plant: trip_threshold must be finite and > 0");
  }
  if (cfg_.max_steps_per_demand == 0) {
    throw std::invalid_argument("plant: max_steps_per_demand must be > 0");
  }
}

namespace {

/// Steps per noise block: a block's normals are drawn in one fill_normals
/// call, dimension-major, and overwritten in place by the state path.
constexpr std::size_t kBlockSteps = 256;

/// The OU recurrence s[k] = keep * s[k-1] + e[k] over one dimension's block,
/// in place: on return e[k] holds s[k].  Four steps per iteration hang off
/// one loop-carried multiply-add (s[k+j] = keep^(j+1) * s[k-1] + the
/// increments' decayed sum), so the loop is not bound by a chain of
/// dependent multiply-adds; it differs from the step-by-step loop by
/// rounding only.
void ou_path(double* e, double s, double keep) {
  const double k2 = keep * keep;
  const double k3 = k2 * keep;
  const double k4 = k2 * k2;
  static_assert(kBlockSteps % 4 == 0);
  for (std::size_t k = 0; k < kBlockSteps; k += 4) {
    const double e1 = e[k];
    const double e2 = keep * e1 + e[k + 1];
    const double e3 = keep * e2 + e[k + 2];
    const double e4 = keep * e3 + e[k + 3];
    e[k] = keep * s + e1;
    e[k + 1] = k2 * s + e2;
    e[k + 2] = k3 * s + e3;
    s = k4 * s + e4;
    e[k + 3] = s;
  }
}

}  // namespace

demand::point plant::next_demand(stats::rng& r) {
  const std::size_t dims = cfg_.dims;
  const std::uint64_t max_steps = cfg_.max_steps_per_demand;
  const double keep = 1.0 - cfg_.reversion;
  const double vol = cfg_.volatility;
  const double threshold = cfg_.trip_threshold;
  const double rate = cfg_.transient_rate;
  const double log_stay = std::log1p(-rate);

  // Kicks are per-step Bernoulli(rate) trials, so the number of kick-free
  // steps before a dimension's next kick is geometric; drawing it afresh at
  // every call is exact because the geometric law is memoryless.  One word
  // gives the gap (top 53 bits) and the kick's sign (bit 0).  Returns the
  // step index of the next kick at or after `from`, or max_steps when it
  // falls beyond this call's budget: the gap saturates there before any
  // double-to-integer cast.
  auto next_kick = [&](std::uint64_t from, double& kick) -> std::uint64_t {
    if (rate <= 0.0) return max_steps;
    const std::uint64_t w = r();
    kick = (w & 1) != 0 ? cfg_.transient_size : -cfg_.transient_size;
    if (rate >= 1.0) return from;
    const double u = (static_cast<double>(w >> 11) + 0.5) * 0x1.0p-53;  // (0,1)
    const double gap = std::log(u) / log_stay;  // >= 0; the cast truncates it to the floor
    const std::uint64_t left = max_steps - from;
    const std::uint64_t skip =
        gap < static_cast<double>(left) ? static_cast<std::uint64_t>(gap) : left;
    return skip < left ? from + skip : max_steps;
  };

  std::vector<double> state = state_;
  std::vector<std::uint64_t> kick_at(dims);
  std::vector<double> kick(dims, 0.0);
  for (std::size_t d = 0; d < dims; ++d) kick_at[d] = next_kick(0, kick[d]);
  std::vector<double> path(kBlockSteps * dims);

  for (std::uint64_t begin = 0; begin < max_steps;) {
    // Steps of this block within the budget; the path runs the whole block
    // and the steps beyond are ignored.
    const auto n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBlockSteps, max_steps - begin));
    stats::fill_normals(r, path);
    std::size_t trip = n;  // the block's first step with a crossing, if < n
    for (std::size_t d = 0; d < dims; ++d) {
      double* e = path.data() + d * kBlockSteps;
      for (std::size_t k = 0; k < kBlockSteps; ++k) e[k] *= vol;
      // A kick adds to its step's increment.
      for (std::uint64_t& at = kick_at[d]; at < begin + n; at = next_kick(at + 1, kick[d])) {
        e[at - begin] += kick[d];
      }
      ou_path(e, state[d], keep);
      state[d] = e[n - 1];
      for (std::size_t k = 0; k < trip; ++k) {
        if (std::fabs(e[k]) >= threshold) {
          trip = k;
          break;
        }
      }
    }
    if (trip < n) {
      // Normalize the excursion snapshot to the unit box: map deviation in
      // [-2*threshold, 2*threshold] to [0,1], clamped.  The state resets
      // toward normal operation after the event; the block's unused normals
      // are discarded, so nothing but the zero state carries to the next call.
      demand::point x(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        x[d] = std::clamp(0.5 + path[d * kBlockSteps + trip] / (4.0 * threshold), 0.0, 1.0);
      }
      std::fill(state_.begin(), state_.end(), 0.0);
      return x;
    }
    begin += n;
  }
  state_ = std::move(state);
  throw std::runtime_error("plant: no demand within max_steps_per_demand");
}

software_channel::software_channel(std::vector<demand::region_ptr> failure_regions)
    : regions_(std::move(failure_regions)) {
  for (const auto& reg : regions_) {
    if (!reg) throw std::invalid_argument("software_channel: null region");
  }
}

bool software_channel::responds_correctly(const demand::point& x) const {
  for (const auto& reg : regions_) {
    if (reg->contains(x)) return false;
  }
  return true;
}

software_channel develop_channel(const std::vector<demand::region_fault>& potential_faults,
                                 stats::rng& r) {
  // Channel development IS a version draw: run the Monte-Carlo engine's
  // shared threshold kernel (one rng word + one integer compare per fault,
  // decision-identical to r.bernoulli(f.p) in fault order) and materialize
  // the set bits as the channel's failure regions.
  std::vector<std::uint64_t> thresholds;
  thresholds.reserve(potential_faults.size());
  for (const auto& f : potential_faults) {
    if (!f.footprint) throw std::invalid_argument("develop_channel: null region");
    thresholds.push_back(core::bernoulli_threshold(f.p));
  }
  core::fault_mask drawn;
  mc::sample_mask_from_thresholds(thresholds, r, drawn);
  std::vector<demand::region_ptr> present;
  for (std::size_t i = 0; i < potential_faults.size(); ++i) {
    if (drawn.test(i)) present.push_back(potential_faults[i].footprint);
  }
  return software_channel(std::move(present));
}

one_out_of_two::one_out_of_two(software_channel a, software_channel b)
    : a_(std::move(a)), b_(std::move(b)) {}

bool one_out_of_two::responds_correctly(const demand::point& x) const {
  // OR adjudication: shut-down if either channel demands it.
  return a_.responds_correctly(x) || b_.responds_correctly(x);
}

double campaign_result::channel_a_pfd() const {
  return demands > 0 ? static_cast<double>(channel_a_failures) / static_cast<double>(demands)
                     : 0.0;
}

double campaign_result::channel_b_pfd() const {
  return demands > 0 ? static_cast<double>(channel_b_failures) / static_cast<double>(demands)
                     : 0.0;
}

double campaign_result::system_pfd() const {
  return demands > 0 ? static_cast<double>(system_failures) / static_cast<double>(demands)
                     : 0.0;
}

stats::interval campaign_result::system_pfd_ci(double level) const {
  return stats::wilson(system_failures, demands, level);
}

namespace {

template <typename DemandSource>
campaign_result run_generic(DemandSource&& next, const one_out_of_two& system,
                            std::uint64_t demands) {
  if (demands == 0) throw std::invalid_argument("run_campaign: demands must be > 0");
  campaign_result out;
  out.demands = demands;
  for (std::uint64_t d = 0; d < demands; ++d) {
    const demand::point x = next();
    const bool a_ok = system.channel_a().responds_correctly(x);
    const bool b_ok = system.channel_b().responds_correctly(x);
    if (!a_ok) ++out.channel_a_failures;
    if (!b_ok) ++out.channel_b_failures;
    if (!a_ok && !b_ok) ++out.system_failures;
  }
  return out;
}

}  // namespace

campaign_result run_campaign(plant& pl, const one_out_of_two& system, std::uint64_t demands,
                             stats::rng& r) {
  return run_generic([&] { return pl.next_demand(r); }, system, demands);
}

campaign_result run_profile_campaign(const demand::demand_profile& profile,
                                     const one_out_of_two& system, std::uint64_t demands,
                                     stats::rng& r) {
  return run_generic([&] { return profile.sample(r); }, system, demands);
}

campaign_result run_profile_campaign(const demand::demand_profile& profile,
                                     const one_out_of_two& system, std::uint64_t demands,
                                     const mc::campaign_config& cfg) {
  if (demands == 0) throw std::invalid_argument("run_campaign: demands must be > 0");
  const mc::shard_plan plan = mc::make_shard_plan(demands, cfg.shards);
  campaign_result total;
  total.demands = demands;
  mc::run_shards(
      plan, cfg.seed, cfg.threads,
      [&](unsigned /*shard*/, std::uint64_t count, stats::rng& r) {
        campaign_result local =
            run_generic([&] { return profile.sample(r); }, system, count);
        return local;
      },
      [&total](unsigned /*shard*/, campaign_result&& local) {
        total.channel_a_failures += local.channel_a_failures;
        total.channel_b_failures += local.channel_b_failures;
        total.system_failures += local.system_failures;
      });
  return total;
}

}  // namespace reldiv::protection
