// P6 — the Fig. 1 plant's demand generator: protection::plant::next_demand
// (block ziggurat normals, geometric kick gaps) against the step-by-step
// loop it replaced, which lives on here as the baseline.  Both run the
// default plant, single-threaded; their ratio is machine-neutral and gated
// by compare_bench.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "protection/system.hpp"
#include "stats/random.hpp"

namespace {

using namespace reldiv;

// The pre-block plant loop: one polar-method normal and one Bernoulli kick
// trial per dimension and step.
class reference_plant {
 public:
  explicit reference_plant(protection::plant::config cfg) : cfg_(cfg), state_(cfg.dims, 0.0) {}

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
        demand::point x(state_.size());
        for (std::size_t d = 0; d < state_.size(); ++d) {
          x[d] = std::clamp(0.5 + state_[d] / (4.0 * cfg_.trip_threshold), 0.0, 1.0);
        }
        std::fill(state_.begin(), state_.end(), 0.0);
        return x;
      }
    }
    throw std::runtime_error("plant: no demand within max_steps_per_demand");
  }

 private:
  protection::plant::config cfg_;
  std::vector<double> state_;
};

/// Demands per iteration: about 13k steps each, so a batch averages out
/// the spread of first-passage times.
constexpr int kDemands = 32;

template <typename Plant>
void plant_demands(benchmark::State& state) {
  Plant pl{protection::plant::config{}};
  stats::rng r(2001);
  for (auto _ : state) {
    for (int i = 0; i < kDemands; ++i) benchmark::DoNotOptimize(pl.next_demand(r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kDemands);
}

void BM_PlantDemand(benchmark::State& state) { plant_demands<protection::plant>(state); }
BENCHMARK(BM_PlantDemand)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_PlantDemandReference(benchmark::State& state) { plant_demands<reference_plant>(state); }
BENCHMARK(BM_PlantDemandReference)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
