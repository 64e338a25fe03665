#pragma once
// Closed-form correctness checks, evaluated by the benchmark from the
// manifest's atoms (never from a stored copy of earlier output).

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "mc/run_dir.hpp"

namespace perfbench {

/// A parsed CSV table: header names and string cells.
struct csv_table {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  [[nodiscard]] double num(std::size_t row, std::string_view column) const;
};
[[nodiscard]] csv_table parse_csv(std::string_view text);

/// Bernstein deviation bound for the mean of n i.i.d. samples in a range of
/// width `range` with variance `var`, at failure probability 1e-9 — so the
/// tolerance holds for any seed, rare-event cells included.
[[nodiscard]] double bernstein_tol(double var, double range, double n);

/// The paper's moments of one version (θ1) and of the system (θ2) over a
/// universe, for independent development of `versions` channels of which
/// `votes` sharing a fault defeat the system.
struct closed_form {
  double mean1 = 0.0;  ///< eq. (1): Σ p q
  double var1 = 0.0;   ///< eq. (2): Σ p (1 − p) q²
  double mean2 = 0.0;  ///< Σ P[defeat] q
  double var2 = 0.0;   ///< eq. (4) for 2of2: Σ p² (1 − p²) q²
  double q_sum = 0.0;
  double kappa4_1 = 0.0;  ///< fourth cumulants, for the variance checks
  double kappa4_2 = 0.0;
  bool has_theta2 = true;  ///< false for adjudications without a closed form here
};
[[nodiscard]] closed_form closed_form_of(std::span<const double> p, std::span<const double> q,
                                         unsigned versions, unsigned votes);

void check_scenario_table(const reldiv::mc::sweep_manifest& m, std::string_view csv,
                          std::vector<std::string>& errors);
void check_demand_table(const reldiv::mc::demand_manifest& m, std::string_view csv,
                        std::vector<std::string>& errors);
void check_experiment_table(const reldiv::mc::experiment_manifest& m, std::string_view csv,
                            std::vector<std::string>& errors);

/// One plant round: the faults' p, the calibrated q̂, the calibration
/// spread of Σ p·1[x in R] and Σ p²·1[x in R], and the campaign means.
struct plant_observation {
  std::vector<double> p;
  std::vector<double> q_hat;
  double cal_demands = 0.0;
  double cal_var_p = 0.0;
  double cal_var_p2 = 0.0;
  std::uint64_t developments = 0;
  std::uint64_t demands_each = 0;
  double channel_pfd = 0.0;  ///< mean over developments and both channels
  double system_pfd = 0.0;
};
void check_plant(const plant_observation& o, std::vector<std::string>& errors);

}  // namespace perfbench
