// Correctness checks computed apart from the program: the paper's closed
// forms evaluated from the manifest's own atoms, compared with the merged
// tables the service produced.  Tolerances come from the sampling error.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "checks.hpp"

namespace perfbench {

namespace {

/// ln(2 / 1e-9): each check fails by chance with probability below 1e-9.
constexpr double kLogInvDelta = 21.416413017506358;

std::string fmt(const char* format, double a, double b, double c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

void expect_close(double observed, double expected, double tol, const std::string& what,
                  std::vector<std::string>& errors) {
  if (!(std::fabs(observed - expected) <= tol)) {
    errors.push_back(what + fmt(": observed %.9g, closed form %.9g, tolerance %.3g", observed,
                                expected, tol));
  }
}

}  // namespace

double csv_table::num(std::size_t row, std::string_view column) const {
  for (std::size_t c = 0; c < header.size(); ++c) {
    if (header[c] == column) return std::stod(rows.at(row).at(c));
  }
  throw std::runtime_error("csv: no column " + std::string(column));
}

csv_table parse_csv(std::string_view text) {
  csv_table t;
  bool first = true;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view{} : text.substr(eol + 1);
    if (line.empty()) continue;
    std::vector<std::string> cells;
    std::size_t from = 0;
    for (;;) {
      const std::size_t comma = line.find(',', from);
      cells.emplace_back(line.substr(from, comma - from));
      if (comma == std::string_view::npos) break;
      from = comma + 1;
    }
    if (first) {
      t.header = std::move(cells);
      first = false;
    } else {
      t.rows.push_back(std::move(cells));
    }
  }
  return t;
}

double bernstein_tol(double var, double range, double n) {
  return std::sqrt(2.0 * var * kLogInvDelta / n) + 2.0 / 3.0 * range * kLogInvDelta / n;
}

closed_form closed_form_of(std::span<const double> p, std::span<const double> q,
                           unsigned versions, unsigned votes) {
  closed_form f;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i];
    const double qi = q[i];
    // Probability that the fault defeats the system: present in at least
    // `votes` of `versions` independent versions (2of2: p², 2of3: 3p² − 2p³).
    double defeat = -1.0;
    if (versions == 2 && votes == 2) defeat = pi * pi;
    if (versions == 3 && votes == 2) defeat = 3.0 * pi * pi - 2.0 * pi * pi * pi;
    const double k1 = pi * (1.0 - pi);
    f.mean1 += pi * qi;                            // eq. (1)
    f.var1 += k1 * qi * qi;                        // eq. (2)
    f.kappa4_1 += std::pow(qi, 4) * k1 * (1.0 - 6.0 * k1);
    f.q_sum += qi;
    if (defeat >= 0.0) {
      const double k2 = defeat * (1.0 - defeat);
      f.mean2 += defeat * qi;                      // Σ p² q for 2of2
      f.var2 += k2 * qi * qi;                      // eq. (4) for 2of2
      f.kappa4_2 += std::pow(qi, 4) * k2 * (1.0 - 6.0 * k2);
    } else {
      f.has_theta2 = false;
    }
  }
  return f;
}

void check_scenario_table(const reldiv::mc::sweep_manifest& m, std::string_view csv,
                          std::vector<std::string>& errors) {
  const csv_table t = parse_csv(csv);
  if (t.rows.size() != m.cell_count) {
    errors.push_back("scenario: merged table has " + std::to_string(t.rows.size()) +
                     " rows for " + std::to_string(m.cell_count) + " cells");
    return;
  }
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    const std::string& name = t.rows[r].at(0);
    const reldiv::core::fault_universe* u = nullptr;
    for (const auto& [uname, universe] : m.axes.universes) {
      if (uname == name) u = &universe;
    }
    if (u == nullptr) {
      errors.push_back("scenario: row " + std::to_string(r) + " names unknown universe " + name);
      continue;
    }
    const double n = t.num(r, "samples");
    const double rho = t.num(r, "rho");
    const double omega = t.num(r, "omega");
    const auto versions = static_cast<unsigned>(t.num(r, "versions"));
    const auto votes = static_cast<unsigned>(t.num(r, "votes"));
    const closed_form f = closed_form_of(u->p_array(), u->q_array(), versions, votes);
    const std::string where = "scenario cell " + std::to_string(r);
    // Correlated cells keep every marginal, so eq. (1) holds for them too;
    // their θ1 variance is only bounded (θ1 in [0, Σq] gives Var <= Σq·E).
    const double var1 = rho == 0.0 ? f.var1 : f.q_sum * f.mean1;
    expect_close(t.num(r, "mean_theta1"), f.mean1, bernstein_tol(var1, f.q_sum, n),
                 where + " E[theta1] (eq. 1)", errors);
    if (rho == 0.0 && f.has_theta2) {
      expect_close(t.num(r, "mean_theta2"), omega * f.mean2,
                   bernstein_tol(omega * omega * f.var2, omega * f.q_sum, n),
                   where + " E[theta2] (omega * sum q P[defeat])", errors);
    }
  }
}

void check_demand_table(const reldiv::mc::demand_manifest& m, std::string_view csv,
                        std::vector<std::string>& errors) {
  const csv_table t = parse_csv(csv);
  if (t.rows.size() != m.target_pfd.size()) {
    errors.push_back("demand: merged table has " + std::to_string(t.rows.size()) +
                     " rows for " + std::to_string(m.target_pfd.size()) + " targets");
    return;
  }
  const double d = static_cast<double>(m.demands);
  double observed = 0.0;
  double expected = 0.0;
  double var = 0.0;
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    observed += t.num(r, "failures");
    expected += d * m.target_pfd[r];
    var += d * m.target_pfd[r] * (1.0 - m.target_pfd[r]);
  }
  // The total is a sum of independent Bernoulli demands: Bernstein on the sum.
  const double tol = std::sqrt(2.0 * var * kLogInvDelta) + 2.0 / 3.0 * kLogInvDelta;
  expect_close(observed, expected, tol, "demand roster: total failures vs sum demands*pfd",
               errors);
}

void check_experiment_table(const reldiv::mc::experiment_manifest& m, std::string_view csv,
                            std::vector<std::string>& errors) {
  const csv_table t = parse_csv(csv);
  if (t.rows.size() != 1) {
    errors.push_back("experiment: merged table is not one row");
    return;
  }
  const closed_form f = closed_form_of(m.universe.p_array(), m.universe.q_array(), 2, 2);
  const double n = t.num(0, "samples");
  if (n != static_cast<double>(m.samples)) {
    errors.push_back("experiment: merged sample count differs from the manifest's");
  }
  expect_close(t.num(0, "mean_theta1"), f.mean1, bernstein_tol(f.var1, f.q_sum, n),
               "experiment E[theta1] (eq. 1)", errors);
  expect_close(t.num(0, "mean_theta2"), f.mean2, bernstein_tol(f.var2, f.q_sum, n),
               "experiment E[theta2] (sum p^2 q)", errors);
  // Sample variance about σ²: its standard error is sqrt((κ4 + 2σ⁴)/n).
  const double s1 = t.num(0, "sd_theta1");
  const double s2 = t.num(0, "sd_theta2");
  expect_close(s1 * s1, f.var1, 8.0 * std::sqrt((f.kappa4_1 + 2.0 * f.var1 * f.var1) / n),
               "experiment Var[theta1] (eq. 2)", errors);
  expect_close(s2 * s2, f.var2, 8.0 * std::sqrt((f.kappa4_2 + 2.0 * f.var2 * f.var2) / n),
               "experiment Var[theta2] (eq. 4)", errors);
}

void check_plant(const plant_observation& o, std::vector<std::string>& errors) {
  // Reference: Σ p q̂ and Σ p² q̂ with the calibrated q̂.  The deviation has
  // three independent sources: which faults each development drew, which
  // demands each campaign drew, and the calibration error of q̂ itself.
  double mean1 = 0.0, mean2 = 0.0, var1 = 0.0, var2 = 0.0;
  for (std::size_t i = 0; i < o.p.size(); ++i) {
    const double p = o.p[i];
    const double q = o.q_hat[i];
    mean1 += p * q;
    mean2 += p * p * q;
    var1 += p * (1.0 - p) * q * q;
    var2 += p * p * (1.0 - p * p) * q * q;
  }
  const double devs = static_cast<double>(o.developments);
  const double demands = devs * static_cast<double>(o.demands_each);
  // Channel means average two independent developments per pair; the
  // binomial term bounds the demand noise of both channels together; the
  // calibration term is the spread of Σ p_i·1[x in R_i] over the
  // calibration demands.
  const double sd1 = std::sqrt(var1 / (2.0 * devs) + mean1 / demands +
                               o.cal_var_p / o.cal_demands);
  const double sd2 = std::sqrt(var2 / devs + mean2 / demands + o.cal_var_p2 / o.cal_demands);
  expect_close(o.channel_pfd, mean1, 6.0 * sd1, "plant: mean channel PFD vs sum p q_hat",
               errors);
  expect_close(o.system_pfd, mean2, 6.0 * sd2, "plant: mean system PFD vs sum p^2 q_hat",
               errors);
}

}  // namespace perfbench
