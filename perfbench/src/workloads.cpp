// The two workloads.  Each builds its inputs from the seed once, then runs
// whole rounds of the same operations; every round starts from an empty
// service root, so no round sees another's files or cache entries.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "demand/region.hpp"
#include "mc/distributed.hpp"
#include "mc/service.hpp"
#include "mc/spec.hpp"
#include "perfbench.hpp"
#include "protection/system.hpp"
#include "stats/random.hpp"

namespace perfbench {

namespace mc = reldiv::mc;

namespace {

/// Seed-derived values for the generated inputs.
class seed_stream {
 public:
  explicit seed_stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() { return reldiv::stats::splitmix64_next(state_) >> 16; }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) *
                    static_cast<double>(reldiv::stats::splitmix64_next(state_) >> 11) *
                    0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

template <typename... Args>
std::string format(const char* fmt, Args... args) {
  char buf[2048];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

const char* kind_name(mc::job_kind k) {
  switch (k) {
    case mc::job_kind::scenario_grid: return "scenario";
    case mc::job_kind::demand_campaign: return "demand";
    case mc::job_kind::experiment_shards: return "experiment";
  }
  return "unknown";
}

mc::run_handle init_run(const mc::sweep_spec& s, const fs::path& dir) {
  if (const auto* m = std::get_if<mc::sweep_manifest>(&s.manifest)) {
    return mc::run_handle::init(m->axes, m->config(), dir);
  }
  if (const auto* m = std::get_if<mc::demand_manifest>(&s.manifest)) {
    return mc::run_handle::init(*m, dir);
  }
  return mc::run_handle::init(std::get<mc::experiment_manifest>(s.manifest), dir);
}

mc::sweep_spec parse_or_throw(const std::string& text, const std::string& name) {
  mc::spec_parse_result r = mc::parse_sweep_spec(text, name + ".spec");
  if (!r.spec) {
    std::string why = "generated spec " + name + " does not parse:";
    for (const mc::spec_error& e : r.errors) why += "\n  " + e.render();
    throw std::runtime_error(why);
  }
  return std::move(*r.spec);
}

/// Commit the previous round's deletions and any other dirty metadata of
/// the work directory's filesystem before the timed phase, so a round's
/// fsyncs pay for its own writes only.
void settle_disk(const fs::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("cannot open " + dir.string());
  const int rc = ::syncfs(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed on " + dir.string());
}

double duration(const span& s) { return seconds(s.end_ns - s.start_ns); }

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/// Re-encode every cell state file of a run through the library's public
/// encoder and time the encodes: the state-encode layer, measured outside
/// the worker.  The re-encoded bytes must equal the file the worker wrote.
double time_reencode(const mc::run_handle& h, std::vector<std::string>& errors) {
  double total = 0.0;
  for (std::uint64_t i = 0; i < h.cell_count(); ++i) {
    const std::string blob = mc::read_file(mc::cell_state_path(h.dir(), i));
    std::string again;
    std::int64_t t0 = 0;
    switch (h.kind()) {
      case mc::job_kind::scenario_grid: {
        const mc::cell_state s = mc::decode_cell_state(blob);
        t0 = now_ns();
        again = mc::encode_cell_state(s);
        break;
      }
      case mc::job_kind::demand_campaign: {
        const mc::demand_window_state s = mc::decode_demand_window_state(blob);
        t0 = now_ns();
        again = mc::encode_demand_window_state(s);
        break;
      }
      case mc::job_kind::experiment_shards: {
        const mc::experiment_window_state s = mc::decode_experiment_window_state(blob);
        t0 = now_ns();
        again = mc::encode_experiment_window_state(s);
        break;
      }
    }
    total += seconds(now_ns() - t0);
    if (again != blob) errors.push_back("state encode is not byte-stable: " + h.dir().string());
  }
  return total;
}

// ---------------------------------------------------------------------------
// Sweeps through the service
// ---------------------------------------------------------------------------

struct sweep_job {
  std::string name;  ///< submission name (also the run directory's name)
  std::string text;  ///< spec text generated from the seed
  std::optional<mc::sweep_spec> spec;  ///< resolved in round 0
  std::string csv;   ///< round-0 merged tables, the reference for later rounds
  std::string json;
};

sweep_job job(std::string name, std::string text) {
  sweep_job j;
  j.name = std::move(name);
  j.text = std::move(text);
  return j;
}

/// Infeasible-mixture probe.  The spec parses, but every ρ = 0.6 cell makes
/// common_cause_mixture throw std::invalid_argument inside the worker; the
/// operation counts as served only when the spec is refused with a
/// positioned diagnostic or the bad cells are quarantined and the rest of
/// the run is served.
bool serve_infeasible_spec(const std::string& text, const fs::path& root) {
  const mc::spec_parse_result parsed = mc::parse_sweep_spec(text, "infeasible.spec");
  if (!parsed.spec) return !parsed.errors.empty() && parsed.errors.front().line > 0;
  const fs::path dir = mc::runs_dir(root) / "infeasible";
  const mc::run_handle h = init_run(*parsed.spec, dir);
  (void)mc::submit_queued_run(root, "infeasible", dir);
  mc::service_config cfg;
  cfg.poll_min = cfg.poll_max = std::chrono::milliseconds(1);
  cfg.max_polls = 1;
  try {
    (void)mc::run_service_worker(root, cfg);
  } catch (const std::exception&) {
    return false;
  }
  const auto& axes = std::get<mc::sweep_manifest>(parsed.spec->manifest).axes;
  std::vector<std::uint64_t> bad;
  const auto cells = mc::enumerate_cells(axes);
  for (std::uint64_t i = 0; i < cells.size(); ++i) {
    if (cells[i].rho * axes.stress >= 1.0) bad.push_back(i);
  }
  std::vector<std::uint64_t> quarantined;
  for (const auto& rec : mc::quarantined_cells(dir)) quarantined.push_back(rec.cell_index);
  return mc::missing_cells(dir) == bad && quarantined == bad && h.cell_count() > bad.size();
}

class sweep_workload : public workload {
 public:
  sweep_workload(std::vector<sweep_job> jobs, std::string infeasible_text)
      : jobs_(std::move(jobs)), infeasible_text_(std::move(infeasible_text)) {}

  round_result round(const fs::path& root, span_recorder* rec) override {
    round_result out;
    fs::remove_all(root);
    fs::create_directories(root);
    settle_disk(root);
    std::optional<counting_io_env> env;
    std::unique_ptr<mc::scoped_io_env> installed;
    if (rec != nullptr) {
      env.emplace(*rec);
      installed = std::make_unique<mc::scoped_io_env>(*env);
    }

    std::vector<mc::run_handle> handles;
    std::vector<mc::cached_result> merged;
    mc::service_report report;
    std::uint64_t probes = 0;
    std::uint64_t cells_total = 0;
    {
      scope round_span(rec, "round");
      const std::int64_t t0 = now_ns();
      {
        scope s(rec, "round.setup");
        std::vector<mc::sweep_spec> specs;
        for (sweep_job& j : jobs_) {
          scope p(rec, "mc.spec.parse", j.name);
          specs.push_back(parse_or_throw(j.text, j.name));
        }
        for (std::size_t k = 0; k < jobs_.size(); ++k) {
          const fs::path dir = mc::runs_dir(root) / jobs_[k].name;
          {
            scope i(rec, "mc.run_dir.init", jobs_[k].name);
            handles.push_back(init_run(specs[k], dir));
          }
          scope q(rec, "mc.service.submit", jobs_[k].name);
          if (!mc::submit_queued_run(root, jobs_[k].name, dir)) {
            throw std::runtime_error("fresh root already queued " + jobs_[k].name);
          }
          cells_total += handles.back().cell_count();
          if (env) env->run_kind[jobs_[k].name] = kind_name(handles.back().kind());
        }
        for (std::size_t k = 0; k < jobs_.size(); ++k) {
          if (!jobs_[k].spec) jobs_[k].spec = std::move(specs[k]);
        }
      }
      const std::int64_t t1 = now_ns();
      {
        scope s(rec, "round.run");
        auto probe = [&] {
          scope st(rec, "mc.service.status");
          const mc::service_status status = mc::query_service_status(root);
          ++probes;
          if (status.cells_total != cells_total) {
            throw std::runtime_error("status reports the wrong cell total");
          }
          return status;
        };
        mc::service_config cfg;
        cfg.poll_min = cfg.poll_max = std::chrono::milliseconds(1);
        cfg.max_polls = 1;  // one empty re-poll after the queue drains, then return
        std::size_t boundary = 0;
        cfg.worker.should_stop = [&] {
          if (env) env->end_visit();
          if (++boundary % kStatusEvery == 0) (void)probe();
          if (env) env->begin_visit();
          return false;
        };
        {
          scope w(rec, "mc.service.worker");
          report = mc::run_service_worker(root, cfg);
          if (env) env->end_visit();
        }
        const mc::service_status last = probe();
        if (last.cells_done != cells_total || last.quarantined != 0) {
          errors_.push_back("status after the drain does not report every cell done");
        }
        mc::result_cache cache(root);
        for (std::size_t k = 0; k < jobs_.size(); ++k) {
          scope m(rec, "mc.distributed.merge", jobs_[k].name);
          merged.push_back(mc::merge_and_store(cache, handles[k].dir()));
          (void)mc::dequeue_run(root, jobs_[k].name);
        }
        for (std::size_t k = 0; k < jobs_.size(); ++k) {
          scope c(rec, "mc.service.cache_hit", jobs_[k].name);
          const std::optional<mc::cached_result> hit = cache.lookup(handles[k].fingerprint());
          if (!hit || hit->csv != merged[k].csv || hit->json != merged[k].json) {
            errors_.push_back("memoized resubmit of " + jobs_[k].name +
                              " is not byte-equal to its cold merge");
          }
        }
      }
      const std::int64_t t2 = now_ns();
      out.setup_s = seconds(t1 - t0);
      out.run_s = seconds(t2 - t1);
    }
    installed.reset();

    for (std::size_t k = 0; k < jobs_.size(); ++k) {
      if (jobs_[k].csv.empty()) {
        jobs_[k].csv = merged[k].csv;
        jobs_[k].json = merged[k].json;
      } else if (jobs_[k].csv != merged[k].csv || jobs_[k].json != merged[k].json) {
        errors_.push_back("round tables of " + jobs_[k].name + " differ from round 0's");
      }
    }
    if (report.cells_computed != cells_total || report.quarantined != 0) {
      errors_.push_back("the worker did not compute every cell exactly once");
    }

    // served runs + memoized resubmits + status probes + the infeasible spec
    out.ops = 2 * jobs_.size() + probes + 1;
    if (!serve_infeasible_spec(infeasible_text_, root / "infeasible")) out.failed = 1;

    if (rec != nullptr) {
      out.layers = layers_of(*rec, *env, report, handles);
      double encode = 0.0;
      for (const mc::run_handle& h : handles) encode += time_reencode(h, errors_);
      out.layers["run_dir.encode_s"] = encode;
    }
    fs::remove_all(root);
    return out;
  }

  void finish(std::vector<std::string>& errors, std::map<std::string, double>& layers,
              bool traced) override {
    errors.insert(errors.end(), errors_.begin(), errors_.end());
    // Byte-equality with the in-process oracle, and the closed forms.
    for (const sweep_job& j : jobs_) {
      if (!j.spec) continue;
      std::string csv;
      std::string json;
      if (const auto* m = std::get_if<mc::sweep_manifest>(&j.spec->manifest)) {
        const mc::grid_result g = mc::run_scenario_grid(m->axes, m->config());
        csv = g.to_csv();
        json = g.to_json();
        check_scenario_table(*m, j.csv, errors);
      } else if (const auto* d = std::get_if<mc::demand_manifest>(&j.spec->manifest)) {
        const mc::demand_tally t = mc::run_demand_campaign(d->target_pfd, d->demands, d->config());
        csv = mc::demand_tally_csv(*d, t);
        json = mc::demand_tally_json(t);
        check_demand_table(*d, j.csv, errors);
      } else {
        const auto& e = std::get<mc::experiment_manifest>(j.spec->manifest);
        const mc::experiment_result r = mc::run_experiment(e.universe, e.config());
        csv = mc::experiment_result_csv(r);
        json = mc::experiment_result_json(r);
        check_experiment_table(e, j.csv, errors);
        if (traced) single_thread_baseline(e, layers);
      }
      if (csv != j.csv || json != j.json) {
        errors.push_back("service-merged tables of " + j.name +
                         " differ from the in-process oracle");
      }
    }
  }

 private:
  static void single_thread_baseline(const mc::experiment_manifest& e,
                                     std::map<std::string, double>& layers) {
    const std::int64_t t0 = now_ns();
    (void)mc::run_experiment(e.universe, e.config(1));
    const double one = static_cast<double>(e.samples) / seconds(now_ns() - t0);
    layers["experiment.pairs_per_s_1t"] = one;
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
    layers["experiment.scaling_eff"] = layers["experiment.pairs_per_s"] / (one * threads);
  }

  std::map<std::string, double> layers_of(const span_recorder& rec, const counting_io_env& env,
                                          const mc::service_report& report,
                                          const std::vector<mc::run_handle>& handles) const {
    std::map<std::string, double> l;
    const std::vector<span>& spans = rec.spans();
    const std::vector<std::int64_t> self = rec.self_ns();
    std::uint32_t worker = 0;
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name == "mc.service.worker") worker = i + 1;
    }
    auto in_worker = [&](std::uint32_t id) {
      for (; id != 0; id = spans[id - 1].parent) {
        if (id == worker) return true;
      }
      return false;
    };
    std::vector<double> cell_ms;
    double worker_io = 0.0;
    double compute = 0.0;
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      const span& s = spans[i];
      const double d = duration(s);
      if (s.name == "mc.spec.parse") l["spec.parse_s"] += d;
      if (s.name == "mc.run_dir.init") l["run_dir.init_s"] += d;
      if (s.name == "mc.service.submit") l["service.submit_s"] += d;
      if (s.name == "mc.service.worker") {
        l["service.worker_s"] += d;
        l["service.other_s"] += seconds(self[i]);
      }
      if (s.name == "service.cell") cell_ms.push_back(d * 1e3);
      if (s.name == "service.cell" || s.name == "service.cell_skip") {
        l["service.other_s"] += seconds(self[i]);
      }
      if (s.name.starts_with("compute.")) compute += d;
      if (s.name == "compute.scenario") l["scenario.compute_s"] += d;
      if (s.name == "compute.demand") l["campaign.compute_s"] += d;
      if (s.name == "compute.experiment") l["experiment.compute_s"] += d;
      if (s.name == "mc.distributed.merge") l["merge.s"] += d;
      if (s.name == "mc.service.cache_hit") l["cache.hit_s"] += d;
      if (s.name == "mc.service.status") l["service.status_s"] += d;
      if (s.name.starts_with("io.") && in_worker(i + 1)) worker_io += d;
    }
    l["service.cell_p50_ms"] = percentile(cell_ms, 0.5);
    l["service.cell_p90_ms"] = percentile(cell_ms, 0.9);
    l["service.cells"] = static_cast<double>(report.cells_computed);
    l["service.retried"] = static_cast<double>(report.retried);
    l["service.quarantined"] = static_cast<double>(report.quarantined);
    if (l["service.worker_s"] > 0.0) {
      l["service.io_share"] = worker_io / l["service.worker_s"];
      l["service.compute_share"] = compute / l["service.worker_s"];
    }

    const std::pair<const char*, const op_stats*> ops[] = {
        {"io.write_sync", &env.write_sync}, {"io.write", &env.write},
        {"io.fsync_dir", &env.fsync},       {"io.rename", &env.rename},
        {"io.claim", &env.claim},           {"io.read", &env.read},
        {"io.touch", &env.touch_op}};
    for (const auto& [name, st] : ops) {
      l[std::string(name) + ".n"] = static_cast<double>(st->n);
      l[std::string(name) + ".s"] = seconds(st->ns);
    }
    l["io.write_mb"] = static_cast<double>(env.write_sync.bytes + env.write.bytes +
                                           env.touch_op.bytes) / (1024.0 * 1024.0);
    l["io.read_mb"] = static_cast<double>(env.read.bytes) / (1024.0 * 1024.0);
    const double fsyncs = static_cast<double>(env.write_sync.n + env.fsync.n);
    l["io.cells_per_fsync"] = fsyncs > 0.0 ? static_cast<double>(report.cells_computed) / fsyncs : 0.0;

    double scenario_samples = 0.0;
    double experiment_samples = 0.0;
    for (const mc::run_handle& h : handles) {
      if (h.kind() == mc::job_kind::scenario_grid) {
        for (const mc::scenario_cell& c : mc::enumerate_cells(h.grid_manifest().axes)) {
          scenario_samples += static_cast<double>(c.samples);
        }
      }
      if (h.kind() == mc::job_kind::experiment_shards) {
        experiment_samples += static_cast<double>(h.experiment_shards_manifest().samples);
      }
    }
    if (l["scenario.compute_s"] > 0.0) {
      l["scenario.pairs_per_s"] = scenario_samples / l["scenario.compute_s"];
    }
    if (l["experiment.compute_s"] > 0.0) {
      l["experiment.pairs_per_s"] = experiment_samples / l["experiment.compute_s"];
    }
    return l;
  }

  /// A status probe every this many cell boundaries of the worker.
  static constexpr std::size_t kStatusEvery = 25;

  std::vector<sweep_job> jobs_;
  std::string infeasible_text_;
  std::vector<std::string> errors_;
};

// ---------------------------------------------------------------------------
// The Fig. 1 plant
// ---------------------------------------------------------------------------

class plant_workload : public workload {
 public:
  explicit plant_workload(std::uint64_t seed) {
    seed_stream s(seed);
    // Four disjoint failure regions on the four arms where plant demands
    // land (one coordinate tripped past 0.25 / 0.75, the other near 0.5);
    // disjointness makes a system failure a demand in a shared region, so
    // E[system PFD] = Σ p² q.
    namespace d = reldiv::demand;
    const double w = s.uniform(0.08, 0.12);
    const d::box boxes[] = {
        d::box({0.0, 0.5 - w}, {0.26, 0.5}), d::box({0.74, 0.5}, {1.0, 0.5 + w}),
        d::box({0.5, 0.0}, {0.5 + w, 0.26}), d::box({0.5 - w, 0.74}, {0.5, 1.0})};
    for (const d::box& b : boxes) faults_.push_back({d::make_box_region(b), s.uniform(0.2, 0.5)});
    cal_seed_ = s.next();
    dev_seed_ = s.next();
    op_seed_ = s.next();
  }

  round_result round(const fs::path&, span_recorder* rec) override {
    namespace p = reldiv::protection;
    round_result out;
    plant_observation obs;
    std::uint64_t a_fail = 0, b_fail = 0, sys_fail = 0;
    {
      scope round_span(rec, "round");
      const std::int64_t t0 = now_ns();
      {
        scope s(rec, "protection.calibrate");
        p::plant cal(config_);
        reldiv::stats::rng r(cal_seed_);
        std::vector<std::uint64_t> hits(faults_.size(), 0);
        double y1 = 0.0, y1sq = 0.0, y2 = 0.0, y2sq = 0.0;
        for (std::uint64_t k = 0; k < kCalibrationDemands; ++k) {
          const reldiv::demand::point x = cal.next_demand(r);
          double w1 = 0.0, w2 = 0.0;
          for (std::size_t i = 0; i < faults_.size(); ++i) {
            if (faults_[i].footprint->contains(x)) {
              ++hits[i];
              w1 += faults_[i].p;
              w2 += faults_[i].p * faults_[i].p;
            }
          }
          y1 += w1, y1sq += w1 * w1, y2 += w2, y2sq += w2 * w2;
        }
        const double n = static_cast<double>(kCalibrationDemands);
        for (std::size_t i = 0; i < faults_.size(); ++i) {
          obs.p.push_back(faults_[i].p);
          obs.q_hat.push_back(static_cast<double>(hits[i]) / n);
        }
        obs.cal_demands = n;
        obs.cal_var_p = (y1sq - y1 * y1 / n) / (n - 1.0);
        obs.cal_var_p2 = (y2sq - y2 * y2 / n) / (n - 1.0);
      }
      const std::int64_t t1 = now_ns();
      {
        scope s(rec, "protection.developments");
        reldiv::stats::rng dev(dev_seed_);
        reldiv::stats::rng op(op_seed_);
        for (std::uint64_t k = 0; k < kDevelopments; ++k) {
          std::optional<p::one_out_of_two> sys;
          {
            scope ds(rec, "protection.develop");
            p::software_channel a = p::develop_channel(faults_, dev);
            p::software_channel b = p::develop_channel(faults_, dev);
            sys.emplace(std::move(a), std::move(b));
          }
          scope cs(rec, "protection.campaign");
          p::plant pl(config_);
          const p::campaign_result res = p::run_campaign(pl, *sys, kDemandsEach, op);
          a_fail += res.channel_a_failures;
          b_fail += res.channel_b_failures;
          sys_fail += res.system_failures;
        }
      }
      const std::int64_t t2 = now_ns();
      out.setup_s = seconds(t1 - t0);
      out.run_s = seconds(t2 - t1);
    }
    const double demands = static_cast<double>(kDevelopments * kDemandsEach);
    obs.developments = kDevelopments;
    obs.demands_each = kDemandsEach;
    obs.channel_pfd = static_cast<double>(a_fail + b_fail) / (2.0 * demands);
    obs.system_pfd = static_cast<double>(sys_fail) / demands;
    if (!first_) {
      first_ = obs;
    } else if (first_->q_hat != obs.q_hat || first_->channel_pfd != obs.channel_pfd ||
               first_->system_pfd != obs.system_pfd) {
      errors_.push_back("plant round differs from round 0 on identical seeds");
    }
    out.ops = kDevelopments + 1;  // the calibration plus one campaign per development
    if (rec != nullptr) {
      out.layers["plant.calibrate_s"] = out.setup_s;
      out.layers["plant.demand_us"] =
          out.setup_s / static_cast<double>(kCalibrationDemands) * 1e6;
      for (const span& sp : rec->spans()) {
        if (sp.name == "protection.develop") out.layers["plant.develop_s"] += duration(sp);
        if (sp.name == "protection.campaign") out.layers["plant.campaign_s"] += duration(sp);
      }
      out.layers["plant.demands"] = static_cast<double>(kCalibrationDemands) + demands;
    }
    return out;
  }

  void finish(std::vector<std::string>& errors, std::map<std::string, double>&, bool) override {
    errors.insert(errors.end(), errors_.begin(), errors_.end());
    if (first_) check_plant(*first_, errors);
  }

 private:
  static constexpr std::uint64_t kCalibrationDemands = 1200;
  static constexpr std::uint64_t kDevelopments = 200;
  static constexpr std::uint64_t kDemandsEach = 6;

  std::vector<reldiv::demand::region_fault> faults_;
  reldiv::protection::plant::config config_{};
  std::uint64_t cal_seed_ = 0, dev_seed_ = 0, op_seed_ = 0;
  std::optional<plant_observation> first_;
  std::vector<std::string> errors_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Workload inputs
// ---------------------------------------------------------------------------

std::unique_ptr<workload> make_sweep_service(std::uint64_t seed) {
  seed_stream s(seed);
  std::vector<sweep_job> jobs;
  // 16 logical shards in 4 windows of 4 shards over a 1024-fault raster
  // universe; raster generation makes the parse a real set-up cost.
  jobs.push_back(job("experiment", format(R"([sweep]
kind = experiment
seed = %llu
shards = 16

[universe raster]
generator = raster
faults = 1024
p_lo = 0.005
p_hi = %.3f
q_total = 0.9
gen_seed = %llu
cols = 128
rows = 128

[experiment]
universe = raster
samples = 1600000
engine = fast-simd
window = 4
)",
                                       static_cast<unsigned long long>(s.next()),
                                       s.uniform(0.04, 0.06),
                                       static_cast<unsigned long long>(s.next()))));
  // 2 ρ × 2 ω × 2 aliasing × 2 adjudications = 16 large cells.
  jobs.push_back(job("grid", format(R"([sweep]
kind = scenario
seed = %llu

[universe ms]
generator = many_small
faults = 256
p_lo = 0.02
p_hi = 0.2
q_total = 0.8
jitter = 0.2
gen_seed = %llu

[axes]
rho = 0 0.4
omega = 1 0.5
aliasing = 1 4
adjudication = 2of2 2of3
budget = 20000
)",
                                 static_cast<unsigned long long>(s.next()),
                                 static_cast<unsigned long long>(s.next()))));
  // A 6400-target roster cut into 200 cheap windows of 32 targets: the
  // per-cell service work (claims, two fsyncs, state files) of many cells.
  jobs.push_back(job("roster", format(R"([sweep]
kind = demand
seed = %llu

[demand]
demands = 5000
window = 32
targets = 6400
pfd_lo = 1e-05
pfd_ratio = 1000
)",
                                   static_cast<unsigned long long>(s.next()))));
  std::string infeasible = R"([sweep]
kind = scenario
seed = 7

[universe ms]
generator = many_small
faults = 32
p_lo = 0.05
p_hi = 0.3
q_total = 0.8
jitter = 0.2
gen_seed = 3

[axes]
rho = 0 0.6
budget = 1000
)";
  return std::make_unique<sweep_workload>(std::move(jobs), std::move(infeasible));
}

std::unique_ptr<workload> make_plant_fig1(std::uint64_t seed) {
  return std::make_unique<plant_workload>(seed);
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"spec.parse_s", "s"},
      {"run_dir.init_s", "s"},
      {"service.submit_s", "s"},
      {"run_dir.encode_s", "s"},
      {"service.worker_s", "s"},
      {"service.cell_p50_ms", "ms"},
      {"service.cell_p90_ms", "ms"},
      {"service.other_s", "s"},
      {"service.io_share", "ratio"},
      {"service.compute_share", "ratio"},
      {"service.cells", "count"},
      {"service.retried", "count"},
      {"service.quarantined", "count"},
      {"io.write_sync.n", "count"},
      {"io.write_sync.s", "s"},
      {"io.write.n", "count"},
      {"io.write.s", "s"},
      {"io.fsync_dir.n", "count"},
      {"io.fsync_dir.s", "s"},
      {"io.rename.n", "count"},
      {"io.rename.s", "s"},
      {"io.claim.n", "count"},
      {"io.claim.s", "s"},
      {"io.read.n", "count"},
      {"io.read.s", "s"},
      {"io.touch.n", "count"},
      {"io.touch.s", "s"},
      {"io.write_mb", "MiB"},
      {"io.read_mb", "MiB"},
      {"io.cells_per_fsync", "ratio"},
      {"scenario.compute_s", "s"},
      {"scenario.pairs_per_s", "1/s"},
      {"campaign.compute_s", "s"},
      {"experiment.compute_s", "s"},
      {"experiment.pairs_per_s", "1/s"},
      {"experiment.pairs_per_s_1t", "1/s"},
      {"experiment.scaling_eff", "ratio"},
      {"merge.s", "s"},
      {"cache.hit_s", "s"},
      {"service.status_s", "s"},
      {"plant.calibrate_s", "s"},
      {"plant.demand_us", "us"},
      {"plant.develop_s", "s"},
      {"plant.campaign_s", "s"},
      {"plant.demands", "count"},
      {"trace.overhead_s", "s"},
  };
  return names;
}

}  // namespace perfbench
