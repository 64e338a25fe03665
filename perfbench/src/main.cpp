// perfbench — end-to-end benchmark of the sweep service and the Fig. 1
// plant.  One process runs one workload as a single closed-loop client:
//
//   perfbench --workload sweep_service|plant_fig1
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// It runs whole rounds of the workload until S seconds have passed, then
// checks the outputs and prints one JSON object as its last stdout line.
// With --trace 0 it reports the end-to-end metrics (medians over rounds);
// with --trace 1 it alternates untraced and traced rounds, reports the
// per-layer metrics of the traced ones, and writes their spans as a Chrome
// trace to DIR/<workload>.trace.json.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "perfbench.hpp"

namespace {

using namespace perfbench;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path work_dir = ".bench_build/perfbench-work";
};

options parse_args(int argc, char** argv) {
  options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("options come in --key value pairs");
  return o;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int run(const options& o) {
  std::unique_ptr<workload> w;
  if (o.workload == "sweep_service") w = make_sweep_service(o.seed);
  if (o.workload == "plant_fig1") w = make_plant_fig1(o.seed);
  if (!w) throw std::invalid_argument("unknown workload '" + o.workload + "'");

  const fs::path root = o.work_dir / ("root-" + o.workload);
  constexpr int kMinRounds = 4;
  constexpr std::size_t kTraceFileRounds = 3;
  std::size_t traced_rounds = 0;
  std::vector<double> setup, run_s, traced_run;
  std::map<std::string, std::vector<double>> layer_rounds;
  std::vector<std::vector<span>> trace_rounds;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::int64_t start = now_ns();
  for (int r = 0; r < kMinRounds || seconds(now_ns() - start) < o.seconds; ++r) {
    const bool traced = o.trace && r % 2 == 1;
    span_recorder rec;
    round_result rr = w->round(root, traced ? &rec : nullptr);
    attempted += rr.ops;
    failed += rr.failed;
    if (traced) {
      traced_run.push_back(rr.run_s);
      for (const auto& [name, value] : rr.layers) layer_rounds[name].push_back(value);
      ++traced_rounds;
      // The first few traced rounds are enough to read in a trace viewer.
      if (trace_rounds.size() < kTraceFileRounds) trace_rounds.push_back(rec.spans());
    } else {
      setup.push_back(rr.setup_s);
      run_s.push_back(rr.run_s);
    }
  }
  const double peak_rss_mb = peak_resident_mb();
  fs::remove_all(root);

  std::map<std::string, double> layers;
  for (const auto& [name, values] : layer_rounds) layers[name] = median(values);
  std::vector<std::string> errors;
  w->finish(errors, layers, o.trace);
  for (const std::string& e : errors) std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());

  std::string metrics;
  auto add = [&](const std::string& name, double value, const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit + "\"}";
  };
  std::printf("%s: %zu untraced rounds, %zu traced rounds, %llu operations, %llu failed\n",
              o.workload.c_str(), setup.size(), traced_rounds,
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  if (o.trace) {
    layers["trace.overhead_s"] = median(traced_run) - median(run_s);
    for (const auto& [name, unit] : layer_metrics()) add(name, layers[name], unit);
    fs::create_directories(o.work_dir);
    const fs::path trace_file = o.work_dir / (o.workload + ".trace.json");
    write_chrome_trace(trace_file, trace_rounds);
    std::printf("trace: %s (first %zu traced rounds)\n", trace_file.c_str(), trace_rounds.size());
  } else {
    add("setup_s", median(setup), "s");
    add("run_s", median(run_s), "s");
    add("peak_rss_mb", peak_rss_mb, "MiB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              errors.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
