// reldiv_sweep — the multi-process campaign CLI.
//
// One binary, three job kinds (scenario grids, demand campaigns, experiment
// shard windows), ten subcommands; each has its own --help.  Every job is a
// sweep-spec file (--spec FILE, shipped examples under examples/specs/) and
// its kind comes from the file.
//
//   in-process and distributed runs:
//     reldiv_sweep single --spec S [--out-json t.json]   the reference oracle:
//                                                        the campaign run in
//                                                        this process
//     reldiv_sweep run    --spec S --run-dir run.d --workers 4
//         initializes (or resumes) the run directory, spawns N copies of
//         itself as workers, waits, merges the cell state files in cell
//         order and writes the results table.  Rerunning after a
//         crash/SIGKILL resumes from the surviving state files; the output
//         is byte-identical to an uninterrupted — or single-process — run.
//     reldiv_sweep worker --run-dir run.d [--max-cells K]
//         claims pending cells one at a time (the job kind comes from the
//         directory's manifest) and writes each completed cell atomically.
//         Any number of workers may run concurrently against the same
//         directory — including workers on other hosts sharing it.
//     reldiv_sweep chaos  --spec S --run-dir base.d [--chaos-plans 2]
//         the fault-injection harness: for each deterministic injection
//         plan (derived from --chaos-seed, replayable), runs the distributed
//         campaign with the plan installed in every worker's I/O seam and
//         asserts the two-arm contract: the run completes with merge output
//         byte-identical to the in-process oracle, OR it exits nonzero
//         leaving an intact run dir whose clean no-injection resume
//         completes to the byte-identical oracle output.
//
//   the service front-end:
//     reldiv_sweep serve  --root svc --workers 3      long-poll worker fleet
//     reldiv_sweep submit --root svc --spec S         enqueue a run (memoized:
//                                                     an identical manifest is
//                                                     served from the result
//                                                     cache, nothing recomputed)
//     reldiv_sweep status --root svc                  progress/ETA JSON
//     reldiv_sweep merge  --root svc --name R --wait  merged tables (cached);
//                         or --run-dir DIR            any complete run dir
//     reldiv_sweep drain  --root svc [--clear]        graceful fleet shutdown
//
//   spec tools:
//     reldiv_sweep describe RUN_DIR                   run identity as JSON
//     reldiv_sweep refine --spec S --table T --out S2 round-N+1 spec
//
// Exit codes: 0 success; 2 usage error (including a malformed spec); 3 a
// worker or run that quarantined cells; 1 anything else (incomplete run,
// invalid state files, chaos contract violation, ...).

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <unistd.h>

#include "mc/distributed.hpp"
#include "mc/io_env.hpp"
#include "mc/run_dir.hpp"
#include "mc/scenario.hpp"
#include "mc/service.hpp"
#include "mc/spec.hpp"

namespace {

using namespace reldiv;

// ---------------------------------------------------------------------------
// Usage
// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: reldiv_sweep <subcommand> [options]   (`reldiv_sweep <cmd> --help`)\n"
    "\n"
    "  single    run a spec's campaign in this process (the reference oracle)\n"
    "  run       coordinator: init/resume --run-dir, spawn workers, merge\n"
    "  worker    claim+compute pending cells of --run-dir, then exit\n"
    "  chaos     fault-injection harness over distributed runs of a spec\n"
    "  serve     long-poll worker fleet over a service root's queue\n"
    "  submit    enqueue a run (fingerprint-memoized: identical manifests are\n"
    "            served from the result cache)\n"
    "  status    fleet progress as %.17g-clean JSON\n"
    "  merge     merged tables of a queued or standalone run dir\n"
    "  drain     raise/clear the graceful-shutdown sentinel\n"
    "  describe  a run directory's spec/axes as %.17g-clean JSON\n"
    "  refine    emit the round-N+1 spec from a merged round-N table\n";

// Option groups shared by several subcommands' help texts.
constexpr const char* kJobHelp =
    "  --spec FILE          sweep-spec file (the job kind comes from the file;\n"
    "                       shipped examples: examples/specs/*.spec)\n"
    "  --seed N             campaign seed (overrides the spec)\n"
    "  --shards N           scenario: per-cell logical shards (0 = budget-scaled)\n"
    "  --budget N           scenario/experiment: samples; demand: demands per\n"
    "                       target (overrides the spec)\n"
    "  --engine NAME        experiment engine: fast|exact|legacy|fast-simd\n";
constexpr const char* kOutputHelp =
    "  --out-csv PATH       write the results table as CSV\n"
    "  --out-json PATH      write the results table as JSON\n"
    "  --quiet              suppress the progress summary on stdout\n";

std::string usage(const std::string& cmd) {
  if (cmd == "single") {
    return "usage: reldiv_sweep single --spec FILE [job options] [output options]\n"
           "\n"
           "Run the campaign in this process — the oracle every distributed and\n"
           "service run is byte-diffed against.\n"
           "\n" + std::string(kJobHelp) +
           "  --threads N          worker threads (default 0 = hardware)\n" + kOutputHelp;
  }
  if (cmd == "run") {
    return "usage: reldiv_sweep run --spec FILE --run-dir DIR [options]\n"
           "\n"
           "Coordinator: initialize (or resume) DIR, sweep stale claims, spawn\n"
           "worker processes of this binary, wait, and merge the cell files in\n"
           "cell order.  Rerun after a crash to resume; the output is\n"
           "byte-identical to `single`.\n"
           "\n" + std::string(kJobHelp) +
           "  --run-dir DIR        on-disk run directory (state files + manifest)\n"
           "  --workers N          worker processes to spawn (default 2)\n"
           "  --max-cells K        per-worker quota of cells (test/CI hook)\n"
           "  --fault-plan RECIPE  install a fault plan in every worker's I/O seam\n" +
           kOutputHelp +
           "\n"
           "exit: 0 merged; 1 incomplete (rerun to resume) or quarantined cells\n";
  }
  if (cmd == "worker") {
    return "usage: reldiv_sweep worker --run-dir DIR [--max-cells K]\n"
           "                           [--fault-plan RECIPE] [--quiet]\n"
           "\n"
           "Claim and compute pending cells of DIR, then exit.  The job kind\n"
           "comes from the directory's manifest.  --fault-plan installs a\n"
           "deterministic fault plan (the seed=..,rate_ppm=..,ops=..,kinds=..,\n"
           "stall_ms=.. recipe a chaos run prints) in this process's I/O seam.\n"
           "\n"
           "exit: 0 done; 3 this worker quarantined cells\n";
  }
  if (cmd == "chaos") {
    return "usage: reldiv_sweep chaos --spec FILE --run-dir DIR [options]\n"
           "\n"
           "Sweep deterministic fault plans through distributed runs of the\n"
           "spec's job, one run directory per plan under DIR, and hold each to\n"
           "the two-arm contract: complete byte-identical to the in-process\n"
           "oracle, or fail leaving a directory whose clean resume matches it.\n"
           "Without --budget the job is shrunk to 4000 samples per scenario\n"
           "cell, or 20000 samples / demands per target otherwise.\n"
           "\n" + std::string(kJobHelp) +
           "  --threads N          oracle worker threads (default 0 = hardware)\n"
           "  --workers N          worker processes per trial (default 2)\n"
           "  --max-cells K        per-worker quota of cells\n"
           "  --chaos-seed N       plan seed (default 7331)\n"
           "  --chaos-plans N      injection plans (default 2)\n"
           "  --chaos-rate PPM     per-operation fault rate (default 30000)\n"
           "  --quiet              print only contract violations\n"
           "\n"
           "exit: 0 contract held in every trial; 1 a violation\n";
  }
  if (cmd == "serve") {
    return "usage: reldiv_sweep serve --root DIR [options]\n"
           "\n"
           "Run a long-poll worker fleet over the service root's queue: workers\n"
           "pick up runs submitted at any time (including after they started),\n"
           "sleep with bounded deterministic backoff when the queue is idle, and\n"
           "exit when the drain sentinel appears.\n"
           "\n"
           "  --root DIR           service root (queue/, runs/, cache/, drain)\n"
           "  --workers N          worker processes (default 2; 0 = run the worker\n"
           "                       loop in THIS process — what spawned workers do)\n"
           "  --max-cells K        per-worker per-pass cell quota (test/CI hook)\n"
           "  --poll-min-ms MS     backoff floor between empty polls (default 50)\n"
           "  --poll-max-ms MS     backoff ceiling (default 1000)\n"
           "  --max-polls N        exit after N consecutive empty polls (0 = serve\n"
           "                       forever, until drain)\n"
           "  --quiet              suppress the per-worker summary\n"
           "\n"
           "exit: 0 clean; 3 a worker quarantined cells; 1 other failure\n";
  }
  if (cmd == "submit") {
    return "usage: reldiv_sweep submit --root DIR --spec FILE [options]\n"
           "\n"
           "Initialize a run directory under <root>/runs/ and publish it on the\n"
           "queue (atomic rename through the I/O seam).  Memoized: when the\n"
           "manifest fingerprint is already in the result cache, the merged\n"
           "result is written immediately and nothing is enqueued or recomputed.\n"
           "\n"
           "  --root DIR           service root\n"
           "  --name NAME          submission name (default run_<fingerprint>;\n"
           "                       names order the queue lexicographically)\n" +
           std::string(kJobHelp) +
           "  --wait               block until the fleet finishes, then merge,\n"
           "                       memoize, dequeue and write outputs\n"
           "  --poll-min-ms MS / --poll-max-ms MS   --wait backoff (50 / 1000)\n" +
           kOutputHelp +
           "\n"
           "exit: 0 queued or served from cache; 3 run has quarantined cells\n";
  }
  if (cmd == "status") {
    return "usage: reldiv_sweep status --root DIR [--out-json PATH] [--quiet]\n"
           "\n"
           "Fleet progress as JSON — a pure function of the on-disk claim owner\n"
           "records and completed cell files: per queued run cells_done/total,\n"
           "quarantined count and distinct active workers, plus aggregates and\n"
           "the drain flag.  Printed to stdout unless --quiet.\n";
  }
  if (cmd == "merge") {
    return "usage: reldiv_sweep merge (--root DIR --name NAME | --run-dir DIR)\n"
           "                          [--wait] [--out-csv PATH] [--out-json PATH]\n"
           "\n"
           "Merged result tables of one run, any job kind.  With --root, the\n"
           "result cache is consulted first (a fingerprint hit skips the merge)\n"
           "and a fresh merge is memoized and its queue entry dequeued; --wait\n"
           "polls until every cell file exists.  With only --run-dir it merges\n"
           "that complete directory and touches nothing else.\n"
           "\n"
           "exit: 0 merged; 3 run has quarantined cells (with --wait)\n";
  }
  if (cmd == "drain") {
    return "usage: reldiv_sweep drain --root DIR [--clear] [--quiet]\n"
           "\n"
           "Raise the graceful-shutdown sentinel: every service worker finishes\n"
           "its current cell and exits, leaving no claims and no .tmp files.\n"
           "--clear removes the sentinel so a new fleet can start.\n";
  }
  if (cmd == "describe") {
    return "usage: reldiv_sweep describe RUN_DIR [--out-json PATH]\n"
           "                             [--out-spec PATH] [--quiet]\n"
           "\n"
           "Print the run directory's spec/axes as %.17g-clean JSON (kind,\n"
           "fingerprint, seed, every axis, atom-for-atom universes).  --out-spec\n"
           "re-emits the run as a launchable sweep-spec file: submitting it\n"
           "reproduces the manifest fingerprint exactly.\n";
  }
  return "usage: reldiv_sweep refine --spec ROUND_N.spec --table MERGED.csv\n"
         "                           --out ROUND_N+1.spec [--quiet]\n"
         "\n"
         "Deterministic adaptive refinement: re-budget every cell of a scenario\n"
         "spec (which must carry a [refine] section) as a pure function of the\n"
         "merged round-N results table, and write the round-N+1 spec — same\n"
         "grid, same seeds, per-cell `cell_budget` overrides.  The output is\n"
         "byte-identical for identical inputs, whatever produced the table.\n"
         "\n"
         "exit: 0 written; 2 malformed spec/table (with file:line positions)\n";
}

// ---------------------------------------------------------------------------
// Options: one table-driven parser for every subcommand
// ---------------------------------------------------------------------------

struct options {
  bool quiet = false;
  std::string fault_plan;
  std::uint64_t chaos_seed = 7331;
  unsigned chaos_plans = 2;
  unsigned chaos_rate = 30'000;
  std::string spec;  // sweep-spec file path
  std::uint64_t seed = 2026;
  bool seed_set = false;  // only an explicit --seed overrides a spec's seed
  unsigned shards = 0;
  bool shards_set = false;
  unsigned threads = 0;
  std::uint64_t budget = 0;  // 0 = the spec's
  std::string engine;        // empty = the spec's; experiment jobs only
  std::string run_dir;
  unsigned workers = 2;
  std::size_t max_cells = 0;
  std::string out_csv;
  std::string out_json;
  // Service fields (serve/submit/status/merge/drain).
  std::string root;
  std::string name;
  bool wait = false;
  bool clear = false;
  std::uint64_t poll_min_ms = 50;
  std::uint64_t poll_max_ms = 1000;
  std::uint64_t max_polls = 0;
  // describe/refine fields.
  std::string table;     // refine: merged round-N CSV
  std::string out;       // refine: round-N+1 spec path
  std::string out_spec;  // describe: re-emit the run as a launchable spec
};

/// Which flags each subcommand accepts and which it needs (space-delimited,
/// space-padded for a whole-word find).  A subcommand absent from the table
/// does not exist.
struct command_row {
  const char* cmd;
  const char* flags;
  const char* required;
};
constexpr command_row kCommands[] = {
    {"single",
     " --spec --seed --shards --budget --engine --threads --out-csv --out-json --quiet ",
     " --spec "},
    {"run",
     " --spec --seed --shards --budget --engine --run-dir --workers --max-cells"
     " --fault-plan --out-csv --out-json --quiet ",
     " --spec --run-dir "},
    {"worker", " --run-dir --max-cells --fault-plan --quiet ", " --run-dir "},
    {"chaos",
     " --spec --seed --shards --budget --engine --threads --run-dir --workers --max-cells"
     " --chaos-seed --chaos-plans --chaos-rate --quiet ",
     " --spec --run-dir "},
    {"serve", " --root --workers --max-cells --poll-min-ms --poll-max-ms --max-polls --quiet ",
     " --root "},
    {"submit",
     " --root --name --spec --seed --shards --budget --engine --wait --poll-min-ms"
     " --poll-max-ms --out-csv --out-json --quiet ",
     " --root --spec "},
    {"status", " --root --out-json --quiet ", " --root "},
    // merge needs --run-dir, or --root with --name: checked by hand.
    {"merge",
     " --root --name --run-dir --wait --poll-min-ms --poll-max-ms --out-csv --out-json"
     " --quiet ",
     " "},
    {"drain", " --root --clear --quiet ", " --root "},
    {"describe", " --run-dir --out-json --out-spec --quiet ", " --run-dir "},
    {"refine", " --spec --table --out --quiet ", " --spec --table --out "},
};

const command_row* find_command(const std::string& cmd) {
  for (const command_row& row : kCommands) {
    if (cmd == row.cmd) return &row;
  }
  return nullptr;
}

bool flag_allowed(const command_row& row, const std::string& flag) {
  return std::string(row.flags).find(" " + flag + " ") != std::string::npos;
}

/// The classic role and job-selection flags, retired in favour of
/// subcommands and spec files, keyed by name without the leading dashes:
/// each names its replacement.
const char* retired_flag_hint(const std::string& arg) {
  static const struct {
    const char* name;
    const char* hint;
  } kRetired[] = {
      {"single", "use `reldiv_sweep single --spec FILE`"},
      {"worker", "use `reldiv_sweep worker --run-dir DIR`"},
      {"merge-only", "use `reldiv_sweep merge --run-dir DIR`"},
      {"chaos", "use `reldiv_sweep chaos --spec FILE --run-dir DIR`"},
      {"preset", "pass the shipped spec: --spec examples/specs/<kind>_<preset>.spec"},
      {"mode", "the job kind comes from the --spec file's [sweep] kind"},
  };
  for (const auto& row : kRetired) {
    if (arg == std::string("--") + row.name) return row.hint;
  }
  return nullptr;
}

/// A spec file that failed to parse.  Carries the rendered
/// file:line: field: message diagnostics; the CLI prints them bare and
/// exits 2 — no usage dump, the position IS the explanation.
struct spec_failure : std::runtime_error {
  explicit spec_failure(std::string rendered) : std::runtime_error(std::move(rendered)) {}
};

mc::sampling_engine parse_engine(const std::string& name) {
  if (name.empty() || name == "fast") return mc::sampling_engine::fast;
  if (name == "exact") return mc::sampling_engine::exact;
  if (name == "legacy") return mc::sampling_engine::legacy;
  if (name == "fast-simd") return mc::sampling_engine::fast_simd;
  throw std::invalid_argument("unknown engine '" + name +
                              "' (expected fast, exact, legacy or fast-simd)");
}

std::uint64_t parse_u64(const char* flag, const char* value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value, &end, 10);
  // strtoull silently wraps "-1" to ULLONG_MAX-0: reject any non-digit lead.
  if (end == value || *end != '\0' || value[0] == '-' || value[0] == '+' ||
      errno == ERANGE) {
    throw std::invalid_argument(std::string(flag) + " expects an unsigned integer, got '" +
                                value + "'");
  }
  return v;
}

unsigned parse_u32(const char* flag, const char* value) {
  const std::uint64_t v = parse_u64(flag, value);
  if (v > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument(std::string(flag) + " value out of range: " + value);
  }
  return static_cast<unsigned>(v);
}

options parse_args(const command_row& row, int argc, char** argv) {
  const std::string cmd = row.cmd;
  options opt;
  std::set<std::string> seen;  // the flags given
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " expects a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage(cmd).c_str(), stdout);
      std::exit(0);
    }
    if (cmd == "describe" && !arg.empty() && arg[0] != '-' && opt.run_dir.empty()) {
      opt.run_dir = arg;  // positional run directory
      seen.insert("--run-dir");
      continue;
    }
    if (const char* hint = retired_flag_hint(arg)) {
      throw std::invalid_argument(arg + " was retired: " + hint);
    }
    if (!flag_allowed(row, arg)) {
      throw std::invalid_argument("unknown flag '" + arg + "' for '" + cmd +
                                  "' (see reldiv_sweep " + cmd + " --help)");
    }
    seen.insert(arg);
    if (arg == "--spec") {
      opt.spec = value();
    } else if (arg == "--seed") {
      opt.seed = parse_u64("--seed", value());
      opt.seed_set = true;
    } else if (arg == "--shards") {
      opt.shards = parse_u32("--shards", value());
      opt.shards_set = true;
    } else if (arg == "--budget") {
      opt.budget = parse_u64("--budget", value());
    } else if (arg == "--engine") {
      opt.engine = value();
      // Fail fast on typos, before any manifest work starts.
      (void)parse_engine(opt.engine);
    } else if (arg == "--threads") {
      opt.threads = parse_u32("--threads", value());
    } else if (arg == "--run-dir") {
      opt.run_dir = value();
    } else if (arg == "--workers") {
      opt.workers = parse_u32("--workers", value());
    } else if (arg == "--max-cells") {
      opt.max_cells = parse_u64("--max-cells", value());
    } else if (arg == "--fault-plan") {
      opt.fault_plan = value();
      // Fail at the flag, not deep inside a worker run: the recipe must
      // round-trip through fault_plan::parse.
      (void)mc::fault_plan::parse(opt.fault_plan);
    } else if (arg == "--chaos-seed") {
      opt.chaos_seed = parse_u64("--chaos-seed", value());
    } else if (arg == "--chaos-plans") {
      opt.chaos_plans = parse_u32("--chaos-plans", value());
    } else if (arg == "--chaos-rate") {
      opt.chaos_rate = parse_u32("--chaos-rate", value());
    } else if (arg == "--root") {
      opt.root = value();
    } else if (arg == "--name") {
      opt.name = value();
      mc::validate_submission_name(opt.name);
    } else if (arg == "--wait") {
      opt.wait = true;
    } else if (arg == "--clear") {
      opt.clear = true;
    } else if (arg == "--poll-min-ms") {
      opt.poll_min_ms = parse_u64("--poll-min-ms", value());
    } else if (arg == "--poll-max-ms") {
      opt.poll_max_ms = parse_u64("--poll-max-ms", value());
    } else if (arg == "--max-polls") {
      opt.max_polls = parse_u64("--max-polls", value());
    } else if (arg == "--table") {
      opt.table = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--out-spec") {
      opt.out_spec = value();
    } else if (arg == "--out-csv") {
      opt.out_csv = value();
    } else if (arg == "--out-json") {
      opt.out_json = value();
    } else if (arg == "--quiet") {
      opt.quiet = true;
    }
  }

  std::istringstream required(row.required);
  for (std::string flag; required >> flag;) {
    if (seen.count(flag) == 0) {
      throw std::invalid_argument("'" + cmd + "' needs " + flag +
                                  (flag == "--spec" ? " (shipped: examples/specs/*.spec)" : ""));
    }
  }
  if (cmd == "merge" && seen.count("--run-dir") == 0 &&
      (seen.count("--root") == 0 || seen.count("--name") == 0)) {
    throw std::invalid_argument("merge needs --run-dir, or --root with --name");
  }
  if (opt.poll_min_ms == 0 || opt.poll_max_ms < opt.poll_min_ms) {
    throw std::invalid_argument("--poll-min-ms must be > 0 and <= --poll-max-ms");
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Jobs: every job is a sweep-spec file resolved by mc::parse_sweep_spec
// ---------------------------------------------------------------------------

std::string render_spec_errors(const std::vector<mc::spec_error>& errors) {
  std::string out;
  for (const mc::spec_error& e : errors) {
    if (!out.empty()) out += '\n';
    out += e.render();
  }
  return out;
}

std::string read_text_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw spec_failure(path + ": cannot read file");
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

/// Resolve --spec FILE.  Explicit CLI flags override the spec's values (an
/// unset flag never clobbers the file).
mc::sweep_spec resolve_spec(const options& opt) {
  mc::spec_overrides ov;
  if (opt.seed_set) ov.seed = opt.seed;
  if (opt.budget > 0) ov.budget = opt.budget;
  if (opt.shards_set) ov.shards = opt.shards;
  if (!opt.engine.empty()) ov.engine = parse_engine(opt.engine);
  mc::spec_parse_result result = mc::parse_sweep_spec(read_text_file(opt.spec), opt.spec, ov);
  if (!result.spec) throw spec_failure(render_spec_errors(result.errors));
  return std::move(*result.spec);
}

template <class... F>
struct overloaded : F... {
  using F::operator()...;
};

/// The job run in this process — the oracle every distributed run is
/// byte-diffed against.  The CLI's one dispatch on the manifest variant:
/// init, fingerprints and rendering take the variant whole.
mc::merged_tables run_in_process(const mc::manifest_variant& job, unsigned threads) {
  using result = mc::run_handle::result_variant;
  return mc::render_tables(
      job, std::visit(overloaded{[&](const mc::sweep_manifest& m) -> result {
                                   return mc::run_scenario_grid(m.axes, m.config(threads));
                                 },
                                 [&](const mc::demand_manifest& m) -> result {
                                   return mc::run_demand_campaign(m.target_pfd, m.demands,
                                                                  m.config(threads));
                                 },
                                 [&](const mc::experiment_manifest& m) -> result {
                                   return mc::run_experiment(m.universe, m.config(threads));
                                 }},
                      job));
}

// ---------------------------------------------------------------------------
// Output plumbing
// ---------------------------------------------------------------------------

void write_result_files(const std::string& csv, const std::string& json,
                        const options& opt) {
  if (!opt.out_csv.empty()) write_text_file(opt.out_csv, csv);
  if (!opt.out_json.empty()) write_text_file(opt.out_json, json);
}

void write_tables(const mc::merged_tables& tables, const options& opt) {
  write_result_files(tables.csv, tables.json, opt);
  if (!opt.quiet) {
    std::printf("%zu cells merged", tables.cells);
    if (!opt.out_csv.empty()) std::printf(", csv -> %s", opt.out_csv.c_str());
    if (!opt.out_json.empty()) std::printf(", json -> %s", opt.out_json.c_str());
    std::printf("\n");
  }
}

/// The coordinator re-execs this very binary as its workers.
std::string self_exe(const char* argv0) {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

// ---------------------------------------------------------------------------
// single / run / worker / chaos
// ---------------------------------------------------------------------------

int cmd_single(const options& opt) {
  write_tables(run_in_process(resolve_spec(opt).manifest, opt.threads), opt);
  return 0;
}

int cmd_run(const options& opt, const char* argv0) {
  const mc::sweep_spec job = resolve_spec(opt);
  const mc::run_handle run = mc::run_handle::init(job.manifest, opt.run_dir);
  if (!opt.quiet) {
    std::printf("coordinator: run dir %s, spawning up to %u workers\n",
                opt.run_dir.c_str(), opt.workers);
  }
  const mc::distributed_config dist{.workers = opt.workers, .max_cells = opt.max_cells,
                                    .worker_fault_plan = opt.fault_plan};
  const mc::claim_sweep_report sweep = mc::drive_pending_cells(run, dist, self_exe(argv0));
  // On a resumed directory this is where an operator sees recovery happen.
  if (!opt.quiet &&
      (sweep.claims_reaped > 0 || sweep.tmps_removed > 0 || sweep.claims_honored > 0)) {
    std::printf("coordinator: claim sweep reaped %zu stale claims, removed %zu tmp "
                "orphans, honored %zu live claims\n",
                sweep.claims_reaped, sweep.tmps_removed, sweep.claims_honored);
  }
  write_tables(run.merge_tables(), opt);
  return 0;
}

int cmd_worker(const options& opt) {
  // An injection plan handed down by the chaos harness routes every
  // filesystem operation of this worker through the faulty seam.
  std::unique_ptr<mc::faulty_io_env> chaos_env;
  std::optional<mc::scoped_io_env> scoped;
  if (!opt.fault_plan.empty()) {
    chaos_env = std::make_unique<mc::faulty_io_env>(mc::fault_plan::parse(opt.fault_plan));
    scoped.emplace(*chaos_env);
  }
  // The job kind lives in the manifest: the same worker loop serves
  // scenario grids, demand campaigns and experiment shard windows.
  mc::worker_config wcfg;
  wcfg.max_cells = opt.max_cells;
  const mc::worker_report report = mc::run_pending_cells(opt.run_dir, wcfg);
  if (!opt.quiet) {
    std::printf("worker %d: computed %zu cells, skipped %zu, retried %zu, "
                "quarantined %zu, backoff %llu ms\n",
                ::getpid(), report.computed, report.skipped, report.retried,
                report.quarantined, static_cast<unsigned long long>(report.backoff_ms));
    if (chaos_env) {
      std::printf("worker %d: fault plan injected %llu faults over %llu operations\n",
                  ::getpid(), static_cast<unsigned long long>(chaos_env->injected()),
                  static_cast<unsigned long long>(chaos_env->operations()));
    }
  }
  return report.quarantined > 0 ? 3 : 0;
}

/// Sweep deterministic injection plans through distributed runs of the
/// spec's job, holding each trial to the two-arm contract (complete
/// byte-identical to the oracle, or degrade to an intact resumable run
/// dir).  Returns 1 on any contract violation.
int cmd_chaos(const options& opt, const char* argv0) {
  namespace fs = std::filesystem;
  mc::sweep_spec job = resolve_spec(opt);
  if (opt.budget == 0) {
    // Small budgets: a chaos trial is about the protocol, not the
    // estimator — each run finishes in well under a second of compute.
    options small = opt;
    small.budget = job.kind == mc::job_kind::scenario_grid ? 4'000 : 20'000;
    job = resolve_spec(small);
  }
  const std::string kind(mc::job_kind_name(job.kind));
  const std::string exe = self_exe(argv0);
  const std::string oracle = run_in_process(job.manifest, opt.threads).csv;
  const auto campaign = [&](const fs::path& dir, const mc::distributed_config& dist) {
    return mc::run_distributed(mc::run_handle::init(job.manifest, dir), dist, exe).csv;
  };

  std::size_t violations = 0;
  for (std::uint32_t p = 0; p < opt.chaos_plans; ++p) {
    const mc::fault_plan plan = mc::chaos_plan(opt.chaos_seed, p, opt.chaos_rate);
    const fs::path dir = fs::path(opt.run_dir) / (kind + "_plan" + std::to_string(p));
    const mc::distributed_config dist{.workers = opt.workers, .max_cells = opt.max_cells,
                                      .worker_fault_plan = plan.to_string()};

    bool ok = false;
    std::string verdict;
    try {
      // Arm A: the workers absorbed every injected fault (retry/backoff).
      // Reads cannot corrupt results — every state file is checksummed —
      // so a completed merge that differs from the oracle means a write
      // fault slipped through undetected: silent corruption.
      ok = campaign(dir, dist) == oracle;
      verdict = ok ? "completed, byte-identical to oracle"
                   : "SILENT CORRUPTION: completed but differs from oracle";
    } catch (const std::exception& e) {
      // Arm B: the run degraded (quarantined cells, failed workers).  The
      // directory must still be intact and resumable: a clean
      // no-injection rerun has to finish the job bit-exactly.
      if (!opt.quiet) {
        std::printf("chaos[%s #%u]: degraded (%s); verifying clean resume\n", kind.c_str(),
                    p, e.what());
      }
      try {
        mc::distributed_config clean = dist;
        clean.worker_fault_plan.clear();
        if (campaign(dir, clean) != oracle) {
          verdict = "CORRUPTION: clean resume completed but differs from oracle";
        } else if (!mc::quarantined_cells(dir).empty()) {
          verdict = "resume succeeded but stale quarantine records remain";
        } else {
          ok = true;
          verdict = "degraded gracefully; clean resume byte-identical to oracle";
        }
      } catch (const std::exception& resume_error) {
        verdict = std::string("run dir not resumable: ") + resume_error.what();
      }
    }
    if (!ok) ++violations;
    if (!opt.quiet || !ok) {
      std::printf("chaos[%s #%u] plan{%s}: %s\n", kind.c_str(), p, plan.to_string().c_str(),
                  verdict.c_str());
    }
  }
  if (!opt.quiet) {
    std::printf("chaos: %u trials, %zu contract violations\n", opt.chaos_plans, violations);
  }
  return violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Service subcommands (serve / submit / status / merge / drain)
// ---------------------------------------------------------------------------

/// Block until every cell file of `run_dir` exists (deterministic doubling
/// backoff, same schedule as the service worker's long poll).  Returns 0
/// when complete, 3 when the run has quarantined cells — a quarantined cell
/// will never appear, so waiting on would hang forever.
int wait_for_run(const options& opt, const std::filesystem::path& run_dir) {
  std::chrono::milliseconds delay{opt.poll_min_ms};
  const std::chrono::milliseconds ceiling{opt.poll_max_ms};
  for (;;) {
    if (!mc::quarantined_cells(run_dir).empty()) {
      std::fprintf(stderr, "reldiv_sweep: run %s has quarantined cells\n",
                   run_dir.c_str());
      return 3;
    }
    if (mc::missing_cells(run_dir).empty()) return 0;
    std::this_thread::sleep_for(delay);
    delay = std::min(delay * 2, ceiling);
  }
}

int cmd_serve(const options& opt, const char* argv0) {
  if (opt.workers == 0) {
    mc::service_config cfg;
    cfg.worker.max_cells = opt.max_cells;
    cfg.poll_min = std::chrono::milliseconds(opt.poll_min_ms);
    cfg.poll_max = std::chrono::milliseconds(opt.poll_max_ms);
    cfg.max_polls = opt.max_polls;
    const mc::service_report rep = mc::run_service_worker(opt.root, cfg);
    if (!opt.quiet) {
      std::printf("service worker %d: %zu runs served, %zu cells computed, "
                  "%zu skipped, %zu retried, %zu quarantined, %llu empty polls%s\n",
                  ::getpid(), rep.runs_served, rep.cells_computed, rep.cells_skipped,
                  rep.retried, rep.quarantined,
                  static_cast<unsigned long long>(rep.polls),
                  rep.drained ? ", drained" : "");
    }
    return rep.quarantined > 0 ? 3 : 0;
  }
  // A fleet: N copies of this binary, each running the in-process loop
  // above.  Separate OS processes — a SIGKILL'd worker takes nothing down
  // with it, exactly like the `run` coordinator's workers.
  std::vector<std::string> args = {"reldiv_sweep", "serve",     "--root",
                                   opt.root,       "--workers", "0"};
  args.insert(args.end(), {"--poll-min-ms", std::to_string(opt.poll_min_ms)});
  args.insert(args.end(), {"--poll-max-ms", std::to_string(opt.poll_max_ms)});
  if (opt.max_cells > 0) {
    args.insert(args.end(), {"--max-cells", std::to_string(opt.max_cells)});
  }
  if (opt.max_polls > 0) {
    args.insert(args.end(), {"--max-polls", std::to_string(opt.max_polls)});
  }
  if (opt.quiet) args.emplace_back("--quiet");
  const std::vector<int> pids = mc::spawn_processes(self_exe(argv0), args, opt.workers);
  if (!opt.quiet) {
    std::printf("serve: %u workers long-polling root %s\n", opt.workers,
                opt.root.c_str());
  }
  bool quarantined = false;
  bool failed = false;
  for (const int code : mc::wait_sweep_workers(pids)) {
    if (code == 3) {
      quarantined = true;
    } else if (code != 0) {
      failed = true;
    }
  }
  return failed ? 1 : (quarantined ? 3 : 0);
}

std::string default_run_name(std::uint64_t fingerprint) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "run_%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

int cmd_submit(const options& opt) {
  namespace fs = std::filesystem;
  // Resolve the spec and its fingerprint BEFORE touching the filesystem:
  // a cache hit must not create a run directory.
  const mc::sweep_spec job = resolve_spec(opt);
  const std::uint64_t fp = mc::manifest_fingerprint(job.manifest);

  mc::result_cache cache(opt.root);
  if (const std::optional<mc::cached_result> hit = cache.lookup(fp)) {
    write_result_files(hit->csv, hit->json, opt);
    if (!opt.quiet) {
      std::printf("submit: fingerprint %016llx already merged — served from the "
                  "result cache, nothing enqueued\n",
                  static_cast<unsigned long long>(fp));
    }
    return 0;
  }

  const std::string name = opt.name.empty() ? default_run_name(fp) : opt.name;
  const fs::path run_dir = mc::runs_dir(opt.root) / name;
  const mc::run_handle handle = mc::run_handle::init(job.manifest, run_dir);
  const bool queued = mc::submit_queued_run(opt.root, name, run_dir);
  if (!opt.quiet) {
    std::printf("submit: %s '%s' (%s, %llu cells, fingerprint %016llx) -> %s\n",
                queued ? "queued" : "already queued", name.c_str(),
                std::string(mc::job_kind_name(handle.kind())).c_str(),
                static_cast<unsigned long long>(handle.cell_count()),
                static_cast<unsigned long long>(handle.fingerprint()),
                run_dir.c_str());
  }
  if (!opt.wait) return 0;

  const int rc = wait_for_run(opt, run_dir);
  if (rc != 0) return rc;
  const mc::cached_result entry = mc::merge_and_store(cache, run_dir);
  (void)mc::dequeue_run(opt.root, name);
  write_tables({entry.csv, entry.json, handle.cell_count()}, opt);
  return 0;
}

int cmd_status(const options& opt) {
  const mc::service_status status = mc::query_service_status(opt.root);
  const std::string json = status.to_json();
  if (!opt.out_json.empty()) write_text_file(opt.out_json, json);
  if (!opt.quiet) std::fputs(json.c_str(), stdout);
  return 0;
}

int cmd_merge(const options& opt) {
  namespace fs = std::filesystem;
  fs::path run_dir = opt.run_dir;
  std::string queued_name;
  if (run_dir.empty()) {
    for (const mc::queue_entry& entry : mc::queued_runs(opt.root)) {
      if (entry.name == opt.name) {
        run_dir = entry.run_dir;
        queued_name = entry.name;
        break;
      }
    }
    // Already dequeued (e.g. a prior merge) but the run dir is still there.
    if (run_dir.empty()) run_dir = mc::runs_dir(opt.root) / opt.name;
  }

  if (opt.root.empty()) {
    // Standalone directory merge: no cache, no queue.
    if (opt.wait) {
      const int rc = wait_for_run(opt, run_dir);
      if (rc != 0) return rc;
    }
    write_tables(mc::run_handle::open(run_dir).merge_tables(), opt);
    return 0;
  }

  mc::result_cache cache(opt.root);
  const mc::run_handle handle = mc::run_handle::open(run_dir);
  if (const std::optional<mc::cached_result> hit = cache.lookup(handle.fingerprint())) {
    write_result_files(hit->csv, hit->json, opt);
    if (!queued_name.empty()) (void)mc::dequeue_run(opt.root, queued_name);
    if (!opt.quiet) {
      std::printf("merge: fingerprint %016llx served from the result cache\n",
                  static_cast<unsigned long long>(handle.fingerprint()));
    }
    return 0;
  }
  if (opt.wait) {
    const int rc = wait_for_run(opt, run_dir);
    if (rc != 0) return rc;
  }
  const mc::cached_result entry = mc::merge_and_store(cache, run_dir);
  if (!queued_name.empty()) (void)mc::dequeue_run(opt.root, queued_name);
  write_tables({entry.csv, entry.json, handle.cell_count()}, opt);
  return 0;
}

int cmd_drain(const options& opt) {
  if (opt.clear) {
    mc::clear_drain(opt.root);
    if (!opt.quiet) std::printf("drain: sentinel cleared on %s\n", opt.root.c_str());
  } else {
    mc::request_drain(opt.root);
    if (!opt.quiet) {
      std::printf("drain: sentinel raised on %s — workers exit after their "
                  "current cell\n",
                  opt.root.c_str());
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// describe / refine subcommands (spec-layer tools; no service root involved)
// ---------------------------------------------------------------------------

int cmd_describe(const options& opt) {
  const mc::run_handle handle = mc::run_handle::open(opt.run_dir);
  const std::string json = handle.describe();
  if (!opt.out_json.empty()) write_text_file(opt.out_json, json);
  if (!opt.out_spec.empty()) {
    write_text_file(opt.out_spec,
                    mc::write_sweep_spec(mc::spec_from_manifest(handle.manifest())));
  }
  if (!opt.quiet) std::fputs(json.c_str(), stdout);
  return 0;
}

int cmd_refine(const options& opt) {
  mc::spec_parse_result parsed =
      mc::parse_sweep_spec(read_text_file(opt.spec), opt.spec);
  if (!parsed.spec) throw spec_failure(render_spec_errors(parsed.errors));
  mc::sweep_spec spec = std::move(*parsed.spec);
  if (spec.kind != mc::job_kind::scenario_grid) {
    throw spec_failure(opt.spec + ": refinement applies to scenario grids only");
  }
  if (!spec.has_refine) {
    throw spec_failure(opt.spec +
                       ": no [refine] section — add one to declare the rule");
  }
  auto& m = std::get<mc::sweep_manifest>(spec.manifest);
  std::uint64_t old_total = 0;
  for (const mc::scenario_cell& cell : mc::enumerate_cells(m.axes)) {
    old_total += cell.samples;
  }
  mc::refined_budgets refined = mc::compute_refined_budgets(
      m, spec.refine, read_text_file(opt.table), opt.table);
  if (!refined.errors.empty()) throw spec_failure(render_spec_errors(refined.errors));
  std::uint64_t new_total = 0;
  for (const std::uint64_t b : refined.budgets) new_total += b;
  m.axes.cell_budgets = std::move(refined.budgets);
  write_text_file(opt.out, mc::write_sweep_spec(spec));
  if (!opt.quiet) {
    std::printf("refine: %llu cells, total budget %llu -> %llu, spec -> %s\n",
                static_cast<unsigned long long>(m.cell_count),
                static_cast<unsigned long long>(old_total),
                static_cast<unsigned long long>(new_total), opt.out.c_str());
  }
  return 0;
}

int dispatch(const std::string& cmd, const options& opt, const char* argv0) {
  if (cmd == "single") return cmd_single(opt);
  if (cmd == "run") return cmd_run(opt, argv0);
  if (cmd == "worker") return cmd_worker(opt);
  if (cmd == "chaos") return cmd_chaos(opt, argv0);
  if (cmd == "serve") return cmd_serve(opt, argv0);
  if (cmd == "submit") return cmd_submit(opt);
  if (cmd == "status") return cmd_status(opt);
  if (cmd == "merge") return cmd_merge(opt);
  if (cmd == "drain") return cmd_drain(opt);
  if (cmd == "describe") return cmd_describe(opt);
  return cmd_refine(opt);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc >= 2 ? argv[1] : "";
  if (cmd == "--help" || cmd == "-h") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const command_row* row = find_command(cmd);
  if (row == nullptr) {
    if (const char* hint = retired_flag_hint(cmd)) {
      std::fprintf(stderr, "reldiv_sweep: %s was retired: %s\n", cmd.c_str(), hint);
    } else if (cmd.empty() || cmd[0] == '-') {
      std::fprintf(stderr, "reldiv_sweep: a subcommand is required (the coordinator is "
                           "`reldiv_sweep run --spec FILE --run-dir DIR`)\n");
    } else {
      std::fprintf(stderr, "reldiv_sweep: unknown subcommand '%s'\n", cmd.c_str());
    }
    std::fputs(kUsage, stderr);
    return 2;
  }
  options opt;
  try {
    opt = parse_args(*row, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.c_str(), e.what());
    std::fputs(usage(cmd).c_str(), stderr);
    return 2;
  }
  try {
    return dispatch(cmd, opt, argv[0]);
  } catch (const spec_failure& e) {
    // Spec diagnostics carry their own file:line positions — print them
    // bare; a usage dump would bury them.
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "reldiv_sweep %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
