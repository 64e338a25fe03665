#pragma once
// Shared declarations of the end-to-end benchmark: the span recorder, the
// counting io_env decorator that watches the program's I/O seam, the
// closed-form checks, and the two workloads.  Everything here sits on the
// benchmark's side of the library's public API; nothing reaches into src/.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mc/io_env.hpp"

namespace perfbench {

namespace fs = std::filesystem;

/// Steady-clock nanoseconds since the first call in this process.
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] inline double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The process's peak resident set so far (`VmHWM` of /proc/self/status),
/// in MiB.  It covers every thread and transient buffer of the library.
[[nodiscard]] double peak_resident_mb();

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced interval.  Ids are 1-based indices into the recorder; parent 0
/// is the root.  Spans of one submitted run carry its submission name in
/// `run`, so a trace viewer can filter a run's whole life.
struct span {
  std::string name;
  std::string run;
  std::uint32_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;
  int tid = 1;  ///< 1 = the benchmark's own thread, 2 = any other thread
};

/// In-memory span store.  Spans are appended while the workload runs and
/// only read (self times, trace file) after it; the mutex covers the rare
/// append from a library-owned thread (claim heartbeats).
class span_recorder {
 public:
  std::uint32_t open(std::string name, std::string run, std::uint32_t parent);
  void close(std::uint32_t id);
  /// Close span `id` at `end_ns` under its final name and run.
  void finish(std::uint32_t id, std::int64_t end_ns, std::string name, std::string run);
  std::uint32_t add(std::string name, std::string run, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns, int tid);

  /// Innermost open scope of the benchmark's own thread (0 when none).
  [[nodiscard]] std::uint32_t top() const { return stack_.empty() ? 0 : stack_.back(); }
  void push(std::uint32_t id) { stack_.push_back(id); }
  void pop() { stack_.pop_back(); }

  [[nodiscard]] const std::vector<span>& spans() const { return spans_; }
  /// Per span (index id-1): its duration minus the union of its children.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

 private:
  std::mutex mutex_;
  std::vector<span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span on the benchmark's own thread; a no-op without a recorder, so
/// untraced rounds run the same code with tracing off.
class scope {
 public:
  scope(span_recorder* rec, const char* name, std::string run = {});
  ~scope();
  scope(const scope&) = delete;
  scope& operator=(const scope&) = delete;

 private:
  span_recorder* rec_;
  std::uint32_t id_ = 0;
};

/// Write every round's spans as Chrome trace-event JSON (loads in Perfetto
/// and chrome://tracing).  `rounds[i]` holds round i's spans.
void write_chrome_trace(const fs::path& path, const std::vector<std::vector<span>>& rounds);

// ---------------------------------------------------------------------------
// The I/O seam decorator
// ---------------------------------------------------------------------------

struct op_stats {
  std::uint64_t n = 0;
  std::int64_t ns = 0;
  std::uint64_t bytes = 0;
};

/// Forwards every mc::io_env operation to the system env and records its
/// count, bytes and latency, plus one span per operation.  It also turns
/// the service worker's per-cell should_stop calls into cell spans:
/// end_visit()/begin_visit() bracket one cell visit, and the visit's compute
/// interval is read off the seam itself — from the end of the claim to the
/// start of the cell's state-file write.
class counting_io_env final : public reldiv::mc::io_env {
 public:
  explicit counting_io_env(span_recorder& rec);

  [[nodiscard]] std::string read_file(const fs::path& path) override;
  void write_file(const fs::path& path, std::string_view contents, bool sync) override;
  void fsync_dir(const fs::path& dir) override;
  void rename_file(const fs::path& from, const fs::path& to) override;
  [[nodiscard]] int rename_noreplace(const fs::path& from, const fs::path& to) override;
  bool touch(const fs::path& path, std::string_view contents, bool create) override;

  void begin_visit();
  void end_visit();

  /// Compute spans are named "compute.<kind>" after the run's job kind.
  std::map<std::string, std::string> run_kind;

  op_stats write_sync, write, fsync, rename, claim, read, touch_op;

 private:
  enum class hook { none, read, state_write, fsync };
  template <typename F>
  auto timed(const char* name, const fs::path& path, std::uint64_t bytes, op_stats& st,
             hook h, F&& f);
  void close_visit(std::int64_t at);

  span_recorder& rec_;
  std::thread::id owner_;
  std::mutex stats_mutex_;
  std::uint32_t visit_ = 0;
  std::string visit_run_;
  bool visit_computed_ = false;
  bool visit_done_ = false;
  std::int64_t last_op_end_ = 0;
};

/// The submission name a path belongs to (the segment after "runs"), or "".
[[nodiscard]] std::string run_of(const fs::path& path);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// What one round measured.  `layers` holds per-layer values (traced
/// rounds only); `ops`/`failed` count the round's operations.
struct round_result {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> layers;
};

/// A workload: built once from the seed, then run in whole rounds of the
/// same operations.  finish() runs the checks that need no timing and
/// reports per-run per-layer extras (the single-thread baseline).
class workload {
 public:
  virtual ~workload() = default;
  virtual round_result round(const fs::path& root, span_recorder* rec) = 0;
  /// Correctness checks; appends one line per failed check to `errors`.
  virtual void finish(std::vector<std::string>& errors,
                      std::map<std::string, double>& extra_layers, bool traced) = 0;
};

[[nodiscard]] std::unique_ptr<workload> make_sweep_service(std::uint64_t seed);
[[nodiscard]] std::unique_ptr<workload> make_plant_fig1(std::uint64_t seed);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace perfbench
