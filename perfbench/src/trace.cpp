// Span recorder, Chrome trace writer and the counting io_env decorator.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

double peak_resident_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM line in /proc/self/status");
}

// ---------------------------------------------------------------------------
// span_recorder
// ---------------------------------------------------------------------------

std::uint32_t span_recorder::open(std::string name, std::string run, std::uint32_t parent) {
  return add(std::move(name), std::move(run), parent, now_ns(), -1, 1);
}

void span_recorder::close(std::uint32_t id) {
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = end;
}

void span_recorder::finish(std::uint32_t id, std::int64_t end_ns, std::string name,
                           std::string run) {
  const std::lock_guard<std::mutex> lock(mutex_);
  span& s = spans_[id - 1];
  s.end_ns = end_ns;
  s.name = std::move(name);
  s.run = std::move(run);
}

std::uint32_t span_recorder::add(std::string name, std::string run, std::uint32_t parent,
                                 std::int64_t start_ns, std::int64_t end_ns, int tid) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), std::move(run), parent, start_ns, end_ns, tid});
  return static_cast<std::uint32_t>(spans_.size());
}

std::vector<std::int64_t> span_recorder::self_ns() const {
  std::vector<std::vector<std::uint32_t>> children(spans_.size() + 1);
  for (std::uint32_t i = 0; i < spans_.size(); ++i) children[spans_[i].parent].push_back(i);
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::uint32_t i = 0; i < spans_.size(); ++i) {
    const span& s = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (const std::uint32_t c : children[i + 1]) {
      const std::int64_t lo = std::max(spans_[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans_[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

scope::scope(span_recorder* rec, const char* name, std::string run) : rec_(rec) {
  if (rec_ == nullptr) return;
  id_ = rec_->open(name, std::move(run), rec_->top());
  rec_->push(id_);
}

scope::~scope() {
  if (rec_ == nullptr) return;
  rec_->pop();
  rec_->close(id_);
}

void write_chrome_trace(const fs::path& path, const std::vector<std::vector<span>>& rounds) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace " + path.string());
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"benchmark"}})";
  out << ",\n"
      << R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"library threads"}})";
  char buf[160];
  std::uint32_t base = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const std::vector<span>& spans = rounds[r];
    for (std::uint32_t i = 0; i < spans.size(); ++i) {
      const span& s = spans[i];
      const std::int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
      out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\""
          << s.name.substr(0, s.name.find('.')) << "\",\"ph\":\"X\"";
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d",
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(end - s.start_ns) * 1e-3, s.tid);
      out << buf;
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"id\":%u,\"parent\":%u,\"round\":%zu",
                    base + i + 1, s.parent == 0 ? 0 : base + s.parent, r);
      out << buf;
      if (!s.run.empty()) out << ",\"run\":\"" << s.run << "\"";
      out << "}}";
    }
    base += static_cast<std::uint32_t>(spans.size());
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("short write of trace " + path.string());
}

// ---------------------------------------------------------------------------
// counting_io_env
// ---------------------------------------------------------------------------

std::string run_of(const fs::path& path) {
  bool next = false;
  for (const fs::path& part : path) {
    if (next) return part.string();
    next = part == "runs";
  }
  return {};
}

namespace {

/// A cell's state file goes through write_file_atomic as "<cell>.state.tmp.*".
bool is_state_tmp(const fs::path& path) {
  return path.parent_path().filename() == "cells" &&
         path.filename().string().find(".state.tmp.") != std::string::npos;
}

bool is_cell_state(const fs::path& path) {
  return path.parent_path().filename() == "cells" && path.extension() == ".state";
}

}  // namespace

counting_io_env::counting_io_env(span_recorder& rec)
    : rec_(rec), owner_(std::this_thread::get_id()) {}

template <typename F>
auto counting_io_env::timed(const char* name, const fs::path& path, std::uint64_t bytes,
                            op_stats& st, hook h, F&& f) {
  const bool own = std::this_thread::get_id() == owner_;
  const std::int64_t t0 = now_ns();
  if (own && visit_ != 0) {
    if (visit_done_) close_visit(t0);
    if (visit_ != 0 && h == hook::state_write) {
      // Everything between the claim and the state write is the cell's
      // compute (sampler kernels, accumulator fold and state encode).
      auto it = run_kind.find(run_of(path));
      rec_.add("compute." + (it == run_kind.end() ? std::string("unknown") : it->second),
               run_of(path), visit_, last_op_end_, t0, 1);
      visit_computed_ = true;
    }
  }
  struct record {
    counting_io_env& env;
    const char* name;
    const fs::path& path;
    std::uint64_t bytes;
    op_stats& st;
    bool own;
    std::int64_t t0;
    ~record() {
      const std::int64_t t1 = now_ns();
      {
        const std::lock_guard<std::mutex> lock(env.stats_mutex_);
        ++st.n;
        st.ns += t1 - t0;
        st.bytes += bytes;
      }
      const std::uint32_t parent = own ? (env.visit_ != 0 ? env.visit_ : env.rec_.top()) : 0;
      env.rec_.add(name, run_of(path), parent, t0, t1, own ? 1 : 2);
      if (own && env.visit_ != 0) {
        if (env.visit_run_.empty()) env.visit_run_ = run_of(path);
        env.last_op_end_ = t1;
      }
    }
  } rec{*this, name, path, bytes, st, own, t0};
  auto result = f();
  if (own && visit_ != 0) {
    if (h == hook::fsync && visit_computed_) visit_done_ = true;
    if (h == hook::read && !visit_computed_) visit_done_ = true;
  }
  return result;
}

std::string counting_io_env::read_file(const fs::path& path) {
  std::uint64_t size = 0;
  std::string out = timed("io.read", path, 0, read, is_cell_state(path) ? hook::read : hook::none,
                          [&] {
                            std::string s = reldiv::mc::system_io_env().read_file(path);
                            size = s.size();
                            return s;
                          });
  const std::lock_guard<std::mutex> lock(stats_mutex_);
  read.bytes += size;
  return out;
}

void counting_io_env::write_file(const fs::path& path, std::string_view contents, bool sync) {
  timed(sync ? "io.write_sync" : "io.write", path, contents.size(), sync ? write_sync : write,
        sync && is_state_tmp(path) ? hook::state_write : hook::none, [&] {
          reldiv::mc::system_io_env().write_file(path, contents, sync);
          return 0;
        });
}

void counting_io_env::fsync_dir(const fs::path& dir) {
  timed("io.fsync_dir", dir, 0, fsync, dir.filename() == "cells" ? hook::fsync : hook::none,
        [&] {
          reldiv::mc::system_io_env().fsync_dir(dir);
          return 0;
        });
}

void counting_io_env::rename_file(const fs::path& from, const fs::path& to) {
  timed("io.rename", to, 0, rename, hook::none, [&] {
    reldiv::mc::system_io_env().rename_file(from, to);
    return 0;
  });
}

int counting_io_env::rename_noreplace(const fs::path& from, const fs::path& to) {
  return timed("io.claim", to, 0, claim, hook::none,
               [&] { return reldiv::mc::system_io_env().rename_noreplace(from, to); });
}

bool counting_io_env::touch(const fs::path& path, std::string_view contents, bool create) {
  return timed("io.touch", path, contents.size(), touch_op, hook::none,
               [&] { return reldiv::mc::system_io_env().touch(path, contents, create); });
}

void counting_io_env::begin_visit() {
  last_op_end_ = now_ns();
  visit_ = rec_.add("service.cell", "", rec_.top(), last_op_end_, -1, 1);
  visit_run_.clear();
  visit_computed_ = false;
  visit_done_ = false;
}

void counting_io_env::end_visit() {
  if (visit_ != 0) close_visit(now_ns());
}

void counting_io_env::close_visit(std::int64_t at) {
  rec_.finish(visit_, at, visit_computed_ ? "service.cell" : "service.cell_skip", visit_run_);
  visit_ = 0;
}

}  // namespace perfbench
