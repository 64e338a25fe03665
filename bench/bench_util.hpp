#pragma once
// Shared formatting helpers for the reproduction benches.  Each bench binary
// prints (a) what the paper states, (b) what this implementation measures,
// and (c) a qualitative-shape verdict, so EXPERIMENTS.md can be regenerated
// by running `for b in build/bench/*; do $b; done`.  Verdicts are tallied:
// main returns exit_status(), which is nonzero after any MISMATCH, so a
// reproduction gates its claims rather than only printing them.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace benchutil {

inline void title(const std::string& id, const std::string& what) {
  std::printf("\n==============================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("==============================================================================\n");
}

/// Starts a section and flushes what came before, so a run cut short by a
/// timeout still shows how far it got when stdout is a pipe.
inline void section(const std::string& name) {
  std::printf("\n--- %s ---\n", name.c_str());
  std::fflush(stdout);
}

inline void note(const std::string& text) { std::printf("  %s\n", text.c_str()); }

/// Simple fixed-width table printer.
class table {
 public:
  explicit table(std::vector<std::string> headers, int col_width = 14)
      : headers_(std::move(headers)), width_(col_width) {}

  void row(const std::vector<std::string>& cells) { rows_.push_back(cells); }

  /// Each column is col_width wide, or its longest cell plus one space when
  /// that is wider, so adjacent cells never run together.
  void print() const {
    const auto min_width = static_cast<std::size_t>(width_);
    std::vector<std::size_t> widths(headers_.size(), min_width);
    auto fit = [&](const std::vector<std::string>& cells) {
      if (cells.size() > widths.size()) widths.resize(cells.size(), min_width);
      for (std::size_t i = 0; i < cells.size(); ++i) {
        widths[i] = std::max(widths[i], cells[i].size() + 1);
      }
    };
    fit(headers_);
    for (const auto& r : rows_) fit(r);
    auto print_row = [&widths](const std::vector<std::string>& cells) {
      std::printf("  ");
      for (std::size_t i = 0; i < cells.size(); ++i) {
        std::printf("%-*s", static_cast<int>(widths[i]), cells[i].c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < headers_.size(); ++i) total += widths[i];
    std::printf("  %s\n", std::string(total, '-').c_str());
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  int width_;
};

inline std::string fmt(double x, const char* spec = "%.6g") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, x);
  return buf;
}

inline std::string sci(double x) { return fmt(x, "%.3e"); }

/// Verdicts printed so far: {reproduced, mismatched}.
inline int verdicts[2] = {0, 0};

inline void verdict(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "REPRODUCED" : "MISMATCH", claim.c_str());
  ++verdicts[ok ? 0 : 1];
}

/// Print the tally and return main's exit status: 1 on any MISMATCH.
inline int exit_status() {
  std::printf("\n  verdicts: %d reproduced, %d mismatched\n", verdicts[0], verdicts[1]);
  std::fflush(stdout);
  return verdicts[1] > 0 ? 1 : 0;
}

}  // namespace benchutil
