// Shared plumbing of the rimarket benchmark: options, the metric catalogue,
// the per-run result, timing and percentile helpers, and the machine block.
//
// The benchmark drives the library only through its public headers; every
// per-layer number comes from spans recorded in these files around those
// calls (see trace.hpp), never from instrumentation inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Command line of one run (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated inputs (trace CSVs, journals).
  std::string work_dir;
  /// Self-test hook: corrupt one expected answer so the run must fail.
  bool corrupt_expected = false;
};

/// One metric of the catalogue; `unit` is printed with every value.
struct MetricDef {
  std::string_view name;
  std::string_view unit;
};

/// Every end-to-end metric, reported by every untraced run.
extern const std::vector<MetricDef> kEndToEnd;
/// Every per-layer metric, reported by every traced run.  A workload that
/// does not exercise a layer reports 0 for it.
extern const std::vector<MetricDef> kPerLayer;

/// Attempted and failed operations of one phase of a workload.
struct PhaseCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Everything one workload run produces.
struct Result {
  std::map<std::string, double> metrics;
  /// Per-phase operation accounting, keyed by phase name.
  std::map<std::string, PhaseCount> phases;
  /// Failed correctness checks (empty means correct).
  std::vector<std::string> check_failures;
  /// Threads the workload uses, load generator and ingestion included.
  int threads_used = 0;
  /// Stated workload parameters (sizes, rate) echoed in the detail line.
  std::map<std::string, std::string> params;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      check_failures.push_back(what);
    }
  }
  PhaseCount& phase(const std::string& name) { return phases[name]; }
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank percentile (q in [0,1]) of an ascending-sorted sample.
double sorted_percentile(const std::vector<double>& sorted, double q);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mib();

/// The `machine` block: CPU model, nproc, threads used, compiler, build type.
std::string machine_json(int threads_used);

/// Escapes a string for a JSON string literal.
std::string json_escape(std::string_view text);

}  // namespace perfbench
