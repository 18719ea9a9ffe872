// rimarket benchmark binary.
//
//   rimarket_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                      --work-dir <dir> [--corrupt-expected]
//   rimarket_perfbench --list-metrics
//
// Workloads: paper-sweep, population-sweep, serve-read, serve-mixed.
// Prints one detail line (machine block, stated parameters, per-phase
// operation accounting, failed checks) and then, as the last line, the
// result object {"correct","attempted","failed","metrics"}: every
// end-to-end metric when untraced, every per-layer metric when traced.
// Exits 1 when any correctness check fails, 2 on a usage error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common/logging.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using perfbench::json_escape;

int usage(const char* why) {
  std::fprintf(stderr,
               "rimarket_perfbench: %s\nusage: rimarket_perfbench --workload "
               "<paper-sweep|population-sweep|serve-read|serve-mixed> --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--corrupt-expected]\n",
               why);
  return 2;
}

void list_metrics() {
  for (const auto& def : perfbench::kEndToEnd) {
    std::printf("end_to_end %.*s %.*s\n", static_cast<int>(def.name.size()), def.name.data(),
                static_cast<int>(def.unit.size()), def.unit.data());
  }
  for (const auto& def : perfbench::kPerLayer) {
    std::printf("per_layer %.*s %.*s\n", static_cast<int>(def.name.size()), def.name.data(),
                static_cast<int>(def.unit.size()), def.unit.data());
  }
}

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

/// The detail line: everything a reader needs to compare two results.
void print_detail(const perfbench::Options& options, const perfbench::Result& result) {
  std::string line = "{\"workload\":\"" + json_escape(options.workload) + "\"";
  line += ",\"seed\":" + std::to_string(options.seed);
  line += ",\"seconds\":" + number(options.seconds);
  line += std::string(",\"trace\":") + (options.trace ? "1" : "0");
  line += ",\"machine\":" + perfbench::machine_json(result.threads_used);
  line += ",\"params\":{";
  bool first = true;
  for (const auto& [key, value] : result.params) {
    line += (first ? "\"" : ",\"") + json_escape(key) + "\":\"" + json_escape(value) + "\"";
    first = false;
  }
  line += "},\"phases\":{";
  first = true;
  for (const auto& [name, count] : result.phases) {
    line += (first ? "\"" : ",\"") + json_escape(name) + "\":{\"attempted\":" +
            std::to_string(count.attempted) + ",\"succeeded\":" +
            std::to_string(count.attempted - count.failed) + ",\"failed\":" +
            std::to_string(count.failed) + "}";
    first = false;
  }
  line += "},\"check_failures\":[";
  first = true;
  for (const auto& failure : result.check_failures) {
    line += (first ? "\"" : ",\"") + json_escape(failure) + "\"";
    first = false;
  }
  line += "]}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  bool have_work_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list-metrics") {
      list_metrics();
      return 0;
    } else if (arg == "--corrupt-expected") {
      options.corrupt_expected = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "1") == 0;
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
      have_work_dir = true;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_work_dir || !(options.seconds > 0.0)) {
    return usage("--workload, --work-dir and a positive --seconds are required");
  }
  rimarket::common::set_log_level(rimarket::common::LogLevel::kError);
  std::filesystem::create_directories(options.work_dir);

  perfbench::Result result;
  try {
    if (options.workload == "paper-sweep") {
      result = perfbench::run_paper_sweep(options);
    } else if (options.workload == "population-sweep") {
      result = perfbench::run_population_sweep(options);
    } else if (options.workload == "serve-read") {
      result = perfbench::run_serve(options, false);
    } else if (options.workload == "serve-mixed") {
      result = perfbench::run_serve(options, true);
    } else {
      return usage(("unknown workload " + options.workload).c_str());
    }
  } catch (const std::exception& error) {
    result.check(false, std::string("workload aborted: ") + error.what());
  }
  std::filesystem::remove_all(options.work_dir);
  // Workloads record the peak at the end of their timed region, before
  // the checks; this fallback covers a run that aborted early.
  result.metrics.emplace("peak_rss_mib", perfbench::peak_rss_mib());

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& [name, count] : result.phases) {
    attempted += count.attempted;
    failed += count.failed;
  }
  result.metrics["failed_ratio"] =
      attempted == 0 ? 0.0 : static_cast<double>(failed) / static_cast<double>(attempted);
  result.check(attempted > 0, "no operation was attempted");

  const auto& catalogue = options.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  std::string metrics;
  for (const auto& def : catalogue) {
    const auto it = result.metrics.find(std::string(def.name));
    // A layer the workload does not exercise reads 0; an end-to-end
    // metric is always measured, so its absence is a bench bug.
    if (it == result.metrics.end() && !options.trace) {
      result.check(false, "end-to-end metric not measured: " + std::string(def.name));
    }
    const double value = it == result.metrics.end() ? 0.0 : it->second;
    metrics += (metrics.empty() ? "\"" : ",\"") + std::string(def.name) + "\":{\"value\":" +
               number(value) + ",\"unit\":\"" + std::string(def.unit) + "\"}";
  }
  print_detail(options, result);
  for (const auto& failure : result.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.check_failures.empty();
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
