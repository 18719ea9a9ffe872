#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_per_s", "1/s"},
};

const std::vector<MetricDef> kPerLayer = {
    // workload
    {"workload.population_build_s", "s"},
    {"workload.ingest_s", "s"},
    {"workload.ingest_users", "count"},
    {"workload.ingest_bytes", "B"},
    {"workload.ingest_mb_per_s", "MB/s"},
    // purchasing: make_purchaser + ReservationStream::generate, per kind
    {"purchasing.generate_s.all_reserved", "s"},
    {"purchasing.generate_s.random", "s"},
    {"purchasing.generate_s.wang_online", "s"},
    {"purchasing.generate_s.wang_variant", "s"},
    // sim: make_seller + simulate, per seller
    {"sim.simulate_s.keep", "s"},
    {"sim.simulate_s.all_selling", "s"},
    {"sim.simulate_s.a3t4", "s"},
    {"sim.simulate_s.at2", "s"},
    {"sim.simulate_s.at4", "s"},
    {"sim.evaluate.busy_s", "s"},
    {"sim.evaluate.tasks", "count"},
    {"sim.evaluate.parallel_efficiency", "ratio"},
    {"sim.batch.wall_s", "s"},
    {"sim.batch.serial_s", "s"},
    {"sim.batch.checkpoint_s", "s"},
    {"sim.batch.busy_s", "s"},
    {"sim.batch.shards", "count"},
    {"sim.batch.max_queue_depth", "count"},
    {"sim.batch.parallel_efficiency", "ratio"},
    {"sim.scenarios", "count"},
    {"sim.reservations_made", "count"},
    {"sim.instances_sold", "count"},
    // analysis
    {"analysis.normalize_s", "s"},
    // serve, from the service's own metrics
    {"serve.service_us.mean.advise", "us"},
    {"serve.service_us.mean.breakeven", "us"},
    {"serve.service_us.mean.snapshot_update", "us"},
    {"serve.queue_wait_us.mean", "us"},
    {"serve.busy_rejections", "count"},
    {"serve.requests.errors", "count"},
    // serve, traced request path
    {"serve.protocol.parse_ns", "ns"},
    {"serve.snapshot.lookup_ns", "ns"},
    {"serve.advisor.advise_ns", "ns"},
    {"serve.advisor.breakeven_ns", "ns"},
    {"serve.format_ns", "ns"},
    {"serve.metrics.observe_ns", "ns"},
    {"serve.pool.submit_ns", "ns"},
    // serve, traced update path
    {"serve.snapshot.load_s", "s"},
    {"serve.journal.append_us", "us"},
    {"serve.snapshot.publish_us", "us"},
    {"serve.journal.bytes", "B"},
    {"serve.journal.compactions", "count"},
    {"serve.journal.recover_s", "s"},
    {"read_p50_us", "us"},
    {"read_p99_us", "us"},
    {"update_p50_us", "us"},
    {"update_p99_us", "us"},
    // load generator health
    {"loadgen.lag_p50_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.sent", "count"},
    {"loadgen.completed", "count"},
    // accounting and tracing cost
    {"failed_ratio", "ratio"},
    {"trace.overhead_pct", "%"},
};

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

double sorted_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) {
    return 0.0;
  }
  // Nearest rank: the smallest sample with at least q of the sample at or
  // below it.
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string json_escape(std::string_view text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

std::string machine_json(int threads_used) {
  std::string out = "{\"cpu_model\":\"" + json_escape(cpu_model()) + "\"";
  out += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"hardware_concurrency\":" + std::to_string(std::thread::hardware_concurrency());
  out += ",\"threads_used\":" + std::to_string(threads_used);
  out += ",\"compiler\":\"" + json_escape(compiler()) + "\"";
  out += ",\"build_type\":\"" PERFBENCH_BUILD_TYPE "\"}";
  return out;
}

}  // namespace perfbench
