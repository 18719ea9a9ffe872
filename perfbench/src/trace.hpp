// Span recorder for the traced runs.
//
// A Span times one call into a library layer (steady_clock at both ends)
// and adds its duration to a per-thread accumulator for that layer, so
// worker threads never contend on a shared counter.  Totals are merged when
// the run is quiescent.  Layers are pre-registered by name; a layer's
// total time divided by its span count is the mean per call.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Total {
    std::uint64_t nanos = 0;
    std::uint64_t count = 0;

    double seconds() const { return static_cast<double>(nanos) / 1e9; }
    double mean_ns() const {
      return count == 0 ? 0.0 : static_cast<double>(nanos) / static_cast<double>(count);
    }
  };

  explicit Tracer(std::vector<std::string> layers);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Index of a registered layer; throws std::out_of_range if unknown.
  std::size_t layer(const std::string& name) const;

  void add(std::size_t layer, std::uint64_t nanos) {
    Slot& slot = slot_for_this_thread();
    slot.totals[layer].nanos += nanos;
    slot.totals[layer].count += 1;
  }

  /// Sum over every thread.  Call only while no span is being recorded.
  Total total(std::size_t layer) const;

 private:
  struct Slot {
    std::vector<Total> totals;
  };
  Slot& slot_for_this_thread();

  std::vector<std::string> layers_;
  /// Distinguishes tracers in the per-thread slot cache, even when a new
  /// tracer reuses a destroyed one's address.
  const std::uint64_t id_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Times its own lifetime into `tracer`'s `layer`.
class Span {
 public:
  Span(Tracer& tracer, std::size_t layer)
      : tracer_(tracer), layer_(layer), start_(Clock::now()) {}
  ~Span() {
    const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_);
    tracer_.add(layer_, static_cast<std::uint64_t>(nanos.count()));
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  std::size_t layer_;
  Clock::time_point start_;
};

}  // namespace perfbench
