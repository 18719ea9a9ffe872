// The benchmark's four workloads.  Each builds its inputs from the seed,
// measures for the requested time, checks its outputs outside the timed
// region, and fills a Result: end-to-end metrics when untraced, per-layer
// metrics when traced.
#pragma once

#include "harness.hpp"

namespace perfbench {

/// The paper's 300-user population through the per-user sweep.
Result run_paper_sweep(const Options& options);

/// ~5k CSV traces streamed through the checkpointing batch engine.
Result run_population_sweep(const Options& options);

/// ADVISE/BREAKEVEN reads against the advisor service; with `mixed`,
/// durable SNAPSHOT_UPDATEs (200/s) ride along on a journaled service.
Result run_serve(const Options& options, bool mixed);

/// Runs `fn` `repeats` times and appends each run's wall time in seconds
/// to `walls`; set-up is repeated so that one slow start does not decide
/// setup_s.
template <typename Fn>
void time_setups(int repeats, std::vector<double>& walls, Fn&& fn) {
  for (int i = 0; i < repeats; ++i) {
    const auto start = Clock::now();
    fn();
    walls.push_back(seconds_since(start));
  }
}

}  // namespace perfbench
