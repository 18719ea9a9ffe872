// paper-sweep and population-sweep: the offline half of rimarket.
//
// paper-sweep runs the paper's evaluation exactly as `rimarket_cli
// evaluate` does: the 300-user population through per-user evaluate_sweep,
// then the keep-reserved normalisation.  population-sweep streams ~5k CSV
// traces through the checkpointing batch engine, the engine's intended use.
// Both report hour-steps (users x hours x purchasers x sellers) per second
// of sweep wall time, ingestion, checkpointing and normalisation included.

#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "analysis/normalize.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "pricing/catalog.hpp"
#include "sim/batch_engine.hpp"
#include "sim/runner.hpp"
#include "sim/seeding.hpp"
#include "trace.hpp"
#include "workload/population.hpp"
#include "workload/streaming.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rm = rimarket;

namespace {

/// Set-up is repeated this many times before the first pass, and once more
/// after every pass; setup_s is the median of all of them.
constexpr int kSetupRepeats = 3;

bool same_results(const rm::sim::SweepReport& a, const rm::sim::SweepReport& b) {
  if (a.results.size() != b.results.size() || a.quarantined.size() != b.quarantined.size() ||
      a.retries != b.retries || a.injected_faults != b.injected_faults ||
      a.virtual_backoff_ms != b.virtual_backoff_ms) {
    return false;
  }
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const rm::sim::ScenarioResult& x = a.results[i];
    const rm::sim::ScenarioResult& y = b.results[i];
    // Exact double equality: every implementation must do the same
    // arithmetic in the same order.
    if (x.user_id != y.user_id || x.group != y.group || x.purchaser != y.purchaser ||
        x.seller.kind != y.seller.kind || x.seller.fraction != y.seller.fraction ||
        x.net_cost != y.net_cost || x.reservations_made != y.reservations_made ||
        x.instances_sold != y.instances_sold || x.on_demand_hours != y.on_demand_hours) {
      return false;
    }
  }
  return true;
}

void corrupt(rm::sim::SweepReport& report) {
  if (!report.results.empty()) {
    report.results.front().net_cost = report.results.front().net_cost + rm::Money{1.0};
  }
}

/// Runs `pass` until `seconds` are used (at least once, and never starting
/// a pass the previous one says would overrun); returns each pass's wall.
/// After each pass, `setup` repeats the workload's set-up on throwaway
/// inputs and returns its wall, which is appended to `setup_walls`: the
/// set-up is then sampled across the whole run rather than only its first
/// second, so one slow spell of a shared host does not decide setup_s.
template <typename Setup, typename Pass>
std::vector<double> timed_passes(double seconds, std::vector<double>& setup_walls, Setup&& setup,
                                 Pass&& pass) {
  std::vector<double> walls;
  const auto begin = Clock::now();
  while (walls.empty() || seconds_since(begin) + walls.back() + setup_walls.back() <= seconds) {
    const auto start = Clock::now();
    pass();
    walls.push_back(seconds_since(start));
    setup_walls.push_back(setup());
  }
  return walls;
}

std::string seconds_list(const std::vector<double>& walls) {
  std::string list;
  for (const double wall : walls) {
    list += (list.empty() ? "" : " ") + std::to_string(wall);
  }
  return list;
}

void report_setup_timing(Result& result, const std::vector<double>& setup_walls) {
  result.metrics["setup_s"] = median(setup_walls);
  result.params["setup_walls_s"] = seconds_list(setup_walls);
}

void report_sweep_timing(Result& result, const std::vector<double>& walls, double hour_steps) {
  std::vector<double> rates;
  for (const double wall : walls) {
    rates.push_back(hour_steps / wall);
  }
  result.metrics["throughput_per_s"] = median(rates);
  result.params["pass_walls_s"] = seconds_list(walls);
}

void report_counts(Result& result, const rm::sim::SweepReport& report) {
  double reservations = 0;
  double sold = 0;
  for (const auto& row : report.results) {
    reservations += static_cast<double>(row.reservations_made);
    sold += static_cast<double>(row.instances_sold);
  }
  result.metrics["sim.scenarios"] = static_cast<double>(report.results.size());
  result.metrics["sim.reservations_made"] = reservations;
  result.metrics["sim.instances_sold"] = sold;
}

double registry_value(const char* name) {
  return rm::common::MetricsRegistry::global().get(name).value_or(0.0);
}

// ---------------------------------------------------------------------------
// paper-sweep

constexpr std::size_t kPaperThreads = 4;

const char* purchaser_key(rm::purchasing::PurchaserKind kind) {
  switch (kind) {
    case rm::purchasing::PurchaserKind::kAllReserved: return "all_reserved";
    case rm::purchasing::PurchaserKind::kRandomReservation: return "random";
    case rm::purchasing::PurchaserKind::kWangOnline: return "wang_online";
    case rm::purchasing::PurchaserKind::kWangVariant: return "wang_variant";
    default: return "other";
  }
}

const char* seller_key(rm::sim::SellerKind kind) {
  switch (kind) {
    case rm::sim::SellerKind::kKeepReserved: return "keep";
    case rm::sim::SellerKind::kAllSelling: return "all_selling";
    case rm::sim::SellerKind::kA3T4: return "a3t4";
    case rm::sim::SellerKind::kAT2: return "at2";
    case rm::sim::SellerKind::kAT4: return "at4";
    default: return "other";
  }
}

/// The per-user pipeline of sim::evaluate_user, driven from here through
/// the public functions so each layer call can be spanned.
std::vector<rm::sim::ScenarioResult> traced_user(const rm::workload::User& user,
                                                 const rm::sim::EvaluationSpec& spec,
                                                 Tracer& tracer) {
  std::vector<rm::sim::ScenarioResult> results;
  const rm::Hour horizon = spec.sim.effective_horizon(user.trace);
  for (const rm::purchasing::PurchaserKind kind : spec.purchasers) {
    const std::uint64_t run_seed =
        rm::sim::seeding::per_run_seed(spec.seed, user.id, static_cast<int>(kind));
    rm::sim::ReservationStream stream;
    {
      const Span span(tracer, tracer.layer(std::string("purchasing.generate_s.") +
                                           purchaser_key(kind)));
      const auto purchaser = rm::purchasing::make_purchaser(kind, spec.sim.type, run_seed);
      stream = rm::sim::ReservationStream::generate(user.trace, *purchaser, horizon,
                                                    spec.sim.type.term);
    }
    for (const rm::sim::SellerSpec& seller_spec : spec.sellers) {
      rm::sim::SimulationResult run;
      {
        const Span span(tracer, tracer.layer(std::string("sim.simulate_s.") +
                                             seller_key(seller_spec.kind)));
        const auto seller =
            rm::sim::make_seller(seller_spec, spec.sim, run_seed, &user.trace, &stream);
        run = rm::sim::simulate(user.trace, stream, *seller, spec.sim);
      }
      rm::sim::ScenarioResult row;
      row.user_id = user.id;
      row.group = user.group;
      row.purchaser = kind;
      row.seller = seller_spec;
      row.net_cost = run.net_cost();
      row.reservations_made = run.reservations_made;
      row.instances_sold = run.instances_sold;
      row.on_demand_hours = run.on_demand_hours;
      results.push_back(row);
    }
  }
  return results;
}

std::vector<std::string> paper_layers() {
  std::vector<std::string> layers{"analysis.normalize_s"};
  for (const auto kind : rm::purchasing::kPaperPurchasers) {
    layers.push_back(std::string("purchasing.generate_s.") + purchaser_key(kind));
  }
  for (const auto& seller : rm::sim::paper_sellers(rm::Fraction{0.75})) {
    layers.push_back(std::string("sim.simulate_s.") + seller_key(seller.kind));
  }
  return layers;
}

}  // namespace

Result run_paper_sweep(const Options& options) {
  Result result;
  result.threads_used = static_cast<int>(kPaperThreads);
  Tracer tracer(paper_layers());

  rm::workload::PopulationSpec population_spec;  // 100 users per group, 17520 h
  population_spec.seed = options.seed;
  std::optional<rm::workload::UserPopulation> population;
  std::vector<double> setup_walls;
  std::vector<double> build_times;
  time_setups(kSetupRepeats, setup_walls, [&] {
    population.reset();
    const auto start = Clock::now();
    population = rm::workload::UserPopulation::build(population_spec);
    build_times.push_back(seconds_since(start));
  });
  result.metrics["workload.population_build_s"] = median(build_times);
  const auto setup_again = [&] {
    const auto start = Clock::now();
    const auto throwaway = rm::workload::UserPopulation::build(population_spec);
    return seconds_since(start);
  };
  const std::span<const rm::workload::User> users(population->users());

  rm::sim::EvaluationSpec spec;
  spec.sim.type = *rm::pricing::PricingCatalog::builtin().find("d2.xlarge");
  spec.sim.selling_discount = rm::Fraction{0.8};
  spec.seed = options.seed;
  spec.threads = kPaperThreads;
  spec.sellers = rm::sim::paper_sellers(rm::Fraction{0.75});
  const double hour_steps = static_cast<double>(users.size()) *
                            static_cast<double>(population_spec.trace_hours) *
                            static_cast<double>(spec.purchasers.size()) *
                            static_cast<double>(spec.sellers.size());
  result.params["users"] = std::to_string(users.size());
  result.params["hours"] = std::to_string(population_spec.trace_hours);
  result.params["purchasers_x_sellers"] =
      std::to_string(spec.purchasers.size()) + "x" + std::to_string(spec.sellers.size());

  std::vector<rm::sim::SweepReport> reports;
  std::vector<std::size_t> normalized_rows;
  PhaseCount& sweep_users = result.phase("sweep_users");
  const auto sweep_pass = [&] {
    sweep_users.attempted += users.size();
    try {
      rm::sim::SweepReport report = rm::sim::evaluate_sweep(users, spec);
      normalized_rows.push_back(rm::analysis::normalize_to_keep(report.results).size());
      sweep_users.failed += report.quarantined.size();
      reports.push_back(std::move(report));
      if (reports.size() == 1) {
        // Set-up plus one pass: later passes only add allocator noise.
        result.metrics["peak_rss_mib"] = peak_rss_mib();
      }
    } catch (const rm::sim::SweepError& error) {
      sweep_users.failed += error.failures().size();
      result.check(false, std::string("paper sweep failed: ") + error.what());
    }
  };

  if (!options.trace) {
    report_sweep_timing(result, timed_passes(options.seconds, setup_walls, setup_again, sweep_pass),
                        hour_steps);
  } else {
    // The first pass warms caches and the allocator, so the untraced and
    // traced passes compared for the overhead are both warm.
    sweep_pass();
    const auto untraced_start = Clock::now();
    sweep_pass();
    const double untraced_wall = seconds_since(untraced_start);
    // Pool counters of the sweep just run (evaluate_sweep exports them).
    const double busy = registry_value("sim.evaluate.total_task_millis") / 1e3;
    const double threads = registry_value("sim.evaluate.threads");
    result.metrics["sim.evaluate.busy_s"] = busy;
    result.metrics["sim.evaluate.tasks"] = registry_value("sim.evaluate.tasks_run");
    result.metrics["sim.evaluate.parallel_efficiency"] = busy / (threads * untraced_wall);

    // The same pipeline, driven layer by layer on a pool of the same size.
    const auto traced_start = Clock::now();
    result.phase("traced_sweep_users").attempted += users.size();
    std::vector<std::vector<rm::sim::ScenarioResult>> per_user(users.size());
    {
      rm::common::ThreadPool pool(kPaperThreads);
      rm::common::parallel_for(pool, users.size(), [&](std::size_t index) {
        per_user[index] = traced_user(users[index], spec, tracer);
      });
    }
    rm::sim::SweepReport traced;
    for (auto& rows : per_user) {
      traced.results.insert(traced.results.end(), rows.begin(), rows.end());
    }
    {
      const Span span(tracer, tracer.layer("analysis.normalize_s"));
      rm::analysis::normalize_to_keep(traced.results);
    }
    const double traced_wall = seconds_since(traced_start);
    result.metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall;
    for (const std::string& layer : paper_layers()) {
      result.metrics[layer] = tracer.total(tracer.layer(layer)).seconds();
    }
    report_counts(result, traced);
    result.check(!reports.empty() && same_results(traced, reports.front()),
                 "traced per-user pipeline differs from evaluate_sweep");
  }
  report_setup_timing(result, setup_walls);

  // Correctness, outside the timed region: every pass agrees, and the
  // per-user path equals the columnar batch engine on the same spec.
  if (!reports.empty()) {
    for (const auto& report : reports) {
      result.check(same_results(report, reports.front()), "sweep passes disagree");
      result.check(report.quarantined.empty(), "sweep quarantined users");
    }
    rm::sim::SweepReport batch = rm::sim::evaluate_sweep_batch(users, spec);
    if (options.corrupt_expected) {
      corrupt(batch);
    }
    result.check(same_results(reports.front(), batch),
                 "per-user sweep differs from evaluate_sweep_batch");
    result.check(normalized_rows.front() > 0, "normalisation produced no rows");
  }
  return result;
}

// ---------------------------------------------------------------------------
// population-sweep

namespace {

constexpr int kPopulationUsers = 5000;
constexpr rm::Hour kPopulationHours = 200;
/// Pool workers; the calling thread ingests, so the workload uses four.
constexpr std::size_t kPopulationWorkers = 3;
/// A checkpoint after every 4th of the 40 shards, not the library default
/// of every shard.  Each checkpoint rewrites every completed shard and is
/// fsynced, so at the default the calling thread spent three quarters of a pass
/// rewriting and syncing (quadratic in the shard count), and the disk's
/// state moved the median pass by a third between runs of the same code.
/// Every 4th shard still rewrites and syncs ten times a pass, which is
/// still most of a pass's wall.
constexpr std::size_t kCheckpointEveryShards = 4;

/// bench_perf --batch's spec: 2 purchasers x 10 sellers on a short-term
/// instance, so renewals and age-f*T sales all occur within 200 hours.
rm::sim::EvaluationSpec population_spec(std::uint64_t seed) {
  rm::sim::EvaluationSpec spec;
  spec.sim.type =
      rm::pricing::InstanceType{"bench.batch", rm::Rate{1.0}, rm::Money{60.0}, rm::Rate{0.25}, 120};
  spec.sim.selling_discount = rm::Fraction{0.8};
  spec.sim.service_fee = rm::Fraction{0.12};
  spec.sellers = rm::sim::paper_sellers(rm::Fraction{0.75});
  for (const double f : {0.25, 0.4, 0.5, 0.6, 0.9}) {
    spec.sellers.push_back(rm::sim::SellerSpec{rm::sim::SellerKind::kAllSelling, rm::Fraction{f}});
  }
  spec.purchasers = {rm::purchasing::PurchaserKind::kAllReserved,
                     rm::purchasing::PurchaserKind::kRandomReservation};
  spec.seed = seed;
  spec.threads = kPopulationWorkers;
  return spec;
}

/// Seeded small-fleet traces in the style of bench_perf --batch: a base
/// load with periodic spikes that ends between 60 % and 100 % of the
/// horizon, so the A_{fT} sellers have idle reservations worth selling.
std::vector<rm::workload::User> population_users(std::uint64_t seed) {
  rm::common::Rng rng(seed);
  std::vector<rm::workload::User> users;
  users.reserve(kPopulationUsers);
  for (int id = 0; id < kPopulationUsers; ++id) {
    const rm::Count base = rng.uniform_int(1, 7);
    const rm::Hour phase = rng.uniform_int(0, 12);
    const rm::Hour period = rng.uniform_int(5, 17);
    const rm::Hour busy = rng.uniform_int(kPopulationHours * 3 / 5, kPopulationHours);
    std::vector<rm::Count> demand(kPopulationHours, 0);
    for (rm::Hour t = 0; t < busy; ++t) {
      demand[static_cast<std::size_t>(t)] = base + ((t + phase) % period == 0 ? 2 : 0);
    }
    users.push_back(rm::workload::User{id, static_cast<rm::workload::FluctuationGroup>(id % 3),
                                       0.0, "perfbench",
                                       rm::workload::DemandTrace{std::move(demand)}});
  }
  return users;
}

const char* manifest_group(rm::workload::FluctuationGroup group) {
  switch (group) {
    case rm::workload::FluctuationGroup::kStable: return "stable";
    case rm::workload::FluctuationGroup::kModerate: return "moderate";
    case rm::workload::FluctuationGroup::kHigh: return "high";
  }
  return "stable";
}

/// Writes one CSV per user plus the `id,group,path` manifest; returns the
/// manifest path.
std::string write_traces(const std::vector<rm::workload::User>& users,
                         const std::vector<std::string>& csv, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string manifest = dir + "/manifest.csv";
  std::ofstream out(manifest);
  out << "id,group,path\n";
  for (std::size_t i = 0; i < users.size(); ++i) {
    std::string name = "u";
    name += std::to_string(users[i].id);
    name += ".csv";
    std::ofstream(dir + "/" + name) << csv[i];
    out << users[i].id << ',' << manifest_group(users[i].group) << ',' << name << '\n';
  }
  return manifest;
}

/// Times every pull from the wrapped source: the ingestion layer.
class TimedSource final : public rm::workload::UserStreamSource {
 public:
  TimedSource(rm::workload::UserStreamSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), layer_(tracer.layer("workload.ingest_s")) {}

  bool next(rm::workload::StreamedUser& out) override {
    const Span span(tracer_, layer_);
    const bool pulled = inner_.next(out);
    users_ += pulled ? 1 : 0;
    return pulled;
  }
  void rewind() override { inner_.rewind(); }

  std::uint64_t users() const { return users_; }

 private:
  rm::workload::UserStreamSource& inner_;
  Tracer& tracer_;
  std::size_t layer_;
  std::uint64_t users_ = 0;
};

}  // namespace

Result run_population_sweep(const Options& options) {
  Result result;
  result.threads_used = static_cast<int>(kPopulationWorkers) + 1;
  const rm::sim::EvaluationSpec spec = population_spec(options.seed);
  std::vector<rm::workload::User> users;
  std::vector<std::string> csv;
  const auto make_inputs = [seed = options.seed](std::vector<rm::workload::User>& users_out,
                                                 std::vector<std::string>& csv_out) {
    users_out = population_users(seed);
    csv_out.clear();
    for (const auto& user : users_out) {
      csv_out.push_back(user.trace.to_csv());
    }
  };
  std::vector<double> setup_walls;
  time_setups(kSetupRepeats, setup_walls, [&] { make_inputs(users, csv); });
  const auto setup_again = [&] {
    std::vector<rm::workload::User> throwaway_users;
    std::vector<std::string> throwaway_csv;
    const auto start = Clock::now();
    make_inputs(throwaway_users, throwaway_csv);
    return seconds_since(start);
  };
  // Creating the 5000 files is left out of setup_s: on the reference VM
  // the same writes took 0.15 s or 2.3 s depending on the filesystem
  // journal's state, which would drown the program's own set-up.
  const std::string dir = options.work_dir + "/traces";
  const std::string manifest = write_traces(users, csv, dir);
  // Only the files stay: the sweep streams them, and the check below
  // rebuilds the users from the seed.
  users = {};
  csv = {};
  std::uint64_t trace_bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename() != "manifest.csv") {
      trace_bytes += entry.file_size();
    }
  }
  const double hour_steps = static_cast<double>(kPopulationUsers) *
                            static_cast<double>(kPopulationHours) *
                            static_cast<double>(spec.purchasers.size()) *
                            static_cast<double>(spec.sellers.size());
  result.params["users"] = std::to_string(kPopulationUsers);
  result.params["hours"] = std::to_string(kPopulationHours);
  result.params["purchasers_x_sellers"] =
      std::to_string(spec.purchasers.size()) + "x" + std::to_string(spec.sellers.size());

  rm::sim::BatchOptions batch_options;  // library default shard size
  batch_options.checkpoint_path = options.work_dir + "/sweep.ckpt";
  batch_options.checkpoint_every_shards = kCheckpointEveryShards;
  std::vector<rm::sim::SweepReport> reports;
  PhaseCount& sweep_users = result.phase("sweep_users");
  const auto sweep_pass = [&](rm::workload::UserStreamSource& source,
                              const rm::sim::BatchOptions& batch) {
    sweep_users.attempted += kPopulationUsers;
    try {
      rm::sim::BatchSweepEngine engine(spec, batch);
      rm::sim::BatchSweepOutcome outcome = engine.run(source);
      result.check(outcome.finished, "batch sweep did not finish");
      sweep_users.failed += outcome.report.quarantined.size();
      reports.push_back(std::move(outcome.report));
      if (reports.size() == 1) {
        // Set-up plus one pass: later passes only add allocator noise.
        result.metrics["peak_rss_mib"] = peak_rss_mib();
      }
    } catch (const rm::sim::SweepError& error) {
      sweep_users.failed += error.failures().size();
      result.check(false, std::string("population sweep failed: ") + error.what());
    }
  };

  if (!options.trace) {
    report_sweep_timing(result, timed_passes(options.seconds, setup_walls, setup_again, [&] {
                          rm::workload::TraceManifestSource source(manifest);
                          sweep_pass(source, batch_options);
                        }),
                        hour_steps);
  } else {
    Tracer tracer({"workload.ingest_s"});
    const auto untraced_start = Clock::now();
    {
      rm::workload::TraceManifestSource source(manifest);
      sweep_pass(source, batch_options);
    }
    const double untraced_wall = seconds_since(untraced_start);

    const auto traced_start = Clock::now();
    std::uint64_t ingested_users = 0;
    {
      rm::workload::TraceManifestSource inner(manifest);
      TimedSource source(inner, tracer);
      sweep_pass(source, batch_options);
      ingested_users = source.users();
    }
    const double traced_wall = seconds_since(traced_start);
    const double busy = registry_value("sim.batch.total_task_millis") / 1e3;
    const double threads = registry_value("sim.batch.threads");
    const Tracer::Total ingest = tracer.total(tracer.layer("workload.ingest_s"));
    result.metrics["workload.ingest_s"] = ingest.seconds();
    result.metrics["workload.ingest_users"] = static_cast<double>(ingested_users);
    result.metrics["workload.ingest_bytes"] = static_cast<double>(trace_bytes);
    result.metrics["workload.ingest_mb_per_s"] =
        static_cast<double>(trace_bytes) / 1e6 / ingest.seconds();
    result.metrics["sim.batch.wall_s"] = traced_wall;
    result.metrics["sim.batch.serial_s"] = traced_wall - ingest.seconds();
    result.metrics["sim.batch.busy_s"] = busy;
    result.metrics["sim.batch.shards"] = registry_value("sim.batch.tasks_run");
    result.metrics["sim.batch.max_queue_depth"] = registry_value("sim.batch.max_queue_depth");
    result.metrics["sim.batch.parallel_efficiency"] = busy / (threads * traced_wall);
    result.metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall;

    // Checkpoint cost: the same sweep with checkpointing off.
    const auto plain_start = Clock::now();
    {
      rm::workload::TraceManifestSource source(manifest);
      sweep_pass(source, rm::sim::BatchOptions{});
    }
    result.metrics["sim.batch.checkpoint_s"] = untraced_wall - seconds_since(plain_start);
    report_counts(result, reports.front());
  }
  report_setup_timing(result, setup_walls);

  // Correctness, outside the timed region: every pass agrees, and the
  // streamed, checkpointed report equals the per-user path on the same users.
  if (!reports.empty()) {
    for (const auto& report : reports) {
      result.check(same_results(report, reports.front()), "batch passes disagree");
      result.check(report.quarantined.empty(), "batch sweep quarantined users");
    }
    rm::sim::SweepReport oracle = rm::sim::evaluate_sweep(population_users(options.seed), spec);
    if (options.corrupt_expected) {
      corrupt(oracle);
    }
    result.check(same_results(reports.front(), oracle),
                 "streamed batch sweep differs from per-user evaluate_sweep");
  }
  result.check(!std::filesystem::exists(batch_options.checkpoint_path),
               "finished sweep left its checkpoint behind");
  std::filesystem::remove_all(dir);
  return result;
}

}  // namespace perfbench
