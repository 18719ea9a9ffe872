// serve-read and serve-mixed: the online half of rimarket.
//
// 64 accounts x 256 reservations are loaded into an AdvisorService with 3
// workers; the calling thread is the load generator, so a workload uses
// four threads.  Reads are ~75 % ADVISE and ~25 % BREAKEVEN.  Two phases,
// each after an unmeasured warm-up:
//
//   * closed loop: 64 outstanding reads, each completion submitting the
//     next (throughput_per_s);
//   * open loop: one request due every 1/kOpenLoopRate seconds whether or
//     not earlier ones finished, each timed from its due time to its
//     response (the per-layer read and update latencies).
//
// serve-mixed replaces 1 % of the open loop's requests (200/s) with
// versioned SNAPSHOT_UPDATEs to a journaled service (fsync on every
// append), submitted beside the reads with no drain barrier; the closed
// loop's reads run beside updates at 20/s.  Updates serialise on their
// fsync (~0.2 ms median on the reference VM's virtio disk), so their rate
// is kept well below what one disk sustains.  At most one update per
// account is in flight, so versions are acked in order and every read can
// be checked against the versions current while it was in flight.
//
// Every response is compared with an answer computed outside the timed
// region from the library's own kernels (advise_reservation, breakeven,
// ok_response) for the snapshot the request saw.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "pricing/catalog.hpp"
#include "serve/advisor.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace rm = rimarket;

namespace {

constexpr std::size_t kAccounts = 64;
constexpr std::size_t kReservations = 256;
constexpr std::size_t kWorkers = 3;
constexpr std::size_t kOutstanding = 64;
/// Open-loop arrival rate (requests/s), fixed so that runs and commits
/// compare like with like.  About a twentieth of the closed-loop capacity
/// of a shared 4-vCPU Xeon VM: each open-loop request also pays a worker
/// wake-up, and when the host slowed the VM a submit could cost 20 us, so
/// at 50000/s and above the generator itself fell milliseconds behind and
/// the median measured its backlog.
constexpr double kOpenLoopRate = 20000.0;
constexpr double kBreakevenShare = 0.25;
constexpr double kUpdateShare = 0.01;
/// Distinct snapshot contents per account; version v carries content
/// v % kContents, so consecutive versions always differ.
constexpr std::size_t kContents = 4;
constexpr std::size_t kReadPool = 16384;
constexpr std::size_t kSchedule = std::size_t{1} << 20;
/// Admission capacity: far above what the open loop keeps in flight, so a
/// BUSY answer means the service fell behind.
constexpr std::size_t kMaxPending = 4096;
constexpr int kSetupRepeats = 9;
/// The closed loop's measurement is cut into this many equal windows and
/// reports the median window, so a stall of the shared machine in one
/// window does not decide the run.
constexpr std::size_t kWindows = 20;

std::string account_name(std::size_t account) { return "acct-" + std::to_string(account); }

// ---------------------------------------------------------------------------
// Inputs and expected answers

struct Content {
  /// SNAPSHOT_UPDATE line up to (not including) the version and final '}'.
  std::string line_prefix;
  rm::serve::AccountSnapshot snapshot;
};

struct ReadOp {
  std::string line;
  std::uint32_t account = 0;
  /// Expected response per content index (filled outside timed regions).
  std::vector<std::string> expected;
};

struct Inputs {
  std::vector<std::vector<Content>> contents;  // [account][content]
  std::vector<ReadOp> reads;
  /// Request order of both loops, cycled: >= 0 is a read index, < 0 an
  /// update of account -(value + 1).
  std::vector<std::int32_t> schedule;
};

std::string update_line(const Content& content, std::uint64_t version) {
  return content.line_prefix + ",\"version\":" + std::to_string(version) + "}";
}

/// The set-up load of `account`: version 1.
std::string initial_update(const Inputs& inputs, std::size_t account) {
  const auto& contents = inputs.contents[account];
  return update_line(contents[1 % contents.size()], 1);
}

/// The service's SNAPSHOT_UPDATE acknowledgement for a published version.
std::string update_ack(std::size_t account, std::uint64_t version) {
  return rm::serve::ok_response(rm::common::format(
      "{\"account\":\"%s\",\"reservations\":%zu,\"version\":%llu}",
      account_name(account).c_str(), kReservations, static_cast<unsigned long long>(version)));
}

/// Builds the snapshot the service publishes for a parsed update (the
/// same steps as AdvisorService's SNAPSHOT_UPDATE handler).
rm::serve::AccountSnapshot snapshot_from(const rm::serve::Request& request) {
  rm::serve::AccountSnapshot snapshot;
  snapshot.account = request.account;
  snapshot.type = *rm::pricing::PricingCatalog::builtin().find(request.snapshot.instance);
  snapshot.selling_discount = request.snapshot.selling_discount;
  snapshot.now = request.snapshot.now;
  snapshot.reservations = request.snapshot.reservations;
  snapshot.version = request.snapshot.version;
  return snapshot;
}

Inputs generate_inputs(std::uint64_t seed, bool mixed) {
  rm::common::Rng rng(seed);
  Inputs inputs;
  const std::size_t contents = mixed ? kContents : 1;
  inputs.contents.resize(kAccounts);
  for (std::size_t a = 0; a < kAccounts; ++a) {
    for (std::size_t k = 0; k < contents; ++k) {
      // Fleet clock in the second half of a 1-year term, so all three
      // decision spots are reachable for old-enough reservations.
      const rm::Hour now = 4000 + rng.uniform_int(0, 4000);
      std::string line = "SNAPSHOT_UPDATE " + account_name(a) +
                         " {\"instance\":\"d2.xlarge\",\"discount\":0.8,\"now\":" +
                         std::to_string(now) + ",\"reservations\":[";
      for (std::size_t j = 0; j < kReservations; ++j) {
        const rm::Hour start = rng.uniform_int(0, now);
        const rm::Hour worked = rng.uniform_int(0, now - start);
        line += (j == 0 ? "[" : ",[") + std::to_string(j) + "," + std::to_string(start) + "," +
                std::to_string(worked) + "]";
      }
      line += "]";
      inputs.contents[a].push_back(Content{std::move(line), {}});
    }
  }
  inputs.reads.reserve(kReadPool);
  for (std::size_t i = 0; i < kReadPool; ++i) {
    ReadOp op;
    op.account = static_cast<std::uint32_t>(rng.uniform_int(0, kAccounts - 1));
    if (rng.uniform01() < kBreakevenShare) {
      op.line = rm::common::format("BREAKEVEN %s %.4f", account_name(op.account).c_str(),
                                   rng.uniform_real(0.05, 0.95));
    } else {
      op.line = rm::common::format("ADVISE %s %lld", account_name(op.account).c_str(),
                                   static_cast<long long>(rng.uniform_int(0, kReservations - 1)));
    }
    inputs.reads.push_back(std::move(op));
  }
  inputs.schedule.reserve(kSchedule);
  for (std::size_t j = 0; j < kSchedule; ++j) {
    if (mixed && rng.uniform01() < kUpdateShare) {
      inputs.schedule.push_back(-static_cast<std::int32_t>(rng.uniform_int(0, kAccounts - 1)) - 1);
    } else {
      inputs.schedule.push_back(static_cast<std::int32_t>(rng.uniform_int(0, kReadPool - 1)));
    }
  }
  return inputs;
}

/// Expected answers, from the library's kernels; outside every timed
/// region.  Returns false if an input does not parse (a bench bug).
bool compute_expected(Inputs& inputs, bool corrupt) {
  std::string diagnostic;
  for (auto& per_account : inputs.contents) {
    for (Content& content : per_account) {
      const auto request = rm::serve::parse_request(update_line(content, 1), &diagnostic);
      if (!request) {
        return false;
      }
      content.snapshot = snapshot_from(*request);
    }
  }
  for (ReadOp& op : inputs.reads) {
    const auto request = rm::serve::parse_request(op.line, &diagnostic);
    if (!request) {
      return false;
    }
    for (const Content& content : inputs.contents[op.account]) {
      if (request->verb == rm::serve::Verb::kAdvise) {
        const rm::serve::ReservationState* state = content.snapshot.find(request->reservation);
        if (state == nullptr) {
          return false;
        }
        op.expected.push_back(rm::serve::ok_response(
            rm::serve::advise_reservation(content.snapshot, *state).to_json()));
      } else {
        op.expected.push_back(rm::serve::ok_response(
            rm::serve::breakeven(content.snapshot, request->fraction).to_json()));
      }
    }
  }
  if (corrupt) {
    // The first read either loop issues: it is always checked.
    const auto first_read = std::find_if(inputs.schedule.begin(), inputs.schedule.end(),
                                         [](std::int32_t entry) { return entry >= 0; });
    ReadOp& op = inputs.reads[static_cast<std::size_t>(*first_read)];
    op.expected.assign(op.expected.size(), "corrupted");
  }
  return true;
}

// ---------------------------------------------------------------------------
// The traced service: the request path of AdvisorService rebuilt from the
// public layer functions, with a span around each call.

class TracedService {
 public:
  TracedService(Tracer& tracer, const std::string& journal_path)
      : tracer_(tracer),
        parse_(tracer.layer("serve.protocol.parse_ns")),
        lookup_(tracer.layer("serve.snapshot.lookup_ns")),
        advise_(tracer.layer("serve.advisor.advise_ns")),
        breakeven_(tracer.layer("serve.advisor.breakeven_ns")),
        format_(tracer.layer("serve.format_ns")),
        observe_(tracer.layer("serve.metrics.observe_ns")),
        submit_(tracer.layer("serve.pool.submit_ns")),
        append_(tracer.layer("serve.journal.append_us")),
        publish_(tracer.layer("serve.snapshot.publish_us")),
        pool_(kWorkers) {
    if (!journal_path.empty()) {
      rm::serve::JournalConfig config;
      config.path = journal_path;
      journal_.open(config, [](rm::serve::AccountSnapshot&&) {
        return rm::serve::PublishOutcome::kPublished;
      }, nullptr);
    }
  }

  bool submit(std::string line, std::function<void(std::string)> done) {
    const Span span(tracer_, submit_);
    pool_.submit([this, line = std::move(line), done = std::move(done)] {
      done(process(line));
    });
    return true;
  }

  void wait_idle() { pool_.wait_idle(); }

  std::uint64_t journal_bytes() const { return journal_bytes_; }
  std::uint64_t compactions() const { return compactions_; }

 private:
  std::string process(const std::string& line) {
    const auto started = Clock::now();
    std::string diagnostic;
    std::optional<rm::serve::Request> request;
    {
      const Span span(tracer_, parse_);
      request = rm::serve::parse_request(line, &diagnostic);
    }
    std::string response;
    std::string_view endpoint = "invalid";
    if (!request) {
      response = rm::serve::error_response(diagnostic);
    } else {
      endpoint = rm::serve::verb_name(request->verb);
      response = execute(*request);
    }
    const std::chrono::duration<double, std::micro> elapsed = Clock::now() - started;
    {
      const Span span(tracer_, observe_);
      metrics_.observe(rm::common::format("serve.latency_us.%s", std::string(endpoint).c_str()),
                       elapsed.count());
    }
    return response;
  }

  std::string execute(const rm::serve::Request& request) {
    if (request.verb == rm::serve::Verb::kSnapshotUpdate) {
      return update(request);
    }
    std::shared_ptr<const rm::serve::AccountSnapshot> snapshot;
    {
      const Span span(tracer_, lookup_);
      snapshot = store_.lookup(request.account);
    }
    if (snapshot == nullptr) {
      return rm::serve::error_response("unknown account");
    }
    if (request.verb == rm::serve::Verb::kAdvise) {
      const rm::serve::ReservationState* state = snapshot->find(request.reservation);
      if (state == nullptr) {
        return rm::serve::error_response("unknown reservation");
      }
      std::optional<rm::serve::ReservationAdvice> advice;
      {
        const Span span(tracer_, advise_);
        advice = rm::serve::advise_reservation(*snapshot, *state);
      }
      const Span span(tracer_, format_);
      return rm::serve::ok_response(advice->to_json());
    }
    std::optional<rm::serve::BreakevenAdvice> advice;
    {
      const Span span(tracer_, breakeven_);
      advice = rm::serve::breakeven(*snapshot, request.fraction);
    }
    const Span span(tracer_, format_);
    return rm::serve::ok_response(advice->to_json());
  }

  std::string update(const rm::serve::Request& request) {
    rm::serve::AccountSnapshot snapshot = snapshot_from(request);
    const std::uint64_t version = request.snapshot.version;
    const std::lock_guard<std::mutex> lock(update_mutex_);
    if (journal_.enabled()) {
      const std::size_t before = journal_.size_bytes();
      bool appended = false;
      {
        const Span span(tracer_, append_);
        appended = journal_.append_update(snapshot);
      }
      if (!appended) {
        return rm::serve::error_response("journal append failed");
      }
      journal_bytes_ += journal_.size_bytes() - before;
    }
    {
      const Span span(tracer_, publish_);
      store_.publish_at(std::move(snapshot), version);
    }
    if (journal_.should_compact() && journal_.compact(store_.all())) {
      ++compactions_;
    }
    return rm::serve::ok_response(rm::common::format(
        "{\"account\":\"%s\",\"reservations\":%zu,\"version\":%llu}", request.account.c_str(),
        request.snapshot.reservations.size(), static_cast<unsigned long long>(version)));
  }

  Tracer& tracer_;
  const std::size_t parse_, lookup_, advise_, breakeven_, format_, observe_, submit_, append_,
      publish_;
  rm::serve::SnapshotStore store_;
  rm::common::MetricsRegistry metrics_;
  std::mutex update_mutex_;
  rm::serve::SnapshotJournal journal_;
  std::uint64_t journal_bytes_ = 0;
  std::uint64_t compactions_ = 0;
  // Last: its workers use every member above and are joined first.
  rm::common::ThreadPool pool_;
};

// ---------------------------------------------------------------------------
// Load generation

/// Per-account version bookkeeping of the update client.
struct AccountVersions {
  std::atomic<std::uint64_t> sent{1};
  std::atomic<std::uint64_t> acked{1};
  std::atomic<bool> updating{false};
};

/// One request's outcome in the open loop.
struct Sample {
  float latency_us = -1.0F;  ///< due -> response; negative until answered
  float lag_us = 0.0F;       ///< due -> submitted
  bool update = false;
  bool measured = false;
};

/// What a loop counted; written by workers, read after wait_idle().
struct Counters {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> read_failures{0};  ///< ERROR or BUSY
  std::atomic<std::uint64_t> updates{0};
  std::atomic<std::uint64_t> update_failures{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> version_regressions{0};
};

template <typename Service>
class LoadGenerator {
 public:
  LoadGenerator(Service& service, const Inputs& inputs, std::vector<AccountVersions>& versions)
      : service_(service), inputs_(inputs), versions_(versions) {}

  /// Closed loop: kOutstanding read clients for warm-up + measure seconds,
  /// while the generator submits updates at a fixed `update_rate` per
  /// second, so a slow fsync costs read capacity without also changing how
  /// many writes there are.  Returns the completion rate of each of
  /// kWindows equal slices of the measured time.
  std::vector<double> closed_loop(double warmup_s, double measure_s, double update_rate,
                                  Counters& counters) {
    running_.store(true);
    for (std::size_t c = 0; c < kOutstanding; ++c) {
      issue_closed(counters);
    }
    const auto update_period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(update_rate > 0.0 ? 1.0 / update_rate : 1e9));
    auto next_update = Clock::now() + update_period;
    // Sleeps to `until`, submitting every update that falls due meanwhile.
    const auto run_until = [&](Clock::time_point until) {
      while (next_update < until) {
        std::this_thread::sleep_until(next_update);
        issue(next_update_entry(), counters, [](bool) {});
        next_update += update_period;
      }
      std::this_thread::sleep_until(until);
    };
    run_until(Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(warmup_s)));
    std::vector<double> rates;
    const auto window = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(measure_s / kWindows));
    std::uint64_t before = counters.completed.load();
    auto start = Clock::now();
    for (std::size_t w = 0; w < kWindows; ++w) {
      run_until(start + window);
      const std::uint64_t after = counters.completed.load();
      const auto end = Clock::now();
      rates.push_back(static_cast<double>(after - before) /
                      std::chrono::duration<double>(end - start).count());
      before = after;
      start = end;
    }
    running_.store(false);
    service_.wait_idle();
    return rates;
  }

  /// Open loop at kOpenLoopRate for warm-up + measure seconds; fills one
  /// Sample per request sent.
  void open_loop(double warmup_s, double measure_s, Counters& counters,
                 std::vector<Sample>& samples) {
    const auto interval = std::chrono::duration<double>(1.0 / kOpenLoopRate);
    const std::size_t warmup = static_cast<std::size_t>(warmup_s * kOpenLoopRate);
    const std::size_t total = warmup + static_cast<std::size_t>(measure_s * kOpenLoopRate);
    samples.assign(total, Sample{});
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    for (std::size_t j = 0; j < total; ++j) {
      const auto due = t0 + std::chrono::duration_cast<Clock::duration>(interval * j);
      wait_until(due);
      Sample& sample = samples[j];
      sample.measured = j >= warmup;
      sample.lag_us = micros_since(due);
      issue(schedule_entry(), counters, [&sample, due](bool update) {
        sample.update = update;
        sample.latency_us = micros_since(due);
      });
    }
    service_.wait_idle();
  }

 private:
  static float micros_since(Clock::time_point t) {
    return std::chrono::duration<float, std::micro>(Clock::now() - t).count();
  }

  /// Sleeps while the due time is far, then spins: a sleeping wake-up is
  /// tens of microseconds late, which would otherwise set the tail.
  static void wait_until(Clock::time_point due) {
    constexpr auto kSpinWindow = std::chrono::microseconds(100);
    for (auto now = Clock::now(); now < due; now = Clock::now()) {
      if (due - now > kSpinWindow) {
        std::this_thread::sleep_until(due - kSpinWindow);
      }
    }
  }

  std::int32_t schedule_entry() {
    return inputs_.schedule[cursor_.fetch_add(1, std::memory_order_relaxed) % kSchedule];
  }

  /// The next update in the schedule, for the closed loop's generator.
  std::int32_t next_update_entry() {
    std::int32_t entry = 0;
    do {
      entry = inputs_.schedule[update_cursor_++ % kSchedule];
    } while (entry >= 0);
    return entry;
  }

  /// A closed-loop client: reads only; a scheduled update becomes read-pool
  /// entry `account`.
  void issue_closed(Counters& counters) {
    const std::int32_t entry = schedule_entry();
    issue(entry >= 0 ? entry : -(entry + 1), counters, [this, &counters](bool) {
      if (running_.load(std::memory_order_relaxed)) {
        issue_closed(counters);
      }
    });
  }

  /// Submits one scheduled request; `after(update)` runs on the worker once
  /// the response has been checked.  An update whose account already has
  /// one in flight is replaced by read-pool entry `account`.
  template <typename After>
  void issue(std::int32_t entry, Counters& counters, After after) {
    if (entry < 0) {
      const auto account = static_cast<std::size_t>(-(entry + 1));
      AccountVersions& state = versions_[account];
      if (!state.updating.exchange(true)) {
        const std::uint64_t version = state.sent.load() + 1;
        state.sent.store(version);
        const Content& content = inputs_.contents[account][version % kContents];
        counters.updates.fetch_add(1, std::memory_order_relaxed);
        const bool accepted = service_.submit(
            update_line(content, version),
            [this, &counters, &state, account, version, after](std::string response) {
              if (response == update_ack(account, version)) {
                if (version <= state.acked.load()) {
                  counters.version_regressions.fetch_add(1);
                }
                state.acked.store(version);
              } else {
                counters.update_failures.fetch_add(1, std::memory_order_relaxed);
                if (!rm::common::starts_with(response, "ERROR") &&
                    !rm::common::starts_with(response, "BUSY")) {
                  counters.mismatches.fetch_add(1);
                }
              }
              state.updating.store(false);
              counters.completed.fetch_add(1, std::memory_order_relaxed);
              after(true);
            });
        if (!accepted) {
          counters.update_failures.fetch_add(1, std::memory_order_relaxed);
          state.sent.store(version - 1);
          state.updating.store(false);
        }
        return;
      }
      entry = static_cast<std::int32_t>(account % kReadPool);
    }
    const ReadOp& op = inputs_.reads[static_cast<std::size_t>(entry)];
    AccountVersions& state = versions_[op.account];
    const std::uint64_t oldest = state.acked.load();
    counters.reads.fetch_add(1, std::memory_order_relaxed);
    const bool accepted = service_.submit(
        op.line, [&counters, &op, &state, oldest, after](std::string response) {
          // Any version current while the read was in flight is a valid
          // answer: from the last ack before it was sent to the newest
          // version sent before it returned.
          const std::uint64_t newest = state.sent.load();
          bool matched = false;
          for (std::uint64_t v = oldest; v <= newest && !matched; ++v) {
            matched = response == op.expected[v % op.expected.size()];
          }
          if (!matched) {
            if (rm::common::starts_with(response, "ERROR") ||
                rm::common::starts_with(response, "BUSY")) {
              counters.read_failures.fetch_add(1, std::memory_order_relaxed);
            } else {
              counters.mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
          counters.completed.fetch_add(1, std::memory_order_relaxed);
          after(false);
        });
    if (!accepted) {
      counters.read_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Service& service_;
  const Inputs& inputs_;
  std::vector<AccountVersions>& versions_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> cursor_{0};
  std::size_t update_cursor_ = 0;  ///< generator thread only
};

/// AdvisorService behind the generator's submit interface: false when the
/// admission gate refused the request (BUSY).
class ServiceClient {
 public:
  explicit ServiceClient(rm::serve::AdvisorService& service) : service_(service) {}

  bool submit(std::string line, std::function<void(std::string)> done) {
    return service_.submit(std::move(line), std::move(done)) ==
           rm::serve::AdvisorService::Admit::kAccepted;
  }
  void wait_idle() { service_.wait_idle(); }

 private:
  rm::serve::AdvisorService& service_;
};

// ---------------------------------------------------------------------------

struct OpenLoopSummary {
  /// Every measured sample, ascending.
  std::vector<double> read_us;
  std::vector<double> update_us;
  std::vector<double> lag_us;
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
};

OpenLoopSummary summarize(const std::vector<Sample>& samples) {
  OpenLoopSummary out;
  for (const Sample& sample : samples) {
    if (!sample.measured) {
      continue;
    }
    ++out.sent;
    out.lag_us.push_back(sample.lag_us);
    if (sample.latency_us >= 0.0F) {
      ++out.answered;
      (sample.update ? out.update_us : out.read_us).push_back(sample.latency_us);
    }
  }
  std::sort(out.read_us.begin(), out.read_us.end());
  std::sort(out.update_us.begin(), out.update_us.end());
  std::sort(out.lag_us.begin(), out.lag_us.end());
  return out;
}

void account(Result& result, const std::string& phase, const Counters& counters) {
  PhaseCount& reads = result.phase(phase);
  reads.attempted += counters.reads.load();
  reads.failed += counters.read_failures.load();
  PhaseCount& updates = result.phase("updates");
  updates.attempted += counters.updates.load();
  updates.failed += counters.update_failures.load();
  result.check(counters.mismatches.load() == 0,
               phase + ": " + std::to_string(counters.mismatches.load()) +
                   " response(s) differ from every valid expected answer");
  result.check(counters.version_regressions.load() == 0,
               phase + ": acked versions did not rise per account");
}

/// Count and sum of a service latency distribution's observations made
/// between two snapshots of it (count, mean and sum are exact).
struct Observed {
  double count = 0.0;
  double sum = 0.0;

  double mean() const { return count > 0.0 ? sum / count : 0.0; }
};

Observed observed_between(const std::optional<rm::common::DistributionSnapshot>& before,
                          const std::optional<rm::common::DistributionSnapshot>& after) {
  const auto totals = [](const std::optional<rm::common::DistributionSnapshot>& snapshot) {
    return snapshot ? Observed{static_cast<double>(snapshot->count),
                               snapshot->mean * static_cast<double>(snapshot->count)}
                    : Observed{};
  };
  const Observed a = totals(before);
  const Observed b = totals(after);
  return Observed{b.count - a.count, b.sum - a.sum};
}

}  // namespace

Result run_serve(const Options& options, bool mixed) {
  Result result;
  result.threads_used = static_cast<int>(kWorkers) + 1;
  result.params["accounts"] = std::to_string(kAccounts);
  result.params["reservations_per_account"] = std::to_string(kReservations);
  result.params["workers"] = std::to_string(kWorkers);
  result.params["closed_loop_outstanding"] = std::to_string(kOutstanding);
  result.params["open_loop_rate_per_s"] = std::to_string(static_cast<long long>(kOpenLoopRate));
  result.params["update_share"] = mixed ? std::to_string(kUpdateShare) : "0";

  const std::string journal = mixed ? options.work_dir + "/serve.journal" : std::string();
  const auto service_config = [&] {
    rm::serve::ServiceConfig config;
    config.threads = kWorkers;
    config.max_pending = kMaxPending;
    config.journal_path = journal;
    return config;
  };

  Inputs inputs;
  std::unique_ptr<rm::serve::AdvisorService> service;
  bool loaded = true;
  // The 64 snapshot loads are timed apart from setup_s: on serve-mixed each
  // is an fsync, and the disk's speed drifted by more than half between
  // runs an hour apart on the reference VM.
  std::vector<double> setup_times;
  std::vector<double> load_times;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    service.reset();
    inputs = {};
    if (mixed) {
      std::filesystem::remove(journal);
    }
    const auto start = Clock::now();
    inputs = generate_inputs(options.seed, mixed);
    service = std::make_unique<rm::serve::AdvisorService>(service_config());
    setup_times.push_back(seconds_since(start));
    const auto load_start = Clock::now();
    for (std::size_t a = 0; a < kAccounts; ++a) {
      const std::string response = service->handle_line(initial_update(inputs, a));
      loaded = loaded && response == update_ack(a, 1);
    }
    load_times.push_back(seconds_since(load_start));
  }
  result.metrics["setup_s"] = median(setup_times);
  result.metrics["serve.snapshot.load_s"] = median(load_times);
  result.check(loaded, "snapshot loads were not acknowledged");
  result.check(!mixed || service->journal_enabled(), "journal did not open");
  result.check(compute_expected(inputs, options.corrupt_expected),
               "generated requests do not parse");

  std::vector<AccountVersions> versions(kAccounts);
  ServiceClient client(*service);
  LoadGenerator<ServiceClient> generator(client, inputs, versions);
  const double s = options.seconds;
  // Updates beside the closed loop's reads: a tenth of the open loop's
  // rate, so the disk's fsync time moves read capacity only a little.
  const double closed_update_rate = mixed ? kOpenLoopRate * kUpdateShare / 10.0 : 0.0;

  if (!options.trace) {
    Counters closed;
    const double rps = median(generator.closed_loop(0.1 * s, 0.5 * s, closed_update_rate, closed));
    account(result, "closed_loop", closed);
    Counters open;
    std::vector<Sample> samples;
    generator.open_loop(0.05 * s, 0.35 * s, open, samples);
    account(result, "open_loop", open);
    result.metrics["peak_rss_mib"] = peak_rss_mib();
    const OpenLoopSummary summary = summarize(samples);
    result.check(summary.answered == summary.sent, "open-loop requests left unanswered");
    result.metrics["throughput_per_s"] = rps;
    // Open-loop latencies are reported per layer: on a shared VM the
    // generator's own stalls set them, and even the median moved between
    // ~16 us and ~1 ms from run to run.
    result.params["open_loop_read_samples"] = std::to_string(summary.read_us.size());
    for (const auto& [name, q] :
         {std::pair{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}}) {
      result.params[std::string("open_loop_read_us.") + name] =
          std::to_string(sorted_percentile(summary.read_us, q));
      result.params[std::string("open_loop_lag_us.") + name] =
          std::to_string(sorted_percentile(summary.lag_us, q));
    }
  } else {
    // Untraced phases: the service's own latency metrics, queue wait and
    // the generator's lateness.
    Counters closed;
    const double rps = median(generator.closed_loop(0.1 * s, 0.15 * s, closed_update_rate, closed));
    account(result, "closed_loop", closed);
    const auto& metrics = service->metrics();
    const auto advise_before = metrics.distribution("serve.latency_us.advise");
    const auto breakeven_before = metrics.distribution("serve.latency_us.breakeven");
    const auto update_before = metrics.distribution("serve.latency_us.snapshot_update");
    Counters open;
    std::vector<Sample> samples;
    generator.open_loop(0.1 * s, 0.25 * s, open, samples);
    account(result, "open_loop", open);
    const OpenLoopSummary summary = summarize(samples);
    const auto since = [&metrics](const auto& before, const char* name) {
      return observed_between(before, metrics.distribution(name));
    };
    const Observed advise = since(advise_before, "serve.latency_us.advise");
    const Observed breakeven = since(breakeven_before, "serve.latency_us.breakeven");
    result.metrics["serve.service_us.mean.advise"] = advise.mean();
    result.metrics["serve.service_us.mean.breakeven"] = breakeven.mean();
    result.metrics["serve.service_us.mean.snapshot_update"] =
        since(update_before, "serve.latency_us.snapshot_update").mean();
    Observed reads;
    for (const double us : summary.read_us) {
      reads.count += 1.0;
      reads.sum += us;
    }
    const Observed served{advise.count + breakeven.count, advise.sum + breakeven.sum};
    result.metrics["serve.queue_wait_us.mean"] = reads.mean() - served.mean();
    result.metrics["read_p50_us"] = sorted_percentile(summary.read_us, 0.50);
    result.metrics["read_p99_us"] = sorted_percentile(summary.read_us, 0.99);
    result.metrics["update_p50_us"] = sorted_percentile(summary.update_us, 0.50);
    result.metrics["update_p99_us"] = sorted_percentile(summary.update_us, 0.99);
    result.metrics["loadgen.lag_p50_us"] = sorted_percentile(summary.lag_us, 0.50);
    result.metrics["loadgen.lag_p99_us"] = sorted_percentile(summary.lag_us, 0.99);
    result.metrics["loadgen.sent"] = static_cast<double>(summary.sent);
    result.metrics["loadgen.completed"] = static_cast<double>(summary.answered);
    result.metrics["serve.busy_rejections"] = metrics.get("serve.busy_rejections").value_or(0.0);
    result.metrics["serve.requests.errors"] = metrics.get("serve.requests.errors").value_or(0.0);

    // Traced closed loop through the rebuilt request path.
    Tracer tracer({"serve.protocol.parse_ns", "serve.snapshot.lookup_ns",
                   "serve.advisor.advise_ns", "serve.advisor.breakeven_ns", "serve.format_ns",
                   "serve.metrics.observe_ns", "serve.pool.submit_ns",
                   "serve.journal.append_us", "serve.snapshot.publish_us"});
    {
      TracedService traced(tracer, mixed ? options.work_dir + "/traced.journal" : "");
      std::vector<AccountVersions> traced_versions(kAccounts);
      for (std::size_t a = 0; a < kAccounts; ++a) {
        traced.submit(initial_update(inputs, a), [](std::string) {});
      }
      traced.wait_idle();
      LoadGenerator<TracedService> traced_generator(traced, inputs, traced_versions);
      Counters traced_counters;
      const double traced_rps =
          median(traced_generator.closed_loop(0.1 * s, 0.15 * s, closed_update_rate, traced_counters));
      account(result, "traced_closed_loop", traced_counters);
      result.metrics["trace.overhead_pct"] = 100.0 * (rps / traced_rps - 1.0);
      result.metrics["serve.journal.bytes"] = static_cast<double>(traced.journal_bytes());
      result.metrics["serve.journal.compactions"] = static_cast<double>(traced.compactions());
    }
    for (const char* name : {"serve.protocol.parse_ns", "serve.snapshot.lookup_ns",
                             "serve.advisor.advise_ns", "serve.advisor.breakeven_ns",
                             "serve.format_ns", "serve.metrics.observe_ns",
                             "serve.pool.submit_ns"}) {
      result.metrics[name] = tracer.total(tracer.layer(name)).mean_ns();
    }
    for (const char* name : {"serve.journal.append_us", "serve.snapshot.publish_us"}) {
      result.metrics[name] = tracer.total(tracer.layer(name)).mean_ns() / 1e3;
    }
  }

  // Durability, outside the timed region: a fresh service recovered from
  // the run's journal holds exactly the last acked version of each account.
  if (mixed) {
    service.reset();
    const auto start = Clock::now();
    rm::serve::AdvisorService recovered(service_config());
    result.metrics["serve.journal.recover_s"] = seconds_since(start);
    bool exact = true;
    for (std::size_t a = 0; a < kAccounts; ++a) {
      const std::uint64_t acked = versions[a].acked.load();
      const auto snapshot = recovered.snapshots().lookup(account_name(a));
      const Content& content = inputs.contents[a][acked % kContents];
      exact = exact && snapshot != nullptr && snapshot->version == acked &&
              snapshot->now == content.snapshot.now &&
              snapshot->reservations == content.snapshot.reservations;
    }
    result.check(exact, "recovered journal does not hold the last acked version of every account");
  }
  return result;
}

}  // namespace perfbench
