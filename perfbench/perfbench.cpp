// forumcast end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--details-out FILE] [--trace-out FILE]
//
// Builds one primary → follower tier in this process and drives it through
// five phases, each over loopback TCP:
//   light   open-loop score/route requests at a fixed light rate
//   busy    the same mix at a fixed rate, a third or less of the seed's
//           capacity
//   search  the highest offered rate whose p99 stays within the workload's
//           limit with no failures and no growing backlog (5 % resolution)
//   ingest  an open-loop event stream into the primary at a fixed rate,
//           shipped to the follower, with light reads on the primary
//   burst   events fed as fast as ingest accepts them
// then checks correctness: sampled wire responses equal in-process scoring
// bit for bit (primary and follower), routes equal the in-process eq. (2)
// result, and the follower's state digest equals the primary's.
//
// Every workload runs every phase, so every end-to-end metric is measured
// on every workload; the workloads differ in the request mix and its rates.
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"} with the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Operations of the capacity search are not
// in attempted/failed: probes above capacity are expected to fail, and are
// reported as their own phase in the details.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/recommender.hpp"
#include "ledger.hpp"
#include "loadgen.hpp"
#include "obs/json.hpp"
#include "stats.hpp"
#include "tier.hpp"
#include "util/logging.hpp"

namespace perfbench {
namespace {

// ---------------------------------------------------------------- workloads

enum class Mix {
  kHot,     ///< 4-candidate scores over 8 hot questions
  kNewest,  ///< 16-candidate routes on the 4 newest questions
};

/// Why each workload exists is recorded in BENCHMARK.json.
struct Workload {
  const char* name;
  Mix mix;
  double light_rps;  ///< light phase and the reads during ingest
  /// A third or less of the capacity measured at the seed, so that a
  /// host running at half speed still keeps up instead of queueing.
  double busy_rps;
};

constexpr Workload kWorkloads[] = {
    {"score_hot", Mix::kHot, 1000.0, 40000.0},
    {"ingest_replicate", Mix::kNewest, 500.0, 8000.0},
};

/// p99 latency limit of the capacity search, set above the few-ms
/// scheduling stalls of a virtual machine so that a probe fails on a
/// growing queue rather than on one stall.
constexpr double kLimitMs = 25.0;
/// Event rate of the ingest phase.
constexpr double kEventRps = 100.0;

// Share of --seconds each timed phase gets; the burst takes what it takes.
constexpr double kLightShare = 0.25;
constexpr double kBusyShare = 0.10;
constexpr double kSearchShare = 0.30;
constexpr double kIngestShare = 0.30;
constexpr std::size_t kBurstEvents = 1500;
/// Group-commit tick of the ingest phase. Every commit pays an exact
/// centrality refresh under the writer lock (about 14 ms here), so
/// committing each event on arrival would hold that lock nearly all the
/// time; at 100 ms a host running at half speed held it for most of each
/// tick and the reads' median went from 1.4 to 24 ms.
constexpr double kCommitMs = 200.0;
constexpr int kSetups = 7;
/// Share of the latency it measured by which a fixed-rate phase's generator
/// may fall behind its schedule (Lag::fell_behind): the end-to-end metrics'
/// bound.
constexpr double kLateShare = 0.25;
/// Times a light or busy phase is measured before a generator that fell
/// behind on every attempt makes the run invalid.
constexpr int kAttempts = 3;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic request stream: request i of a phase depends only on the
/// seed, the phase salt and i, never on timing.
class RequestMix {
 public:
  RequestMix(Mix mix, const forum::Dataset& base, std::uint64_t seed)
      : mix_(mix),
        seed_(splitmix64(seed ^ 0x5eedULL)),
        num_users_(base.num_users()),
        num_questions_(base.num_questions()) {
    std::uint64_t state = seed_;
    while (hot_.size() < 8) {
      state = splitmix64(state);
      const auto q = static_cast<forum::QuestionId>(state % num_questions_);
      if (std::find(hot_.begin(), hot_.end(), q) == hot_.end()) {
        hot_.push_back(q);
      }
    }
  }

  /// Request `i` of the phase salted `salt`; kNewest targets questions up
  /// to `newest`.
  net::Message make(std::uint64_t salt, std::size_t i,
                    forum::QuestionId newest) const {
    std::uint64_t state = splitmix64(seed_ ^ splitmix64(salt) ^ i);
    auto next = [&state] { return state = splitmix64(state); };
    net::Message request;
    request.kind = net::MessageKind::kScoreRequest;
    std::size_t candidates = 4;
    switch (mix_) {
      case Mix::kHot:
        request.question = hot_[next() % hot_.size()];
        break;
      case Mix::kNewest:
        request.question =
            static_cast<forum::QuestionId>(newest - next() % 4);
        candidates = 16;
        request.kind = net::MessageKind::kRouteRequest;
        request.top_k = 5;
        break;
    }
    while (request.users.size() < candidates) {
      const auto u = static_cast<forum::UserId>(next() % num_users_);
      if (std::find(request.users.begin(), request.users.end(), u) ==
          request.users.end()) {
        request.users.push_back(u);
      }
    }
    return request;
  }

 private:
  Mix mix_;
  std::uint64_t seed_;
  std::size_t num_users_;
  std::size_t num_questions_;
  std::vector<forum::QuestionId> hot_;
};

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double value) {
  std::ostringstream out;
  out.precision(17);
  out << value;
  return out.str();
}

std::string quoted(const std::string& text) {
  std::string out;
  obs::detail::append_json_escaped(out, text);
  return out;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics[i].name) + ": {\"value\": " +
           number(metrics[i].value) + ", \"unit\": " +
           quoted(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// sent/ok/failed and latency of one phase, for the report and details.
struct PhaseRecord {
  std::string name;
  std::size_t sent = 0;
  std::size_t ok = 0;
  std::size_t failed = 0;
  Summary latency;
  Lag lag;
  int attempts = 1;
};

std::string phase_json(const PhaseRecord& phase) {
  return "{\"name\": " + quoted(phase.name) +
         ", \"sent\": " + std::to_string(phase.sent) +
         ", \"ok\": " + std::to_string(phase.ok) +
         ", \"failed\": " + std::to_string(phase.failed) +
         ", \"p50_ms\": " + number(phase.latency.p50) +
         ", \"tail_percentile\": " +
         number(phase.latency.tail_per_mille / 10.0) +
         ", \"tail_ms\": " + number(phase.latency.tail) +
         ", \"late_p50_ms\": " + number(phase.lag.late_p50_ms) +
         ", \"late_mean_ms\": " + number(phase.lag.late_mean_ms) +
         ", \"late_p99_ms\": " + number(phase.lag.late_p99_ms) +
         ", \"attempts\": " + std::to_string(phase.attempts) + "}";
}

std::string describe(const Lag& lag) {
  return "late p50 " + number(lag.late_p50_ms) + " ms, mean " +
         number(lag.late_mean_ms) + " ms against latency p50 " +
         number(lag.latency_p50_ms) + " ms, mean " +
         number(lag.latency_mean_ms) + " ms";
}

/// Summary of per-event times in which an event never applied is +infinity.
Summary summarize_events(const std::vector<double>& ms) {
  std::vector<double> ok;
  for (const double v : ms) {
    if (std::isfinite(v)) ok.push_back(v);
  }
  const std::size_t failed = ms.size() - ok.size();
  return summarize(std::move(ok), failed);
}

// ------------------------------------------------------------------ stamps

/// Aggregate CPU time counters of the host, from /proc/stat.
struct CpuTimes {
  unsigned long long total = 0;
  unsigned long long steal = 0;
};

CpuTimes read_cpu_times() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes times;
  for (int field = 0; field < 10; ++field) {
    unsigned long long value = 0;
    if (!(stat >> value)) break;
    times.total += value;
    if (field == 7) times.steal = value;
  }
  return times;
}

struct Stamp {
  unsigned nproc = 0;
  std::string cpu_model = "unknown";
  bool avx2 = false;
  bool avx512_vnni = false;
  std::string build_type = PERFBENCH_BUILD_TYPE;
  bool native = PERFBENCH_NATIVE != 0;
};

Stamp read_stamp() {
  Stamp stamp;
  stamp.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string value = line.substr(std::min(line.size(), colon + 2));
    if (line.rfind("model name", 0) == 0 && stamp.cpu_model == "unknown") {
      stamp.cpu_model = value;
    } else if (line.rfind("flags", 0) == 0) {
      std::istringstream flags(value);
      std::string flag;
      while (flags >> flag) {
        stamp.avx2 = stamp.avx2 || flag == "avx2";
        stamp.avx512_vnni = stamp.avx512_vnni || flag == "avx512_vnni";
      }
    }
  }
  return stamp;
}

std::string stamp_json(const Stamp& stamp) {
  return "{\"nproc\": " + std::to_string(stamp.nproc) +
         ", \"cpu_model\": " + quoted(stamp.cpu_model) +
         ", \"avx2\": " + (stamp.avx2 ? "true" : "false") +
         ", \"avx512_vnni\": " + (stamp.avx512_vnni ? "true" : "false") +
         ", \"build_type\": " + quoted(stamp.build_type) +
         ", \"forumcast_native\": " + (stamp.native ? "true" : "false") + "}";
}

// ------------------------------------------------------------- correctness

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_prediction(const core::Prediction& a, const core::Prediction& b) {
  return same_bits(a.answer_probability, b.answer_probability) &&
         same_bits(a.votes, b.votes) && same_bits(a.delay_hours, b.delay_hours);
}

/// Scores `request` in process: through `scorer` for a score request, via
/// the eq. (2) recommender over `scorer` for a route. The caller holds
/// whatever read lock keeps the state still.
net::Message reference_response(const core::ForecastPipeline& pipeline,
                                const serve::BatchScorer& scorer,
                                const net::Message& request) {
  net::Message response;
  if (request.kind == net::MessageKind::kScoreRequest) {
    response.kind = net::MessageKind::kScoreResponse;
    response.predictions = scorer.score(request.question, request.users);
    return response;
  }
  response.kind = net::MessageKind::kRouteResponse;
  const core::Recommender recommender(pipeline, scorer.predict_fn());
  const core::RecommendationResult result =
      recommender.recommend(request.question, request.users);
  response.feasible = result.feasible;
  const std::size_t keep =
      request.top_k == 0
          ? result.ranking.size()
          : std::min<std::size_t>(request.top_k, result.ranking.size());
  for (std::size_t i = 0; i < keep; ++i) {
    const core::Recommendation& pick = result.ranking[i];
    response.routes.push_back({pick.user, pick.probability, pick.prediction});
  }
  return response;
}

/// Bit-exact comparison of a wire response with an in-process one; empty
/// when equal, else what differs.
std::string compare(const net::Message& wire, const net::Message& local) {
  if (wire.kind != local.kind) return "response kind differs";
  if (wire.kind == net::MessageKind::kScoreResponse) {
    if (wire.predictions.size() != local.predictions.size()) {
      return "prediction count differs";
    }
    for (std::size_t i = 0; i < wire.predictions.size(); ++i) {
      if (!same_prediction(wire.predictions[i], local.predictions[i])) {
        return "score " + std::to_string(i) + " differs";
      }
    }
    return {};
  }
  if (wire.feasible != local.feasible) return "route feasibility differs";
  if (wire.routes.size() != local.routes.size()) return "route count differs";
  for (std::size_t i = 0; i < wire.routes.size(); ++i) {
    const net::RouteEntry& a = wire.routes[i];
    const net::RouteEntry& b = local.routes[i];
    if (a.user != b.user || !same_bits(a.probability, b.probability) ||
        !same_prediction(a.prediction, b.prediction)) {
      return "route " + std::to_string(i) + " differs";
    }
  }
  return {};
}

// ------------------------------------------------------------------ runner

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".bench_out/work";
  std::string details_out;
  std::string trace_out;
};

class InvalidRun : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Runner {
 public:
  Runner(const Workload& workload, const Options& options)
      : workload_(workload), options_(options) {}

  int run();

 private:
  using MakeFn = Generator::MakeFn;

  PhaseRecord record(const std::string& name, const PhaseResult& result,
                     bool fixed_rate, int attempts = 1);
  std::pair<PhaseResult, PhaseRecord> fixed_rate(const std::string& name,
                                                 double rate, double seconds,
                                                 std::uint64_t salt,
                                                 std::size_t keep_every);
  PhaseResult open_loop(double rate, double seconds, std::uint64_t salt,
                        std::size_t keep_every, bool busy_poll = true);
  double search_capacity(double budget_s);
  void check_exchanges(const std::vector<Exchange>& exchanges,
                       bool against_follower);
  void note_failure(const std::string& what);

  const Workload& workload_;
  const Options& options_;
  std::optional<Forum> forum_;
  std::optional<RequestMix> mix_;
  std::unique_ptr<Tier> tier_;
  std::unique_ptr<Generator> generator_;
  std::unique_ptr<Feed> feed_;  ///< the running feed, for kNewest reads
  forum::QuestionId newest_ = 0;

  std::vector<PhaseRecord> phases_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t mismatches_ = 0;
  std::string first_mismatch_;
};

PhaseRecord Runner::record(const std::string& name, const PhaseResult& result,
                           bool fixed_rate, int attempts) {
  PhaseRecord phase;
  phase.name = name;
  phase.sent = result.sent;
  phase.ok = result.ok;
  phase.failed = result.failed;
  phase.latency = summarize(result.ok_latencies(), result.failed);
  phase.lag = lag_of(result);
  phase.attempts = attempts;
  if (fixed_rate) {
    attempted_ += result.sent;
    failed_ += result.failed;
    if (phase.lag.fell_behind(kLateShare)) {
      throw InvalidRun("generator fell behind in phase " + name + " on " +
                       std::to_string(attempts) + " attempt(s): " +
                       describe(phase.lag));
    }
    if (!phase.latency.p99_supported) {
      throw InvalidRun("phase " + name + " has too few samples for a p99 (" +
                       std::to_string(result.sent) + "); raise --seconds");
    }
    if (!std::isfinite(phase.latency.p99)) {
      throw InvalidRun("phase " + name + ": failures reach the p99 (" +
                       std::to_string(result.failed) + " failed)");
    }
  }
  phases_.push_back(phase);
  return phase;
}

/// Measures a fixed-rate phase on the quiescent tier and records it. One
/// stall of the host lands on one attempt, so a phase whose generator fell
/// behind is measured again (its requests still count as attempted); the
/// run is invalid only when every one of kAttempts attempts fell behind.
std::pair<PhaseResult, PhaseRecord> Runner::fixed_rate(
    const std::string& name, double rate, double seconds, std::uint64_t salt,
    std::size_t keep_every) {
  for (int attempt = 1;; ++attempt) {
    PhaseResult result = open_loop(rate, seconds, salt, keep_every);
    const Lag lag = lag_of(result);
    if (attempt < kAttempts && lag.fell_behind(kLateShare)) {
      attempted_ += result.sent;
      failed_ += result.failed;
      std::cout << "phase " << name << " attempt " << attempt
                << ": generator fell behind (" << describe(lag)
                << "); measuring it again\n";
      continue;
    }
    const PhaseRecord phase = record(name, result, true, attempt);
    return {std::move(result), phase};
  }
}

PhaseResult Runner::open_loop(double rate, double seconds, std::uint64_t salt,
                              std::size_t keep_every, bool busy_poll) {
  const OpenLoopSchedule schedule(rate, Clock::now() + std::chrono::milliseconds(1),
                                  seconds);
  const MakeFn make = [this, salt](std::size_t i) {
    const forum::QuestionId newest =
        feed_ ? feed_->newest_question() : newest_;
    return mix_->make(salt, i, newest);
  };
  Generator::KeepFn keep;
  if (keep_every > 0) {
    keep = [keep_every](std::size_t i) { return i % keep_every == 0; };
  }
  return generator_->run(schedule, make, 4.0 * kLimitMs + 200.0,
                         keep, busy_poll);
}

double Runner::search_capacity(double budget_s) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(
                         static_cast<std::int64_t>(budget_s * 1000.0));
  const double late_bound = kLateShare * kLimitMs;
  std::uint64_t salt = 1000;
  PhaseResult all;
  auto probe = [&](double rate) {
    // Long enough for a p99 at every rate.
    const double seconds = std::max(0.8, 1100.0 / rate);
    const PhaseResult result = open_loop(rate, seconds, salt++, 0);
    all.sent += result.sent;
    all.ok += result.ok;
    all.failed += result.failed;
    const Summary latency = summarize(result.ok_latencies(), result.failed);
    // Backlog: the last tenth of the probe must still meet the limit.
    std::vector<double> last(
        result.latency_ms.end() -
            static_cast<std::ptrdiff_t>(result.latency_ms.size() / 10),
        result.latency_ms.end());
    const bool pass = result.failed == 0 && latency.p99_supported &&
                      latency.p99 <= kLimitMs &&
                      lag_of(result).late_p99_ms <= late_bound &&
                      median(last) <= kLimitMs;
    std::cout << "  probe " << number(std::round(rate)) << " req/s: p99 "
              << number(latency.p99) << " ms, failed " << result.failed
              << (pass ? " -> ok" : " -> over") << "\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return pass;
  };

  double lo = 0.0;
  double hi = 0.0;
  double rate = workload_.busy_rps;
  if (probe(rate)) {
    lo = rate;
    while (hi == 0.0 && Clock::now() < deadline) {
      rate *= 1.5;
      if (probe(rate)) {
        lo = rate;
      } else {
        hi = rate;
      }
    }
  } else {
    hi = rate;
    while (lo == 0.0 && Clock::now() < deadline) {
      rate /= 1.5;
      if (probe(rate)) {
        lo = rate;
      } else {
        hi = rate;
      }
    }
  }
  while (lo > 0.0 && hi > 0.0 && hi / lo > 1.05 && Clock::now() < deadline) {
    const double mid = std::sqrt(lo * hi);
    if (probe(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  PhaseRecord phase;
  phase.name = "search";
  phase.sent = all.sent;
  phase.ok = all.ok;
  phase.failed = all.failed;
  phases_.push_back(phase);
  if (lo == 0.0 || (hi > 0.0 && hi / lo > 1.05)) {
    std::cout << "capacity search stopped at " << number(budget_s)
              << " s short of 5 % resolution (ok " << number(lo) << ", over "
              << number(hi) << ")\n";
  }
  return lo;
}

void Runner::note_failure(const std::string& what) {
  ++mismatches_;
  ++failed_;
  if (first_mismatch_.empty()) first_mismatch_ = what;
}

void Runner::check_exchanges(const std::vector<Exchange>& exchanges,
                             bool against_follower) {
  const core::ForecastPipeline& pipeline = tier_->pipeline();
  const serve::BatchScorer reference(pipeline);
  std::optional<serve::BatchScorer> follower_reference;
  std::shared_ptr<void> follower_guard;
  std::shared_ptr<const core::ForecastPipeline> follower_pipeline;
  if (against_follower) {
    follower_guard = tier_->follower().read_guard_fn()();
    follower_pipeline = tier_->follower().scorer().pipeline();
    follower_reference.emplace(*follower_pipeline);
  }
  const std::shared_ptr<void> guard = tier_->live().read_guard();
  for (const Exchange& exchange : exchanges) {
    attempted_ += 1;
    const net::Message local =
        reference_response(pipeline, reference, exchange.request);
    std::string problem = compare(exchange.response, local);
    if (problem.empty() && follower_reference) {
      const net::Message replica = reference_response(
          *follower_pipeline, *follower_reference, exchange.request);
      problem = compare(exchange.response, replica);
      if (!problem.empty()) problem = "follower: " + problem;
    }
    if (!problem.empty()) {
      note_failure(problem + " (question " +
                   std::to_string(exchange.request.question) + ")");
    }
  }
}

int Runner::run() {
  namespace fs = std::filesystem;
  const Stamp stamp = read_stamp();
  if (stamp.build_type != "Release") {
    std::cerr << "refusing to benchmark a " << stamp.build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  std::cout << "stamp " << stamp_json(stamp) << "\n";
  const CpuTimes cpu_start = read_cpu_times();
  obs::TraceCollector::global().set_enabled(options_.trace);
  forumcast::util::set_log_level(forumcast::util::LogLevel::Warn);
  const double S = options_.seconds;

  forum_.emplace(make_forum(options_.seed));
  const std::size_t ingest_events = static_cast<std::size_t>(
      kEventRps * kIngestShare * S);
  if (forum_->events.size() < ingest_events + kBurstEvents) {
    throw InvalidRun("forum has " + std::to_string(forum_->events.size()) +
                     " events; the phases need " +
                     std::to_string(ingest_events + kBurstEvents));
  }
  mix_.emplace(workload_.mix, forum_->base, options_.seed);
  newest_ = static_cast<forum::QuestionId>(forum_->base.num_questions() - 1);
  std::cout << "forum: " << forum_->base.num_questions() << " questions, "
            << forum_->base.num_users() << " users, "
            << forum_->events.size() << " events after the cutoff\n";

  // ---- set-up of the measured tier. The other timed set-ups run after
  // rss_mb is read, so that its peak is one tier's, not that of the heap
  // earlier tiers left behind.
  std::vector<double> setup_s;
  tier_ = std::make_unique<Tier>(forum_->base, options_.work_dir + "/setup-0");
  setup_s.push_back(tier_->setup_s());

  generator_ = std::make_unique<Generator>(
      tier_->port(), std::min<std::size_t>(4, stamp.nproc));
  open_loop(workload_.light_rps, 0.3, 1, 0);  // warm caches and connections

  // ---- light, busy, search on the quiescent tier.
  const RegistrySnapshot before_score = RegistrySnapshot::take();
  std::vector<Exchange> exchanges;
  const auto [light, light_phase] =
      fixed_rate("light", workload_.light_rps, kLightShare * S, 2, 8);
  exchanges.insert(exchanges.end(), light.samples.begin(), light.samples.end());
  const RegistrySnapshot after_light = RegistrySnapshot::take();
  const auto [busy, busy_phase] =
      fixed_rate("busy", workload_.busy_rps, kBusyShare * S, 3, 64);
  exchanges.insert(exchanges.end(), busy.samples.begin(), busy.samples.end());
  const RegistrySnapshot after_busy = RegistrySnapshot::take();
  const double max_rate = search_capacity(kSearchShare * S);
  const RegistrySnapshot after_search = RegistrySnapshot::take();
  check_exchanges(exchanges, false);

  // ---- in-process layer costs, while the state is still quiescent.
  ServeLayerTimes serve_times;
  double ping_us = 0.0;
  double codec_us = 0.0;
  double bundle_load_ms = 0.0;
  if (options_.trace) {
    std::vector<net::Message> requests;
    for (std::size_t i = 0; i < 400; ++i) {
      requests.push_back(mix_->make(4, i, newest_));
    }
    const std::shared_ptr<void> guard = tier_->live().read_guard();
    serve_times = time_serve_layers(tier_->pipeline(), requests);
    ping_us = time_ping_us(tier_->port(), 400);
    codec_us = time_codec_us(light.samples.front().request,
                             light.samples.front().response, 2000);
    bundle_load_ms = time_bundle_load_ms(tier_->pipeline(), forum_->base, 3);
  }

  // ---- ingest at a fixed rate with light reads, then a burst.
  const std::span<const stream::ForumEvent> events(forum_->events);
  tier_->source().take_ship_ms();
  const RegistrySnapshot before_ingest = RegistrySnapshot::take();
  feed_ = std::make_unique<Feed>(*tier_, events.subspan(0, ingest_events),
                                 kEventRps, kCommitMs, 256);
  // The generator sleeps here: a spinning core would be taken from the
  // primary's and the follower's centrality refreshes.
  const PhaseResult reads =
      open_loop(workload_.light_rps, kIngestShare * S, 5, 0, false);
  const FeedResult fresh = feed_->wait(30000.0);
  newest_ = feed_->newest_question();
  feed_.reset();
  const PhaseRecord read_phase = record("read", reads, true);
  const std::vector<double> ship_ms = tier_->source().take_ship_ms();

  feed_ = std::make_unique<Feed>(
      *tier_, events.subspan(ingest_events, kBurstEvents), 0.0, 0.0, 64);
  const FeedResult burst = feed_->wait(60000.0);
  newest_ = feed_->newest_question();
  feed_.reset();
  const RegistrySnapshot after_ingest = RegistrySnapshot::take();

  const std::size_t fed = ingest_events + kBurstEvents;
  attempted_ += fed;
  PhaseRecord fresh_phase;
  fresh_phase.name = "ingest";
  fresh_phase.sent = fresh.events;
  fresh_phase.latency = summarize_events(fresh.fresh_ms);
  fresh_phase.failed = fresh_phase.latency.failed;
  fresh_phase.ok = fresh_phase.latency.ok;
  phases_.push_back(fresh_phase);
  const Summary commit_fresh = summarize_events(fresh.commit_fresh_ms);
  PhaseRecord burst_phase;
  burst_phase.name = "burst";
  burst_phase.sent = burst.events;
  burst_phase.ok = burst.complete ? burst.events : 0;
  burst_phase.failed = burst.complete ? 0 : burst.events;
  phases_.push_back(burst_phase);
  failed_ += fresh_phase.failed + burst_phase.failed;
  if (!fresh.complete || !burst.complete) {
    throw InvalidRun("the follower did not apply every event in time");
  }
  if (!fresh_phase.latency.p99_supported) {
    throw InvalidRun("too few ingest events for a freshness p99");
  }

  // ---- correctness after the stream: replica parity and wire parity.
  const std::uint64_t last_seq = tier_->live().last_seq();
  attempted_ += 1;
  if (!tier_->wait_follower(last_seq, 30000.0)) {
    note_failure("follower never reached seq " + std::to_string(last_seq));
  } else {
    const net::ReplicaStatusInfo status = tier_->follower().status();
    const std::uint64_t primary_digest = tier_->live().digest();
    if (status.applied_seq != last_seq || status.digest != primary_digest) {
      note_failure("follower digest differs from the primary's at seq " +
                   std::to_string(last_seq));
    }
  }
  const PhaseResult final_reads = open_loop(workload_.light_rps, 0.8, 6, 1);
  record("check", final_reads, false);
  attempted_ += final_reads.sent;
  failed_ += final_reads.failed;
  check_exchanges(final_reads.samples, true);

  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  // ---- the remaining set-ups, each of a fresh tier.
  generator_.reset();
  tier_.reset();
  const RegistrySnapshot before_setup = RegistrySnapshot::take();
  for (int k = 1; k < kSetups; ++k) {
    tier_ = std::make_unique<Tier>(
        forum_->base, options_.work_dir + "/setup-" + std::to_string(k));
    setup_s.push_back(tier_->setup_s());
    tier_.reset();
  }
  const RegistrySnapshot after_setup = RegistrySnapshot::take();
  std::cout << "setup_s:";
  for (const double s : setup_s) std::cout << " " << number(s);
  std::cout << "\n";

  // ---- metrics.
  std::vector<Metric> e2e = {
      {"setup_s", median(setup_s), "s"},
      {"light.p50_ms", light_phase.latency.p50, "ms"},
      {"light.p90_ms", light_phase.latency.p90, "ms"},
      {"light.p99_ms", light_phase.latency.p99, "ms"},
      {"busy.p50_ms", busy_phase.latency.p50, "ms"},
      {"busy.p90_ms", busy_phase.latency.p90, "ms"},
      {"busy.p99_ms", busy_phase.latency.p99, "ms"},
      {"max_rate_rps", max_rate, "1/s"},
      {"fresh.p50_ms", fresh_phase.latency.p50, "ms"},
      {"fresh.p90_ms", fresh_phase.latency.p90, "ms"},
      {"fresh.p99_ms", fresh_phase.latency.p99, "ms"},
      {"fresh.commit_p50_ms", commit_fresh.p50, "ms"},
      {"fresh.commit_p90_ms", commit_fresh.p90, "ms"},
      {"fresh.commit_p99_ms", commit_fresh.p99, "ms"},
      {"read.p50_ms", read_phase.latency.p50, "ms"},
      {"read.p90_ms", read_phase.latency.p90, "ms"},
      {"read.p99_ms", read_phase.latency.p99, "ms"},
      {"replicated_eps",
       static_cast<double>(burst.events) / burst.span_s, "1/s"},
      {"rss_mb", rss_mb, "MB"},
  };

  std::vector<Metric> layers;
  if (options_.trace) {
    const auto fit_mean = [&](const std::string& name) {
      return histogram_mean(histogram_delta(before_setup, after_setup, name));
    };
    const auto frac = [&](const char* hits, const char* misses) {
      const double h = static_cast<double>(
          counter_delta(before_score, after_search, hits));
      const double m = static_cast<double>(
          counter_delta(before_score, after_search, misses));
      return h + m > 0.0 ? h / (h + m) : 0.0;
    };
    const double server_mean_light = histogram_mean(
        histogram_delta(before_score, after_light, "net.request_ms"));
    const double server_p99_busy =
        histogram_delta(after_light, after_busy, "net.request_ms")
            .quantile(0.99);
    const double requests = static_cast<double>(
        counter_delta(before_score, after_search, "net.requests"));
    const double rejected = static_cast<double>(
        counter_delta(before_score, after_search, "net.rejected_queue_full"));
    const double dropped = static_cast<double>(
        counter_delta(before_ingest, after_ingest, "serve.cache.blocks_dropped"));
    const double light_p50 = light_phase.latency.p50;
    layers = {
        {"net.ping_rtt_us", ping_us, "us"},
        {"net.codec_us", codec_us, "us"},
        // Requests per batcher drain (the daemon's own histogram), so route
        // requests, which are never coalesced into score batches, count too.
        {"net.batch_fill",
         histogram_mean(
             histogram_delta(after_light, after_search, "net.batch_fill")),
         "count"},
        {"net.server_p99_ms", server_p99_busy, "ms"},
        {"net.rejected_frac", requests > 0.0 ? rejected / requests : 0.0,
         "ratio"},
        {"net.hold_ms",
         light_p50 - serve_times.score_us / 1000.0 - ping_us / 1000.0, "ms"},
        {"serve.score_us", serve_times.score_us, "us"},
        {"serve.block_build_us", serve_times.block_build_us, "us"},
        {"serve.assemble_us", serve_times.assemble_us, "us"},
        {"serve.question_hit_frac",
         frac("serve.cache.question_hits", "serve.cache.question_misses"),
         "ratio"},
        {"serve.user_hit_frac",
         frac("serve.cache.user_hits", "serve.cache.user_misses"), "ratio"},
        {"serve.blocks_dropped_per_kev",
         1000.0 * dropped / static_cast<double>(fed), "count"},
        {"core.answer_fwd_us", serve_times.answer_fwd_us, "us"},
        {"core.vote_fwd_us", serve_times.vote_fwd_us, "us"},
        {"core.timing_fwd_us", serve_times.timing_fwd_us, "us"},
        {"opt.route_us", serve_times.route_us, "us"},
        {"stream.ingest_ms", median(fresh.ingest_ms), "ms"},
        {"stream.apply_ms",
         histogram_mean(
             histogram_delta(before_ingest, after_ingest, "stream.apply_ms")),
         "ms"},
        {"stream.fsync_ms",
         histogram_mean(histogram_delta(before_ingest, after_ingest,
                                        "stream.wal.fsync_ms")),
         "ms"},
        {"graph.centrality_refresh_ms",
         histogram_mean(histogram_delta(before_ingest, after_ingest,
                                        "features.centrality_refresh_ms")),
         "ms"},
        {"replica.ship_ms", median(ship_ms), "ms"},
        {"replica.follow_ms", median(fresh.follow_ms), "ms"},
        {"replica.max_lag_events", static_cast<double>(fresh.max_lag_events),
         "count"},
        {"setup.extractor_ms", fit_mean("pipeline.fit.extractor_build_ms"),
         "ms"},
        {"setup.answer_ms", fit_mean("pipeline.fit.answer_ms"), "ms"},
        {"setup.vote_ms", fit_mean("pipeline.fit.vote_ms"), "ms"},
        {"setup.timing_ms", fit_mean("pipeline.fit.timing_ms"), "ms"},
        {"setup.bundle_load_ms", bundle_load_ms, "ms"},
        // The light request's blocking path: wire round trip, codec, and
        // the daemon's admission-to-completion (batch hold + scoring). Means
        // add up where percentiles do not, and the daemon's mean is exact
        // (histogram sum / count), so the residual is what the client side
        // adds beyond the layers.
        {"unattributed_ms",
         mean(light.ok_latencies()) - ping_us / 1000.0 - codec_us / 1000.0 -
             server_mean_light,
         "ms"},
        // An event's, from its commit: the primary's ingest, the ship, and
        // the follower's ingest of the same events (the same
        // LiveState::ingest on the same state, so timed as the primary's;
        // the primary's also waits behind reads for the writer lock, so the
        // residual can dip below zero).
        {"fresh.unattributed_ms",
         commit_fresh.p50 - 2.0 * median(fresh.ingest_ms) - median(ship_ms),
         "ms"},
        {"gen.late_p99_ms",
         std::max({light_phase.lag.late_p99_ms, busy_phase.lag.late_p99_ms,
                   read_phase.lag.late_p99_ms}),
         "ms"},
    };
    if (!options_.trace_out.empty()) {
      fs::create_directories(fs::path(options_.trace_out).parent_path());
      std::ofstream out(options_.trace_out);
      obs::TraceCollector::global().write_chrome_trace(out);
      std::cout << "chrome trace written to " << options_.trace_out << "\n";
    }
  }

  // ---- report. Time the hypervisor gave to other guests makes every timing
  // of the run noisier; it is recorded so noisy runs can be recognised.
  const CpuTimes cpu_end = read_cpu_times();
  const double steal_share =
      static_cast<double>(cpu_end.steal - cpu_start.steal) /
      static_cast<double>(std::max(1ULL, cpu_end.total - cpu_start.total));
  std::cout << "host cpu steal " << number(100.0 * steal_share) << " %\n";
  for (const PhaseRecord& phase : phases_) {
    std::cout << "phase " << phase_json(phase) << "\n";
  }
  const bool correct = mismatches_ == 0;
  if (!correct) {
    std::cout << "MISMATCH x" << mismatches_ << ": " << first_mismatch_
              << "\n";
  }
  if (!options_.details_out.empty()) {
    fs::create_directories(fs::path(options_.details_out).parent_path());
    std::ofstream out(options_.details_out);
    out << "{\"workload\": " << quoted(workload_.name)
        << ", \"seed\": " << options_.seed << ", \"seconds\": " << number(S)
        << ", \"trace\": " << (options_.trace ? "true" : "false")
        << ", \"stamp\": " << stamp_json(stamp)
        << ", \"steal_share\": " << number(steal_share) << ", \"phases\": [";
    for (std::size_t i = 0; i < phases_.size(); ++i) {
      out << (i ? ", " : "") << phase_json(phases_[i]);
    }
    out << "], \"end_to_end\": " << metrics_json(e2e)
        << ", \"per_layer\": " << metrics_json(layers) << "}\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
            << ", \"metrics\": " << metrics_json(options_.trace ? layers : e2e)
            << "}" << std::endl;
  return correct ? 0 : 1;
}

int usage() {
  std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--details-out FILE] "
               "[--trace-out FILE]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else if (arg == "--details-out") {
      options.details_out = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr || options.seconds <= 0.0) return usage();
  try {
    Runner runner(*workload, options);
    return runner.run();
  } catch (const InvalidRun& invalid) {
    std::cerr << "invalid run: " << invalid.what() << "\n";
    return 3;
  } catch (const std::exception& error) {
    std::cerr << "benchmark failed: " << error.what() << "\n";
    return 1;
  }
}
