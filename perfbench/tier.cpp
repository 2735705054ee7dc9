#include "tier.hpp"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <utility>

#include "forum/generator.hpp"
#include "stream/split.hpp"
#include "util/check.hpp"

namespace perfbench {

namespace {

void fine_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

}  // namespace

Forum make_forum(std::uint64_t seed) {
  forum::GeneratorConfig config;
  // 400 users keep the exact centrality refresh every ingest runs at
  // 5-20 ms.
  config.num_users = 400;
  config.num_questions = 3000;
  config.mean_extra_answers = 1.5;
  config.seed = seed;
  const forum::Dataset full =
      forum::generate_forum(config).dataset.preprocessed();
  // Day 20 of 30: about 1200 questions to fit on and ~3900 events after.
  stream::EventSplit split = stream::split_events_after(full, 20.0 * 24.0);
  return {std::move(split.base), std::move(split.events)};
}

core::PipelineConfig fit_config() {
  core::PipelineConfig config;
  config.extractor.lda.iterations = 15;
  config.answer.logistic.epochs = 30;
  config.vote.epochs = 10;
  config.timing.epochs = 5;
  config.survival_samples_per_thread = 5;
  config.timing.expectation =
      core::TimingPredictorConfig::Expectation::PaperUnnormalized;
  config.timing.learn_omega = false;
  config.timing.f_hidden = {20, 10};
  return config;
}

net::WalSpan TimedSource::events_after(std::uint64_t after_seq,
                                       std::size_t max_bytes) {
  const Clock::time_point start = Clock::now();
  net::WalSpan span = publisher_.events_after(after_seq, max_bytes);
  if (span.count > 0) {
    const double ms = ms_between(start, Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    ship_ms_.push_back(ms);
  }
  return span;
}

std::vector<double> TimedSource::take_ship_ms() {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(ship_ms_, {});
}

Tier::Tier(const forum::Dataset& base, const std::string& dir)
    : dir_(dir), dataset_(base), pipeline_(fit_config()) {
  namespace fs = std::filesystem;
  const Clock::time_point start = Clock::now();
  try {
    std::vector<forum::QuestionId> window(dataset_.num_questions());
    for (std::size_t i = 0; i < window.size(); ++i) {
      window[i] = static_cast<forum::QuestionId>(i);
    }
    pipeline_.fit(dataset_, window);

    const std::string primary_dir = dir_ + "/primary";
    const std::string follower_dir = dir_ + "/follower";
    fs::remove_all(dir_);
    fs::create_directories(primary_dir);
    fs::create_directories(follower_dir);

    stream::LiveStateConfig live_config;
    live_config.wal_dir = primary_dir;
    live_ = std::make_unique<stream::LiveState>(pipeline_, dataset_,
                                                live_config);
    scorer_ = std::make_unique<serve::BatchScorer>(pipeline_);
    live_->attach(scorer_.get());

    replica::PublisherHooks hooks;
    hooks.digest_at = [this](std::uint64_t seq, std::uint64_t* out) {
      // Never nest reader locks: the writer-priority lock would deadlock.
      if (live_->last_seq() != seq) return false;
      *out = live_->digest();
      return live_->last_seq() == seq;
    };
    publisher_ = std::make_unique<replica::Publisher>(primary_dir, hooks);
    source_ = std::make_unique<TimedSource>(*publisher_);

    net::ServerConfig config;
    config.replication = source_.get();
    config.status_fn = [this] {
      net::ReplicaStatusInfo info;
      info.role = 1;
      for (;;) {
        const std::uint64_t seq = live_->last_seq();
        const std::uint64_t digest = live_->digest();
        if (live_->last_seq() == seq) {
          info.applied_seq = info.head_seq = seq;
          info.digest = digest;
          return info;
        }
      }
    };
    config.batcher.read_guard = [this] { return live_->read_guard(); };
    server_ = std::make_unique<net::Server>(*scorer_, dataset_, config);
    server_thread_ = std::thread([this] { server_->run(); });

    replica::FollowerConfig follower_config;
    follower_config.primary_port = server_->replication_port();
    follower_config.wal_dir = follower_dir;
    follower_config.client.connect_timeout_ms = 2000.0;
    follower_config.client.connect_retries = 4;
    follower_config.client.retry_backoff_ms = 100.0;
    follower_ = std::make_unique<replica::Follower>(base, follower_config);
    follower_thread_ = std::thread([this] { follower_->run(); });

    const Clock::time_point deadline = start + std::chrono::seconds(60);
    while (!follower_->has_serving()) {
      FORUMCAST_CHECK_MSG(Clock::now() < deadline,
                          "follower did not bootstrap within 60 s");
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    FORUMCAST_CHECK_MSG(wait_follower(live_->last_seq(), 60000.0),
                        "follower did not catch up within 60 s");
  } catch (...) {
    stop();
    throw;
  }
  setup_s_ = std::chrono::duration<double>(Clock::now() - start).count();
}

Tier::~Tier() { stop(); }

void Tier::stop() {
  if (follower_) follower_->stop();
  if (follower_thread_.joinable()) follower_thread_.join();
  if (server_) server_->stop();
  if (server_thread_.joinable()) server_thread_.join();
  follower_.reset();
  server_.reset();
  source_.reset();
  publisher_.reset();
  if (live_ && scorer_) live_->detach(scorer_.get());
  live_.reset();
  scorer_.reset();
  std::error_code ignored;
  std::filesystem::remove_all(dir_, ignored);
}

bool Tier::wait_follower(std::uint64_t seq, double timeout_ms) {
  fine_timer_slack();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(timeout_ms * 1000.0));
  while (follower_->applied_seq() < seq) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

Feed::Feed(Tier& tier, std::span<const stream::ForumEvent> events, double rate,
           double commit_ms, std::size_t max_chunk)
    : tier_(tier),
      events_(events),
      rate_(rate),
      commit_ms_(commit_ms),
      max_chunk_(std::max<std::size_t>(1, max_chunk)),
      base_seq_(tier.live().last_seq()),
      start_(Clock::now() + std::chrono::milliseconds(2)),
      due_(events.size()),
      applied_(events.size()),
      fed_seq_(base_seq_),
      newest_(static_cast<forum::QuestionId>(
          tier.dataset().num_questions() - 1)) {
  if (rate_ > 0.0) {
    const OpenLoopSchedule schedule(rate_, start_, 0.0);
    for (std::size_t i = 0; i < due_.size(); ++i) due_[i] = schedule.due(i);
  }
  poller_ = std::thread([this] { poll_loop(); });
  feeder_ = std::thread([this] { feed_loop(); });
}

Feed::~Feed() {
  stop_ = true;
  if (feeder_.joinable()) feeder_.join();
  if (poller_.joinable()) poller_.join();
}

void Feed::feed_loop() {
  fine_timer_slack();
  try {
    std::size_t next = 0;
    while (next < events_.size() && !stop_) {
      std::size_t end = next;
      Clock::time_point now;
      if (rate_ > 0.0) {
        // Group commit: wake at the first commit tick at or after the next
        // event's due time and take everything due by then.
        const double ticks = std::ceil(ms_between(start_, due_[next]) / commit_ms_);
        std::this_thread::sleep_until(
            start_ + std::chrono::microseconds(static_cast<std::int64_t>(
                         ticks * commit_ms_ * 1000.0)));
        now = Clock::now();
        while (end < events_.size() && end - next < max_chunk_ &&
               due_[end] <= now) {
          ++end;
        }
        if (end == next) continue;
      } else {
        now = Clock::now();
        end = std::min(events_.size(), next + max_chunk_);
        std::fill(due_.begin() + static_cast<std::ptrdiff_t>(next),
                  due_.begin() + static_cast<std::ptrdiff_t>(end), now);
      }
      const auto chunk = events_.subspan(next, end - next);
      tier_.live().ingest(chunk);
      const Clock::time_point done = Clock::now();
      fed_seq_.store(base_seq_ + end, std::memory_order_release);
      for (const stream::ForumEvent& event : chunk) {
        if (event.type == stream::EventType::kNewQuestion) {
          newest_.store(event.question, std::memory_order_release);
        }
      }
      tier_.server().notify_replication();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        chunks_.push_back({next, end, now, done});
      }
      next = end;
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    error_ = std::current_exception();
  }
}

void Feed::poll_loop() {
  fine_timer_slack();
  const std::uint64_t last_seq = base_seq_ + events_.size();
  std::uint64_t seen = base_seq_;
  while (!stop_) {
    const std::uint64_t applied = tier_.follower().applied_seq();
    if (applied > seen) {
      const Clock::time_point now = Clock::now();
      const std::uint64_t upto = std::min(applied, last_seq);
      for (std::uint64_t seq = seen + 1; seq <= upto; ++seq) {
        applied_[seq - base_seq_ - 1] = now;
      }
      seen = upto;
    }
    const std::uint64_t fed = fed_seq_.load(std::memory_order_acquire);
    if (fed > applied) {
      max_lag_.store(std::max(max_lag_.load(), fed - applied));
    }
    if (seen >= last_seq) {
      applied_all_ = true;
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

FeedResult Feed::wait(double timeout_ms) {
  if (feeder_.joinable()) feeder_.join();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(timeout_ms * 1000.0));
  while (!applied_all_ && !error_ && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  stop_ = true;
  if (poller_.joinable()) poller_.join();
  if (error_) std::rethrow_exception(error_);

  FeedResult result;
  result.events = events_.size();
  result.chunks = chunks_.size();
  result.complete = applied_all_;
  result.max_lag_events = max_lag_.load();
  const double inf = std::numeric_limits<double>::infinity();
  result.fresh_ms.assign(events_.size(), inf);
  result.commit_fresh_ms.assign(events_.size(), inf);
  for (const Chunk& chunk : chunks_) {
    result.ingest_ms.push_back(ms_between(chunk.start, chunk.done));
    if (applied_[chunk.end - 1] != Clock::time_point{}) {
      result.follow_ms.push_back(ms_between(chunk.done, applied_[chunk.end - 1]));
    }
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      if (applied_[i] != Clock::time_point{}) {
        result.fresh_ms[i] = ms_between(due_[i], applied_[i]);
        result.commit_fresh_ms[i] = ms_between(chunk.start, applied_[i]);
      }
    }
  }
  if (result.complete && !chunks_.empty()) {
    result.span_s = std::chrono::duration<double>(applied_.back() -
                                                  chunks_.front().start)
                        .count();
  }
  return result;
}

}  // namespace perfbench
