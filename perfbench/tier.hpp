// The system under test: a primary serving daemon over a live-ingest state
// with a WAL, replicating to one follower over loopback TCP, all in this
// process; plus the open-loop event feed that drives its write path.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "forum/dataset.hpp"
#include "loadgen.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
#include "replica/follower.hpp"
#include "replica/publisher.hpp"
#include "serve/batch_scorer.hpp"
#include "stream/event.hpp"
#include "stream/live_state.hpp"

namespace perfbench {

namespace core = forumcast::core;
namespace forum = forumcast::forum;
namespace replica = forumcast::replica;
namespace serve = forumcast::serve;
namespace stream = forumcast::stream;

/// The benchmark's inputs for one seed: the snapshot the model is fitted on
/// and the event stream that follows it.
struct Forum {
  forum::Dataset base;
  std::vector<stream::ForumEvent> events;
};

Forum make_forum(std::uint64_t seed);

/// Reduced training config (the bench fixtures' settings): a full-fidelity
/// fit spends minutes training the timing model.
core::PipelineConfig fit_config();

/// Forwards to the primary's Publisher, timing every events_after call that
/// ships records (the replica.ship_ms layer metric).
class TimedSource : public net::ReplicationSource {
 public:
  explicit TimedSource(replica::Publisher& publisher)
      : publisher_(publisher) {}

  std::uint64_t head_seq() override { return publisher_.head_seq(); }
  std::string bundle_bytes() override { return publisher_.bundle_bytes(); }
  net::WalSpan events_after(std::uint64_t after_seq,
                            std::size_t max_bytes) override;

  /// Durations (ms) of the shipping calls since the last take.
  std::vector<double> take_ship_ms();

 private:
  replica::Publisher& publisher_;
  std::mutex mutex_;
  std::vector<double> ship_ms_;
};

class Tier {
 public:
  /// Fits on a copy of `base`, starts the primary (WAL under dir/primary,
  /// serving and replication listeners) and a follower (dir/follower) that
  /// bootstraps over the wire, and returns once the follower has caught up.
  /// `base` must outlive the tier.
  Tier(const forum::Dataset& base, const std::string& dir);
  ~Tier();
  Tier(const Tier&) = delete;
  Tier& operator=(const Tier&) = delete;

  /// Seconds from the start of the fit until the follower was caught up.
  double setup_s() const { return setup_s_; }

  std::uint16_t port() const { return server_->port(); }
  net::Server& server() { return *server_; }
  stream::LiveState& live() { return *live_; }
  const core::ForecastPipeline& pipeline() const { return pipeline_; }
  const forum::Dataset& dataset() const { return dataset_; }
  replica::Follower& follower() { return *follower_; }
  TimedSource& source() { return *source_; }

  /// Polls (every 20 us) until the follower has applied `seq`.
  bool wait_follower(std::uint64_t seq, double timeout_ms);

 private:
  void stop();

  std::string dir_;
  forum::Dataset dataset_;
  core::ForecastPipeline pipeline_;
  std::unique_ptr<stream::LiveState> live_;
  std::unique_ptr<serve::BatchScorer> scorer_;
  std::unique_ptr<replica::Publisher> publisher_;
  std::unique_ptr<TimedSource> source_;
  std::unique_ptr<net::Server> server_;
  std::thread server_thread_;
  std::unique_ptr<replica::Follower> follower_;
  std::thread follower_thread_;
  double setup_s_ = 0.0;
};

/// What one feed of events measured.
struct FeedResult {
  std::size_t events = 0;
  std::size_t chunks = 0;
  bool complete = false;  ///< the follower applied every event in time
  std::vector<double> fresh_ms;   ///< per event: due time → follower applied
  /// Per event: its commit (chunk ingest) began → follower applied.
  std::vector<double> commit_fresh_ms;
  std::vector<double> ingest_ms;  ///< per chunk: LiveState::ingest
  std::vector<double> follow_ms;  ///< per chunk: ingest returned → applied
  std::uint64_t max_lag_events = 0;  ///< fed but not yet applied, at most
  double span_s = 0.0;  ///< first ingest began → follower applied the last
};

/// Feeds events into the primary on a feeder thread while a poller thread
/// watches the follower's applied_seq. With rate > 0 the stream is open
/// loop: event i is created (due) at start + i/rate, and the feeder commits
/// every `commit_ms` whatever is due by then (at most max_chunk), or at once
/// when the previous commit overran the tick. With rate == 0 events go in as
/// fast as ingest accepts them, max_chunk at a time.
class Feed {
 public:
  Feed(Tier& tier, std::span<const stream::ForumEvent> events, double rate,
       double commit_ms, std::size_t max_chunk);
  ~Feed();
  Feed(const Feed&) = delete;
  Feed& operator=(const Feed&) = delete;

  /// Waits until the follower applied every event or `timeout_ms` passed
  /// since the last event was due; rethrows a feeder failure.
  FeedResult wait(double timeout_ms);

  /// Id of the newest question the primary has applied so far.
  forum::QuestionId newest_question() const {
    return newest_.load(std::memory_order_acquire);
  }

 private:
  struct Chunk {
    std::size_t begin = 0;
    std::size_t end = 0;
    Clock::time_point start;
    Clock::time_point done;
  };

  void feed_loop();
  void poll_loop();

  Tier& tier_;
  std::span<const stream::ForumEvent> events_;
  double rate_;
  double commit_ms_;
  std::size_t max_chunk_;
  std::uint64_t base_seq_;
  Clock::time_point start_;
  std::vector<Clock::time_point> due_;
  std::vector<Clock::time_point> applied_;

  std::mutex mutex_;
  std::vector<Chunk> chunks_;
  std::exception_ptr error_;

  std::atomic<std::uint64_t> fed_seq_;
  std::atomic<forum::QuestionId> newest_;
  std::atomic<std::uint64_t> max_lag_{0};
  std::atomic<bool> applied_all_{false};
  std::atomic<bool> stop_{false};
  std::thread feeder_;
  std::thread poller_;
};

}  // namespace perfbench
