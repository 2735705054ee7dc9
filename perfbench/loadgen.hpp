// Open-loop load generation over pipelined loopback connections.
//
// Independent askers arrive on a fixed schedule: request i is due at
// start + i/rate whatever the server is doing, so a stall shows up as
// latency on every request behind it instead of slowing the offered load
// (a closed loop would hide it). Each request is timed from its due time
// to the arrival of its response, and how late the generator itself sent
// it is recorded alongside, so a run whose generator fell behind can be
// told apart from a slow server.
//
// One thread drives every connection: requests are spread round-robin over
// at most nproc connections, pipelined, and matched to responses by
// request_id.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/protocol.hpp"

namespace perfbench {

namespace net = forumcast::net;

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);

/// Arrival i of `total` = floor(rate · duration) is due at start + i/rate.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double rate_per_s, Clock::time_point start,
                   double duration_s);

  std::size_t total() const { return total_; }
  Clock::time_point due(std::size_t i) const;
  /// Arrivals due at or before `now`: due(i) <= now exactly for i below it.
  std::size_t due_by(Clock::time_point now) const;

 private:
  double rate_;
  Clock::time_point start_;
  std::size_t total_;
};

/// One request and the response it got, kept for the correctness check.
struct Exchange {
  net::Message request;
  net::Message response;
};

struct PhaseResult {
  std::size_t sent = 0;
  std::size_t ok = 0;
  /// Error frames and requests still unanswered at the drain deadline.
  std::size_t failed = 0;
  /// Per request, due time to response arrival; +inf for a failure.
  std::vector<double> latency_ms;
  /// Per request, how long after its due time the generator sent it.
  std::vector<double> late_ms;
  std::vector<Exchange> samples;

  std::vector<double> ok_latencies() const;
};

/// How late the generator sent a phase's answered requests, against the
/// latency it measured for them: nearest-rank percentiles and means.
struct Lag {
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;
  double late_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_mean_ms = 0.0;

  /// The validity rule of a fixed-rate phase. A request's latency is its
  /// lateness plus the system's time, so the generator fell behind its
  /// schedule when its lateness makes up more than `share` of the median
  /// latency or of the mean latency: the load, not the system, would then
  /// be shaping the figures. The mean catches a stall that delays a few
  /// per cent of the requests by many times their latency. (A p99 clause
  /// would rest on the few worst sends, which a sleeping generator sends
  /// milliseconds late whenever the tier's threads fill every core.)
  bool fell_behind(double share) const {
    return late_p50_ms > share * latency_p50_ms ||
           late_mean_ms > share * latency_mean_ms;
  }
};

Lag lag_of(const PhaseResult& result);

class Generator {
 public:
  /// Opens `connections` TCP connections to 127.0.0.1:`port`.
  Generator(std::uint16_t port, std::size_t connections);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  using MakeFn = std::function<net::Message(std::size_t index)>;
  using KeepFn = std::function<bool(std::size_t index)>;

  /// Sends make(i) at schedule.due(i) for every arrival, then waits up to
  /// `drain_ms` past the last due time for outstanding responses. The
  /// generator assigns request ids. Exchanges whose index satisfies `keep`
  /// and that got a non-error response are returned in `samples`. With
  /// `busy_poll` the generator spins on its sockets instead of sleeping
  /// between events, which costs it a whole core.
  PhaseResult run(const OpenLoopSchedule& schedule, const MakeFn& make,
                  double drain_ms, const KeepFn& keep = {},
                  bool busy_poll = true);

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::string in;
  };

  void flush(Conn& conn);
  /// Reads what is available; false when the server closed the connection.
  bool receive(Conn& conn);

  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;
};

}  // namespace perfbench
