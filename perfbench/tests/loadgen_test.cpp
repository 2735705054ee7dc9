#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "loadgen.hpp"

namespace perfbench {
namespace {

TEST(OpenLoopSchedule, ArrivalsAreEvenlySpaced) {
  const Clock::time_point start = Clock::now();
  const OpenLoopSchedule schedule(1000.0, start, 0.25);
  EXPECT_EQ(schedule.total(), 250u);
  EXPECT_EQ(schedule.due(0), start);
  EXPECT_EQ(schedule.due(1) - start, std::chrono::milliseconds(1));
  EXPECT_EQ(schedule.due(249) - start, std::chrono::milliseconds(249));
  EXPECT_EQ(OpenLoopSchedule(3.0, start, 0.5).total(), 1u);
  EXPECT_EQ(OpenLoopSchedule(300.0, start, 0.0).total(), 0u);
}

TEST(OpenLoopSchedule, DueByCountsExactlyTheArrivalsDue) {
  const Clock::time_point start = Clock::now();
  // A rate whose period is not a whole number of nanoseconds exercises the
  // rounding at every boundary.
  const OpenLoopSchedule schedule(7919.0, start, 0.1);
  EXPECT_EQ(schedule.due_by(start - std::chrono::nanoseconds(1)), 0u);
  EXPECT_EQ(schedule.due_by(start), 1u);
  for (std::size_t i = 0; i < schedule.total(); ++i) {
    const Clock::time_point t = schedule.due(i);
    EXPECT_EQ(schedule.due_by(t), i + 1) << i;
    EXPECT_EQ(schedule.due_by(t - std::chrono::nanoseconds(1)), i) << i;
  }
  EXPECT_EQ(schedule.due_by(start + std::chrono::seconds(5)),
            schedule.total());
}

// A loopback server answering every frame with a health response carrying
// the same request id, after an optional stall, or never.
class FakeServer {
 public:
  enum class Mode { kAnswer, kStallThenAnswer, kSilent };

  explicit FakeServer(Mode mode, std::size_t connections) : mode_(mode) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    accepter_ = std::thread([this, connections] {
      for (std::size_t i = 0; i < connections; ++i) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) return;
        fds_.push_back(fd);
        workers_.emplace_back([this, fd] { serve(fd); });
      }
    });
  }

  ~FakeServer() {
    stop_ = true;
    accepter_.join();
    for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
    for (std::thread& worker : workers_) worker.join();
    for (const int fd : fds_) ::close(fd);
    ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

 private:
  void serve(int fd) {
    if (mode_ == Mode::kStallThenAnswer) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
    std::string in;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0 || stop_) return;
      in.append(chunk, static_cast<std::size_t>(n));
      std::string out;
      for (;;) {
        const forumcast::net::DecodeFrameResult frame =
            forumcast::net::decode_frame(in);
        if (frame.bytes_consumed == 0) break;
        in.erase(0, frame.bytes_consumed);
        forumcast::net::Message response;
        response.kind = forumcast::net::MessageKind::kHealthResponse;
        response.request_id = frame.message.request_id;
        forumcast::net::append_frame(out, response);
      }
      if (mode_ != Mode::kSilent && !out.empty()) {
        ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
      }
    }
  }

  Mode mode_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::vector<int> fds_;
  std::thread accepter_;
  std::vector<std::thread> workers_;
};

forumcast::net::Message health(std::size_t) {
  forumcast::net::Message message;
  message.kind = forumcast::net::MessageKind::kHealthRequest;
  return message;
}

class GeneratorModes : public ::testing::TestWithParam<bool> {};

TEST_P(GeneratorModes, SendsOnScheduleAndMatchesResponses) {
  FakeServer server(FakeServer::Mode::kAnswer, 3);
  Generator generator(server.port(), 3);
  const OpenLoopSchedule schedule(2000.0, Clock::now(), 0.2);
  const PhaseResult result = generator.run(
      schedule, health, 500.0, [](std::size_t i) { return i % 50 == 0; },
      /*busy_poll=*/GetParam());
  EXPECT_EQ(result.sent, schedule.total());
  EXPECT_EQ(result.ok, schedule.total());
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.late_ms.size(), schedule.total());
  EXPECT_EQ(result.samples.size(), schedule.total() / 50);
  for (const Exchange& exchange : result.samples) {
    EXPECT_EQ(exchange.request.request_id, exchange.response.request_id);
  }
  for (const double v : result.latency_ms) EXPECT_GE(v, 0.0);
}

INSTANTIATE_TEST_SUITE_P(BusyPollAndSleep, GeneratorModes,
                         ::testing::Bool());

TEST(Generator, StallDelaysEveryQueuedRequestButNotTheOfferedLoad) {
  // The server reads nothing for 60 ms. An open loop keeps sending on
  // schedule, so the first request waits the whole stall and the ones
  // behind it wait correspondingly less, all timed from their due times.
  FakeServer server(FakeServer::Mode::kStallThenAnswer, 1);
  Generator generator(server.port(), 1);
  const OpenLoopSchedule schedule(1000.0, Clock::now(), 0.1);
  const PhaseResult result = generator.run(schedule, health, 1000.0);
  EXPECT_EQ(result.sent, schedule.total());
  EXPECT_EQ(result.ok, schedule.total());
  EXPECT_GE(result.latency_ms.front(), 55.0);
  EXPECT_GT(result.latency_ms.front(), result.latency_ms[40]);
  EXPECT_LT(*std::max_element(result.late_ms.begin(), result.late_ms.end()),
            50.0);
}

TEST(Lag, MedianOrMeanLatenessBeyondTheShareFallsBehind) {
  // {late p50, late p99, late mean, latency p50, latency mean}
  EXPECT_FALSE((Lag{0.1, 0.5, 0.2, 1.0, 2.0}).fell_behind(0.25));
  EXPECT_TRUE((Lag{0.3, 0.5, 0.2, 1.0, 2.0}).fell_behind(0.25));
  EXPECT_TRUE((Lag{0.1, 0.5, 0.6, 1.0, 2.0}).fell_behind(0.25));
  // A few sends milliseconds late move neither the median nor the mean.
  EXPECT_FALSE((Lag{0.01, 5.0, 0.1, 1.0, 2.0}).fell_behind(0.25));
}

TEST(Generator, LaggingGeneratorFailsTheValidityRule) {
  // Building one request takes 30 ms, so the requests due meanwhile go out
  // up to 30 ms late while the server answers at once.
  FakeServer server(FakeServer::Mode::kAnswer, 1);
  Generator generator(server.port(), 1);
  const OpenLoopSchedule schedule(1000.0, Clock::now(), 0.2);
  const PhaseResult result = generator.run(
      schedule,
      [](std::size_t i) {
        if (i == 100) {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
        }
        return health(i);
      },
      500.0);
  EXPECT_EQ(result.ok, schedule.total());
  const Lag lag = lag_of(result);
  EXPECT_GE(lag.late_p99_ms, 20.0);
  EXPECT_LE(lag.late_mean_ms, lag.latency_mean_ms);
  EXPECT_TRUE(lag.fell_behind(0.25));
}

TEST(Generator, UnansweredRequestsFailAtTheDrainDeadline) {
  FakeServer server(FakeServer::Mode::kSilent, 2);
  Generator generator(server.port(), 2);
  const OpenLoopSchedule schedule(500.0, Clock::now(), 0.05);
  const Clock::time_point begin = Clock::now();
  const PhaseResult result = generator.run(schedule, health, 30.0);
  EXPECT_EQ(result.sent, schedule.total());
  EXPECT_EQ(result.ok, 0u);
  EXPECT_EQ(result.failed, schedule.total());
  EXPECT_LT(ms_between(begin, Clock::now()), 1000.0);
}

}  // namespace
}  // namespace perfbench
