#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <string_view>
#include <unordered_map>

#include "stats.hpp"
#include "util/check.hpp"

namespace perfbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

OpenLoopSchedule::OpenLoopSchedule(double rate_per_s, Clock::time_point start,
                                   double duration_s)
    : rate_(rate_per_s), start_(start), total_(0) {
  FORUMCAST_CHECK_MSG(rate_per_s > 0.0 && duration_s >= 0.0,
                      "schedule needs a positive rate and a duration");
  total_ = static_cast<std::size_t>(std::floor(rate_per_s * duration_s + 1e-9));
}

Clock::time_point OpenLoopSchedule::due(std::size_t i) const {
  const double offset_ns = static_cast<double>(i) * 1e9 / rate_;
  return start_ + std::chrono::nanoseconds(std::llround(offset_ns));
}

std::size_t OpenLoopSchedule::due_by(Clock::time_point now) const {
  if (total_ == 0 || now < start_) return 0;
  const double elapsed_s =
      std::chrono::duration<double>(now - start_).count();
  std::size_t k = std::min<std::size_t>(
      total_, static_cast<std::size_t>(elapsed_s * rate_) + 1);
  // The estimate can be one off where rounding of due() straddles `now`.
  while (k < total_ && due(k) <= now) ++k;
  while (k > 0 && due(k - 1) > now) --k;
  return k;
}

std::vector<double> PhaseResult::ok_latencies() const {
  std::vector<double> out;
  out.reserve(ok);
  for (const double v : latency_ms) {
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

Lag lag_of(const PhaseResult& result) {
  Lag lag;
  std::vector<double> late;
  std::vector<double> latency;
  for (std::size_t i = 0; i < result.late_ms.size(); ++i) {
    if (!std::isfinite(result.latency_ms[i])) continue;
    late.push_back(result.late_ms[i]);
    latency.push_back(result.latency_ms[i]);
  }
  if (late.empty()) return lag;
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  lag.late_mean_ms = mean(late);
  lag.latency_mean_ms = mean(latency);
  std::sort(late.begin(), late.end());
  std::sort(latency.begin(), latency.end());
  lag.late_p50_ms = percentile_sorted(late, 500);
  lag.late_p99_ms = percentile_sorted(late, 990);
  lag.latency_p50_ms = percentile_sorted(latency, 500);
  return lag;
}

Generator::Generator(std::uint16_t port, std::size_t connections) {
  FORUMCAST_CHECK_MSG(connections >= 1, "need at least one connection");
  conns_.resize(connections);
  for (Conn& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    FORUMCAST_CHECK_MSG(conn.fd >= 0, "socket(): " << std::strerror(errno));
    int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    FORUMCAST_CHECK_MSG(
        ::connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0,
        "connect(): " << std::strerror(errno));
    ::fcntl(conn.fd, F_SETFL, ::fcntl(conn.fd, F_GETFL, 0) | O_NONBLOCK);
  }
}

Generator::~Generator() {
  for (const Conn& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void Generator::flush(Conn& conn) {
  std::size_t offset = 0;
  while (offset < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + offset,
                             conn.out.size() - offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      FORUMCAST_CHECK_MSG(false, "send(): " << std::strerror(errno));
    }
    offset += static_cast<std::size_t>(n);
  }
  conn.out.erase(0, offset);
}

bool Generator::receive(Conn& conn) {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      FORUMCAST_CHECK_MSG(false, "recv(): " << std::strerror(errno));
    }
    if (n == 0) return false;
    conn.in.append(chunk, static_cast<std::size_t>(n));
  }
}

PhaseResult Generator::run(const OpenLoopSchedule& schedule, const MakeFn& make,
                           double drain_ms, const KeepFn& keep,
                           bool busy_poll) {
  const std::size_t total = schedule.total();
  const std::uint64_t first_id = next_id_;
  next_id_ += total + 1;

  PhaseResult result;
  result.latency_ms.assign(total, std::numeric_limits<double>::infinity());
  result.late_ms.reserve(total);
  std::vector<std::uint8_t> answered(total, 0);
  std::unordered_map<std::size_t, net::Message> kept;
  std::size_t outstanding = 0;
  std::size_t next = 0;

  const Clock::time_point drain_deadline =
      (total == 0 ? Clock::now() : schedule.due(total - 1)) +
      std::chrono::microseconds(static_cast<std::int64_t>(drain_ms * 1000.0));
  std::vector<pollfd> fds(conns_.size());

  for (;;) {
    const Clock::time_point now = Clock::now();
    const std::size_t due = schedule.due_by(now);
    for (; next < due; ++next) {
      net::Message request = make(next);
      request.request_id = first_id + next;
      net::append_frame(conns_[next % conns_.size()].out, request);
      result.late_ms.push_back(ms_between(schedule.due(next), now));
      if (keep && keep(next)) kept.emplace(next, std::move(request));
      ++outstanding;
    }
    result.sent = next;
    for (Conn& conn : conns_) {
      if (!conn.out.empty()) flush(conn);
    }
    if (next == total && (outstanding == 0 || now >= drain_deadline)) break;

    // With busy_poll the loop never sleeps: on a virtual machine a sleeping
    // thread now and then wakes milliseconds late, which would land on the
    // generator's own send times and receive timestamps.
    timespec timeout{};
    if (!busy_poll) {
      const Clock::time_point wake =
          next < total ? schedule.due(next) : drain_deadline;
      const auto wait_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::max<Clock::duration>(wake - now,
                                                         Clock::duration::zero()))
                               .count();
      timeout.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
      timeout.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    }
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].fd;
      fds[c].events =
          static_cast<short>(POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT));
      fds[c].revents = 0;
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    FORUMCAST_CHECK_MSG(ready >= 0 || errno == EINTR,
                        "ppoll(): " << std::strerror(errno));
    if (ready <= 0) continue;

    const Clock::time_point arrived = Clock::now();
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& conn = conns_[c];
      FORUMCAST_CHECK_MSG(receive(conn), "server closed a connection");
      std::size_t offset = 0;
      for (;;) {
        net::DecodeFrameResult frame =
            net::decode_frame(std::string_view(conn.in).substr(offset));
        FORUMCAST_CHECK_MSG(!frame.corrupt, "corrupt frame from the server");
        if (frame.bytes_consumed == 0) break;
        offset += frame.bytes_consumed;
        const std::uint64_t id = frame.message.request_id;
        // Late answers to an earlier phase's failed requests are ignored.
        if (id < first_id || id >= first_id + total) continue;
        const std::size_t index = id - first_id;
        if (answered[index] != 0) continue;
        answered[index] = 1;
        --outstanding;
        if (frame.message.kind == net::MessageKind::kErrorResponse) {
          ++result.failed;
          continue;
        }
        ++result.ok;
        result.latency_ms[index] = ms_between(schedule.due(index), arrived);
        const auto it = kept.find(index);
        if (it != kept.end()) {
          result.samples.push_back(
              {std::move(it->second), std::move(frame.message)});
          kept.erase(it);
        }
      }
      conn.in.erase(0, offset);
    }
  }
  result.failed += outstanding;
  return result;
}

}  // namespace perfbench
