#include "net/server.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/obs.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace forumcast::net {

namespace {

// epoll_event.data.u64 sentinels; connection ids start above them.
constexpr std::uint64_t kListenToken = 0;
constexpr std::uint64_t kWakeToken = 1;
constexpr std::uint64_t kReplListenToken = 2;
constexpr std::uint64_t kFirstConnId = 3;

// Replication pacing: pump no further while a follower already has this
// much unflushed outbound data (soft cap — the connection is exempt from
// the slow-consumer ceiling, so this is what bounds its buffer instead).
constexpr std::size_t kReplPendingSoftCap = 1u << 20;
// One kWalBatch span's encoded-records budget; stays well under the frame
// payload ceiling once the span header rides along.
constexpr std::size_t kReplSpanBytes = 192u * 1024;
// Bundle bootstrap chunking (kSnapshotChunk payload bytes per frame).
constexpr std::size_t kBundleChunkBytes = 256u * 1024;

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

int make_loopback_listener(std::uint16_t port, std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  FORUMCAST_CHECK_MSG(fd >= 0, "socket failed: " << std::strerror(errno));
  const int enable = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof enable);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    const int saved = errno;
    ::close(fd);
    FORUMCAST_CHECK_MSG(false, "cannot bind port " << port << ": "
                                                   << std::strerror(saved));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  FORUMCAST_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) == 0);
  bound_port = ntohs(bound.sin_port);
  return fd;
}

/// A primary's progress as the replication source alone knows it: no
/// digest, no lock on the serving state.
ReplicaStatusInfo primary_progress(ReplicationSource& source) {
  ReplicaStatusInfo info;
  info.role = 1;
  info.head_seq = source.head_seq();
  info.applied_seq = info.head_seq;
  return info;
}

}  // namespace

Server::Server(serve::BatchScorer& scorer, const forum::Dataset& dataset,
               ServerConfig config)
    : scorer_(scorer),
      dataset_(dataset),
      config_(config),
      next_conn_id_(kFirstConnId) {
  listen_fd_ = make_loopback_listener(config_.port, port_);
  if (config_.replication != nullptr) {
    repl_listen_fd_ =
        make_loopback_listener(config_.replication_port, replication_port_);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  FORUMCAST_CHECK_MSG(epoll_fd_ >= 0,
                      "epoll_create1 failed: " << std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  FORUMCAST_CHECK_MSG(wake_fd_ >= 0,
                      "eventfd failed: " << std::strerror(errno));

  epoll_event event{};
  event.events = EPOLLIN;
  event.data.u64 = kListenToken;
  FORUMCAST_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event) == 0);
  event.data.u64 = kWakeToken;
  FORUMCAST_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event) == 0);
  if (repl_listen_fd_ >= 0) {
    event.data.u64 = kReplListenToken;
    FORUMCAST_CHECK(
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, repl_listen_fd_, &event) == 0);
  }

  // Chain the swap notification through note_model_swap so subscribed
  // followers learn about primary hot swaps, preserving any hook the
  // caller installed.
  BatcherConfig batcher_config = config_.batcher;
  const auto caller_on_swap = batcher_config.on_swap;
  batcher_config.on_swap = [this, caller_on_swap](const std::string& path,
                                                  std::uint64_t generation,
                                                  std::uint64_t swap_epoch) {
    if (caller_on_swap) caller_on_swap(path, generation, swap_epoch);
    note_model_swap(path, generation, swap_epoch);
  };
  batcher_ = std::make_unique<MicroBatcher>(
      scorer_, dataset_, batcher_config,
      [this](std::uint64_t conn_id, std::string frame) {
        on_batch_complete(conn_id, std::move(frame));
      });
}

Server::~Server() {
  if (batcher_) batcher_->stop();
  for (auto& [id, conn] : connections_) close_fd(conn.fd);
  connections_.clear();
  close_fd(listen_fd_);
  close_fd(repl_listen_fd_);
  close_fd(wake_fd_);
  close_fd(epoll_fd_);
}

void Server::stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  // Async-signal-safe wake; a failed write only delays the loop until its
  // next timeout tick.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Server::notify_replication() noexcept {
  replication_pending_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Server::note_model_swap(std::string bundle_path, std::uint64_t generation,
                             std::uint64_t swap_epoch) {
  Message notice;
  notice.kind = MessageKind::kModelSwap;
  notice.text = std::move(bundle_path);
  notice.generation = generation;
  notice.swap_epoch = swap_epoch;
  {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    pending_swaps_.push_back(std::move(notice));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Server::on_batch_complete(std::uint64_t conn_id, std::string frame) {
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    completions_.emplace_back(conn_id, std::move(frame));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
}

void Server::run() {
  FORUMCAST_LOG_INFO << "net.server listening on 127.0.0.1:" << port_;
  std::vector<epoll_event> events(64);
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int ready =
        ::epoll_wait(epoll_fd_, events.data(),
                     static_cast<int>(events.size()), 500);
    if (ready < 0) {
      if (errno == EINTR) continue;
      FORUMCAST_CHECK_MSG(false, "epoll_wait failed: " << std::strerror(errno));
    }
    for (int i = 0; i < ready; ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      if (event.data.u64 == kListenToken) {
        handle_accept(listen_fd_, /*replication=*/false);
        continue;
      }
      if (event.data.u64 == kReplListenToken) {
        handle_accept(repl_listen_fd_, /*replication=*/true);
        continue;
      }
      if (event.data.u64 == kWakeToken) {
        std::uint64_t count = 0;
        while (::read(wake_fd_, &count, sizeof count) > 0) {
        }
        drain_completions();
        broadcast_pending_swap();
        if (replication_pending_.exchange(false, std::memory_order_acq_rel)) {
          pump_replication();
        }
        continue;
      }
      const auto it = connections_.find(event.data.u64);
      if (it == connections_.end()) continue;  // closed earlier this cycle
      Connection& conn = it->second;
      bool alive = true;
      if (event.events & (EPOLLHUP | EPOLLERR)) alive = false;
      if (alive && (event.events & EPOLLIN)) {
        handle_readable(conn);
        alive = conn.fd >= 0;
      }
      if (alive && (event.events & EPOLLOUT)) {
        handle_writable(conn);
        alive = conn.fd >= 0;
      }
      if (!alive) close_connection(event.data.u64);
    }
    export_gauges();
  }

  // Graceful drain: no new connections or admissions; every admitted
  // request completes and its response is flushed (bounded by the drain
  // deadline if a peer stops reading).
  draining_ = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
  close_fd(listen_fd_);
  if (repl_listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, repl_listen_fd_, nullptr);
    close_fd(repl_listen_fd_);
  }
  batcher_->stop();
  drain_completions();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    for (const auto& [id, conn] : connections_) {
      if (conn.write_offset < conn.write_buffer.size()) {
        pending = true;
        break;
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    const int ready = ::epoll_wait(epoll_fd_, events.data(),
                                   static_cast<int>(events.size()), 100);
    for (int i = 0; i < std::max(ready, 0); ++i) {
      const epoll_event& event = events[static_cast<std::size_t>(i)];
      if (event.data.u64 < kFirstConnId) continue;
      const auto it = connections_.find(event.data.u64);
      if (it == connections_.end()) continue;
      if (event.events & (EPOLLHUP | EPOLLERR)) {
        close_connection(event.data.u64);
        continue;
      }
      if (event.events & EPOLLOUT) {
        handle_writable(it->second);
        if (it->second.fd < 0) close_connection(event.data.u64);
      }
    }
  }
  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) close_connection(id);
  export_gauges();
  FORUMCAST_LOG_INFO << "net.server drained and stopped";
}

void Server::handle_accept(int listen_fd, bool replication) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; the listener stays armed
    }
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof enable);
    const std::uint64_t id = next_conn_id_++;
    Connection conn;
    conn.fd = fd;
    conn.id = id;
    conn.replication = replication;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.u64 = id;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      ::close(fd);
      continue;
    }
    connections_.emplace(id, std::move(conn));
    FORUMCAST_COUNTER_ADD(
        replication ? "replica.connections_accepted" : "net.connections_accepted",
        1);
  }
}

void Server::handle_readable(Connection& conn) {
  char buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::read(conn.fd, buffer, sizeof buffer);
    if (n > 0) {
      conn.read_buffer.append(buffer, static_cast<std::size_t>(n));
      FORUMCAST_COUNTER_ADD("net.bytes_read", n);
      continue;
    }
    if (n == 0) {  // EOF: parse what arrived, then close
      drain_frames(conn);
      close_fd(conn.fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    close_fd(conn.fd);
    return;
  }
  if (!drain_frames(conn)) {
    // Malformed stream: the error frame is queued; close once it flushes
    // (or immediately if it already did).
    conn.close_after_flush = true;
  }
  flush_writes(conn);
  if (conn.fd >= 0) update_epoll(conn);
}

bool Server::drain_frames(Connection& conn) {
  std::size_t consumed = 0;
  bool ok = true;
  while (ok) {
    const std::string_view rest =
        std::string_view(conn.read_buffer).substr(consumed);
    if (rest.empty()) break;
    DecodeFrameResult decoded = decode_frame(rest);
    if (decoded.corrupt) {
      FORUMCAST_COUNTER_ADD("net.malformed_frames", 1);
      send_error(conn, 0, ErrorCode::kMalformedFrame,
                 "bad frame (CRC/length/payload); closing connection");
      ok = false;
      break;
    }
    if (decoded.bytes_consumed == 0) break;  // incomplete: wait for bytes
    consumed += decoded.bytes_consumed;
    dispatch(conn, std::move(decoded.message));
  }
  if (consumed > 0) conn.read_buffer.erase(0, consumed);
  return ok;
}

void Server::dispatch(Connection& conn, Message request) {
  ++requests_seen_;
  FORUMCAST_COUNTER_ADD("net.requests", 1);
  if (conn.replication) {
    // The replication listener speaks only the replication subset; scoring
    // and admin traffic belong on the serving port.
    switch (request.kind) {
      case MessageKind::kSubscribeRequest:
        handle_subscribe(conn, request);
        return;
      case MessageKind::kReplicaHeartbeat:
        handle_heartbeat(conn, request);
        return;
      case MessageKind::kReplicaStatusRequest:
        break;  // answered below, same as on the serving port
      default:
        send_error(conn, request.request_id, ErrorCode::kBadRequest,
                   std::string("not a replication request: ") +
                       message_kind_name(request.kind));
        return;
    }
  }
  switch (request.kind) {
    case MessageKind::kScoreRequest:
    case MessageKind::kRouteRequest:
    case MessageKind::kSwapRequest: {
      MicroBatcher::Item item;
      item.conn_id = conn.id;
      const std::uint64_t request_id = request.request_id;
      item.request = std::move(request);
      if (!batcher_->try_submit(std::move(item))) {
        if (stop_requested_.load(std::memory_order_acquire)) {
          send_error(conn, request_id, ErrorCode::kShuttingDown,
                     "server is draining");
        } else {
          FORUMCAST_COUNTER_ADD("net.rejected_queue_full", 1);
          send_error(conn, request_id, ErrorCode::kQueueFull,
                     "micro-batch queue at capacity; retry with backoff");
        }
      }
      break;
    }
    case MessageKind::kHealthRequest: {
      Message response;
      response.kind = MessageKind::kHealthResponse;
      response.request_id = request.request_id;
      {
        // Guarded like scoring: on live-ingest nodes the dataset grows
        // concurrently, and the sizes must come from the served pipeline.
        const std::shared_ptr<void> guard =
            config_.batcher.read_guard ? config_.batcher.read_guard() : nullptr;
        const std::shared_ptr<const core::ForecastPipeline> pipeline =
            scorer_.pipeline();
        response.health.num_questions =
            static_cast<std::uint32_t>(pipeline->dataset().num_questions());
        response.health.num_users =
            static_cast<std::uint32_t>(pipeline->dataset().num_users());
        response.health.model_generation = pipeline->generation();
      }
      response.health.swap_epoch = scorer_.swap_epoch();
      response.health.queue_depth = batcher_->queue_depth();
      respond(conn, response);
      break;
    }
    case MessageKind::kReplicaStatusRequest: {
      Message response;
      response.kind = MessageKind::kReplicaStatusResponse;
      response.request_id = request.request_id;
      if (config_.status_fn) {
        response.replica = config_.status_fn();
      } else if (config_.replication != nullptr) {
        response.replica = primary_progress(*config_.replication);
      }
      respond(conn, response);
      break;
    }
    case MessageKind::kSubscribeRequest: {
      send_error(conn, request.request_id, ErrorCode::kBadRequest,
                 "subscribe is only accepted on the replication port");
      break;
    }
    case MessageKind::kMetricsRequest: {
      Message response;
      response.kind = MessageKind::kMetricsResponse;
      response.request_id = request.request_id;
      response.text = obs::MetricsRegistry::global().snapshot().to_json();
      respond(conn, response);
      break;
    }
    case MessageKind::kShutdownRequest: {
      Message response;
      response.kind = MessageKind::kShutdownResponse;
      response.request_id = request.request_id;
      respond(conn, response);
      stop();
      break;
    }
    default:
      send_error(conn, request.request_id, ErrorCode::kUnknownKind,
                 std::string("not a request kind: ") +
                     message_kind_name(request.kind));
      break;
  }
}

void Server::respond(Connection& conn, const Message& response) {
  std::string frame;
  append_frame(frame, response);
  FORUMCAST_COUNTER_ADD("net.responses", 1);
  queue_bytes(conn, frame);
}

void Server::send_error(Connection& conn, std::uint64_t request_id,
                        ErrorCode code, std::string detail) {
  Message response;
  response.kind = MessageKind::kErrorResponse;
  response.request_id = request_id;
  response.error = code;
  response.text = std::move(detail);
  respond(conn, response);
}

void Server::queue_bytes(Connection& conn, std::string_view bytes) {
  if (conn.fd < 0) return;
  const std::size_t pending = conn.write_buffer.size() - conn.write_offset;
  if (!conn.replication && pending + bytes.size() > config_.max_write_buffer) {
    // Slow consumer: the peer pipelines requests but stopped reading
    // responses. Cut it off rather than buffer without bound.
    FORUMCAST_COUNTER_ADD("net.slow_consumer_closes", 1);
    close_fd(conn.fd);
    return;
  }
  // Compact the flushed prefix before growing the buffer again.
  if (conn.write_offset > 0 && conn.write_offset == conn.write_buffer.size()) {
    conn.write_buffer.clear();
    conn.write_offset = 0;
  }
  conn.write_buffer.append(bytes);
}

void Server::flush_writes(Connection& conn) {
  while (conn.fd >= 0 && conn.write_offset < conn.write_buffer.size()) {
    const ssize_t n = ::write(conn.fd, conn.write_buffer.data() + conn.write_offset,
                              conn.write_buffer.size() - conn.write_offset);
    if (n > 0) {
      conn.write_offset += static_cast<std::size_t>(n);
      FORUMCAST_COUNTER_ADD("net.bytes_written", n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n < 0 && errno == EINTR) continue;
    close_fd(conn.fd);
    return;
  }
  if (conn.write_offset == conn.write_buffer.size()) {
    conn.write_buffer.clear();
    conn.write_offset = 0;
    if (conn.close_after_flush) close_fd(conn.fd);
  }
}

void Server::handle_writable(Connection& conn) {
  flush_writes(conn);
  // A drained follower buffer resumes the stream — this is the pacing
  // loop's other half: pump until the soft cap, wait for writability,
  // pump again.
  if (conn.fd >= 0 && conn.subscribed) pump_connection(conn);
  if (conn.fd >= 0) update_epoll(conn);
}

void Server::handle_subscribe(Connection& conn, const Message& request) {
  if (config_.replication == nullptr) {
    send_error(conn, request.request_id, ErrorCode::kBadRequest,
               "this daemon has no replication source");
    return;
  }
  const std::string bundle =
      request.want_bundle != 0 ? config_.replication->bundle_bytes()
                               : std::string();
  Message offer;
  offer.kind = MessageKind::kSnapshotOffer;
  offer.request_id = request.request_id;
  offer.head_seq = config_.replication->head_seq();
  offer.bundle_bytes = bundle.size();
  respond(conn, offer);
  // Chunk the bundle under the frame-payload ceiling; the follower knows
  // the total from the offer and reassembles by offset.
  for (std::size_t off = 0; off < bundle.size(); off += kBundleChunkBytes) {
    Message chunk;
    chunk.kind = MessageKind::kSnapshotChunk;
    chunk.request_id = request.request_id;
    chunk.offset = off;
    chunk.text = bundle.substr(off, kBundleChunkBytes);
    respond(conn, chunk);
  }
  conn.subscribed = true;
  conn.streamed_seq = request.from_seq;
  conn.follower_seq = request.from_seq;
  FORUMCAST_COUNTER_ADD("replica.subscriptions", 1);
  FORUMCAST_LOG_INFO << "replica subscribed from seq " << request.from_seq
                     << " (head " << offer.head_seq << ")";
  pump_connection(conn);
}

void Server::handle_heartbeat(Connection& conn, const Message& request) {
  conn.follower_seq = request.replica.applied_seq;
  Message response;
  response.kind = MessageKind::kReplicaStatusResponse;
  response.request_id = request.request_id;
  // Followers read only head_seq from the reply. status_fn is not called:
  // on a primary it digests the whole live state under the reader lock, on
  // this thread, once per heartbeat per follower.
  response.replica = primary_progress(*config_.replication);
  respond(conn, response);
  // The heartbeat doubles as a nudge: if new events became durable while
  // the follower's buffer was full, resume the stream now.
  pump_connection(conn);
}

void Server::pump_replication() {
  for (auto& [id, conn] : connections_) {
    if (conn.subscribed && conn.fd >= 0) pump_connection(conn);
  }
}

void Server::pump_connection(Connection& conn) {
  if (!conn.subscribed || conn.fd < 0 || config_.replication == nullptr) return;
  for (;;) {
    const std::size_t pending = conn.write_buffer.size() - conn.write_offset;
    if (pending >= kReplPendingSoftCap) break;
    if (conn.streamed_seq >= config_.replication->head_seq()) break;
    WalSpan span =
        config_.replication->events_after(conn.streamed_seq, kReplSpanBytes);
    if (span.count == 0) break;
    Message batch;
    batch.kind = MessageKind::kWalBatch;
    batch.first_seq = span.first_seq;
    batch.last_seq = span.last_seq;
    batch.event_count = span.count;
    batch.has_digest = span.has_digest ? 1 : 0;
    batch.digest = span.digest;
    batch.text = std::move(span.records);
    respond(conn, batch);
    conn.streamed_seq = span.last_seq;
    FORUMCAST_COUNTER_ADD("replica.batches_shipped", 1);
    FORUMCAST_COUNTER_ADD("replica.events_shipped", span.count);
    if (conn.fd < 0) return;  // queue_bytes may close on write error
  }
  flush_writes(conn);
  if (conn.fd >= 0) update_epoll(conn);
}

void Server::broadcast_pending_swap() {
  std::vector<Message> notices;
  {
    std::lock_guard<std::mutex> lock(swap_mutex_);
    notices.swap(pending_swaps_);
  }
  if (notices.empty()) return;
  for (const Message& notice : notices) {
    for (auto& [id, conn] : connections_) {
      if (!conn.subscribed || conn.fd < 0) continue;
      respond(conn, notice);
      flush_writes(conn);
      if (conn.fd >= 0) update_epoll(conn);
    }
    FORUMCAST_COUNTER_ADD("replica.swap_broadcasts", 1);
  }
}

void Server::update_epoll(Connection& conn) {
  epoll_event event{};
  event.events = EPOLLIN;
  if (conn.write_offset < conn.write_buffer.size()) event.events |= EPOLLOUT;
  event.data.u64 = conn.id;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &event);
}

void Server::close_connection(std::uint64_t id) {
  const auto it = connections_.find(id);
  if (it == connections_.end()) return;
  close_fd(it->second.fd);
  connections_.erase(it);
}

void Server::drain_completions() {
  std::vector<std::pair<std::uint64_t, std::string>> ready;
  {
    std::lock_guard<std::mutex> lock(completions_mutex_);
    ready.swap(completions_);
  }
  for (auto& [conn_id, frame] : ready) {
    const auto it = connections_.find(conn_id);
    if (it == connections_.end() || it->second.fd < 0) {
      // The connection died while its request was in flight; the work is
      // complete (nothing was dropped), only the reply has no reader.
      FORUMCAST_COUNTER_ADD("net.responses_dropped", 1);
      continue;
    }
    Connection& conn = it->second;
    FORUMCAST_COUNTER_ADD("net.responses", 1);
    queue_bytes(conn, frame);
    flush_writes(conn);
    if (conn.fd < 0) {
      close_connection(conn_id);
    } else {
      update_epoll(conn);
    }
  }
}

void Server::export_gauges() {
  FORUMCAST_GAUGE_SET("net.open_connections", connections_.size());
  FORUMCAST_GAUGE_SET("net.queue_depth", batcher_->queue_depth());
  if (config_.replication != nullptr) {
    std::size_t followers = 0;
    std::uint64_t max_lag = 0;
    const std::uint64_t head = config_.replication->head_seq();
    for (const auto& [id, conn] : connections_) {
      if (!conn.subscribed || conn.fd < 0) continue;
      ++followers;
      const std::uint64_t lag =
          head > conn.follower_seq ? head - conn.follower_seq : 0;
      if (lag > max_lag) max_lag = lag;
    }
    FORUMCAST_GAUGE_SET("replica.followers", followers);
    FORUMCAST_GAUGE_SET("replica.max_lag_events", max_lag);
  }
}

}  // namespace forumcast::net
