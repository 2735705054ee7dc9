// Epoll-based, non-blocking serving daemon (`forumcast serve --listen`).
//
// One event-loop thread owns every socket: it accepts connections, reads
// and parses frames, answers cheap requests inline (health, metrics),
// routes scoring work through the async MicroBatcher, and flushes
// responses. Batcher workers never touch a socket — completed frames come
// back over a locked completion list plus an eventfd wake, and the loop
// writes them out. Connections are addressed by a monotonically increasing
// id (not fd), so a completion for a connection that died mid-request is
// dropped instead of landing on a recycled descriptor.
//
// Backpressure has two layers: the micro-batcher's bounded queue refuses
// new scoring work with a typed kQueueFull error frame (admission
// control), and a connection whose outbound buffer exceeds the write
// ceiling is closed rather than buffered without bound.
//
// A malformed frame (bad CRC, oversized announced length, undecodable
// payload) gets one kMalformedFrame error frame and then the connection
// closes: framing is byte-exact, so there is no way to resynchronize a
// stream that has lost it.
//
// Shutdown (kShutdownRequest or stop()) drains: the listener closes, the
// batcher finishes every admitted request, the loop flushes every
// outbound byte it can, then run() returns. In-flight requests are never
// dropped — the same guarantee hot swapping gives.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "forum/dataset.hpp"
#include "net/batcher.hpp"
#include "net/protocol.hpp"
#include "net/replication.hpp"
#include "serve/batch_scorer.hpp"

namespace forumcast::net {

struct ServerConfig {
  /// TCP port to listen on; 0 binds an ephemeral port (read it back via
  /// port()). The daemon binds the loopback interface only.
  std::uint16_t port = 0;
  /// Outbound-buffer ceiling per connection. A client that stops reading
  /// while pipelining past this is closed (slow-consumer protection).
  std::size_t max_write_buffer = 8u << 20;
  BatcherConfig batcher;

  /// Non-null turns on the replication listener: a second listening socket
  /// (replication_port; 0 = ephemeral, read back via replication_port())
  /// in the same event loop, whose connections may subscribe and receive
  /// the WAL stream. The source must outlive the server.
  ReplicationSource* replication = nullptr;
  std::uint16_t replication_port = 0;

  /// Answers kReplicaStatusRequest (any connection). Unset reports the
  /// replication source's head as a primary's progress, or a standalone
  /// role with zeroed progress. Called on the event-loop thread; may take
  /// the serving state's reader lock. Follower heartbeats never call it:
  /// they are answered from replication->head_seq() alone.
  std::function<ReplicaStatusInfo()> status_fn;
};

class Server {
 public:
  /// The scorer (and the pipeline it serves) and the dataset must outlive
  /// the server. Binds and listens immediately; throws util::CheckError if
  /// the port is taken.
  Server(serve::BatchScorer& scorer, const forum::Dataset& dataset,
         ServerConfig config = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (the ephemeral one when config.port was 0).
  std::uint16_t port() const { return port_; }
  /// The replication listener's bound port (0 when replication is off).
  std::uint16_t replication_port() const { return replication_port_; }

  /// Runs the event loop on the calling thread until a shutdown request
  /// arrives or stop() is called. Reentrant-safe: returns immediately if
  /// already stopped.
  void run();

  /// Requests a graceful drain from any thread (async-signal-safe: one
  /// atomic store plus an eventfd write).
  void stop() noexcept;

  serve::BatchScorer& scorer() { return scorer_; }

  /// Total requests admitted over the server's lifetime (all kinds).
  std::uint64_t requests_seen() const { return requests_seen_; }

  /// Tells the event loop new WAL records may be durable — subscribed
  /// followers get fresh kWalBatch frames on the next cycle. Safe from any
  /// thread (the primary's ingest thread calls it after every batch).
  void notify_replication() noexcept;

  /// Broadcasts a kModelSwap frame to every subscriber: the primary hot-
  /// swapped its serving bundle and followers should re-fetch + rebuild.
  /// Safe from any thread (the batcher's swap worker calls it).
  void note_model_swap(std::string bundle_path, std::uint64_t generation,
                       std::uint64_t swap_epoch);

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string read_buffer;
    std::string write_buffer;
    std::size_t write_offset = 0;
    bool close_after_flush = false;
    /// Accepted on the replication listener; exempt from the slow-consumer
    /// write ceiling (the stream is paced by pump_replication instead).
    bool replication = false;
    bool subscribed = false;
    std::uint64_t streamed_seq = 0;   ///< last seq queued to this follower
    std::uint64_t follower_seq = 0;   ///< last heartbeat-reported applied seq
  };

  void handle_accept(int listen_fd, bool replication);
  void handle_readable(Connection& conn);
  void handle_writable(Connection& conn);
  /// Parses every complete frame in the read buffer; returns false when the
  /// connection must close (malformed stream).
  bool drain_frames(Connection& conn);
  void dispatch(Connection& conn, Message request);
  void respond(Connection& conn, const Message& response);
  void send_error(Connection& conn, std::uint64_t request_id, ErrorCode code,
                  std::string detail);
  void queue_bytes(Connection& conn, std::string_view bytes);
  void flush_writes(Connection& conn);
  void update_epoll(Connection& conn);
  void close_connection(std::uint64_t id);
  void drain_completions();
  void on_batch_complete(std::uint64_t conn_id, std::string frame);
  void export_gauges();
  void handle_subscribe(Connection& conn, const Message& request);
  void handle_heartbeat(Connection& conn, const Message& request);
  /// Ships pending WAL spans to every subscriber whose outbound buffer has
  /// room (per-connection pacing instead of the write ceiling).
  void pump_replication();
  void pump_connection(Connection& conn);
  void broadcast_pending_swap();

  serve::BatchScorer& scorer_;
  const forum::Dataset& dataset_;
  ServerConfig config_;
  std::uint16_t port_ = 0;
  std::uint16_t replication_port_ = 0;

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int repl_listen_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completions ready or stop requested

  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Connection> connections_;

  std::mutex completions_mutex_;
  std::vector<std::pair<std::uint64_t, std::string>> completions_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> replication_pending_{false};
  std::mutex swap_mutex_;
  std::vector<Message> pending_swaps_;
  bool draining_ = false;
  std::uint64_t requests_seen_ = 0;

  std::unique_ptr<MicroBatcher> batcher_;
};

}  // namespace forumcast::net
