// AF_UNIX transport for the cryptodropd control API (docs/DAEMON.md).
//
// One poll()-driven thread serves every connection: requests are
// line-delimited JSON (daemon/control.hpp), so the server's job is only
// framing — split the byte stream on '\n', hand each line to the
// dispatcher, write the response line back. The loop wakes on a short
// poll timeout to notice Daemon::shutdown_complete() and exit, so a
// `shutdown` request (or an external Daemon::shutdown call) stops the
// server without a special control channel.
//
// Two departures from plain request/response framing:
//   - Idle deadline: a connection that sends no bytes for
//     `idle_timeout_ms` is evicted (daemon_conns_idle_closed_total), so
//     half-open clients cannot pin fds forever.
//   - `watch` streaming: a connection that sends a `watch` request is
//     promoted to a push stream — after the ack line the server writes
//     line-delimited JSON frames (periodic stats + journal events)
//     until the client disconnects or the daemon shuts down. Watch fds
//     are non-blocking with a bounded output buffer; a slow consumer
//     sheds frames (daemon_watch_events_shed_total) rather than ever
//     blocking the serving thread.
//
// The client half (DaemonClient) is the same framing in reverse, used
// by `cryptodrop daemon-replay` and the socket smoke test.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>

#include "common/result.hpp"
#include "daemon/control.hpp"

namespace cryptodrop::daemon {

/// Longest request line the server accepts, newline excluded. A longer
/// line — terminated or not — gets one invalid_argument envelope and its
/// connection is closed, so no client can make the serving thread buffer
/// without bound. The largest line the repo's own clients send is a
/// `submit` whose write ops carry hex-encoded payloads (corpus files
/// reach 16 MiB); docs/DAEMON.md records the measured maximum.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{64} << 20;

/// Transport tuning knobs (defaults suit production; tests shrink the
/// idle deadline and frame interval to keep wall-clock short).
struct ServerOptions {
  /// Evict a connection after this many ms without a readable byte.
  /// Watch streams are exempt (they are write-mostly by design).
  int idle_timeout_ms = 30000;
  /// Cadence of `watch` stats frames and journal-event pushes.
  int frame_interval_ms = 100;
  /// Per-connection pending-output cap; frames past it are shed.
  std::size_t watch_buffer_limit = 256 * 1024;
};

/// Serves the control API on a unix-domain socket (see the file
/// comment). start() spawns the serving thread; stop() (or destruction)
/// joins it and unlinks the socket path.
class SocketServer {
 public:
  /// Serves `daemon` on `socket_path` (an unused filesystem path; any
  /// stale socket file there is replaced).
  SocketServer(Daemon& daemon, std::string socket_path,
               ServerOptions options = {})
      : dispatcher_(daemon), daemon_(&daemon),
        socket_path_(std::move(socket_path)), options_(options) {}

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  ~SocketServer();

  /// Binds, listens and spawns the serving thread. Fails when the
  /// socket cannot be created/bound (path too long, permissions).
  Status start();

  /// Stops the serving thread and removes the socket file. Idempotent;
  /// also runs on destruction.
  void stop();

  /// The path clients connect to.
  [[nodiscard]] const std::string& socket_path() const { return socket_path_; }

  /// Blocks until the serving thread exits (it does when the daemon
  /// completes shutdown — the `cryptodrop daemon` foreground wait).
  void wait();

 private:
  /// The serving thread: accept + per-connection line framing.
  void serve_loop();

  ControlDispatcher dispatcher_;
  Daemon* daemon_;
  std::string socket_path_;
  ServerOptions options_;
  int listen_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
};

/// Blocking line-oriented client for the control socket.
class DaemonClient {
 public:
  /// Connects to `socket_path`; connect errors surface from request().
  explicit DaemonClient(std::string socket_path)
      : socket_path_(std::move(socket_path)) {}

  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  ~DaemonClient();

  /// Sends one request line and returns the response line (connecting
  /// on first use). Errors are io_error with the failing syscall named.
  Result<std::string> request(const std::string& line);

 private:
  std::string socket_path_;
  int fd_ = -1;
  std::string buffer_;  ///< Bytes read past the last returned line.
};

}  // namespace cryptodrop::daemon
