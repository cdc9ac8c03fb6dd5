#include "daemon/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cryptodrop::daemon {
namespace {

/// Monotonic milliseconds for idle deadlines and frame cadence. This is
/// transport pacing, not a measurement — allowlisted for the wall-clock
/// lint (tools/lint/lint_allow.txt).
long long mono_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-connection transport state (input framing + watch stream).
struct Conn {
  std::string in;              ///< Unconsumed request bytes.
  std::size_t scanned = 0;     ///< Prefix of `in` known to hold no '\n'.
  std::string out;             ///< Pending output (watch streams only).
  bool watching = false;       ///< Promoted to a push stream.
  std::string tenant_filter;   ///< Watch tenant filter ("" = all).
  std::uint64_t cursor = 0;    ///< Next journal cursor to stream.
  long long last_read_ms = 0;  ///< Idle-deadline bookkeeping.
};

/// Fills a sockaddr_un for `path`; false when the path does not fit.
bool make_address(const std::string& path, sockaddr_un& addr) {
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return true;
}

/// Writes all of `data` to `fd` (retrying short writes). False on error.
bool write_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Writes what it can of `out` to a non-blocking `fd`, keeping the
/// rest buffered. False only on a fatal connection error.
bool flush_some(int fd, std::string& out) {
  std::size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::write(fd, out.data() + sent, out.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    if (n == 0) break;
    sent += static_cast<std::size_t>(n);
  }
  out.erase(0, sent);
  return true;
}

/// One `{"frame":"stats",...}` line for the watch stream: per-tenant
/// rows (optionally filtered) plus queue and health gauges.
std::string stats_frame(Daemon& daemon, const std::string& tenant_filter) {
  Json rows = Json::array();
  for (const TenantInfo& info : daemon.tenants()) {
    if (!tenant_filter.empty() && info.id != tenant_filter) continue;
    rows.push(Json::object()
                  .set("id", info.id)
                  .set("worker", info.worker)
                  .set("ingested", info.ingested)
                  .set("executed", info.executed)
                  .set("shed", info.shed));
  }
  std::size_t depth = 0;
  Json depths = Json::array();
  for (std::size_t d : daemon.queue_depths()) {
    depth += d;
    depths.push(static_cast<unsigned long long>(d));
  }
  const HealthReport health = daemon.health();
  return Json::object()
             .set("frame", "stats")
             .set("tenants", std::move(rows))
             .set("queue_depth", static_cast<unsigned long long>(depth))
             .set("queue_depths", std::move(depths))
             .set("health", std::string(health_level_name(health.level)))
      .to_string() + "\n";
}

/// The one response an over-long request line gets before its
/// connection closes.
std::string oversized_line_error() {
  return Json::object()
             .set("ok", false)
             .set("error", "request line exceeds " +
                               std::to_string(kMaxRequestLineBytes) + " bytes")
             .set("code", std::string(errc_name(Errc::invalid_argument)))
             .to_string() + "\n";
}

/// One `{"frame":"event",...}` line wrapping a journal event.
std::string event_frame(const JournalEvent& event) {
  return Json::object()
             .set("frame", "event")
             .set("event", to_json(event))
             .to_string() + "\n";
}

}  // namespace

SocketServer::~SocketServer() { stop(); }

Status SocketServer::start() {
  sockaddr_un addr{};
  if (!make_address(socket_path_, addr)) {
    return Status(Errc::invalid_argument,
                  "socket path too long: " + socket_path_);
  }
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status(Errc::io_error,
                  std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(socket_path_.c_str());  // Replace any stale socket file.
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status(Errc::io_error, "bind " + socket_path_ + ": " +
                                      std::strerror(err));
  }
  if (::listen(listen_fd_, 16) != 0) {
    const int err = errno;
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
    listen_fd_ = -1;
    return Status(Errc::io_error,
                  std::string("listen: ") + std::strerror(err));
  }
  thread_ = std::thread([this] { serve_loop(); });
  return Status::ok();
}

void SocketServer::stop() {
  stop_requested_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  ::unlink(socket_path_.c_str());
}

void SocketServer::wait() {
  if (thread_.joinable()) thread_.join();
}

void SocketServer::serve_loop() {
  std::map<int, Conn> clients;
  long long last_frame = mono_ms();
  std::size_t watchers = 0;
  DaemonMetrics& metrics = daemon_->daemon_metrics();
  // Closing a watcher settles its conservation ledger: every journal
  // event past its cursor — plus event frames still buffered but never
  // written to the socket — counts as shed, so `emitted == delivered +
  // shed` holds exactly per stream at the transport boundary.
  constexpr std::string_view kEventMarker = "{\"frame\":\"event\"";
  const auto settle_watcher = [&](Conn& conn) {
    if (!conn.watching) return;
    const std::uint64_t end = daemon_->journal().emitted();
    std::uint64_t undelivered = end > conn.cursor ? end - conn.cursor : 0;
    for (std::size_t pos = conn.out.find(kEventMarker);
         pos != std::string::npos;
         pos = conn.out.find(kEventMarker, pos + 1)) {
      ++undelivered;
    }
    if (undelivered > 0) metrics.watch_events_shed().add(undelivered);
    --watchers;
    metrics.watch_clients().set(static_cast<double>(watchers));
  };
  const auto close_conn = [&](int fd) {
    const auto it = clients.find(fd);
    if (it == clients.end()) return;
    settle_watcher(it->second);
    ::close(fd);
    clients.erase(it);
  };
  while (true) {
    if (daemon_->shutdown_complete() ||
        stop_requested_.load(std::memory_order_acquire)) {
      break;
    }
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : clients) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }
    const int ready = ::poll(fds.data(), fds.size(), /*timeout_ms=*/100);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const long long now = mono_ms();
    if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0) {
        Conn conn;
        conn.last_read_ms = now;
        clients.emplace(client, std::move(conn));
      }
    }
    for (std::size_t i = 1; ready > 0 && i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const int fd = fds[i].fd;
      Conn& conn = clients[fd];
      if ((fds[i].revents & POLLOUT) != 0 && !flush_some(fd, conn.out)) {
        close_conn(fd);
        continue;
      }
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) continue;
      if (n <= 0) {
        close_conn(fd);
        continue;
      }
      conn.last_read_ms = now;
      conn.in.append(chunk, static_cast<std::size_t>(n));
      std::size_t start = 0;
      bool dead = false;
      bool oversized = false;
      for (std::size_t nl = conn.in.find('\n', conn.scanned);
           nl != std::string::npos; nl = conn.in.find('\n', start)) {
        if (nl - start > kMaxRequestLineBytes) {
          oversized = true;
          break;
        }
        const std::string line = conn.in.substr(start, nl - start);
        start = nl + 1;
        WatchSubscription sub;
        const std::string response = dispatcher_.handle_line(line, &sub) + "\n";
        if (sub.requested && !conn.watching) {
          // Promote to a push stream: non-blocking fd, bounded output
          // buffer, frames from the subscription cursor onward.
          conn.watching = true;
          conn.tenant_filter = sub.tenant;
          conn.cursor = sub.cursor;
          ++watchers;
          metrics.watch_clients().set(static_cast<double>(watchers));
          const int flags = ::fcntl(fd, F_GETFL, 0);
          if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
        }
        if (conn.watching) {
          conn.out += response;
        } else if (!write_all(fd, response)) {
          dead = true;
          break;
        }
      }
      if (dead) {
        close_conn(fd);
        continue;
      }
      conn.in.erase(0, start);
      conn.scanned = conn.in.size();
      if (oversized || conn.in.size() > kMaxRequestLineBytes) {
        // Over-long line (terminated or not): one error envelope, then
        // the connection goes — its framing cannot be trusted.
        metrics.control_requests().add();
        metrics.control_errors().add();
        (void)write_all(fd, oversized_line_error());
        close_conn(fd);
        continue;
      }
      if (!conn.out.empty() && !flush_some(fd, conn.out)) close_conn(fd);
    }
    if (options_.idle_timeout_ms > 0) {
      for (auto it = clients.begin(); it != clients.end();) {
        const int fd = it->first;
        const Conn& conn = it->second;
        ++it;
        if (conn.watching) continue;
        if (now - conn.last_read_ms < options_.idle_timeout_ms) continue;
        metrics.conns_idle_closed().add();
        close_conn(fd);
      }
    }
    if (watchers == 0) {
      last_frame = now;
    } else if (now - last_frame >= options_.frame_interval_ms) {
      last_frame = now;
      for (auto it = clients.begin(); it != clients.end();) {
        const int fd = it->first;
        Conn& conn = it->second;
        ++it;
        if (!conn.watching) continue;
        EventJournal::Drain drain = daemon_->journal().since(
            conn.cursor, conn.tenant_filter, /*max=*/128);
        conn.cursor = drain.next_cursor;
        // Ring overwrites the subscriber never saw count as shed too.
        if (drain.dropped > 0) metrics.watch_events_shed().add(drain.dropped);
        for (JournalEvent& event : drain.events) {
          if (conn.out.size() >= options_.watch_buffer_limit) {
            metrics.watch_events_shed().add();
            continue;
          }
          conn.out += event_frame(event);
          metrics.watch_frames().add();
        }
        // A stats frame that does not fit is simply skipped — the next
        // tick regenerates it, and daemon_watch_events_shed_total stays
        // an *event* ledger (conservation: emitted == delivered + shed).
        if (conn.out.size() < options_.watch_buffer_limit) {
          conn.out += stats_frame(*daemon_, conn.tenant_filter);
          metrics.watch_frames().add();
        }
        if (!flush_some(fd, conn.out)) close_conn(fd);
      }
    }
  }
  for (auto& [fd, conn] : clients) {
    settle_watcher(conn);
    ::close(fd);
  }
  metrics.watch_clients().set(0.0);
}

DaemonClient::~DaemonClient() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::string> DaemonClient::request(const std::string& line) {
  if (fd_ < 0) {
    sockaddr_un addr{};
    if (!make_address(socket_path_, addr)) {
      return Status(Errc::invalid_argument,
                    "socket path too long: " + socket_path_);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status(Errc::io_error,
                    std::string("socket: ") + std::strerror(errno));
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const int err = errno;
      ::close(fd_);
      fd_ = -1;
      return Status(Errc::io_error, "connect " + socket_path_ + ": " +
                                        std::strerror(err));
    }
  }
  if (!write_all(fd_, line + "\n")) {
    return Status(Errc::io_error,
                  std::string("write: ") + std::strerror(errno));
  }
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string response = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return response;
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status(Errc::io_error, "connection closed mid-response");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

}  // namespace cryptodrop::daemon
