#include "http/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics.hpp"

namespace wdoc::http {

namespace {

// Full-buffer send; returns false on any socket error.
bool send_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

bool send_response(int fd, const Response& rsp, obs::Counter& bytes_out) {
  // Headers and body go out as two sends: the body is a refcounted slice
  // written in place, never copied into a combined wire string.
  const std::string head = serialize_headers(rsp);
  bytes_out.inc(head.size() + rsp.body.size());
  if (!send_all(fd, head.data(), head.size())) return false;
  return rsp.body.empty() ||
         send_all(fd, reinterpret_cast<const char*>(rsp.body.data()),
                  rsp.body.size());
}

}  // namespace

HttpServer::HttpServer(ServerConfig cfg, Handler handler)
    : cfg_(std::move(cfg)),
      handler_(std::move(handler)),
      obs_{obs::MetricsRegistry::global().counter("http.bytes_in"),
           obs::MetricsRegistry::global().counter("http.bytes_out"),
           obs::MetricsRegistry::global().counter("http.parse_errors"),
           obs::MetricsRegistry::global().counter("http.connections_opened"),
           obs::MetricsRegistry::global().counter("http.overload_rejects"),
           obs::MetricsRegistry::global().gauge("http.connections_open")} {}

HttpServer::~HttpServer() { stop(); }

Status HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) {
    return {Errc::already_exists, "server already started"};
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return {Errc::io_error, std::string("socket: ") + std::strerror(errno)};
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return {Errc::invalid_argument, "bad bind address: " + cfg_.bind_address};
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s{Errc::io_error, std::string("bind: ") + std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, cfg_.listen_backlog) != 0) {
    Status s{Errc::io_error, std::string("listen: ") + std::strerror(errno)};
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&HttpServer::accept_loop, this);
  workers_.reserve(cfg_.workers);
  for (std::size_t i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back(&HttpServer::worker_loop, this);
  }
  return Status::ok();
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    // Set under queue_mu_: a worker between its predicate check and its
    // wait holds the mutex, so it either sees the flag or is already
    // waiting when notify_all below fires — no lost wakeup.
    std::lock_guard lock(queue_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  // Wake the acceptor out of accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Wake workers blocked in recv() on live connections.
  {
    std::lock_guard lock(conns_mu_);
    for (int fd : open_conns_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  // Queued-but-unserved connections are dropped on the floor at shutdown.
  {
    std::lock_guard lock(queue_mu_);
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void HttpServer::track(int fd, bool add) {
  std::lock_guard lock(conns_mu_);
  if (add) {
    open_conns_.insert(fd);
    // A worker racing past stop()'s sweep self-shuts here: the sweep holds
    // conns_mu_, so either the sweep sees this fd or this sees stopping_.
    if (stopping_.load(std::memory_order_acquire)) ::shutdown(fd, SHUT_RDWR);
  } else {
    open_conns_.erase(fd);
  }
}

void HttpServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load(std::memory_order_acquire)) break;
      continue;  // transient (EMFILE, ECONNABORTED): keep serving
    }
    obs_.connections_opened.inc();
    std::unique_lock lock(queue_mu_);
    if (pending_.size() >= cfg_.pending_connections) {
      lock.unlock();
      // Overload: refuse crisply instead of queueing without bound.
      obs_.overload_rejects.inc();
      Response rsp = Response::text(503, "overloaded\n");
      rsp.keep_alive = false;
      (void)send_response(fd, rsp, obs_.bytes_out);
      ::close(fd);
      continue;
    }
    pending_.push_back(fd);
    lock.unlock();
    queue_cv_.notify_one();
  }
}

void HttpServer::worker_loop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [&] {
        return stopping_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      fd = pending_.front();
      pending_.pop_front();
    }
    serve_connection(fd);
  }
}

void HttpServer::serve_connection(int fd) {
  obs_.connections_open.add(1);
  track(fd, true);

  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = cfg_.idle_timeout_ms / 1000;
  tv.tv_usec = (cfg_.idle_timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

  RequestParser parser(cfg_.limits);
  char buf[16 << 10];
  bool open = true;
  while (open && !stopping_.load(std::memory_order_acquire)) {
    ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // timeout (EAGAIN) or error: close the connection
    }
    obs_.bytes_in.inc(static_cast<std::uint64_t>(n));
    if (!parser.feed(std::string_view(buf, static_cast<std::size_t>(n)))) {
      obs_.parse_errors.inc();
      Response rsp = Response::text(431, "request buffer limit exceeded\n");
      rsp.keep_alive = false;
      (void)send_response(fd, rsp, obs_.bytes_out);
      break;
    }
    // Drain every pipelined request already buffered, answering in order.
    for (;;) {
      Request req;
      ParseStatus st = parser.next(req);
      if (st == ParseStatus::need_more) break;
      if (st == ParseStatus::error) {
        obs_.parse_errors.inc();
        Response rsp = Response::text(parser.error_status(),
                                      parser.error_detail() + "\n");
        rsp.keep_alive = false;
        (void)send_response(fd, rsp, obs_.bytes_out);
        open = false;
        break;
      }
      Response rsp = handler_(req);
      if (!send_response(fd, rsp, obs_.bytes_out) || !rsp.keep_alive) {
        open = false;
        break;
      }
    }
  }

  track(fd, false);
  ::close(fd);
  obs_.connections_open.sub(1);
}

}  // namespace wdoc::http
