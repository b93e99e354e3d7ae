#include "open_loop.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>

namespace perfbench {
namespace {

constexpr std::int64_t kDrainTimeoutUs = 5'000'000;

struct Conn {
  int fd = -1;
  bool dead = false;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> waiting;  // request indices, in send order
};

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Case-insensitive search for `name` at a line start in a header block.
std::size_t content_length(const std::string& in, std::size_t from, std::size_t header_end) {
  static constexpr char kName[] = "\r\ncontent-length:";
  const std::size_t len = sizeof kName - 1;
  for (std::size_t i = from; i + len <= header_end + 2; ++i) {
    if (::strncasecmp(in.data() + i, kName, len) == 0) {
      return std::strtoull(in.c_str() + i + len, nullptr, 10);
    }
  }
  return 0;
}

class Generator {
 public:
  Generator(const std::vector<ScheduledRequest>& reqs, std::vector<RequestOutcome>& outcomes,
            Clock::time_point start, OpenLoopOptions opts)
      : reqs_(reqs), outcomes_(outcomes), start_(start), opts_(opts) {}

  std::int64_t now_us() const { return micros_between(start_, Clock::now()); }

  void kill(Conn& c) {
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    c.dead = true;
    c.waiting.clear();  // their outcomes keep status 0: transport error
  }

  void flush(Conn& c) {
    while (!c.dead && c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                               MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        kill(c);
        return;
      }
    }
    c.out.clear();
    c.out_off = 0;
  }

  void drain(Conn& c) {
    char buf[64 << 10];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n > 0) {
        c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      parse(c);  // answers that arrived before the close still count
      kill(c);
      return;
    }
    parse(c);
  }

  void parse(Conn& c) {
    std::size_t off = 0;
    const std::int64_t now = now_us();
    while (!c.waiting.empty()) {
      const std::size_t header_end = c.in.find("\r\n\r\n", off);
      if (header_end == std::string::npos) break;
      const std::size_t body_len = content_length(c.in, off, header_end);
      const std::size_t body_at = header_end + 4;
      if (c.in.size() - body_at < body_len) break;
      RequestOutcome& o = outcomes_[c.waiting.front()];
      c.waiting.pop_front();
      const std::size_t sp = c.in.find(' ', off);
      o.status = sp < header_end ? std::atoi(c.in.c_str() + sp + 1) : 0;
      o.done_us = now;
      if (opts_.keep_bodies) o.body.assign(c.in, body_at, body_len);
      off = body_at + body_len;
    }
    c.in.erase(0, off);
  }

  void run(std::vector<Conn>& conns) {
    ::prctl(PR_SET_TIMERSLACK, 1UL);  // wake for sends within microseconds
    const std::int64_t last_at = reqs_.empty() ? 0 : reqs_.back().at_us;
    std::size_t next = 0;
    std::vector<pollfd> fds(conns.size());
    for (;;) {
      std::int64_t now = now_us();
      while (next < reqs_.size() && reqs_[next].at_us <= now) {
        const ScheduledRequest& r = reqs_[next];
        Conn& c = conns[r.conn % conns.size()];
        if (!c.dead) {
          c.out += r.bytes;
          c.waiting.push_back(next);
          outcomes_[next].sent_us = now;
        }
        ++next;
      }
      bool waiting = false;
      for (Conn& c : conns) {
        flush(c);
        waiting = waiting || !c.waiting.empty();
      }
      if (next == reqs_.size() && !waiting) return;
      now = now_us();
      std::int64_t wait_us = next < reqs_.size() ? reqs_[next].at_us - now
                                                 : last_at + kDrainTimeoutUs - now;
      if (next == reqs_.size() && wait_us <= 0) return;  // stragglers stay failed
      wait_us = std::max<std::int64_t>(wait_us, 0);
      for (std::size_t i = 0; i < conns.size(); ++i) {
        fds[i].fd = conns[i].dead ? -1 : conns[i].fd;
        fds[i].events = static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      const timespec ts{static_cast<time_t>(wait_us / 1'000'000),
                        static_cast<long>(wait_us % 1'000'000) * 1000};
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) continue;
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) drain(conns[i]);
      }
    }
  }

 private:
  const std::vector<ScheduledRequest>& reqs_;
  std::vector<RequestOutcome>& outcomes_;
  Clock::time_point start_;
  OpenLoopOptions opts_;
};

}  // namespace

std::vector<RequestOutcome> run_open_loop(std::uint16_t port, std::size_t conns,
                                          const std::vector<ScheduledRequest>& reqs,
                                          Clock::time_point start, OpenLoopOptions opts) {
  std::vector<RequestOutcome> outcomes(reqs.size());
  std::vector<Conn> pool(conns == 0 ? 1 : conns);
  for (Conn& c : pool) {
    c.fd = connect_to(port);
    c.dead = c.fd < 0;
  }
  Generator(reqs, outcomes, start, opts).run(pool);
  for (Conn& c : pool) {
    if (c.fd >= 0) ::close(c.fd);
  }
  return outcomes;
}

}  // namespace perfbench
