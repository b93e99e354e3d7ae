// Self-tests of the benchmark's own machinery: the percentile helper and
// the open-loop generator's timing.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "http/server.hpp"
#include "open_loop.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, HighestSupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(supported_percentile(19), 0);     // even p50 leaves only 9 beyond
  EXPECT_EQ(supported_percentile(20), 50);
  EXPECT_EQ(supported_percentile(99), 50);    // p90 = rank 90, 9 beyond
  EXPECT_EQ(supported_percentile(100), 90);
  EXPECT_EQ(supported_percentile(999), 90);   // p99 = rank 990, 9 beyond
  EXPECT_EQ(supported_percentile(1000), 99);
  EXPECT_EQ(supported_percentile(10000), 99.9);
  EXPECT_EQ(supported_percentile(100000), 99.99);
}

// One connection to a one-worker server whose handler stalls 50 ms on
// request 20 of a 1 kHz schedule. Every request scheduled during the
// stall must be charged the rest of it: open-loop latency is taken from
// the scheduled send time, not from when the server got to it.
constexpr std::int64_t kStallUs = 50'000;
constexpr int kStalled = 20;

TEST(OpenLoop, ServerStallIsChargedToRequestsScheduledBehindIt) {
  wdoc::http::ServerConfig cfg;
  cfg.workers = 1;
  wdoc::http::HttpServer server(cfg, [](const wdoc::http::Request& req) {
    const std::string* id = req.header("x-bench-id");
    if (id != nullptr && std::atoi(id->c_str()) == kStalled) {
      std::this_thread::sleep_for(std::chrono::microseconds(kStallUs));
    }
    return wdoc::http::Response::text(200, "ok");
  });
  ASSERT_TRUE(server.start().is_ok());
  std::vector<ScheduledRequest> reqs;
  for (int i = 0; i < 100; ++i) {
    reqs.push_back({i * 1000LL, 0,
                    "GET /x HTTP/1.1\r\nX-Bench-Id: " + std::to_string(i) + "\r\n\r\n", 200});
  }
  const auto out = run_open_loop(server.port(), 1, reqs, Clock::now());
  // Lets the worker settle before stop(), which can otherwise miss a worker
  // between its predicate check and its wait (README.md, recorded defects).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.stop();
  const std::int64_t stall_end = reqs[kStalled].at_us + kStallUs;
  for (int i = 0; i < 100; ++i) {
    ASSERT_FALSE(failed(reqs[i], out[i])) << "request " << i;
    const double lat = latency_us(reqs[i], out[i]);
    if (i > kStalled && reqs[i].at_us < stall_end) {
      EXPECT_GE(lat, static_cast<double>(stall_end - reqs[i].at_us)) << "request " << i;
    }
  }
  // The requests sent before the stall did not wait for it.
  EXPECT_LT(latency_us(reqs[kStalled - 1], out[kStalled - 1]), static_cast<double>(kStallUs));
}

TEST(OpenLoop, MissingResponsesFailAndCountAsInfinitelyLate) {
  // Nothing listens on the port: every request fails.
  std::vector<ScheduledRequest> reqs = {{0, 0, "GET / HTTP/1.1\r\n\r\n", 200}};
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);  // a free port that nothing listens on
  const std::uint16_t port = ntohs(addr.sin_port);
  const auto out = run_open_loop(port, 1, reqs, Clock::now());
  EXPECT_TRUE(failed(reqs[0], out[0]));
  EXPECT_TRUE(std::isinf(latency_us(reqs[0], out[0])));
}

}  // namespace
}  // namespace perfbench
