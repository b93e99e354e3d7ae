// Open-loop HTTP load generator: one thread sends every request at its
// scheduled time over a fixed set of keep-alive connections, whether or
// not earlier responses have come back, and reads the pipelined responses
// in order. Latency is taken from the *scheduled* send time, so a server
// stall is charged to every request scheduled behind it.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct ScheduledRequest {
  std::int64_t at_us = 0;  // send time, from the start of the schedule
  std::size_t conn = 0;    // connection index; FIFO order per connection
  std::string bytes;       // the request as written to the socket
  int expect_status = 200;
};

struct RequestOutcome {
  std::int64_t sent_us = -1;  // when the bytes were handed to the socket
  std::int64_t done_us = -1;  // when the whole response was read; -1 = never
  int status = 0;             // 0 = transport error or no response
  std::string body;           // kept only with OpenLoopOptions::keep_bodies
};

struct OpenLoopOptions {
  bool keep_bodies = false;
};

// Runs `reqs` (nondecreasing at_us) against 127.0.0.1:`port` over `conns`
// connections; the schedule's time zero is `start`. Responses still
// outstanding 5 s after the last send time fail.
[[nodiscard]] std::vector<RequestOutcome> run_open_loop(std::uint16_t port, std::size_t conns,
                                                        const std::vector<ScheduledRequest>& reqs,
                                                        Clock::time_point start,
                                                        OpenLoopOptions opts = {});

// A request failed when it got no response, a 503, or a status other than
// the one its schedule expects.
[[nodiscard]] inline bool failed(const ScheduledRequest& r, const RequestOutcome& o) {
  return o.done_us < 0 || o.status != r.expect_status;
}

// Open-loop latency in microseconds; a failed request counts as infinitely
// late, so it misses every latency limit and is never dropped from the
// sample.
[[nodiscard]] inline double latency_us(const ScheduledRequest& r, const RequestOutcome& o) {
  if (failed(r, o)) return std::numeric_limits<double>::infinity();
  return static_cast<double>(o.done_us - r.at_us);
}

}  // namespace perfbench
