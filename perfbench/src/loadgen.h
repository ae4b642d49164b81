#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "core.h"
#include "serve/protocol.h"
#include "serve/socket_io.h"

/// \file loadgen.h
/// \brief Load generation: Poisson schedules, the open-loop generator that
/// times each request from when it was due, and a line-protocol client.
namespace perfbench {

/// One scheduled request: when it is due (ms after the schedule starts)
/// and which query it sends.
struct Scheduled {
  double due_ms = 0.0;
  size_t query = 0;
};

/// \brief `count` Poisson arrivals at `rate_rps` starting at `offset_ms`,
/// each drawing its query from `pick`.
std::vector<Scheduled> PoissonSchedule(size_t count, double rate_rps,
                                       double offset_ms, smb::Rng* rng,
                                       const std::function<size_t()>& pick);

/// What one request returned: the parsed `ok` line, or a failure.
struct Outcome {
  bool ok = false;
  std::string error;
  smb::serve::MatchResponse response;
};

/// \brief Sends request `query` on sender `sender`'s own channel.
using Executor = std::function<Outcome(size_t sender, size_t query)>;

/// One request's result with its open-loop timestamps.
struct Timed {
  OpenLoopTimes times;
  Outcome outcome;
  size_t query = 0;
};

/// \brief Runs `schedule` open loop on `senders` threads. Each thread
/// takes the next request in schedule order, waits until it is due,
/// sends it on its own channel and blocks for the reply; a request that
/// finds every sender busy goes out late, and that lateness is part of
/// its latency (`LatencyFromDue`) and its `GeneratorLag`. `start_ns` is
/// the steady-clock instant the schedule's offsets count from.
std::vector<Timed> RunOpenLoop(const std::vector<Scheduled>& schedule,
                               size_t senders, int64_t start_ns,
                               const Executor& execute);

/// \brief One client connection speaking the serve line protocol (one
/// outstanding request at a time, as the server answers them in order).
class LineClient {
 public:
  static smb::Result<std::unique_ptr<LineClient>> Connect(
      const std::string& host, uint16_t port);

  /// Sends `line` and parses the reply; an `err` line or a transport
  /// failure comes back as a failed Outcome.
  Outcome Call(const std::string& line);

 private:
  explicit LineClient(smb::serve::Socket socket)
      : socket_(std::move(socket)), reader_(&socket_) {}

  smb::serve::Socket socket_;
  smb::serve::LineReader reader_;
};

}  // namespace perfbench
