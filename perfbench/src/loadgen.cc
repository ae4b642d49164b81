#include "loadgen.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <thread>

#include "tracer.h"

namespace perfbench {

std::vector<Scheduled> PoissonSchedule(size_t count, double rate_rps,
                                       double offset_ms, smb::Rng* rng,
                                       const std::function<size_t()>& pick) {
  std::vector<Scheduled> schedule;
  schedule.reserve(count);
  double t = offset_ms;
  for (size_t i = 0; i < count; ++i) {
    // Exponential gap; 1 − u is in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng->UniformDouble()) * 1e3 / rate_rps;
    schedule.push_back(Scheduled{t, pick()});
  }
  return schedule;
}

std::vector<Timed> RunOpenLoop(const std::vector<Scheduled>& schedule,
                               size_t senders, int64_t start_ns,
                               const Executor& execute) {
  std::vector<Timed> results(schedule.size());
  std::atomic<size_t> next{0};
  auto since_start_ms = [start_ns]() {
    return (Tracer::NowNs() - start_ns) / 1e6;
  };
  auto sender = [&](size_t id) {
    double ready_ms = 0.0;
    for (size_t i = next.fetch_add(1); i < schedule.size();
         i = next.fetch_add(1)) {
      const Scheduled& request = schedule[i];
      const auto due = std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(
              start_ns + static_cast<int64_t>(request.due_ms * 1e6)));
      std::this_thread::sleep_until(due);
      Timed& out = results[i];
      out.query = request.query;
      out.times.due_ms = request.due_ms;
      out.times.ready_ms = ready_ms;
      out.times.sent_ms = since_start_ms();
      out.outcome = execute(id, request.query);
      out.times.done_ms = ready_ms = since_start_ms();
    }
  };
  std::vector<std::thread> threads;
  for (size_t id = 0; id < senders; ++id) threads.emplace_back(sender, id);
  for (std::thread& t : threads) t.join();
  return results;
}

smb::Result<std::unique_ptr<LineClient>> LineClient::Connect(
    const std::string& host, uint16_t port) {
  SMB_ASSIGN_OR_RETURN(smb::serve::Socket socket,
                       smb::serve::ConnectTo(host, port));
  return std::unique_ptr<LineClient>(new LineClient(std::move(socket)));
}

Outcome LineClient::Call(const std::string& line) {
  Outcome out;
  if (smb::Status st = smb::serve::WriteAll(socket_, line + "\n"); !st.ok()) {
    out.error = st.ToString();
    return out;
  }
  std::string reply;
  smb::Result<bool> read = reader_.ReadLine(&reply);
  if (!read.ok() || !*read) {
    out.error = read.ok() ? "connection closed" : read.status().ToString();
    return out;
  }
  if (reply.rfind("ok ", 0) != 0) {
    out.error = reply;
    return out;
  }
  smb::Result<smb::serve::MatchResponse> parsed =
      smb::serve::ParseMatchResponse(reply);
  if (!parsed.ok()) {
    out.error = parsed.status().ToString();
    return out;
  }
  out.ok = true;
  out.response = *std::move(parsed);
  return out;
}

}  // namespace perfbench
