#include "eval/load_harness.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <utility>

#include "common/table.h"
#include "common/timing.h"

/// \file load_harness.cc
/// \brief Threaded open-loop replay and report aggregation.

namespace smb::eval {

namespace {

/// One replay thread's view: executes indices `t, t+N, t+2N, ...` in
/// trace order, sleeping until each request's (scaled) arrival instant in
/// open-loop mode. A paced request is timed from that arrival, not from
/// its dispatch, so a request stuck behind a slow one on its thread is
/// charged the wait (no coordinated omission). Writes only its own slots
/// of `outcomes`/`wall_ms`, so the workers share nothing but the executor.
void ReplayWorker(const WorkloadTrace& trace, TraceExecutor* executor,
                  const ReplayOptions& options, size_t thread_index,
                  SteadyClock::time_point start,
                  std::vector<TraceOutcome>* outcomes,
                  std::vector<double>* wall_ms) {
  const bool paced = options.open_loop && options.speed > 0.0;
  for (uint64_t i = thread_index; i < trace.requests.size();
       i += options.num_threads) {
    const TraceRequest& request = trace.requests[i];
    SteadyClock::time_point timed_from = SteadyClock::now();
    if (paced) {
      const SteadyClock::time_point arrival =
          start + std::chrono::microseconds(static_cast<uint64_t>(
                      static_cast<double>(request.arrival_us) /
                      options.speed));
      std::this_thread::sleep_until(arrival);
      timed_from = arrival;
    }
    (*outcomes)[i] = executor->Execute(i, request);
    (*wall_ms)[i] = SecondsSince(timed_from) * 1e3;
  }
}

}  // namespace

Result<LoadReplayReport> ReplayTrace(const WorkloadTrace& trace,
                                     TraceExecutor* executor,
                                     const ReplayOptions& options) {
  SMB_RETURN_IF_ERROR(ValidateTrace(trace));
  if (executor == nullptr) {
    return Status::InvalidArgument("replay needs an executor");
  }
  if (options.num_threads == 0) {
    return Status::InvalidArgument("replay needs num_threads > 0");
  }
  if (options.speed < 0.0) {
    return Status::InvalidArgument("replay speed must be >= 0");
  }

  const uint64_t n = trace.requests.size();
  std::vector<TraceOutcome> outcomes(n);
  std::vector<double> wall_ms(n, 0.0);
  const SteadyClock::time_point start = SteadyClock::now();
  {
    std::vector<std::thread> threads;
    const size_t num_threads =
        std::min<size_t>(options.num_threads, std::max<uint64_t>(n, 1));
    ReplayOptions effective = options;
    effective.num_threads = num_threads;
    threads.reserve(num_threads);
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&trace, executor, effective, t, start,
                            &outcomes, &wall_ms] {
        ReplayWorker(trace, executor, effective, t, start, &outcomes,
                     &wall_ms);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  const double wall_seconds = SecondsSince(start);

  LoadReplayReport report;
  report.requests = n;
  report.wall_seconds = wall_seconds;

  std::vector<double> all_wall;
  std::vector<double> all_service;
  all_wall.reserve(n);
  all_service.reserve(n);
  // Keyed accumulation for the budget-vs-bound curve and per-class rows;
  // the map iterates in ascending target order, which is the curve order.
  std::map<double, TargetMixStats> by_target;
  struct ClassAccumulator {
    uint64_t requests = 0;
    uint64_t ok = 0;
    uint64_t shed = 0;
    std::vector<double> wall;
  };
  std::vector<ClassAccumulator> by_class(trace.classes.size());
  std::map<double, std::vector<double>> target_wall;

  for (uint64_t i = 0; i < n; ++i) {
    const TraceOutcome& outcome = outcomes[i];
    const TraceRequest& request = trace.requests[i];
    TargetMixStats& mix = by_target[request.target_bound];
    mix.target_bound = request.target_bound;
    ++mix.requests;
    ClassAccumulator& cls = by_class[request.class_index];
    ++cls.requests;
    if (!outcome.ok) {
      ++report.errors;
      continue;
    }
    ++report.ok;
    all_wall.push_back(wall_ms[i]);
    all_service.push_back(outcome.service_latency_ms);
    target_wall[request.target_bound].push_back(wall_ms[i]);
    cls.wall.push_back(wall_ms[i]);
    ++cls.ok;
    ++mix.ok;
    if (outcome.cache_hit) ++report.cache_hits;
    if (outcome.shed) {
      ++report.shed;
      ++mix.shed;
      ++cls.shed;
    }
    mix.mean_certified += outcome.certified;
    if (outcome.has_budget) {
      mix.mean_budget += static_cast<double>(outcome.budget);
      ++mix.budget_samples;
    }
  }

  report.throughput_rps =
      wall_seconds > 0.0
          ? static_cast<double>(report.ok + report.errors) / wall_seconds
          : 0.0;
  report.cache_hit_rate =
      report.ok > 0
          ? static_cast<double>(report.cache_hits) /
                static_cast<double>(report.ok)
          : 0.0;
  report.shed_fraction =
      report.ok > 0 ? static_cast<double>(report.shed) /
                          static_cast<double>(report.ok)
                    : 0.0;
  report.latency_ms = SummarizePercentiles(std::move(all_wall));
  report.service_latency_ms = SummarizePercentiles(std::move(all_service));

  for (auto& [target, mix] : by_target) {
    if (mix.ok > 0) mix.mean_certified /= static_cast<double>(mix.ok);
    if (mix.budget_samples > 0) {
      mix.mean_budget /= static_cast<double>(mix.budget_samples);
    }
    mix.latency_ms = SummarizePercentiles(std::move(target_wall[target]));
    report.per_target.push_back(std::move(mix));
  }
  for (size_t c = 0; c < trace.classes.size(); ++c) {
    ClassStats stats;
    stats.name = trace.classes[c];
    stats.requests = by_class[c].requests;
    stats.ok = by_class[c].ok;
    stats.shed = by_class[c].shed;
    stats.latency_ms = SummarizePercentiles(std::move(by_class[c].wall));
    report.per_class.push_back(std::move(stats));
  }
  report.outcomes = std::move(outcomes);
  return report;
}

void PrintReplayReport(std::ostream& os, const LoadReplayReport& report) {
  os << "replay requests=" << report.requests << " ok=" << report.ok
     << " errors=" << report.errors << " shed=" << report.shed
     << " cache_hits=" << report.cache_hits << "\n";
  os << "  wall_s=" << FormatDouble(report.wall_seconds, 3)
     << " throughput_rps=" << FormatDouble(report.throughput_rps, 1)
     << " cache_hit_rate=" << FormatDouble(report.cache_hit_rate, 3)
     << " shed_fraction=" << FormatDouble(report.shed_fraction, 3) << "\n";
  os << "  latency_ms p50=" << FormatDouble(report.latency_ms.p50, 3)
     << " p95=" << FormatDouble(report.latency_ms.p95, 3)
     << " p99=" << FormatDouble(report.latency_ms.p99, 3)
     << " max=" << FormatDouble(report.latency_ms.max, 3) << "\n";
  os << "  service_ms p50="
     << FormatDouble(report.service_latency_ms.p50, 3)
     << " p95=" << FormatDouble(report.service_latency_ms.p95, 3)
     << " p99=" << FormatDouble(report.service_latency_ms.p99, 3) << "\n";
  if (!report.per_target.empty()) {
    TextTable table({"target", "requests", "ok", "shed", "mean_certified",
                     "mean_budget", "p50_ms", "p95_ms", "p99_ms"});
    for (const TargetMixStats& mix : report.per_target) {
      table.AddRow({mix.target_bound == 0.0
                        ? std::string("default")
                        : FormatDouble(mix.target_bound, 2),
                    std::to_string(mix.requests), std::to_string(mix.ok),
                    std::to_string(mix.shed),
                    FormatDouble(mix.mean_certified, 4),
                    FormatDouble(mix.mean_budget, 1),
                    FormatDouble(mix.latency_ms.p50, 3),
                    FormatDouble(mix.latency_ms.p95, 3),
                    FormatDouble(mix.latency_ms.p99, 3)});
    }
    os << "  budget-vs-bound:\n";
    table.Print(os, 4);
  }
  if (report.per_class.size() > 1) {
    TextTable table(
        {"class", "requests", "ok", "shed", "p50_ms", "p95_ms", "p99_ms"});
    for (const ClassStats& cls : report.per_class) {
      table.AddRow({cls.name, std::to_string(cls.requests),
                    std::to_string(cls.ok), std::to_string(cls.shed),
                    FormatDouble(cls.latency_ms.p50, 3),
                    FormatDouble(cls.latency_ms.p95, 3),
                    FormatDouble(cls.latency_ms.p99, 3)});
    }
    os << "  per-class:\n";
    table.Print(os, 4);
  }
}

void WriteBudgetBoundCsv(std::ostream& os, const LoadReplayReport& report) {
  TextTable table({"target_bound", "requests", "ok", "shed",
                   "mean_certified", "mean_budget", "budget_samples",
                   "p50_ms", "p95_ms", "p99_ms"});
  for (const TargetMixStats& mix : report.per_target) {
    table.AddRow({FormatDouble(mix.target_bound, 4),
                  std::to_string(mix.requests), std::to_string(mix.ok),
                  std::to_string(mix.shed),
                  FormatDouble(mix.mean_certified, 6),
                  FormatDouble(mix.mean_budget, 2),
                  std::to_string(mix.budget_samples),
                  FormatDouble(mix.latency_ms.p50, 4),
                  FormatDouble(mix.latency_ms.p95, 4),
                  FormatDouble(mix.latency_ms.p99, 4)});
  }
  table.WriteCsv(os);
}

}  // namespace smb::eval
