#include "eval/load_harness.h"

#include <atomic>
#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "eval/trace.h"

// Replay-driver tests over a scripted executor: aggregation (totals,
// per-target curve, per-class rows), threading (every index executed
// exactly once), and the error/shed/cache accounting the integration
// tests later reconcile against a live server.
namespace smb::eval {
namespace {

WorkloadTrace MakeTrace(size_t num_requests) {
  WorkloadTrace trace;
  trace.seed = 1;
  trace.query_files = {"q0", "q1"};
  trace.classes = {"default", "interactive"};
  for (size_t i = 0; i < num_requests; ++i) {
    TraceRequest request;
    request.query_index = static_cast<uint32_t>(i % 2);
    request.arrival_us = static_cast<uint64_t>(i);  // dense, near-zero gaps
    request.class_index = static_cast<uint16_t>(i % 4 == 0 ? 1 : 0);
    // Requests alternate between server-default and two explicit bounds.
    request.target_bound = (i % 3 == 0) ? 0.0 : (i % 3 == 1 ? 0.8 : 0.9);
    trace.requests.push_back(request);
  }
  return trace;
}

/// Deterministic outcomes keyed on the request index: index 7 errors,
/// every 5th request is a cache hit, explicit-0.8-target requests shed.
class ScriptedExecutor : public TraceExecutor {
 public:
  TraceOutcome Execute(uint64_t index, const TraceRequest& request) override {
    executed_.fetch_add(1);
    TraceOutcome outcome;
    if (index == 7) {
      outcome.ok = false;
      outcome.error = "scripted failure";
      return outcome;
    }
    outcome.ok = true;
    outcome.answers = index;
    outcome.cache_hit = index % 5 == 0;
    outcome.certified = request.target_bound == 0.0 ? 1.0 : 0.95;
    outcome.has_target = true;
    outcome.target = request.target_bound;
    outcome.shed = request.target_bound == 0.8;
    outcome.service_latency_ms = static_cast<double>(index % 10);
    if (request.target_bound == 0.9) {
      outcome.has_budget = true;
      outcome.budget = 100;
    }
    return outcome;
  }

  int executed() const { return executed_.load(); }

 private:
  std::atomic<int> executed_{0};
};

ReplayOptions ClosedLoop(size_t threads) {
  ReplayOptions options;
  options.num_threads = threads;
  options.open_loop = false;
  return options;
}

TEST(ReplayTraceTest, ValidatesInputs) {
  const WorkloadTrace trace = MakeTrace(6);
  ScriptedExecutor executor;
  EXPECT_FALSE(ReplayTrace(trace, nullptr, ClosedLoop(2)).ok());
  ReplayOptions zero_threads = ClosedLoop(0);
  EXPECT_FALSE(ReplayTrace(trace, &executor, zero_threads).ok());
  ReplayOptions negative_speed = ClosedLoop(2);
  negative_speed.speed = -1.0;
  EXPECT_FALSE(ReplayTrace(trace, &executor, negative_speed).ok());
  WorkloadTrace broken = trace;
  broken.requests[0].query_index = 99;
  EXPECT_FALSE(ReplayTrace(broken, &executor, ClosedLoop(2)).ok());
}

TEST(ReplayTraceTest, ExecutesEveryRequestExactlyOnceAcrossThreads) {
  const WorkloadTrace trace = MakeTrace(60);
  ScriptedExecutor executor;
  auto report = ReplayTrace(trace, &executor, ClosedLoop(4));
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(executor.executed(), 60);
  EXPECT_EQ(report->requests, 60u);
  EXPECT_EQ(report->errors, 1u);  // scripted failure at index 7
  EXPECT_EQ(report->ok, 59u);
  // Outcomes stay index-aligned: request i's outcome is outcomes[i].
  ASSERT_EQ(report->outcomes.size(), 60u);
  EXPECT_FALSE(report->outcomes[7].ok);
  EXPECT_EQ(report->outcomes[7].error, "scripted failure");
  EXPECT_EQ(report->outcomes[12].answers, 12u);
  // More threads than requests clamps instead of spawning idle workers.
  ScriptedExecutor second;
  auto small = ReplayTrace(MakeTrace(3), &second, ClosedLoop(16));
  ASSERT_TRUE(small.ok()) << small.status();
  EXPECT_EQ(second.executed(), 3);
}

TEST(ReplayTraceTest, AggregatesCountersAndRates) {
  const WorkloadTrace trace = MakeTrace(60);
  ScriptedExecutor executor;
  auto report = ReplayTrace(trace, &executor, ClosedLoop(3));
  ASSERT_TRUE(report.ok()) << report.status();
  // Cache hits: ok indices divisible by 5 (7 is the error, not such).
  EXPECT_EQ(report->cache_hits, 12u);
  EXPECT_NEAR(report->cache_hit_rate, 12.0 / 59.0, 1e-12);
  // Shed: the 0.8-target third, minus index 7 which errored (7 % 3 == 1
  // means index 7 *was* a 0.8-target request).
  EXPECT_EQ(report->shed, 19u);
  EXPECT_NEAR(report->shed_fraction, 19.0 / 59.0, 1e-12);
  EXPECT_GT(report->throughput_rps, 0.0);
  EXPECT_GT(report->wall_seconds, 0.0);
  // Service-latency percentiles are deterministic (scripted index % 10).
  EXPECT_EQ(report->service_latency_ms.count, 59u);
  EXPECT_EQ(report->service_latency_ms.max, 9.0);
  EXPECT_GE(report->latency_ms.p99, report->latency_ms.p50);
}

TEST(ReplayTraceTest, BuildsTheBudgetVsBoundCurve) {
  const WorkloadTrace trace = MakeTrace(60);
  ScriptedExecutor executor;
  auto report = ReplayTrace(trace, &executor, ClosedLoop(2));
  ASSERT_TRUE(report.ok()) << report.status();
  // Three mix values, ascending, server-default (0) first.
  ASSERT_EQ(report->per_target.size(), 3u);
  EXPECT_EQ(report->per_target[0].target_bound, 0.0);
  EXPECT_EQ(report->per_target[1].target_bound, 0.8);
  EXPECT_EQ(report->per_target[2].target_bound, 0.9);
  EXPECT_EQ(report->per_target[0].requests, 20u);
  EXPECT_EQ(report->per_target[1].requests, 20u);
  EXPECT_EQ(report->per_target[2].requests, 20u);
  // Index 7 (a 0.8 request) errored; shed is every surviving 0.8 request.
  EXPECT_EQ(report->per_target[1].ok, 19u);
  EXPECT_EQ(report->per_target[1].shed, 19u);
  EXPECT_EQ(report->per_target[0].shed, 0u);
  // Certified means: 1.0 for default, 0.95 for explicit bounds.
  EXPECT_NEAR(report->per_target[0].mean_certified, 1.0, 1e-12);
  EXPECT_NEAR(report->per_target[1].mean_certified, 0.95, 1e-12);
  // Budgets only reported for the 0.9 mix.
  EXPECT_EQ(report->per_target[2].budget_samples, 20u);
  EXPECT_NEAR(report->per_target[2].mean_budget, 100.0, 1e-12);
  EXPECT_EQ(report->per_target[0].budget_samples, 0u);

  // Per-class rows follow the trace's class table order.
  ASSERT_EQ(report->per_class.size(), 2u);
  EXPECT_EQ(report->per_class[0].name, "default");
  EXPECT_EQ(report->per_class[1].name, "interactive");
  EXPECT_EQ(report->per_class[0].requests + report->per_class[1].requests,
            60u);
  EXPECT_EQ(report->per_class[1].requests, 15u);  // every 4th request
}

TEST(ReplayTraceTest, ReportRendersHumanAndCsvForms) {
  const WorkloadTrace trace = MakeTrace(24);
  ScriptedExecutor executor;
  auto report = ReplayTrace(trace, &executor, ClosedLoop(2));
  ASSERT_TRUE(report.ok()) << report.status();

  std::ostringstream human;
  PrintReplayReport(human, *report);
  EXPECT_NE(human.str().find("latency_ms p50="), std::string::npos);
  EXPECT_NE(human.str().find("budget-vs-bound:"), std::string::npos);
  EXPECT_NE(human.str().find("per-class:"), std::string::npos);

  std::ostringstream csv_out;
  WriteBudgetBoundCsv(csv_out, *report);
  std::istringstream csv(csv_out.str());
  std::string line;
  std::getline(csv, line);
  EXPECT_EQ(line,
            "target_bound,requests,ok,shed,mean_certified,mean_budget,"
            "budget_samples,p50_ms,p95_ms,p99_ms");
  size_t rows = 0;
  while (std::getline(csv, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, report->per_target.size());
}

// Open-loop pacing honors arrival timestamps: a 40-requests-in-100ms trace
// replayed at speed 1 cannot complete much faster than its recorded span.
TEST(ReplayTraceTest, OpenLoopPacingHonorsArrivals) {
  WorkloadTrace trace;
  trace.seed = 1;
  trace.query_files = {"q"};
  trace.classes = {"default"};
  for (int i = 0; i < 40; ++i) {
    TraceRequest request;
    request.arrival_us = static_cast<uint64_t>(i) * 2500;  // 100ms span
    trace.requests.push_back(request);
  }
  ScriptedExecutor executor;
  ReplayOptions paced;
  paced.num_threads = 4;
  paced.open_loop = true;
  paced.speed = 1.0;
  auto report = ReplayTrace(trace, &executor, paced);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GE(report->wall_seconds, 0.09)
      << "open-loop replay finished before the trace's recorded span";
  // The same trace closed-loop is near-instant — the pacing really is the
  // difference.
  ScriptedExecutor fast;
  auto closed = ReplayTrace(trace, &fast, ClosedLoop(4));
  ASSERT_TRUE(closed.ok()) << closed.status();
  EXPECT_LT(closed->wall_seconds, 0.09);
}

// No coordinated omission: in paced open-loop mode a request is timed from
// its scheduled arrival. Request 0 stalls the only replay thread for about
// 50 ms; request 1, due at 10 ms, waits behind it, and that wait is part
// of its recorded latency (timed from dispatch it would read about 0 ms).
TEST(ReplayTraceTest, OpenLoopLatencyCountsTheWaitBehindAStall) {
  WorkloadTrace trace;
  trace.seed = 1;
  trace.query_files = {"q"};
  trace.classes = {"stalled", "queued"};
  TraceRequest stalled;
  stalled.arrival_us = 0;
  stalled.class_index = 0;
  TraceRequest queued;
  queued.arrival_us = 10000;
  queued.class_index = 1;
  trace.requests = {stalled, queued};

  class StallingExecutor : public TraceExecutor {
   public:
    TraceOutcome Execute(uint64_t index, const TraceRequest&) override {
      if (index == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      TraceOutcome outcome;
      outcome.ok = true;
      return outcome;
    }
  } executor;
  ReplayOptions paced;
  paced.num_threads = 1;
  paced.open_loop = true;
  paced.speed = 1.0;
  auto report = ReplayTrace(trace, &executor, paced);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->per_class.size(), 2u);
  ASSERT_EQ(report->per_class[1].latency_ms.count, 1u);
  // Dispatched at ~50 ms, due at 10 ms: ~40 ms of waiting.
  EXPECT_GE(report->per_class[1].latency_ms.max, 35.0)
      << "the queued request's wait behind the stall was not counted";
  EXPECT_GE(report->per_class[0].latency_ms.max, 45.0);
}

}  // namespace
}  // namespace smb::eval
