#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/percentile.h"
#include "common/result.h"
#include "eval/trace.h"

/// \file load_harness.h
/// \brief Open-loop trace replay with percentile reporting.
///
/// The harness replays a `WorkloadTrace` through a `TraceExecutor` — the
/// seam that keeps this layer ignorant of *how* a request is answered.
/// The eval subsystem may not depend on serve (the include-layering DAG
/// forbids the upward edge), so the two real executors — in-process
/// engine via `serve::MatchService` and live TCP endpoint — live in
/// `src/harness` (harness/trace_executor.h); tests substitute scripted
/// fakes. The report answers the questions ROADMAP item 3 asks at
/// 100k-schema scale: p50/p95/p99 latency, throughput, cache hit rate,
/// shed fraction, and the budget-vs-bound curve per target-bound mix.

namespace smb::eval {

/// \brief Outcome of one replayed request, normalized across executors
/// (fields mirror the serve protocol's `ok` response line).
struct TraceOutcome {
  /// Request succeeded (an `ok` line / engine run). When false, `error`
  /// carries the message and the remaining fields are meaningless.
  bool ok = false;
  std::string error;
  uint64_t answers = 0;
  bool cache_hit = false;
  /// Certified completeness bound of the served answers, in [0, 1].
  double certified = 1.0;
  /// Bound-driven mode only: effective target and shed flag.
  bool has_target = false;
  double target = 1.0;
  bool shed = false;
  /// Server-side service latency (queue wait excluded), milliseconds.
  double service_latency_ms = 0.0;
  /// Adaptive engine detail when reported (cache misses): candidate
  /// budget the bound-driven search spent.
  bool has_budget = false;
  uint64_t budget = 0;
};

/// \brief Answers one trace request. Implementations must be thread-safe:
/// the replay driver calls `Execute` from `num_threads` threads
/// concurrently.
class TraceExecutor {
 public:
  virtual ~TraceExecutor() = default;

  /// Executes request `index` of the trace being replayed. The index
  /// identifies the request (e.g. for per-request answer files); the
  /// request carries the query/class/target/deadline demand.
  virtual TraceOutcome Execute(uint64_t index,
                               const TraceRequest& request) = 0;
};

/// \brief Replay pacing knobs.
struct ReplayOptions {
  /// Concurrent replay threads (requests are interleaved round-robin, so
  /// ordering within a thread follows trace order).
  size_t num_threads = 4;
  /// Arrival-time scale: 2.0 replays at twice the recorded rate, 0 (or
  /// `open_loop = false`) ignores timestamps entirely (closed loop,
  /// as-fast-as-possible).
  double speed = 1.0;
  /// Honor the trace's arrival timestamps (open loop). When false the
  /// replay is a throughput test: every thread fires back-to-back.
  bool open_loop = true;
};

/// \brief Aggregates for one target-bound value of the trace's mix — one
/// point of the budget-vs-bound curve.
struct TargetMixStats {
  /// The requested bound (0 = server default).
  double target_bound = 0.0;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  /// Mean certified completeness over ok responses.
  double mean_certified = 0.0;
  /// Mean adaptive candidate budget over responses that reported one
  /// (cache misses in bound-driven mode); `budget_samples` counts them.
  double mean_budget = 0.0;
  uint64_t budget_samples = 0;
  /// Client-observed wall latency of this mix, milliseconds.
  PercentileSummary latency_ms;
};

/// \brief Aggregates for one deadline class.
struct ClassStats {
  std::string name;
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  PercentileSummary latency_ms;
};

/// \brief Everything one replay measured.
struct LoadReplayReport {
  uint64_t requests = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;
  uint64_t shed = 0;
  uint64_t cache_hits = 0;
  /// Wall time from first dispatch to last completion, seconds.
  double wall_seconds = 0.0;
  /// Completed requests (ok + errors) per wall second.
  double throughput_rps = 0.0;
  /// Cache hits / ok.
  double cache_hit_rate = 0.0;
  /// Shed / ok.
  double shed_fraction = 0.0;
  /// Client-observed wall latency, milliseconds: from the scheduled
  /// arrival in paced open-loop mode (queueing behind a slow request on
  /// the same replay thread counts), else from dispatch, to the response.
  PercentileSummary latency_ms;
  /// Server-reported service latency, milliseconds.
  PercentileSummary service_latency_ms;
  /// Budget-vs-bound curve: one entry per distinct target bound in the
  /// trace, sorted ascending (0 = server default first).
  std::vector<TargetMixStats> per_target;
  /// One entry per trace class, in trace table order.
  std::vector<ClassStats> per_class;
  /// Raw per-request outcomes in trace order (index-aligned), retained
  /// for reconciliation tests and answer-file comparison.
  std::vector<TraceOutcome> outcomes;
};

/// \brief Replays `trace` through `executor` with `options.num_threads`
/// threads, pacing arrivals per `options`, and aggregates the report.
/// Individual request failures are recorded, not fatal; the call itself
/// fails only on invalid options or an invalid trace.
Result<LoadReplayReport> ReplayTrace(const WorkloadTrace& trace,
                                     TraceExecutor* executor,
                                     const ReplayOptions& options);

/// \brief Human-readable multi-line summary (percentiles, throughput,
/// cache, shed, per-target curve, per-class table).
void PrintReplayReport(std::ostream& os, const LoadReplayReport& report);

/// \brief The budget-vs-bound curve as CSV
/// (`target_bound,requests,ok,shed,mean_certified,mean_budget,...`).
void WriteBudgetBoundCsv(std::ostream& os, const LoadReplayReport& report);

}  // namespace smb::eval
