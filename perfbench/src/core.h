#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "match/answer_set.h"

/// \file core.h
/// \brief The benchmark's own logic, kept apart from the workloads so the
/// tests can drive it with planted inputs: the percentile sample-count
/// rule, cold/warm classification, open-loop lag accounting, the
/// certificate-honesty check and the result-line format.
namespace perfbench {

/// \brief Samples a nearest-rank percentile `q` needs so that at least ten
/// samples lie beyond it: p50 → 20, p90 → 100, p99 → 1000.
size_t MinSamplesFor(double q);

/// \brief A percentile with the sample count it was taken over.
struct Quantile {
  double value = 0.0;
  size_t samples = 0;
  /// False when `samples < MinSamplesFor(q)`: the run cannot report it.
  bool supported = false;
};

/// \brief Nearest-rank percentile `q` of `samples` plus the support rule.
Quantile Percentile(std::vector<double> samples, double q);

/// \brief The median over consecutive blocks of `block` samples of each
/// block's percentile `q` (a trailing partial block is dropped). Robust to
/// a stall that spoils one block. Supported when there is at least one
/// full block and `block` supports `q`.
Quantile BlockedPercentile(const std::vector<double>& samples, double q,
                           size_t block);

/// \brief One answered (or failed) request as the client saw it.
struct RequestSample {
  /// Client-observed latency in milliseconds (open loop: from the due
  /// time; closed loop: from the call).
  double latency_ms = 0.0;
  bool ok = false;
  /// The response's `cache=` flag; meaningless when `!ok`.
  bool cache_hit = false;
};

/// \brief Latencies split by the response's cache flag. A failed request
/// has no cache flag and is counted in `failed`, never in either split.
struct CacheSplit {
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  uint64_t failed = 0;
};

CacheSplit SplitByCacheFlag(const std::vector<RequestSample>& samples);

/// \brief Timestamps of one open-loop request, in milliseconds since the
/// schedule's start.
struct OpenLoopTimes {
  double due_ms = 0.0;
  /// When its sender finished the previous request (0 for the first).
  double ready_ms = 0.0;
  double sent_ms = 0.0;
  double done_ms = 0.0;
};

/// \brief Latency counted from when the request was due, so a sender kept
/// busy by earlier replies charges the wait to every request it delayed
/// (no coordinated omission). When the sender was idle at the due time,
/// any lateness is the generator's own timer wake-up, not the system's,
/// and the clock starts at the send instead.
inline double LatencyFromDue(const OpenLoopTimes& t) {
  return t.done_ms - (t.ready_ms > t.due_ms ? t.due_ms : t.sent_ms);
}
/// How late the generator sent the request.
inline double GeneratorLag(const OpenLoopTimes& t) {
  return t.sent_ms - t.due_ms;
}

/// \brief One ladder rung's verdict: warm p99 (failures count as misses)
/// within the limit, and the generator kept up (lag p99 within the limit,
/// so the backlog did not grow). Both p99s are `BlockedPercentile`s over
/// blocks of `block` requests, so one scheduler stall of the host does not
/// decide the rung; a growing backlog spoils every block.
struct RungVerdict {
  double rate_rps = 0.0;
  Quantile warm_p99;
  Quantile lag_p99;
  uint64_t failed = 0;
  bool meets_slo = false;
};

/// `latencies_ms` are the rung's requests in schedule order; a failed
/// request enters as +infinity, so it misses any limit.
RungVerdict JudgeRung(double rate_rps, const std::vector<double>& latencies_ms,
                      const std::vector<double>& lags_ms, double slo_ms,
                      size_t block);

/// \brief The highest rate among `rungs` that meets its SLO; 0 when none
/// does.
double MaxRateAtSlo(const std::vector<RungVerdict>& rungs);

/// \brief Outcome of comparing a served answer set with the dense
/// oracle's answers for the same query.
struct CertificateReport {
  uint64_t dense_answers = 0;
  /// Dense answers the served set contains.
  uint64_t kept = 0;
  /// Dense answers missing from the served set whose every cell the
  /// certificate certified complete — each one is a false claim.
  uint64_t dishonest = 0;
  /// Achieved bound below the requested target although no cell hit the
  /// cap.
  bool bound_short = false;

  bool honest() const { return dishonest == 0 && !bound_short; }
};

/// Whether cell (query position, schema) was certified complete.
using CellCertified = std::function<bool(size_t pos, int32_t schema_index)>;

/// \brief Certificate honesty: every dense answer missing from `served`
/// must route at least one query position through a cell the certificate
/// left uncertified, and the achieved bound must reach the target unless
/// some cell hit the cap.
CertificateReport CheckCertificate(const smb::match::AnswerSet& dense,
                                   const smb::match::AnswerSet& served,
                                   const CellCertified& certified,
                                   double achieved, double target,
                                   uint64_t cells_at_cap);

/// \brief Dense answers `served` contains (by mapping key).
uint64_t CountKept(const smb::match::AnswerSet& dense,
                   const smb::match::AnswerSet& served);

/// \brief One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples the value was computed over (0 = not a sample statistic).
  size_t samples = 0;
};

using MetricMap = std::map<std::string, Metric>;

/// \brief The result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`; each metric carries
/// `value` and `unit`.
std::string FormatResultLine(bool correct, uint64_t attempted,
                             uint64_t failed, const MetricMap& metrics);

/// \brief Human-readable report (one metric per line with its unit and
/// sample count), for standard error.
std::string FormatReport(const std::string& workload,
                         const MetricMap& metrics);

}  // namespace perfbench
