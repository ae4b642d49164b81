#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

/// \file trace.h
/// \brief Versioned workload traces: the recorded query streams the load
/// harness replays.
///
/// A trace is the unit of benchmark reproducibility for serving
/// experiments: it pins *which* query arrives *when*, under *what* target
/// bound and deadline class, so two replays (offline in-process vs a live
/// server; today's build vs last week's) see byte-identical demand. Three
/// realism properties are encoded explicitly:
///
///  * **Zipfian repetition** — requests draw from a small set of distinct
///    query files with skewed popularity, so the serve-side result cache
///    faces a realistic hit distribution instead of all-hit or all-miss;
///  * **arrival timestamps** — microsecond offsets from trace start,
///    generated by a Poisson process, so the replay driver can run
///    open-loop (send at the recorded instant regardless of completions)
///    and measure queueing behaviour honestly;
///  * **mixed per-request demand** — each request carries an optional
///    target completeness bound (0 = server default) and a deadline class,
///    so one trace exercises the whole budget-vs-bound trade-off curve.
///
/// On disk a trace uses the snapshot idiom (magic + version + body size +
/// `io::Checksum64` + little-endian body) and decoding is fail-closed:
/// truncated, bit-flipped or version-skewed files are rejected with
/// actionable errors, never crash, and never silently drop records.

namespace smb::eval {

/// \brief Trace file magic bytes (8, human-greppable).
inline constexpr std::string_view kTraceMagic = "SMBTRC1\n";

/// \brief Current (and oldest readable) trace format version.
inline constexpr uint32_t kTraceFormatVersion = 1;
inline constexpr uint32_t kTraceMinFormatVersion = 1;

/// \brief One request of a trace.
struct TraceRequest {
  /// Index into `WorkloadTrace::query_files`.
  uint32_t query_index = 0;
  /// Arrival instant, microseconds since trace start (non-decreasing).
  uint64_t arrival_us = 0;
  /// Index into `WorkloadTrace::classes`.
  uint16_t class_index = 0;
  /// Per-request target completeness bound in (0, 1]; 0 = use the server
  /// (or harness) default.
  double target_bound = 0.0;
  /// Per-request deadline in milliseconds; 0 = server default.
  double deadline_ms = 0.0;
};

/// \brief A full workload trace.
struct WorkloadTrace {
  /// Seed the trace was generated from (provenance; replay ignores it).
  uint64_t seed = 0;
  /// Distinct query schema files, referenced by index. Paths are stored
  /// as written (typically relative to the trace's own directory).
  std::vector<std::string> query_files;
  /// Deadline-class names; every trace has at least one ("default").
  std::vector<std::string> classes;
  /// The request stream, in arrival order.
  std::vector<TraceRequest> requests;
};

/// \brief Structural validity: non-empty tables, in-range indices,
/// non-decreasing arrivals, bounds in [0, 1], deadlines >= 0.
Status ValidateTrace(const WorkloadTrace& trace);

/// \brief Encodes `trace` (validated first) into the versioned binary
/// format.
Result<std::string> EncodeTrace(const WorkloadTrace& trace);

/// \brief Decodes and validates a trace; fail-closed on any corruption.
Result<WorkloadTrace> DecodeTrace(std::string_view bytes);

/// \brief Encodes and writes `path` crash-safely (tmp + rename).
Status SaveTrace(const std::string& path, const WorkloadTrace& trace);

/// \brief Reads, decodes and validates the trace at `path`.
Result<WorkloadTrace> LoadTrace(const std::string& path);

/// \brief One deadline class of a generated trace.
struct TraceClassSpec {
  std::string name = "default";
  /// Relative share of requests in this class (> 0).
  double weight = 1.0;
  /// Deadline attached to the class's requests (0 = server default).
  double deadline_ms = 0.0;
};

/// \brief Parameters of synthetic trace generation.
struct TraceGenOptions {
  /// Number of requests in the stream.
  uint64_t num_requests = 1000;
  /// Zipf exponent of query popularity (0 = uniform over the files).
  double zipf_exponent = 1.0;
  /// Mean arrival rate of the Poisson process, requests/second. Must be
  /// > 0; arrival timestamps are cumulative exponential gaps.
  double arrival_rate_qps = 200.0;
  /// Deadline classes with selection weights; empty = one "default"
  /// class, no deadline.
  std::vector<TraceClassSpec> classes;
  /// Per-request target-bound mix, drawn uniformly per request; an entry
  /// of 0 means "server default". Empty = every request uses 0.
  std::vector<double> target_mix;
  /// Generation seed (recorded in the trace).
  uint64_t seed = 1;
};

/// \brief Parses a comma-separated target-bound mix ("0,0.85,0.95"; empty
/// text = empty mix) for `TraceGenOptions::target_mix`.
Result<std::vector<double>> ParseTargetMix(const std::string& text);

/// \brief Generates a Zipf-repetition, Poisson-arrival trace over
/// `query_files` (the distinct query schemas; must be non-empty).
Result<WorkloadTrace> GenerateTrace(std::vector<std::string> query_files,
                                    const TraceGenOptions& options);

}  // namespace smb::eval
