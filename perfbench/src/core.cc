#include "core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <sstream>

#include "common/percentile.h"

namespace perfbench {

size_t MinSamplesFor(double q) {
  // Ten samples beyond the q-quantile: n·(1 − q) ≥ 10. The epsilon keeps
  // 10 / 0.1 from rounding up to 101.
  return static_cast<size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  out.supported = out.samples >= MinSamplesFor(q);
  out.value = smb::NearestRankQuantileInPlace(&samples, q);
  return out;
}

Quantile BlockedPercentile(const std::vector<double>& samples, double q,
                           size_t block) {
  std::vector<double> per_block;
  for (size_t at = 0; at + block <= samples.size(); at += block) {
    per_block.emplace_back(smb::NearestRankQuantile(
        std::vector<double>(samples.begin() + static_cast<std::ptrdiff_t>(at),
                            samples.begin() +
                                static_cast<std::ptrdiff_t>(at + block)),
        q));
  }
  Quantile out;
  out.samples = samples.size();
  out.supported = !per_block.empty() && block >= MinSamplesFor(q);
  out.value = smb::NearestRankQuantileInPlace(&per_block, 0.5);
  return out;
}

CacheSplit SplitByCacheFlag(const std::vector<RequestSample>& samples) {
  CacheSplit split;
  for (const RequestSample& s : samples) {
    if (!s.ok) {
      ++split.failed;
    } else if (s.cache_hit) {
      split.warm_ms.push_back(s.latency_ms);
    } else {
      split.cold_ms.push_back(s.latency_ms);
    }
  }
  return split;
}

RungVerdict JudgeRung(double rate_rps, const std::vector<double>& latencies_ms,
                      const std::vector<double>& lags_ms, double slo_ms,
                      size_t block) {
  RungVerdict verdict;
  verdict.rate_rps = rate_rps;
  verdict.failed = static_cast<uint64_t>(
      std::count(latencies_ms.begin(), latencies_ms.end(),
                 std::numeric_limits<double>::infinity()));
  verdict.warm_p99 = BlockedPercentile(latencies_ms, 0.99, block);
  verdict.lag_p99 = BlockedPercentile(lags_ms, 0.99, block);
  verdict.meets_slo = verdict.warm_p99.supported &&
                      verdict.warm_p99.value <= slo_ms &&
                      verdict.lag_p99.value <= slo_ms;
  return verdict;
}

double MaxRateAtSlo(const std::vector<RungVerdict>& rungs) {
  double best = 0.0;
  for (const RungVerdict& rung : rungs) {
    if (rung.meets_slo) best = std::max(best, rung.rate_rps);
  }
  return best;
}

uint64_t CountKept(const smb::match::AnswerSet& dense,
                   const smb::match::AnswerSet& served) {
  std::set<smb::match::Mapping::Key> keys;
  for (const smb::match::Mapping& m : served.mappings()) keys.insert(m.key());
  uint64_t kept = 0;
  for (const smb::match::Mapping& m : dense.mappings()) {
    kept += keys.count(m.key());
  }
  return kept;
}

CertificateReport CheckCertificate(const smb::match::AnswerSet& dense,
                                   const smb::match::AnswerSet& served,
                                   const CellCertified& certified,
                                   double achieved, double target,
                                   uint64_t cells_at_cap) {
  CertificateReport report;
  report.dense_answers = dense.size();
  std::set<smb::match::Mapping::Key> keys;
  for (const smb::match::Mapping& m : served.mappings()) keys.insert(m.key());
  for (const smb::match::Mapping& m : dense.mappings()) {
    if (keys.count(m.key()) > 0) {
      ++report.kept;
      continue;
    }
    bool uses_uncertified = false;
    for (size_t pos = 0; pos < m.targets.size() && !uses_uncertified; ++pos) {
      uses_uncertified = !certified(pos, m.schema_index);
    }
    if (!uses_uncertified) ++report.dishonest;
  }
  report.bound_short = achieved + 1e-12 < target && cells_at_cap == 0;
  return report;
}

namespace {

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace

std::string FormatResultLine(bool correct, uint64_t attempted,
                             uint64_t failed, const MetricMap& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << FormatNumber(metric.value)
        << ", \"unit\": \"" << metric.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string FormatReport(const std::string& workload,
                         const MetricMap& metrics) {
  std::ostringstream out;
  for (const auto& [name, metric] : metrics) {
    out << workload << "  " << name << " = " << FormatNumber(metric.value)
        << " " << metric.unit;
    if (metric.samples > 0) out << "  (n=" << metric.samples << ")";
    out << "\n";
  }
  return out.str();
}

}  // namespace perfbench
