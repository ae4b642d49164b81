// Tests of the benchmark's own logic: the percentile sample-count rule,
// cold/warm classification, open-loop lag accounting, the certificate
// check against a planted violation, span self time and the result-line
// shape.

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "core.h"
#include "loadgen.h"
#include "tracer.h"

namespace perfbench {
namespace {

TEST(PercentileRule, TenSamplesBeyondThePercentile) {
  EXPECT_EQ(MinSamplesFor(0.5), 20u);
  EXPECT_EQ(MinSamplesFor(0.9), 100u);
  EXPECT_EQ(MinSamplesFor(0.99), 1000u);
}

TEST(PercentileRule, RejectsTooFewSamples) {
  std::vector<double> v(99);
  for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i + 1);
  EXPECT_FALSE(Percentile(v, 0.9).supported);
  v.push_back(100);
  const Quantile p90 = Percentile(v, 0.9);
  EXPECT_TRUE(p90.supported);
  EXPECT_EQ(p90.samples, 100u);
  EXPECT_DOUBLE_EQ(p90.value, 90.0);  // nearest rank: the 90th smallest
}

TEST(PercentileRule, BlockedPercentileIgnoresOneSpoiledBlock) {
  std::vector<double> v(3000, 1.0);
  for (size_t i = 0; i < 50; ++i) v[i] = 500.0;  // a stall in block 0
  const Quantile q = BlockedPercentile(v, 0.99, 1000);
  EXPECT_TRUE(q.supported);
  EXPECT_EQ(q.samples, 3000u);
  EXPECT_DOUBLE_EQ(q.value, 1.0);
  EXPECT_FALSE(BlockedPercentile(std::vector<double>(999, 1.0), 0.99, 1000)
                   .supported);
}

TEST(Classification, SplitsByCacheFlagAndDropsFailures) {
  const std::vector<RequestSample> samples = {
      {10.0, true, false}, {1.0, true, true}, {2.0, true, true},
      {99.0, false, true}, {30.0, true, false}};
  const CacheSplit split = SplitByCacheFlag(samples);
  EXPECT_EQ(split.cold_ms, (std::vector<double>{10.0, 30.0}));
  EXPECT_EQ(split.warm_ms, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(split.failed, 1u);
}

TEST(LagAccounting, BusySenderCountsFromTheDueTime) {
  const OpenLoopTimes t{10.0, 14.0, 14.0, 15.0};
  EXPECT_DOUBLE_EQ(GeneratorLag(t), 4.0);
  EXPECT_DOUBLE_EQ(LatencyFromDue(t), 5.0);
}

TEST(LagAccounting, IdleSenderWakeUpIsNotCharged) {
  const OpenLoopTimes t{10.0, 3.0, 12.0, 13.0};
  EXPECT_DOUBLE_EQ(GeneratorLag(t), 2.0);
  EXPECT_DOUBLE_EQ(LatencyFromDue(t), 1.0);
}

TEST(LagAccounting, StalledSenderChargesLaterRequests) {
  // One sender, requests due every millisecond, each taking 20 ms: the
  // later requests go out late and their latency includes that wait.
  std::vector<Scheduled> schedule;
  for (int i = 0; i < 3; ++i) schedule.push_back({1.0 + i, 0});
  const std::vector<Timed> timed =
      RunOpenLoop(schedule, 1, Tracer::NowNs(), [](size_t, size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Outcome{};
      });
  ASSERT_EQ(timed.size(), 3u);
  EXPECT_GE(GeneratorLag(timed[2].times), 35.0);
  EXPECT_GE(LatencyFromDue(timed[2].times),
            GeneratorLag(timed[2].times) + 19.0);
  EXPECT_LT(GeneratorLag(timed[0].times), 5.0);
}

TEST(Ladder, FailuresCountAsMisses) {
  const std::vector<double> fast(1000, 1.0);
  const std::vector<double> no_lag(1000, 0.0);
  EXPECT_TRUE(JudgeRung(100, fast, no_lag, 50.0, 1000).meets_slo);
  std::vector<double> failing = fast;
  for (size_t i = 0; i < 20; ++i) {
    failing[i * 50] = std::numeric_limits<double>::infinity();
  }
  const RungVerdict refused = JudgeRung(200, failing, no_lag, 50.0, 1000);
  EXPECT_FALSE(refused.meets_slo);
  EXPECT_EQ(refused.failed, 20u);
  const std::vector<double> late(1000, 80.0);
  EXPECT_FALSE(JudgeRung(300, fast, late, 50.0, 1000).meets_slo);
  // Too few requests for one block: no verdict can be reached.
  EXPECT_FALSE(
      JudgeRung(400, std::vector<double>(999, 1.0), no_lag, 50.0, 1000)
          .meets_slo);
}

TEST(Ladder, MaxRateIsTheHighestRungMeetingTheSlo) {
  std::vector<RungVerdict> rungs(3);
  rungs[0].rate_rps = 100;
  rungs[1].rate_rps = 200;
  rungs[2].rate_rps = 400;
  EXPECT_EQ(MaxRateAtSlo(rungs), 0.0);
  rungs[0].meets_slo = rungs[1].meets_slo = true;
  EXPECT_EQ(MaxRateAtSlo(rungs), 200.0);
}

smb::match::AnswerSet Answers(
    const std::vector<std::pair<int32_t, std::vector<int32_t>>>& keys) {
  smb::match::AnswerSet set;
  double delta = 0.0;
  for (const auto& [schema, targets] : keys) {
    smb::match::Mapping m;
    m.schema_index = schema;
    m.targets.assign(targets.begin(), targets.end());
    m.delta = delta += 0.01;
    set.Add(m);
  }
  set.Finalize();
  return set;
}

TEST(Certificate, CatchesAPlantedViolation) {
  const smb::match::AnswerSet dense =
      Answers({{0, {1, 2}}, {1, {0, 3}}, {2, {4, 4}}});
  const smb::match::AnswerSet served = Answers({{0, {1, 2}}, {2, {4, 4}}});
  // Every cell certified, yet (1, {0, 3}) is missing: a false claim.
  const CertificateReport planted = CheckCertificate(
      dense, served, [](size_t, int32_t) { return true; }, 1.0, 0.9, 0);
  EXPECT_EQ(planted.dishonest, 1u);
  EXPECT_FALSE(planted.honest());
  EXPECT_EQ(planted.kept, 2u);
  EXPECT_EQ(planted.dense_answers, 3u);
  EXPECT_EQ(CountKept(dense, served), 2u);
  // The same loss through an uncertified cell is what the bound allows.
  const CertificateReport honest = CheckCertificate(
      dense, served,
      [](size_t pos, int32_t schema) { return !(schema == 1 && pos == 1); },
      0.95, 0.9, 0);
  EXPECT_TRUE(honest.honest());
}

TEST(Certificate, BoundBelowTargetNeedsCappedCells) {
  const smb::match::AnswerSet none;
  auto all = [](size_t, int32_t) { return true; };
  EXPECT_TRUE(CheckCertificate(none, none, all, 0.85, 0.9, 0).bound_short);
  EXPECT_FALSE(CheckCertificate(none, none, all, 0.85, 0.9, 3).bound_short);
  EXPECT_FALSE(CheckCertificate(none, none, all, 0.9, 0.9, 0).bound_short);
}

TEST(Tracer, SelfTimeSubtractsTheChildrenUnion) {
  Tracer tracer;
  const int32_t root = tracer.Add("request", 0, 10'000'000, -1, 7);
  tracer.Add("a", 2'000'000, 4'000'000, root, 7);
  tracer.Add("b", 3'000'000, 6'000'000, root, 7);
  tracer.Add("other", 0, 10'000'000, -1, 8);
  EXPECT_DOUBLE_EQ(tracer.SelfMs(root), 6.0);
  const auto self = tracer.SelfMsByName();
  EXPECT_DOUBLE_EQ(self.at("request")[0], 6.0);
  EXPECT_DOUBLE_EQ(self.at("b")[0], 3.0);
}

TEST(Tracer, ScopedSpansNest) {
  Tracer tracer;
  {
    ScopedSpan outer(&tracer, "outer", 1);
    ScopedSpan inner(&tracer, "inner", 1);
  }
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_LE(tracer.spans()[1].end_ns, tracer.spans()[0].end_ns);
}

TEST(ResultLine, HasExactlyTheContractKeys) {
  MetricMap metrics;
  metrics["cold_p50_ms"] = Metric{1.5, "ms", 120};
  metrics["setup_s"] = Metric{0.25, "s", 7};
  EXPECT_EQ(FormatResultLine(true, 10, 1, metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
            "\"metrics\": {\"cold_p50_ms\": {\"value\": 1.5, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
  const std::string report = FormatReport("w", metrics);
  EXPECT_NE(report.find("cold_p50_ms = 1.5 ms  (n=120)"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
