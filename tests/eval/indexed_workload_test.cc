#include "eval/workload.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "index/prepared_repository.h"
#include "match/matcher_factory.h"
#include "synth/generator.h"

namespace smb::eval {
namespace {

struct WorkloadSetup {
  std::vector<MatchingProblem> problems;
  schema::SchemaRepository repo;
  match::MatchOptions options;
  size_t max_schema_size = 0;
};

/// Two judged problems over one repository: the collection's own query
/// (with its planted truth) and a second, truth-less query from another
/// domain draw.
WorkloadSetup MakeSetup() {
  Rng rng(31);
  synth::SynthOptions sopts;
  sopts.num_schemas = 20;
  auto collection = synth::GenerateProblem(4, sopts, &rng).value();
  WorkloadSetup setup;
  MatchingProblem judged;
  judged.name = "planted";
  judged.query = collection.query;
  judged.truth = collection.truth;
  setup.problems.push_back(std::move(judged));
  MatchingProblem unjudged;
  unjudged.name = "fresh";
  unjudged.query =
      synth::GenerateQuery(synth::Domain::kECommerce, 3, &rng).value();
  setup.problems.push_back(std::move(unjudged));
  setup.repo = std::move(collection.repository);
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  setup.options.delta_threshold = 0.25;
  setup.options.objective.name.synonyms = &kTable;
  for (const schema::Schema& s : setup.repo.schemas()) {
    setup.max_schema_size = std::max(setup.max_schema_size, s.size());
  }
  return setup;
}

TEST(IndexedWorkloadTest, FullLimitReproducesDenseAnswersWithRecallOne) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  IndexedWorkloadOptions wopts;
  wopts.engine.candidate_limit = setup.max_schema_size + 2;
  wopts.compare_dense = true;
  auto result = RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                   setup.options, {0.1, 0.2, 0.25}, wopts);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_EQ(result->answers.size(), setup.problems.size());
  EXPECT_EQ(result->dense_answers.size(), setup.problems.size());
  EXPECT_EQ(result->mean_answer_recall, 1.0);
  EXPECT_EQ(result->top_answer_recall, 1.0);
  for (size_t i = 0; i < result->answers.size(); ++i) {
    const match::AnswerSet& sparse = result->answers[i];
    const match::AnswerSet& dense = result->dense_answers[i];
    ASSERT_EQ(sparse.size(), dense.size());
    for (size_t r = 0; r < sparse.size(); ++r) {
      EXPECT_EQ(sparse.mappings()[r].key(), dense.mappings()[r].key());
      EXPECT_EQ(sparse.mappings()[r].delta, dense.mappings()[r].delta);
    }
  }
  for (const QueryRunReport& report : result->reports) {
    EXPECT_GT(report.sparse_seconds, 0.0);
    EXPECT_GT(report.dense_seconds, 0.0);
    EXPECT_EQ(report.answer_recall, 1.0);
    EXPECT_TRUE(report.top_answer_retained);
    EXPECT_EQ(report.provably_complete_fraction, 1.0);
  }
  EXPECT_GT(result->index_build_seconds, 0.0);
  EXPECT_GT(result->stats.candidates_generated, 0u);
  EXPECT_EQ(result->stats.candidates_skipped, 0u);
  // One problem carries truth, so the pooled sparse curve is measurable.
  EXPECT_TRUE(result->has_curve);
  EXPECT_EQ(result->pooled_curve.size(), 3u);
}

TEST(IndexedWorkloadTest, SmallLimitReportsRecallBelowOneAndSkips) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  IndexedWorkloadOptions wopts;
  wopts.engine.candidate_limit = 2;
  wopts.engine.num_threads = 2;
  wopts.compare_dense = true;
  auto result = RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                   setup.options, {}, wopts);
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_FALSE(result->has_curve);
  EXPECT_GT(result->stats.candidates_skipped, 0u);
  EXPECT_LE(result->mean_answer_recall, 1.0);
  for (size_t i = 0; i < result->answers.size(); ++i) {
    EXPECT_LE(result->answers[i].size(), result->dense_answers[i].size());
  }
  // Work counters accumulated across both problems.
  EXPECT_GT(result->stats.states_explored, 0u);
}

TEST(IndexedWorkloadTest, WithoutCompareDenseSkipsDenseRuns) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("topk", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  IndexedWorkloadOptions wopts;
  wopts.engine.candidate_limit = 4;
  wopts.compare_dense = false;
  auto result = RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                   setup.options, {}, wopts);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->dense_answers.empty());
  EXPECT_EQ(result->mean_answer_recall, 1.0);
  for (const QueryRunReport& report : result->reports) {
    EXPECT_EQ(report.dense_seconds, 0.0);
    EXPECT_EQ(report.dense_answers, 0u);
  }
}

TEST(IndexedWorkloadTest, SuppliedIndexIsSharedNotRebuilt) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  IndexedWorkloadOptions wopts;
  wopts.engine.candidate_limit = 8;
  auto built_here = RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                       setup.options, {0.1, 0.25}, wopts);
  ASSERT_TRUE(built_here.ok()) << built_here.status();
  EXPECT_GT(built_here->index_build_seconds, 0.0);

  // The caller's index (what `workload` opens through the serving path) is
  // used as is: no build, identical answers.
  auto prepared = index::PreparedRepository::Build(
      setup.repo, setup.options.objective.name);
  ASSERT_TRUE(prepared.ok()) << prepared.status();
  wopts.engine.prepared_repository = &*prepared;
  auto supplied = RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                     setup.options, {0.1, 0.25}, wopts);
  ASSERT_TRUE(supplied.ok()) << supplied.status();
  EXPECT_EQ(supplied->index_build_seconds, 0.0);
  ASSERT_EQ(built_here->answers.size(), supplied->answers.size());
  for (size_t p = 0; p < supplied->answers.size(); ++p) {
    const auto& a = built_here->answers[p];
    const auto& b = supplied->answers[p];
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.mappings()[i].key(), b.mappings()[i].key());
      EXPECT_EQ(a.mappings()[i].delta, b.mappings()[i].delta);
    }
  }
}

TEST(IndexedWorkloadTest, RejectsEmptyWorkloadAndZeroLimit) {
  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  EXPECT_FALSE(
      RunIndexedWorkload(**matcher, {}, setup.repo, setup.options, {}, {})
          .ok());
  IndexedWorkloadOptions wopts;
  wopts.engine.candidate_limit = 0;
  EXPECT_FALSE(RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                  setup.options, {}, wopts)
                   .ok());
  // The zero limit is fine in the bound-driven mode: candidate_limit is
  // not the budget there.
  wopts.engine.adaptive = index::AdaptiveCandidatePolicy{};
  EXPECT_TRUE(RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                 setup.options, {}, wopts)
                  .ok());
}

TEST(IndexedWorkloadTest, AdaptiveModeReportsBudgetAndCertifiedBound) {
  WorkloadSetup setup = MakeSetup();
  setup.options.delta_threshold = 0.02;  // bound-bites regime
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();

  IndexedWorkloadOptions wopts;
  wopts.engine.candidate_limit = 0;
  index::AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = 0.9;
  wopts.engine.adaptive = policy;
  wopts.compare_dense = true;
  auto result = RunIndexedWorkload(**matcher, setup.problems, setup.repo,
                                   setup.options, {}, wopts);
  ASSERT_TRUE(result.ok()) << result.status();

  uint64_t budget_sum = 0;
  for (const QueryRunReport& report : result->reports) {
    EXPECT_GE(report.provably_complete_fraction, 0.9) << report.name;
    EXPECT_GT(report.budget_spent, 0u) << report.name;
    budget_sum += report.budget_spent;
  }
  EXPECT_EQ(result->total_budget_spent, budget_sum);
  EXPECT_GE(result->mean_provable_completeness, 0.9);
  // The budget-driven run must skip nodes — it is a genuine sparse run.
  EXPECT_GT(result->stats.candidates_skipped, 0u);
}

TEST(IndexedWorkloadTest, CompletenessConventionIsOneEverywhere) {
  // Regression: QueryRunReport used to default provably_complete_fraction
  // to 0.0 while engine::BatchMatchStats used 1.0. The unified convention
  // is 1.0 — an empty / dense run skipped nothing, so completeness holds
  // vacuously — in both structs and in what a dense engine run reports.
  EXPECT_EQ(QueryRunReport{}.provably_complete_fraction, 1.0);
  EXPECT_EQ(engine::BatchMatchStats{}.provably_complete_fraction, 1.0);

  WorkloadSetup setup = MakeSetup();
  auto matcher = match::MakeMatcher("exhaustive", setup.repo);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  engine::BatchMatchEngine dense_engine;  // no candidate limit: dense
  engine::BatchMatchStats stats;
  stats.provably_complete_fraction = -7.0;  // must be overwritten
  auto run = dense_engine.Run(**matcher, setup.problems[0].query, setup.repo,
                              setup.options, &stats);
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(stats.provably_complete_fraction, 1.0);
}

}  // namespace
}  // namespace smb::eval
