// Shards are schema ranges of the one repository: the engine hands each
// worker `MatchOptions::schemas` and the global pool or candidate lists,
// and the matcher emits global schema indices. These tests pin that the
// shard layout never shows in the answers or the work counters, and that
// ranges are validated where they enter.

#include <gtest/gtest.h>

#include <numeric>
#include <optional>
#include <string>

#include "engine/batch_match_engine.h"
#include "index/prepared_repository.h"
#include "match/beam_matcher.h"
#include "match/cluster_matcher.h"
#include "match/exhaustive_matcher.h"
#include "match/topk_matcher.h"
#include "synth/generator.h"
#include "../testing/fixtures.h"

namespace smb::engine {
namespace {

void ExpectSameAnswers(const match::AnswerSet& a, const match::AnswerSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const match::Mapping& ma = a.mappings()[i];
    const match::Mapping& mb = b.mappings()[i];
    EXPECT_EQ(ma.schema_index, mb.schema_index) << "rank " << i;
    EXPECT_EQ(ma.targets, mb.targets) << "rank " << i;
    EXPECT_EQ(ma.delta, mb.delta) << "rank " << i;
  }
}

void ExpectSameMatchStats(const match::MatchStats& a,
                          const match::MatchStats& b) {
  EXPECT_EQ(a.states_explored, b.states_explored);
  EXPECT_EQ(a.states_pruned, b.states_pruned);
  EXPECT_EQ(a.mappings_emitted, b.mappings_emitted);
  EXPECT_EQ(a.candidates_generated, b.candidates_generated);
  EXPECT_EQ(a.candidates_skipped, b.candidates_skipped);
}

synth::SyntheticCollection MakeCollection() {
  Rng rng(23);
  synth::SynthOptions sopts;
  sopts.num_schemas = 30;
  return synth::GenerateProblem(4, sopts, &rng).value();
}

/// How the engine gets its costs.
enum class Path { kDense, kLazy, kFixed, kAdaptive };

std::string PathName(Path path) {
  switch (path) {
    case Path::kDense: return "dense";
    case Path::kLazy: return "lazy";
    case Path::kFixed: return "fixed-C4";
    case Path::kAdaptive: return "adaptive-0.9";
  }
  return "?";
}

TEST(ShardRangeTest, ShardLayoutNeverChangesAnswersOrCounters) {
  const synth::SyntheticCollection collection = MakeCollection();
  const schema::SchemaRepository& repo = collection.repository;
  match::MatchOptions mopts;
  mopts.delta_threshold = 0.25;
  auto prepared =
      index::PreparedRepository::Build(repo, mopts.objective.name).value();

  match::ExhaustiveMatcher exhaustive;
  match::TopKMatcher topk(match::TopKMatcherOptions{10, 100000});
  match::BeamMatcher beam(match::BeamMatcherOptions{6});
  for (const match::Matcher* matcher :
       {static_cast<const match::Matcher*>(&exhaustive),
        static_cast<const match::Matcher*>(&topk),
        static_cast<const match::Matcher*>(&beam)}) {
    for (Path path : {Path::kDense, Path::kLazy, Path::kFixed,
                      Path::kAdaptive}) {
      std::optional<match::AnswerSet> reference;
      BatchMatchStats reference_stats;
      for (size_t shard_size :
           {size_t{1}, size_t{7}, size_t{0}, repo.schema_count()}) {
        for (size_t threads : {1u, 4u}) {
          SCOPED_TRACE(matcher->name() + " path=" + PathName(path) +
                       " shard_size=" + std::to_string(shard_size) +
                       " threads=" + std::to_string(threads));
          BatchMatchOptions bopts;
          bopts.num_threads = threads;
          bopts.shard_size = shard_size;
          bopts.share_similarity_matrices = path != Path::kLazy;
          bopts.prepared_repository = &prepared;
          if (path == Path::kFixed) bopts.candidate_limit = 4;
          if (path == Path::kAdaptive) {
            bopts.adaptive = index::AdaptiveCandidatePolicy{};
            bopts.adaptive->min_provable_completeness = 0.9;
          }
          BatchMatchStats stats;
          auto answers = BatchMatchEngine(bopts).Run(
              *matcher, collection.query, repo, mopts, &stats);
          ASSERT_TRUE(answers.ok()) << answers.status();
          if (shard_size == 1) {
            EXPECT_EQ(stats.shard_count, repo.schema_count());
          }
          // Every shard's candidate count adds up to the run's total.
          EXPECT_EQ(std::accumulate(stats.shard_candidates_generated.begin(),
                                    stats.shard_candidates_generated.end(),
                                    uint64_t{0}),
                    stats.match.candidates_generated);
          EXPECT_EQ(stats.shard_candidates_generated.size(),
                    path == Path::kFixed || path == Path::kAdaptive
                        ? stats.shard_count
                        : 0u);
          if (!reference) {
            reference = std::move(answers).value();
            reference_stats = stats;
            continue;
          }
          ExpectSameAnswers(*answers, *reference);
          ExpectSameMatchStats(stats.match, reference_stats.match);
          EXPECT_EQ(stats.provably_complete_fraction,
                    reference_stats.provably_complete_fraction);
        }
      }
      if (path == Path::kDense || path == Path::kLazy) {
        // Dense runs equal one unsharded single-thread Match, counters too.
        match::MatchStats direct_stats;
        auto direct =
            matcher->Match(collection.query, repo, mopts, &direct_stats);
        ASSERT_TRUE(direct.ok()) << direct.status();
        SCOPED_TRACE(matcher->name() + " path=" + PathName(path) + " direct");
        ExpectSameAnswers(*reference, *direct);
        ExpectSameMatchStats(reference_stats.match, direct_stats);
      }
    }
  }
}

TEST(ShardRangeTest, RangeRunReturnsThatSliceOfTheWholeRun) {
  const synth::SyntheticCollection collection = MakeCollection();
  const schema::SchemaRepository& repo = collection.repository;
  match::MatchOptions mopts;
  mopts.delta_threshold = 0.3;
  match::ExhaustiveMatcher matcher;
  auto whole = matcher.Match(collection.query, repo, mopts);
  ASSERT_TRUE(whole.ok()) << whole.status();

  mopts.schemas = {5, 17};
  auto slice = matcher.Match(collection.query, repo, mopts);
  ASSERT_TRUE(slice.ok()) << slice.status();
  match::AnswerSet expected;
  for (const match::Mapping& m : whole->mappings()) {
    if (m.schema_index >= 5 && m.schema_index < 17) expected.Add(m);
  }
  expected.Finalize();
  ASSERT_FALSE(expected.empty());
  ExpectSameAnswers(*slice, expected);

  // An empty range is valid and finds nothing.
  mopts.schemas = {9, 9};
  auto empty = matcher.Match(collection.query, repo, mopts);
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_TRUE(empty->empty());
}

TEST(ShardRangeTest, OutOfBoundsRangeIsInvalidArgument) {
  schema::Schema query = testing::MakeQuery();
  schema::SchemaRepository repo = testing::MakeRepo();  // 3 schemas
  match::ExhaustiveMatcher exhaustive;
  match::TopKMatcher topk(match::TopKMatcherOptions{5, 0});
  match::BeamMatcher beam(match::BeamMatcherOptions{4});
  for (const match::Matcher* matcher :
       {static_cast<const match::Matcher*>(&exhaustive),
        static_cast<const match::Matcher*>(&topk),
        static_cast<const match::Matcher*>(&beam)}) {
    for (match::SchemaRange range :
         {match::SchemaRange{0, 4}, match::SchemaRange{2, 1},
          match::SchemaRange{4, match::SchemaRange::kRepositoryEnd}}) {
      SCOPED_TRACE(matcher->name() + " [" + std::to_string(range.begin) +
                   ", " + std::to_string(range.end) + ")");
      match::MatchOptions mopts;
      mopts.schemas = range;
      auto answers = matcher->Match(query, repo, mopts);
      ASSERT_FALSE(answers.ok());
      EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(ShardRangeTest, ClusterMatcherRejectsARange) {
  schema::Schema query = testing::MakeQuery();
  schema::SchemaRepository repo = testing::MakeRepo();
  Rng rng(2006);
  match::ClusterMatcherOptions copts;
  auto matcher = match::ClusterMatcher::Create(repo, copts, &rng);
  ASSERT_TRUE(matcher.ok()) << matcher.status();
  match::MatchOptions mopts;
  ASSERT_TRUE(matcher->Match(query, repo, mopts).ok());
  mopts.schemas = {0, 1};
  auto answers = matcher->Match(query, repo, mopts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardRangeTest, EngineRejectsARangeOnEntry) {
  schema::Schema query = testing::MakeQuery();
  schema::SchemaRepository repo = testing::MakeRepo();
  match::MatchOptions mopts;
  mopts.schemas = {0, 2};
  match::ExhaustiveMatcher matcher;
  BatchMatchStats stats;
  stats.shard_count = 99;
  auto answers = BatchMatchEngine().Run(matcher, query, repo, mopts, &stats);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(stats.shard_count, 0u);
}

}  // namespace
}  // namespace smb::engine
