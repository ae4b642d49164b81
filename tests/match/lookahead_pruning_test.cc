// Differential test of the exhaustive matcher's branch-and-bound: the
// pruned search (prefix test, lookahead bound, schema skip, sorted-list
// cut) must return exactly what the unpruned oracle returns — the same
// mappings in the same order with the same Δ bits — for every cost source
// the matcher reads: the lazy cache, a shared similarity pool, fixed-C
// candidate lists and bound-driven (adaptive) candidate lists.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "engine/similarity_matrix_pool.h"
#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "match/exhaustive_matcher.h"
#include "sim/synonyms.h"
#include "synth/generator.h"

namespace smb::match {
namespace {

void ExpectIdentical(const AnswerSet& pruned, const AnswerSet& oracle) {
  ASSERT_EQ(pruned.size(), oracle.size());
  for (size_t i = 0; i < pruned.size(); ++i) {
    const Mapping& a = pruned.mappings()[i];
    const Mapping& b = oracle.mappings()[i];
    EXPECT_EQ(a.schema_index, b.schema_index) << "rank " << i;
    EXPECT_EQ(a.targets, b.targets) << "rank " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(a.delta), std::bit_cast<uint64_t>(b.delta))
        << "rank " << i << ": " << a.delta << " vs " << b.delta;
  }
}

/// Runs the pruned matcher and the unpruned oracle on the same inputs and
/// returns the pruned answers after checking the two agree.
AnswerSet ExpectPrunedMatchesOracle(const schema::Schema& query,
                                    const schema::SchemaRepository& repo,
                                    const MatchOptions& options) {
  MatchStats pruned_stats;
  MatchStats oracle_stats;
  auto pruned = ExhaustiveMatcher().Match(query, repo, options, &pruned_stats);
  auto oracle = ExhaustiveMatcher(ExhaustiveMatcherOptions{false})
                    .Match(query, repo, options, &oracle_stats);
  EXPECT_TRUE(pruned.ok()) << pruned.status();
  EXPECT_TRUE(oracle.ok()) << oracle.status();
  if (!pruned.ok() || !oracle.ok()) return {};
  ExpectIdentical(*pruned, *oracle);
  EXPECT_EQ(pruned_stats.mappings_emitted, pruned->size());
  EXPECT_LE(pruned_stats.states_explored, oracle_stats.states_explored);
  return std::move(pruned).value();
}

const sim::SynonymTable& Synonyms() {
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  return kTable;
}

/// Where the matcher's node costs come from.
enum class Source { kLazy, kPool, kFixed, kAdaptive90, kAdaptive100 };

std::string SourceName(Source source) {
  switch (source) {
    case Source::kLazy: return "lazy";
    case Source::kPool: return "pool";
    case Source::kFixed: return "fixed-C4";
    case Source::kAdaptive90: return "adaptive-0.9";
    case Source::kAdaptive100: return "adaptive-1.0";
  }
  return "?";
}

/// One synthetic problem with every query-level cost source prebuilt
/// except the adaptive lists, which depend on Δ.
struct Problem {
  schema::Schema query;
  schema::SchemaRepository repo;
  ObjectiveOptions objective;
  std::optional<engine::SimilarityMatrixPool> pool;
  std::optional<index::PreparedRepository> prepared;
  std::optional<index::QueryCandidates> fixed;

  Problem(schema::Schema q, schema::SchemaRepository r)
      : query(std::move(q)), repo(std::move(r)) {
    objective.name.synonyms = &Synonyms();
    pool.emplace(
        engine::SimilarityMatrixPool::Build(query, repo, objective).value());
    prepared.emplace(
        index::PreparedRepository::Build(repo, objective.name).value());
    fixed.emplace(index::CandidateGenerator(&*prepared, objective)
                      .Generate(query, 4)
                      .value());
  }

  /// Options reading `source`; adaptive lists are generated into `holder`.
  MatchOptions OptionsFor(Source source, double delta, bool injective,
                          std::optional<index::QueryCandidates>* holder) const {
    MatchOptions options;
    options.delta_threshold = delta;
    options.injective = injective;
    options.objective = objective;
    switch (source) {
      case Source::kLazy:
        break;
      case Source::kPool:
        options.shared_costs = &*pool;
        break;
      case Source::kFixed:
        options.candidates = &*fixed;
        break;
      case Source::kAdaptive90:
      case Source::kAdaptive100: {
        index::AdaptiveCandidatePolicy policy;
        policy.min_provable_completeness =
            source == Source::kAdaptive90 ? 0.9 : 1.0;
        holder->emplace(index::CandidateGenerator(&*prepared, objective)
                            .GenerateAdaptive(query, policy, delta)
                            .value());
        options.candidates = &**holder;
        break;
      }
    }
    return options;
  }
};

Problem MakeProblem(uint64_t seed, size_t query_elements, size_t schemas) {
  Rng rng(seed);
  synth::SynthOptions sopts;
  sopts.num_schemas = schemas;
  // Small hosts keep the oracle cheap; most of them get a plant.
  sopts.min_schema_elements = 6;
  sopts.max_schema_elements = 10;
  sopts.plant_probability = 0.8;
  synth::SyntheticCollection collection =
      synth::GenerateProblem(query_elements, sopts, &rng).value();
  return Problem(std::move(collection.query),
                 std::move(collection.repository));
}

constexpr Source kSources[] = {Source::kLazy, Source::kPool, Source::kFixed,
                               Source::kAdaptive90, Source::kAdaptive100};

TEST(LookaheadPruningTest, MatchesUnprunedOracleOnEverySourceAndThreshold) {
  struct Shape {
    uint64_t seed;
    size_t query_elements;
    size_t schemas;
  };
  // The oracle visits |schema|^m states per schema, so the 4-element
  // query gets a smaller repository.
  for (const Shape& shape :
       {Shape{1, 3, 16}, Shape{2, 4, 5}, Shape{3, 3, 16}}) {
    const uint64_t seed = shape.seed;
    const Problem problem =
        MakeProblem(seed, shape.query_elements, shape.schemas);
    for (double delta : {0.02, 0.1, 0.25, 0.4}) {
      for (bool injective : {true, false}) {
        for (Source source : kSources) {
          SCOPED_TRACE("seed=" + std::to_string(seed) +
                       " delta=" + std::to_string(delta) +
                       " injective=" + std::to_string(injective) +
                       " source=" + SourceName(source));
          std::optional<index::QueryCandidates> adaptive;
          ExpectPrunedMatchesOracle(
              problem.query, problem.repo,
              problem.OptionsFor(source, delta, injective, &adaptive));
        }
      }
    }
  }
}

TEST(LookaheadPruningTest, AnswerExactlyOnTheThresholdIsKept) {
  // Serving at Δ equal to an answer's own Δ puts that answer's cost right
  // on the budget, where a bound summed in another order must not cut it.
  const Problem problem = MakeProblem(5, 3, 12);
  std::optional<index::QueryCandidates> unused;
  auto wide = ExhaustiveMatcher().Match(
      problem.query, problem.repo,
      problem.OptionsFor(Source::kPool, 0.4, true, &unused));
  ASSERT_TRUE(wide.ok()) << wide.status();
  ASSERT_GE(wide->size(), 3u);
  for (size_t rank : {size_t{0}, wide->size() / 2, wide->size() - 1}) {
    const double delta = wide->mappings()[rank].delta;
    for (Source source : kSources) {
      SCOPED_TRACE("rank=" + std::to_string(rank) +
                   " source=" + SourceName(source));
      std::optional<index::QueryCandidates> adaptive;
      AnswerSet answers = ExpectPrunedMatchesOracle(
          problem.query, problem.repo,
          problem.OptionsFor(source, delta, true, &adaptive));
      if (source == Source::kLazy || source == Source::kPool ||
          source == Source::kAdaptive100) {
        // Complete cost sources: the boundary answer itself is returned.
        ASSERT_GT(answers.size(), 0u);
        EXPECT_EQ(answers.mappings().back().delta, delta);
      }
    }
  }
}

TEST(LookaheadPruningTest, SingleElementQuery) {
  // m = 1: the lookahead past the only position is 0 and the schema skip
  // is the whole test.
  Problem base = MakeProblem(7, 3, 12);
  schema::Schema query("one");
  query.AddRoot(base.query.node(base.query.PreOrder()[0]).name).value();
  const Problem problem(std::move(query), std::move(base.repo));
  for (double delta : {0.02, 0.1, 0.25, 0.4}) {
    for (Source source : kSources) {
      SCOPED_TRACE("delta=" + std::to_string(delta) +
                   " source=" + SourceName(source));
      std::optional<index::QueryCandidates> adaptive;
      ExpectPrunedMatchesOracle(
          problem.query, problem.repo,
          problem.OptionsFor(source, delta, true, &adaptive));
    }
  }
}

/// Candidate lists of `base` with one cell emptied.
class EmptiedCell : public CandidateProvider {
 public:
  EmptiedCell(const CandidateProvider* base, size_t pos, int32_t schema)
      : base_(base), pos_(pos), schema_(schema) {}

  const std::vector<CandidateEntry>* CandidatesFor(
      size_t pos, int32_t schema_index) const override {
    if (pos == pos_ && schema_index == schema_) return &empty_;
    return base_->CandidatesFor(pos, schema_index);
  }
  double SkipLowerBound(size_t pos, int32_t schema_index) const override {
    return base_->SkipLowerBound(pos, schema_index);
  }

 private:
  const CandidateProvider* base_;
  size_t pos_;
  int32_t schema_;
  std::vector<CandidateEntry> empty_;
};

TEST(LookaheadPruningTest, EmptyCandidateCellDropsOnlyItsSchema) {
  const Problem problem = MakeProblem(11, 3, 10);
  std::optional<index::QueryCandidates> unused;
  MatchOptions options = problem.OptionsFor(Source::kFixed, 0.4, true, &unused);
  AnswerSet full = ExpectPrunedMatchesOracle(problem.query, problem.repo,
                                             options);
  ASSERT_FALSE(full.empty());
  const int32_t emptied = full.mappings().front().schema_index;
  // Empty the last position's cell, so the schema fails only after the
  // earlier positions would have been explored.
  EmptiedCell provider(options.candidates, problem.query.size() - 1, emptied);
  options.candidates = &provider;
  AnswerSet answers = ExpectPrunedMatchesOracle(problem.query, problem.repo,
                                                options);
  size_t expected = 0;
  for (const Mapping& m : full.mappings()) {
    if (m.schema_index != emptied) ++expected;
  }
  EXPECT_EQ(answers.size(), expected);
  for (const Mapping& m : answers.mappings()) {
    EXPECT_NE(m.schema_index, emptied);
  }
}

}  // namespace
}  // namespace smb::match
