#include <optional>

#include <gtest/gtest.h>

#include "engine/query_cache.h"
#include "serve/match_service.h"

/// \file service_assembly_test.cc
/// \brief `MakeMatchServiceConfig`, the one settings-to-service assembly
/// every front end runs: what it derives in the fixed-budget and the
/// bound-driven mode, the shed-floor default, and the envelopes it
/// rejects.

namespace smb::serve {
namespace {

engine::BatchMatchOptions EngineOptions(size_t threads, size_t top_k,
                                        size_t candidates) {
  engine::BatchMatchOptions options;
  options.num_threads = threads;
  options.global_top_k = top_k;
  options.candidate_limit = candidates;
  return options;
}

index::AdaptiveCandidatePolicy Policy(double target) {
  index::AdaptiveCandidatePolicy policy;
  policy.min_provable_completeness = target;
  policy.initial_limit = 8;
  return policy;
}

TEST(ServiceAssemblyTest, FixedModeKeepsTheBudgetAndNeverSheds) {
  engine::QueryResultCache cache(8);
  match::MatcherFactoryOptions factory;
  factory.beam_width = 3;
  auto config = MakeMatchServiceConfig(
      0.2, "beam", factory, EngineOptions(3, 5, 12), std::nullopt, &cache,
      "/repo");
  ASSERT_TRUE(config.ok()) << config.status();

  EXPECT_EQ(config->match_options.delta_threshold, 0.2);
  ASSERT_NE(config->match_options.objective.name.synonyms, nullptr);
  EXPECT_EQ(config->match_options.objective.name.synonyms,
            ServingMatchOptions(0.25).objective.name.synonyms)
      << "every front end shares the one builtin synonym table";
  EXPECT_EQ(config->engine_options.candidate_limit, 12u);
  EXPECT_EQ(config->engine_options.num_threads, 3u);
  EXPECT_EQ(config->engine_options.global_top_k, 5u);
  EXPECT_FALSE(config->engine_options.adaptive.has_value());
  EXPECT_EQ(config->shed.base_target, 1.0);
  EXPECT_EQ(config->shed.min_target, 1.0);
  EXPECT_EQ(config->cache, &cache);
  EXPECT_EQ(config->default_repo_dir, "/repo");

  // The index is opened with the scorer options the queries match with.
  const ServingIndexOptions& index = config->index_options;
  EXPECT_EQ(index.matcher_kind, "beam");
  EXPECT_EQ(index.factory_options.beam_width, 3u);
  EXPECT_EQ(index.name_options.synonyms,
            config->match_options.objective.name.synonyms);
  EXPECT_EQ(index.num_threads, 3u);
  EXPECT_TRUE(index.build_if_missing);
  EXPECT_TRUE(index.save_after_build);
}

TEST(ServiceAssemblyTest, BoundDrivenModeDerivesBudgetAndShedEnvelope) {
  engine::QueryResultCache cache(8);
  engine::BatchMatchOptions engine = EngineOptions(1, 0, 16);
  engine.adaptive = Policy(0.9);
  auto config = MakeMatchServiceConfig(0.25, "exhaustive", {}, engine,
                                       std::nullopt, &cache, "");
  ASSERT_TRUE(config.ok()) << config.status();

  // The policy owns the budget; the fixed C is dropped so it cannot leak
  // into the cache key.
  EXPECT_EQ(config->engine_options.candidate_limit, 0u);
  ASSERT_TRUE(config->engine_options.adaptive.has_value());
  EXPECT_EQ(config->engine_options.adaptive->min_provable_completeness, 0.9);
  EXPECT_EQ(config->engine_options.adaptive->initial_limit, 8u);
  EXPECT_EQ(config->shed.base_target, 0.9);
  EXPECT_EQ(config->shed.min_target, 0.9)
      << "without a floor the target is the floor: no shedding";

  auto shedding = MakeMatchServiceConfig(0.25, "exhaustive", {}, engine,
                                         0.5, &cache, "");
  ASSERT_TRUE(shedding.ok()) << shedding.status();
  EXPECT_EQ(shedding->shed.base_target, 0.9);
  EXPECT_EQ(shedding->shed.min_target, 0.5);
}

TEST(ServiceAssemblyTest, RejectsAFloorInFixedMode) {
  engine::QueryResultCache cache(8);
  auto config = MakeMatchServiceConfig(0.25, "exhaustive", {},
                                       EngineOptions(1, 0, 16), 0.5, &cache,
                                       "");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
}

TEST(ServiceAssemblyTest, RejectsAFloorAboveTheTarget) {
  engine::QueryResultCache cache(8);
  engine::BatchMatchOptions engine = EngineOptions(1, 0, 0);
  engine.adaptive = Policy(0.8);
  auto config = MakeMatchServiceConfig(0.25, "exhaustive", {}, engine, 0.95,
                                       &cache, "");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);

  // So is a target outside (0, 1].
  engine.adaptive = Policy(1.5);
  EXPECT_FALSE(MakeMatchServiceConfig(0.25, "exhaustive", {}, engine,
                                      std::nullopt, &cache, "")
                   .ok());
}

}  // namespace
}  // namespace smb::serve
