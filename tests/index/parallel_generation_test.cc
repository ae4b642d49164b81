#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "index/candidate_generator.h"
#include "index/prepared_repository.h"
#include "synth/generator.h"

/// Differential test of multi-threaded candidate generation: every thread
/// count must write exactly what the one-thread run writes — every cell's
/// entries (node, cost bit-for-bit) and skip-bound (bit-equal), and every
/// `AdaptiveGenerationStats` field — across seeds, completeness targets
/// (including ones whose stop point lands mid-round), caps, Δ thresholds
/// and both postings traversals.

namespace smb::index {
namespace {

struct Problem {
  schema::Schema query;
  schema::SchemaRepository repo;
  match::ObjectiveOptions objective;
};

Problem MakeProblem(uint64_t seed) {
  Rng rng(seed);
  synth::SynthOptions sopts;
  sopts.num_schemas = 60;
  auto collection = synth::GenerateProblem(5, sopts, &rng).value();
  Problem setup;
  setup.query = std::move(collection.query);
  setup.repo = std::move(collection.repository);
  static const sim::SynonymTable kTable = sim::SynonymTable::Builtin();
  setup.objective.name.synonyms = &kTable;
  return setup;
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

void ExpectSameCells(const QueryCandidates& got, const QueryCandidates& want,
                     const std::string& label) {
  ASSERT_EQ(got.positions(), want.positions()) << label;
  ASSERT_EQ(got.schema_count(), want.schema_count()) << label;
  EXPECT_EQ(got.limit(), want.limit()) << label;
  EXPECT_EQ(got.candidates_generated(), want.candidates_generated())
      << label;
  EXPECT_EQ(got.candidates_skipped(), want.candidates_skipped()) << label;
  for (size_t pos = 0; pos < want.positions(); ++pos) {
    for (size_t si = 0; si < want.schema_count(); ++si) {
      const auto s = static_cast<int32_t>(si);
      const std::string cell =
          label + " cell " + std::to_string(pos) + "/" + std::to_string(si);
      EXPECT_EQ(Bits(got.SkipLowerBound(pos, s)),
                Bits(want.SkipLowerBound(pos, s)))
          << cell;
      const auto& a = *got.CandidatesFor(pos, s);
      const auto& b = *want.CandidatesFor(pos, s);
      ASSERT_EQ(a.size(), b.size()) << cell;
      for (size_t i = 0; i < b.size(); ++i) {
        EXPECT_EQ(a[i].node, b[i].node) << cell << " entry " << i;
        EXPECT_EQ(Bits(a[i].cost), Bits(b[i].cost)) << cell << " entry " << i;
      }
    }
  }
}

void ExpectSameStats(const AdaptiveGenerationStats& got,
                     const AdaptiveGenerationStats& want,
                     const std::string& label) {
  EXPECT_EQ(got.rounds, want.rounds) << label;
  EXPECT_EQ(got.cells_total, want.cells_total) << label;
  EXPECT_EQ(got.cells_certified, want.cells_certified) << label;
  EXPECT_EQ(got.cells_escalated, want.cells_escalated) << label;
  EXPECT_EQ(got.cells_at_cap, want.cells_at_cap) << label;
  EXPECT_EQ(got.budget_spent, want.budget_spent) << label;
  EXPECT_EQ(Bits(got.achieved_completeness),
            Bits(want.achieved_completeness))
      << label;
  EXPECT_EQ(got.final_limit_distribution, want.final_limit_distribution)
      << label;
}

/// True when the run stopped partway through its last escalation round:
/// some cell was still uncertified and growable at the last round's limit
/// but was never escalated in it. Before the last round every such cell
/// sits at initial·growth^(rounds−1); a round that runs to its end lifts
/// all of them.
bool StoppedMidRound(const QueryCandidates& cells,
                     const AdaptiveGenerationStats& stats,
                     const AdaptiveCandidatePolicy& policy, double delta,
                     const schema::SchemaRepository& repo) {
  if (stats.rounds == 0) return false;
  size_t last_round_limit = policy.initial_limit;
  for (size_t r = 1; r < stats.rounds; ++r) {
    last_round_limit *= policy.growth_factor;
  }
  for (size_t pos = 0; pos < cells.positions(); ++pos) {
    for (size_t si = 0; si < cells.schema_count(); ++si) {
      const auto s = static_cast<int32_t>(si);
      const size_t size = repo.schema(s).size();
      const size_t cap =
          policy.max_limit > 0 ? std::min(policy.max_limit, size) : size;
      const size_t listed = cells.CandidatesFor(pos, s)->size();
      if (!cells.CellProvablyComplete(pos, s, delta) && listed < cap &&
          listed == last_round_limit) {
        return true;
      }
    }
  }
  return false;
}

TEST(ParallelGenerationTest, AdaptiveMatchesOneThreadAcrossTheSweep) {
  size_t mid_round_stops = 0;
  size_t escalating_runs = 0;
  for (uint64_t seed : {3u, 17u, 29u}) {
    Problem setup = MakeProblem(seed);
    auto prepared = PreparedRepository::Build(setup.repo, setup.objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (bool block_max : {true, false}) {
      CandidateGenerator generator(&*prepared, setup.objective);
      generator.set_block_max_enabled(block_max);
      for (double target : {0.0, 0.5, 0.9, 1.0}) {
        for (size_t max_limit : {size_t{0}, size_t{8}}) {
          for (double delta : {0.02, 0.25}) {
            AdaptiveCandidatePolicy policy;
            policy.min_provable_completeness = target;
            policy.max_limit = max_limit;
            const std::string label =
                "seed " + std::to_string(seed) + " block_max " +
                std::to_string(block_max) + " target " +
                std::to_string(target) + " max_limit " +
                std::to_string(max_limit) + " delta " + std::to_string(delta);

            generator.set_num_threads(1);
            AdaptiveGenerationStats serial_stats;
            auto serial = generator.GenerateAdaptive(setup.query, policy,
                                                     delta, &serial_stats);
            ASSERT_TRUE(serial.ok()) << label << serial.status();
            if (serial_stats.rounds > 0) {
              ++escalating_runs;
              // Escalation certifies at most one cell per escalated cell
              // and stops at the first cell that meets the target, so a
              // met target is met by the fewest certified cells that can:
              // nothing was scored past the stop point.
              if (serial_stats.achieved_completeness + 1e-12 >= target) {
                const double total =
                    static_cast<double>(serial_stats.cells_total);
                EXPECT_LT(static_cast<double>(serial_stats.cells_certified -
                                              1) /
                                  total +
                              1e-12,
                          target)
                    << label;
              }
            }
            if (StoppedMidRound(*serial, serial_stats, policy, delta,
                                setup.repo)) {
              ++mid_round_stops;
            }
            for (size_t threads : {2u, 3u, 4u, 8u}) {
              generator.set_num_threads(threads);
              AdaptiveGenerationStats stats;
              auto parallel =
                  generator.GenerateAdaptive(setup.query, policy, delta,
                                             &stats);
              ASSERT_TRUE(parallel.ok()) << label << parallel.status();
              const std::string run =
                  label + " threads " + std::to_string(threads);
              ExpectSameCells(*parallel, *serial, run);
              ExpectSameStats(stats, serial_stats, run);
            }
          }
        }
      }
    }
  }
  // The sweep must exercise escalation and, in particular, runs whose
  // stop point falls inside a round — the case the ordered commit exists
  // for.
  EXPECT_GT(escalating_runs, 0u);
  EXPECT_GT(mid_round_stops, 0u);
}

TEST(ParallelGenerationTest, FixedLimitMatchesOneThread) {
  for (uint64_t seed : {5u, 23u}) {
    Problem setup = MakeProblem(seed);
    auto prepared = PreparedRepository::Build(setup.repo, setup.objective.name);
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    for (bool block_max : {true, false}) {
      CandidateGenerator generator(&*prepared, setup.objective);
      generator.set_block_max_enabled(block_max);
      for (size_t limit : {size_t{1}, size_t{4}, size_t{16}}) {
        const std::string label = "seed " + std::to_string(seed) +
                                  " block_max " + std::to_string(block_max) +
                                  " limit " + std::to_string(limit);
        generator.set_num_threads(1);
        auto serial = generator.Generate(setup.query, limit);
        ASSERT_TRUE(serial.ok()) << label << serial.status();
        for (size_t threads : {2u, 3u, 4u, 8u}) {
          generator.set_num_threads(threads);
          auto parallel = generator.Generate(setup.query, limit);
          ASSERT_TRUE(parallel.ok()) << label << parallel.status();
          ExpectSameCells(*parallel, *serial,
                          label + " threads " + std::to_string(threads));
        }
      }
    }
  }
}

}  // namespace
}  // namespace smb::index
