#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "engine/query_cache.h"
#include "index/snapshot.h"
#include "io/binary_io.h"
#include "io/csv.h"
#include "schema/text_format.h"
#include "schema/xsd_reader.h"
#include "schema/xsd_writer.h"
#include "serve/match_service.h"
#include "serve/serving_index.h"
#include "../testing/fixtures.h"

/// \file reload_test.cc
/// \brief Hot reload of the serving index: generation numbering, atomic
/// swap semantics, cache invalidation across generations, and rejection
/// of corrupt or mismatched snapshots with the old generation intact.

namespace smb::serve {
namespace {

namespace fs = std::filesystem;
using smb::testing::MakeDistractor;
using smb::testing::MakeHostWithExactCopy;
using smb::testing::MakeHostWithSynonymCopy;
using smb::testing::MakeQuery;

/// A serve setup over an on-disk repository directory, the way the CLI
/// wires it: OpenServingIndex -> MatchService, snapshots on disk.
class ReloadFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("reload_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_ / "repo");
    WriteSchema("schema-exact.xsd", MakeHostWithExactCopy());
    WriteSchema("schema-synonym.xsd", MakeHostWithSynonymCopy());
    repo_dir_ = (dir_ / "repo").string();
    snapshot_path_ = (dir_ / "index.snap").string();

    query_path_ = (dir_ / "query.txt").string();
    ASSERT_TRUE(io::WriteTextFile(query_path_,
                                  schema::WriteSchemaText(MakeQuery()))
                    .ok());

    cache_ = std::make_unique<engine::QueryResultCache>(16);
    ServingIndexOptions index_options;
    index_options.save_after_build = true;
    auto index = OpenServingIndex(repo_dir_, snapshot_path_, index_options,
                                  /*generation=*/1);
    ASSERT_TRUE(index.ok()) << index.status();

    MatchServiceConfig config;
    config.engine_options.num_threads = 1;
    config.cache = cache_.get();
    config.index_options = index_options;
    config.default_repo_dir = repo_dir_;
    service_ = std::make_unique<MatchService>(*index, std::move(config));
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void WriteSchema(const std::string& file, const schema::Schema& schema) {
    ASSERT_TRUE(io::WriteTextFile((dir_ / "repo" / file).string(),
                                  schema::WriteXsd(schema))
                    .ok());
  }

  Result<MatchResponse> Match() {
    Request request;
    request.query_path = query_path_;
    return service_->Execute(request, /*pressure=*/0.0);
  }

  fs::path dir_;
  std::string repo_dir_;
  std::string snapshot_path_;
  std::string query_path_;
  std::unique_ptr<engine::QueryResultCache> cache_;
  std::unique_ptr<MatchService> service_;
};

TEST_F(ReloadFixture, StartupBuildsGenerationOneAndPersistsTheSnapshot) {
  EXPECT_EQ(service_->index()->generation, 1u);
  EXPECT_EQ(service_->index()->source, "built");
  EXPECT_TRUE(fs::exists(snapshot_path_)) << "save_after_build";
  auto response = Match();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_GT(response->answers, 0u);
}

TEST_F(ReloadFixture, ReloadSameSnapshotBumpsTheGenerationIdentically) {
  auto before = Match();
  ASSERT_TRUE(before.ok()) << before.status();

  auto swapped = service_->Reload(snapshot_path_, /*repo_dir=*/"");
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ((*swapped)->generation, 2u);
  EXPECT_EQ((*swapped)->source, "snapshot");
  EXPECT_EQ(service_->index().get(), swapped->get());

  // Same repository, same snapshot: identical answers (computed fresh —
  // see the cache test below for the key change).
  auto after = Match();
  ASSERT_TRUE(after.ok()) << after.status();
  EXPECT_EQ(after->answers, before->answers);
  EXPECT_DOUBLE_EQ(after->certified, before->certified);
}

TEST_F(ReloadFixture, CacheEntriesDoNotLeakAcrossGenerations) {
  ASSERT_TRUE(Match().ok());
  auto hit = Match();
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->cache_hit) << "same generation: cache hit expected";

  // Same repository fingerprint after reload -> the cache key matches and
  // the entry is still valid (answers are a pure function of repo +
  // options).
  ASSERT_TRUE(service_->Reload(snapshot_path_, "").ok());
  auto same_repo = Match();
  ASSERT_TRUE(same_repo.ok());
  EXPECT_TRUE(same_repo->cache_hit)
      << "identical repository fingerprint must keep the cache valid";

  // Change the repository on disk, rebuild the snapshot against it, and
  // reload: the fingerprint changes, so the old entry must NOT replay.
  WriteSchema("schema-distractor.xsd", MakeDistractor("host-distractor"));
  {
    auto rebuilt = schema::LoadRepositoryDir(repo_dir_);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();
    auto prepared = index::PreparedRepository::Build(
        *rebuilt, sim::NameSimilarityOptions{});
    ASSERT_TRUE(prepared.ok()) << prepared.status();
    ASSERT_TRUE(index::SaveSnapshot(*prepared, snapshot_path_).ok());
  }
  auto swapped = service_->Reload(snapshot_path_, "");
  ASSERT_TRUE(swapped.ok()) << swapped.status();
  EXPECT_EQ((*swapped)->repo.schema_count(), 3u);
  auto new_gen = Match();
  ASSERT_TRUE(new_gen.ok()) << new_gen.status();
  EXPECT_FALSE(new_gen->cache_hit)
      << "a different repository fingerprint must miss the cache";
}

TEST_F(ReloadFixture, CorruptSnapshotIsRejectedAndTheOldIndexKeepsServing) {
  const auto generation_before = service_->index()->generation;
  // Corrupt both the primary and any backup so no fallback can save it.
  ASSERT_TRUE(io::WriteBinaryFile(snapshot_path_, "garbage").ok());
  fs::remove(snapshot_path_ + ".bak");

  auto swapped = service_->Reload(snapshot_path_, "");
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(service_->index()->generation, generation_before)
      << "a failed reload must not advance the generation";
  auto response = Match();
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_GT(response->answers, 0u);
}

TEST_F(ReloadFixture, CorruptSnapshotAtStartupIsAnErrorNotARebuild) {
  // A startup open may build a *missing* snapshot, but one that exists and
  // fails to load (here: one flipped body byte, no backup) is a hard
  // error — never a silent rebuild over the operator's file.
  auto bytes = io::ReadBinaryFile(snapshot_path_);
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  ASSERT_GT(bytes->size(), 100u);
  (*bytes)[100] ^= 0x7F;
  ASSERT_TRUE(io::WriteBinaryFile(snapshot_path_, *bytes).ok());
  fs::remove(snapshot_path_ + ".bak");

  ServingIndexOptions options;
  options.build_if_missing = true;
  options.save_after_build = true;
  auto opened = OpenServingIndex(repo_dir_, snapshot_path_, options,
                                 /*generation=*/1);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().code(), StatusCode::kNotFound) << opened.status();
  auto on_disk = io::ReadBinaryFile(snapshot_path_);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status();
  EXPECT_EQ(*on_disk, *bytes) << "the corrupt snapshot was overwritten";
}

TEST_F(ReloadFixture, MissingSnapshotIsAnErrorOnReloadNotARebuild) {
  fs::remove(snapshot_path_);
  fs::remove(snapshot_path_ + ".bak");
  auto swapped = service_->Reload(snapshot_path_, "");
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(swapped.status().code(), StatusCode::kNotFound)
      << swapped.status();
  EXPECT_EQ(service_->index()->generation, 1u);
}

TEST_F(ReloadFixture, MismatchedSnapshotIsRejected) {
  // A snapshot of a DIFFERENT repository: fingerprints cannot match the
  // freshly re-read directory.
  schema::SchemaRepository other;
  ASSERT_TRUE(other.Add(MakeDistractor("lonely")).ok());
  auto prepared =
      index::PreparedRepository::Build(other, sim::NameSimilarityOptions{});
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(index::SaveSnapshot(*prepared, snapshot_path_).ok());
  fs::remove(snapshot_path_ + ".bak");

  auto swapped = service_->Reload(snapshot_path_, "");
  ASSERT_FALSE(swapped.ok());
  EXPECT_EQ(service_->index()->generation, 1u);
  EXPECT_TRUE(Match().ok());
}

TEST_F(ReloadFixture, ReloadedAnswersMatchAFreshProcessByteForByte) {
  ASSERT_TRUE(service_->Reload(snapshot_path_, "").ok());
  const std::string reloaded_out = (dir_ / "reloaded.csv").string();
  Request request;
  request.query_path = query_path_;
  request.out_path = reloaded_out;
  ASSERT_TRUE(service_->Execute(request, 0.0).ok());

  // A from-scratch open of the same snapshot (what a restarted process
  // would serve) must write identical answer bytes.
  engine::QueryResultCache fresh_cache(16);
  auto fresh_index = OpenServingIndex(repo_dir_, snapshot_path_,
                                      ServingIndexOptions{}, 1);
  ASSERT_TRUE(fresh_index.ok()) << fresh_index.status();
  MatchServiceConfig config;
  config.engine_options.num_threads = 1;
  config.cache = &fresh_cache;
  MatchService fresh(*fresh_index, std::move(config));
  const std::string fresh_out = (dir_ / "fresh.csv").string();
  request.out_path = fresh_out;
  ASSERT_TRUE(fresh.Execute(request, 0.0).ok());

  auto reloaded_csv = io::ReadTextFile(reloaded_out);
  auto fresh_csv = io::ReadTextFile(fresh_out);
  ASSERT_TRUE(reloaded_csv.ok() && fresh_csv.ok());
  EXPECT_EQ(*reloaded_csv, *fresh_csv);
}

TEST_F(ReloadFixture, InFlightGenerationSurvivesASwap) {
  // Pin the old generation the way Execute does, reload, then verify the
  // pinned pointer still matches against a coherent repository.
  std::shared_ptr<const ServingIndex> pinned = service_->index();
  ASSERT_TRUE(service_->Reload(snapshot_path_, "").ok());
  EXPECT_NE(service_->index().get(), pinned.get());
  EXPECT_EQ(pinned->generation, 1u);
  EXPECT_EQ(pinned->repo.schema_count(), 2u);
  ASSERT_TRUE(pinned->prepared.has_value());
  EXPECT_NE(pinned->matcher, nullptr);
}

}  // namespace
}  // namespace smb::serve
