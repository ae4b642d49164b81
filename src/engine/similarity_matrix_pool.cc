#include "engine/similarity_matrix_pool.h"

#include <algorithm>

#include "common/parallel_for.h"
#include "sim/prepared_kernel.h"

/// \file similarity_matrix_pool.cc
/// \brief Dense query-by-schema cost matrices, precomputed once on a
/// worker pool and shared read-only by every matcher thread.

namespace smb::engine {

Result<SimilarityMatrixPool> SimilarityMatrixPool::Build(
    const schema::Schema& query, const schema::SchemaRepository& repo,
    const match::ObjectiveOptions& options, size_t num_threads) {
  if (query.empty()) {
    return Status::InvalidArgument(
        "similarity pool needs a non-empty query schema");
  }
  SMB_RETURN_IF_ERROR(query.Validate());

  SimilarityMatrixPool pool;
  const std::vector<schema::NodeId> preorder = query.PreOrder();
  pool.positions_ = preorder.size();
  pool.matrices_.resize(repo.schema_count());
  pool.schema_sizes_.resize(repo.schema_count());

  num_threads = std::max<size_t>(
      1, std::min(ResolveThreadCount(num_threads), repo.schema_count()));

  // Workers claim whole schemas off a shared counter; each matrix is
  // written by exactly one thread, so no locking is needed. Every worker
  // folds/tokenizes/kernel-compiles the query once against its own token
  // interner (ids only need to be consistent *within* a worker — the
  // scores they produce are id-independent), then fills each row through
  // one batched `ScoreMany` call so the query-side state (weights, PEQ
  // bitmask table) loads once per row and the row runs through the
  // SoA/SIMD pipeline. Values are bit-identical to
  // `match::ComputeNodeCost` — the kernel is the same scorer.
  struct Scratch {
    sim::TokenTable interner;
    std::vector<sim::PreparedName> query, target;
    std::vector<const sim::PreparedName*> target_ptrs;
    std::vector<sim::CutoffScore> row;
  };
  std::vector<Scratch> scratch(num_threads);
  ParallelFor(repo.schema_count(), num_threads, [&](size_t si, size_t w) {
    Scratch& x = scratch[w];
    if (x.query.empty()) {  // the worker's first schema
      for (schema::NodeId id : preorder) {
        x.query.push_back(
            sim::PrepareName(query.node(id).name, options.name, &x.interner));
      }
    }
    const schema::Schema& s = repo.schema(static_cast<int32_t>(si));
    std::vector<double>& matrix = pool.matrices_[si];
    pool.schema_sizes_[si] = s.size();
    matrix.resize(preorder.size() * s.size());
    x.target.clear();
    x.target.reserve(s.size());
    for (size_t node = 0; node < s.size(); ++node) {
      x.target.push_back(
          sim::PrepareName(s.node(static_cast<schema::NodeId>(node)).name,
                           options.name, &x.interner));
    }
    x.target_ptrs.clear();
    for (const sim::PreparedName& t : x.target) x.target_ptrs.push_back(&t);
    x.row.resize(s.size());
    for (size_t pos = 0; pos < preorder.size(); ++pos) {
      const schema::SchemaNode& q = query.node(preorder[pos]);
      sim::BlockScorer scorer(x.query[pos], options.name);
      scorer.ScoreMany(x.target_ptrs, /*min_score=*/0.0, x.row.data());
      for (size_t node = 0; node < s.size(); ++node) {
        matrix[pos * s.size() + node] = match::ApplyTypePenalty(
            1.0 - x.row[node].score, q,
            s.node(static_cast<schema::NodeId>(node)), options);
      }
    }
  });

  pool.stats_.schema_count = repo.schema_count();
  pool.stats_.threads_used = num_threads;
  for (const auto& matrix : pool.matrices_) {
    pool.stats_.total_entries += matrix.size();
  }
  return pool;
}

}  // namespace smb::engine
