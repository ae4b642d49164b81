#include "match/exhaustive_matcher.h"

#include <algorithm>
#include <vector>

/// \file exhaustive_matcher.cc
/// \brief S1 implementation: exhaustive pairwise matching.

namespace smb::match {

Status Matcher::ValidateInputs(const schema::Schema& query,
                               const schema::SchemaRepository& repo,
                               const MatchOptions& options) {
  if (query.empty()) {
    return Status::InvalidArgument("query schema is empty");
  }
  if (query.size() > options.max_query_elements) {
    return Status::InvalidArgument(
        "query has " + std::to_string(query.size()) +
        " elements, above the configured maximum of " +
        std::to_string(options.max_query_elements) +
        " (the search space is exponential in the query size)");
  }
  if (repo.schema_count() == 0) {
    return Status::InvalidArgument("repository is empty");
  }
  if (options.delta_threshold < 0.0) {
    return Status::InvalidArgument("delta_threshold must be non-negative");
  }
  const SchemaRange& range = options.schemas;
  const size_t range_end = range.end_in(repo.schema_count());
  if (range.begin > range_end || range_end > repo.schema_count()) {
    return Status::InvalidArgument(
        "schema range [" + std::to_string(range.begin) + ", " +
        std::to_string(range_end) + ") is outside the repository of " +
        std::to_string(repo.schema_count()) + " schemas");
  }
  SMB_RETURN_IF_ERROR(query.Validate());
  return Status::OK();
}

namespace {

/// Slack (cost units) on the lookahead test: the bound sums per-position
/// minima in another order than the search accumulates costs, so rounding
/// must never turn an answer sitting exactly on the budget into a prune.
constexpr double kLookaheadSlack = 1e-9;

/// Depth-first enumeration of assignments within one repository schema at
/// a time — over the full node set, or over sparse candidate lists when a
/// `CandidateProvider` is attached to the objective. One instance serves
/// every schema of a run, reusing its buffers.
class SchemaEnumerator {
 public:
  SchemaEnumerator(const ObjectiveFunction& objective,
                   const MatchOptions& options, bool use_pruning,
                   AnswerSet* out, MatchStats* stats)
      : objective_(objective),
        options_(options),
        use_pruning_(use_pruning),
        out_(out),
        stats_(stats),
        positions_(objective.query_preorder().size()) {
    targets_.assign(positions_, schema::kInvalidNode);
    lists_.resize(positions_);
    rows_.resize(positions_);
    rest_.assign(positions_ + 1, 0.0);
    cost_budget_ = options_.delta_threshold * objective_.normalizer() + 1e-12;
    lookahead_budget_ = cost_budget_ + kLookaheadSlack;
  }

  void Run(int32_t schema_index) {
    schema_index_ = schema_index;
    const size_t schema_size = objective_.repo().schema(schema_index).size();
    // Each position reads a candidate list (sorted by cost) or, without
    // lists, a dense node-cost row. A position with an empty list makes the
    // whole schema infeasible — skip it without exploring.
    const CandidateProvider* provider = objective_.candidates();
    for (size_t pos = 0; pos < positions_; ++pos) {
      lists_[pos] = provider != nullptr
                        ? provider->CandidatesFor(pos, schema_index)
                        : nullptr;
      if (lists_[pos] != nullptr && lists_[pos]->empty()) return;
    }
    // Lookahead: rest_[p] = Σ_{q≥p} w_name · (cheapest node cost of q).
    // Rows are fetched in position order so a schema whose minima alone
    // exceed the budget is dropped before its later rows are computed.
    const double weight_name = objective_.options().weight_name;
    double minima = 0.0;
    for (size_t pos = 0; pos < positions_; ++pos) {
      double cheapest;
      if (lists_[pos] != nullptr) {
        cheapest = lists_[pos]->front().cost;
      } else {
        rows_[pos] = objective_.NodeCostRow(pos, schema_index);
        cheapest = *std::min_element(rows_[pos], rows_[pos] + schema_size);
      }
      rest_[pos] = weight_name * cheapest;
      minima += rest_[pos];
      if (use_pruning_ && minima > lookahead_budget_) return;
    }
    for (size_t pos = positions_; pos-- > 0;) rest_[pos] += rest_[pos + 1];
    used_.assign(schema_size, false);
    Recurse(0, 0.0);
  }

 private:
  /// One step of the recursion for a fixed target with a known cost.
  void Visit(size_t pos, double cost_so_far, schema::NodeId target,
             double assign_cost) {
    if (stats_ != nullptr) ++stats_->states_explored;
    double cost = cost_so_far + assign_cost;
    if (use_pruning_ && (cost > cost_budget_ ||
                         cost + rest_[pos + 1] > lookahead_budget_)) {
      if (stats_ != nullptr) ++stats_->states_pruned;
      return;
    }
    targets_[pos] = target;
    used_[static_cast<size_t>(target)] = true;
    Recurse(pos + 1, cost);
    used_[static_cast<size_t>(target)] = false;
  }

  void Recurse(size_t pos, double cost_so_far) {
    if (pos == positions_) {
      Mapping mapping;
      mapping.schema_index = schema_index_;
      mapping.targets = targets_;
      mapping.delta = cost_so_far / objective_.normalizer();
      out_->Add(std::move(mapping));
      if (stats_ != nullptr) ++stats_->mappings_emitted;
      return;
    }
    schema::NodeId parent_target = schema::kInvalidNode;
    size_t parent_pos = objective_.parent_position()[pos];
    if (parent_pos != ObjectiveFunction::kNoParent) {
      parent_target = targets_[parent_pos];
    }
    if (const std::vector<CandidateEntry>* list = lists_[pos]) {
      const double weight_name = objective_.options().weight_name;
      for (const CandidateEntry& entry : *list) {
        // The list ascends by cost and edge costs are ≥ 0: once an entry's
        // node cost alone breaks the bound, so does every later entry.
        const double bound =
            cost_so_far + weight_name * entry.cost + rest_[pos + 1];
        if (use_pruning_ && bound > lookahead_budget_) {
          if (stats_ != nullptr) {
            ++stats_->states_explored;
            ++stats_->states_pruned;
          }
          return;
        }
        if (options_.injective && used_[static_cast<size_t>(entry.node)]) {
          continue;
        }
        Visit(pos, cost_so_far, entry.node,
              objective_.AssignCostWithNodeCost(schema_index_, entry.node,
                                                parent_target, entry.cost));
      }
      return;
    }
    const double* row = rows_[pos];
    for (size_t i = 0; i < used_.size(); ++i) {
      if (options_.injective && used_[i]) continue;
      const auto target = static_cast<schema::NodeId>(i);
      Visit(pos, cost_so_far, target,
            objective_.AssignCostWithNodeCost(schema_index_, target,
                                              parent_target, row[i]));
    }
  }

  const ObjectiveFunction& objective_;
  const MatchOptions& options_;
  bool use_pruning_;
  AnswerSet* out_;
  MatchStats* stats_;
  size_t positions_;
  int32_t schema_index_ = 0;
  std::vector<bool> used_;
  std::vector<schema::NodeId> targets_;
  /// Per position: the candidate list, or (dense) the node-cost row.
  std::vector<const std::vector<CandidateEntry>*> lists_;
  std::vector<const double*> rows_;
  /// rest_[p]: lower bound on the cost of positions p..m−1 (0 past the
  /// end); read only when pruning.
  std::vector<double> rest_;
  double cost_budget_ = 0.0;
  double lookahead_budget_ = 0.0;
};

}  // namespace

Result<AnswerSet> ExhaustiveMatcher::Match(const schema::Schema& query,
                                           const schema::SchemaRepository& repo,
                                           const MatchOptions& options,
                                           MatchStats* stats) const {
  SMB_RETURN_IF_ERROR(ValidateInputs(query, repo, options));
  ObjectiveFunction objective(&query, &repo, options.objective,
                              options.shared_costs, options.candidates,
                              options.schemas);
  AnswerSet answers;
  SchemaEnumerator enumerator(objective, options, options_.use_pruning,
                              &answers, stats);
  const size_t end = options.schemas.end_in(repo.schema_count());
  for (size_t s = options.schemas.begin; s < end; ++s) {
    enumerator.Run(static_cast<int32_t>(s));
  }
  // Without pruning, over-threshold mappings were emitted too; filter them.
  if (!options_.use_pruning) {
    AnswerSet filtered;
    for (const auto& m : answers.mappings()) {
      if (m.delta <= options.delta_threshold + 1e-12) filtered.Add(m);
    }
    filtered.Finalize();
    return filtered;
  }
  answers.Finalize();
  return answers;
}

}  // namespace smb::match
