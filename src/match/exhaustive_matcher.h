#pragma once

#include "match/matcher.h"

/// \file exhaustive_matcher.h
/// \brief S1 — the complete (exhaustive) matching system.
///
/// Enumerates *every* mapping of the query elements into each repository
/// schema and returns all with Δ ≤ δ_max. Completeness is what defines an
/// exhaustive system in the paper (§2.1): `A^δ_S = {a ∈ SS | Δ(a) ≤ δ}`.
///
/// The branch-and-bound prune never removes a qualifying answer. Every cost
/// contribution is non-negative, and position p contributes at least
/// `lb[p] = weight_name · min_t nodecost(p, t)` over the schema's targets
/// (over its candidate list when one is attached). With the suffix sums
/// `rest[p] = Σ_{q≥p} lb[q]` and the budget `B = δ·normalizer`:
///  * a schema with `rest[0] > B` cannot hold an answer and is skipped
///    before its search starts (its cost rows are fetched in position
///    order, so the skip can fire before later rows are computed);
///  * a state at position p with prefix cost c is pruned when `c > B`
///    (the prefix test) or `c + rest[p+1] > B + 1e-9` (the lookahead; the
///    slack absorbs rounding from summing the minima in another order);
///  * a candidate list ascends by node cost, so the walk over it stops at
///    the first entry with `c + weight_name·cost + rest[p+1] > B + 1e-9`.
/// The emitted set, every Δ bit and the order are those of the unpruned
/// search. Disable pruning (`use_pruning = false`) to cross-check that in
/// tests: the search then visits every assignment and filters at the end.

namespace smb::match {

/// \brief Exhaustive matcher configuration.
struct ExhaustiveMatcherOptions {
  /// Admissible branch-and-bound on the Δ threshold (prefix, lookahead,
  /// schema skip and sorted-list cut); false only for test oracles.
  bool use_pruning = true;
};

/// \brief The complete reference system S1.
class ExhaustiveMatcher : public Matcher {
 public:
  explicit ExhaustiveMatcher(ExhaustiveMatcherOptions options = {})
      : options_(options) {}

  std::string name() const override { return "exhaustive"; }

  Result<AnswerSet> Match(const schema::Schema& query,
                          const schema::SchemaRepository& repo,
                          const MatchOptions& options,
                          MatchStats* stats = nullptr) const override;

 private:
  ExhaustiveMatcherOptions options_;
};

}  // namespace smb::match
