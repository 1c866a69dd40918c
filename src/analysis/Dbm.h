//===- analysis/Dbm.h - Difference-bound matrix core ------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared difference-bound-matrix core under the relational domains
/// (analysis/Zone.h, analysis/Octagon.h). A DBM over N nodes stores, for
/// every ordered pair (i, j), an upper bound on v_i - v_j (absent =
/// unbounded). Floyd-Warshall closure computes the tightest entailed
/// bounds; a negative diagonal entry after closure is a negative cycle,
/// i.e. the conjunction of the recorded constraints is unsatisfiable.
///
/// Every edge carries provenance: the set of original assertion indices
/// that contributed to its bound, unioned along relaxations, so a
/// negative cycle names the exact assertions of the unsat certificate and
/// a projected interval names the assertions that narrowed a variable.
/// The zone fills it in; the octagon, whose callers never read it, passes
/// empty sets.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_DBM_H
#define STAUB_ANALYSIS_DBM_H

#include "support/Rational.h"

#include <optional>
#include <set>
#include <vector>

namespace staub::analysis {

/// A difference-bound matrix with per-edge provenance. Closure is
/// explicit (close()); queries on an unclosed matrix see the raw
/// constraints only.
class Dbm {
public:
  explicit Dbm(unsigned NumNodes);

  unsigned size() const { return N; }

  /// Records v_I - v_J <= C, keeping the tighter of the old and new
  /// bound. \p Sources are the assertion indices justifying the bound;
  /// an equally-tight re-record still unions provenance.
  void tighten(unsigned I, unsigned J, const Rational &C,
               const std::set<unsigned> &Sources);

  /// The current bound on v_I - v_J (absent = unbounded).
  const std::optional<Rational> &at(unsigned I, unsigned J) const {
    return Weights[I * N + J];
  }

  /// Provenance of at(I, J).
  const std::set<unsigned> &sourcesAt(unsigned I, unsigned J) const {
    return Sources[I * N + J];
  }

  /// Floyd-Warshall closure. Returns false (and marks the matrix
  /// inconsistent) when a negative cycle exists. \p InjectSkipLastPivot
  /// deliberately drops every relaxation through the last pivot node —
  /// the --inject=bad-closure mutant. Under-closure is sound (bounds only
  /// get weaker), so only the triangleConsistent() self-check can expose
  /// it.
  bool close(bool InjectSkipLastPivot = false);

  /// False once close() found a negative cycle.
  bool consistent() const { return Consistent; }

  /// Assertion indices on some negative cycle (empty when consistent).
  std::set<unsigned> negativeCycleSources() const;

  /// True when every triangle inequality D(i,j) <= D(i,k) + D(k,j)
  /// holds — the defining property of an honestly closed consistent DBM.
  bool triangleConsistent() const;

  /// Standard DBM widening: keeps A's bound where B's still satisfies
  /// it and drops to unbounded where B exceeds it. Iterating
  /// widen(A, join-with-new-state) terminates because bounds can only be
  /// dropped, never tightened.
  static Dbm widen(const Dbm &A, const Dbm &B);

private:
  unsigned N;
  /// Row-major N x N bounds; absent = +infinity. Diagonal starts at 0.
  std::vector<std::optional<Rational>> Weights;
  std::vector<std::set<unsigned>> Sources;
  bool Consistent = true;
};

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_DBM_H
