//===- analysis/Dbm.h - Difference-bound matrix core ------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The difference-bound-matrix core under the zone domain
/// (analysis/Zone.h). A DBM over N nodes stores, for every ordered pair
/// (i, j), an upper bound on v_i - v_j (absent = unbounded).
/// Floyd-Warshall closure computes the tightest entailed bounds; a
/// negative diagonal entry after closure is a negative cycle, i.e. the
/// conjunction of the recorded constraints is unsatisfiable.
///
/// Weights. Bounds are recorded as exact Rationals, and closure runs on
/// one fixed-point kernel: every weight becomes an int64_t multiple of a
/// per-matrix unit 1/Scale, with INT64_MAX for "absent". Scale is the
/// lcm of the recorded denominators (1 on Int zones).
///
/// Admission and fallback. A matrix is admitted to the kernel only when
/// N * max|scaled input| < 2^61. A consistent matrix's entries are then
/// sums of at most N-1 inputs, so no sum of two entries can leave
/// int64_t. Every sum is still checked: an inconsistent matrix can run
/// its negative cycle past any bound. A matrix the kernel does not admit
/// (huge constants, Real zones with large denominators), or whose
/// closure overflows midway, runs the exact Rational loop from its
/// recorded inputs instead. Both loops relax in the same order with the
/// same strict-less test, so the result, its consistency and its
/// provenance are the same either way; fixedPoint() tells which one ran.
///
/// Provenance. Every edge carries the set of original assertion indices
/// that contributed to its bound, unioned along relaxations, so a
/// negative cycle names the exact assertions of the unsat certificate
/// and a projected interval names the assertions that narrowed a
/// variable.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_DBM_H
#define STAUB_ANALYSIS_DBM_H

#include "support/Rational.h"

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

namespace staub::analysis {

/// A difference-bound matrix with per-edge provenance. Bounds are
/// recorded before closure; closure is explicit (close(), once); queries
/// on an unclosed matrix see the raw constraints only.
class Dbm {
public:
  /// An unconstrained matrix over \p NumNodes nodes (diagonal 0).
  explicit Dbm(unsigned NumNodes);

  unsigned size() const { return N; }

  /// Records v_I - v_J <= C before closure, keeping the tighter of the
  /// old and new bound. \p Sources are the assertion indices justifying
  /// the bound; an equally-tight re-record still unions provenance.
  void tighten(unsigned I, unsigned J, const Rational &C,
               const std::set<unsigned> &Sources = {});

  /// The current bound on v_I - v_J (absent = unbounded).
  std::optional<Rational> at(unsigned I, unsigned J) const;

  /// Provenance of at(I, J).
  const std::set<unsigned> &sourcesAt(unsigned I, unsigned J) const;

  /// Floyd-Warshall closure. Returns false (and marks the matrix
  /// inconsistent) when a negative cycle exists. \p InjectSkipLastPivot
  /// deliberately drops every relaxation through the last pivot node —
  /// the --inject=bad-closure mutant. Under-closure is sound (bounds only
  /// get weaker), so only the triangleConsistent() self-check can expose
  /// it.
  bool close(bool InjectSkipLastPivot = false);

  /// False once closure found a negative cycle.
  bool consistent() const { return Consistent; }

  /// Assertion indices on some negative cycle (empty when consistent).
  std::set<unsigned> negativeCycleSources() const;

  /// True when every triangle inequality D(i,j) <= D(i,k) + D(k,j)
  /// holds — the defining property of an honestly closed consistent DBM.
  bool triangleConsistent() const;

  /// True when closure ran on the fixed-point kernel; false before
  /// closure and for matrices that took the Rational fallback.
  bool fixedPoint() const { return Scale != 0; }

private:
  /// Scales the recorded inputs into Fixed and sets Scale (the lcm of
  /// the denominators), or returns false when they fail admission.
  bool enterFixed();

  /// The kernel. Returns false when a sum leaves int64_t; the
  /// half-closed matrix is then discarded.
  bool floydWarshallFixed(bool InjectSkipLastPivot);

  /// The Rational fallback, closing Exact in place.
  void floydWarshallExact(bool InjectSkipLastPivot);

  /// D(I,J) = D(I,K) + D(K,J) just tightened: D(I,J)'s provenance
  /// becomes the union of the two legs'.
  void relaxSources(unsigned I, unsigned K, unsigned J);
  /// Marks the matrix inconsistent when a diagonal entry is negative.
  void markNegativeCycles();
  bool negativeDiagonal(unsigned I) const;

  unsigned N;
  /// Row-major N x N recorded bounds; absent = +infinity, diagonal starts
  /// at 0. The fallback closes them in place; after a fixed-point
  /// closure they are released.
  std::vector<std::optional<Rational>> Exact;
  /// Row-major N x N weights in units of 1/Scale (INT64_MAX = absent),
  /// live only while Scale != 0.
  std::vector<int64_t> Fixed;
  int64_t Scale = 0;
  /// Row-major N x N provenance.
  std::vector<std::set<unsigned>> Sources;
  bool Consistent = true;
};

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_DBM_H
