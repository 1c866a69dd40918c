//===- analysis/Zone.h - Zone (difference-bound) domain ---------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The zone abstract domain over program variables: conjunctions of
/// `x - y <= c`, `x <= c`, `x >= c` on one DBM (analysis/Dbm.h) with a
/// distinguished zero node, harvested from assertion atoms the way the
/// interval engine harvests range facts. close() runs on the DBM's
/// fixed-point kernel in units of the lcm of the recorded denominators (1
/// on Int), with the same relaxations and certificates as a Rational
/// closure. After close():
///
///  * consistent() == false is a proof of unsatisfiability, with
///    negativeCycleSources() naming the assertions on the cycle (the
///    presolver's relational unsat certificate);
///  * varInterval() projects the tightest closure-implied interval of
///    each variable (the relational narrowing the presolver and width
///    refinement consume);
///  * potential() proposes a concrete satisfying point of the zone
///    constraints (shortest-path potentials), which the presolver feeds
///    to the exact evaluator to decide anchor-free systems TriviallySat.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_ZONE_H
#define STAUB_ANALYSIS_ZONE_H

#include "analysis/Dbm.h"
#include "analysis/Interval.h"
#include "smtlib/Term.h"

#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

namespace staub::analysis {

/// A zone under construction: constraints accumulate, close() builds and
/// closes the DBM, queries read the closed matrix.
class Zone {
public:
  /// Registers \p VarId (idempotent) and returns its DBM node index.
  unsigned addVariable(uint32_t VarId);

  bool hasVariable(uint32_t VarId) const { return VarNode.count(VarId) != 0; }

  /// Number of registered variables.
  unsigned numVariables() const { return unsigned(Vars.size()); }

  /// Registered variable ids, in first-seen order.
  const std::vector<uint32_t> &variables() const { return Vars; }

  /// True when some recorded constraint relates two variables (a
  /// var-var difference edge). Without one, closure cannot conclude
  /// anything beyond the seeded per-variable ranges, so consumers skip
  /// the relational pass on relation-free systems.
  bool hasBinaryConstraints() const;

  /// x - y <= c, justified by assertion \p Root.
  void addDiff(uint32_t X, uint32_t Y, const Rational &C, unsigned Root);

  /// x <= c / x >= c, justified by assertion \p Root.
  void addUpper(uint32_t X, const Rational &C, unsigned Root);
  void addLower(uint32_t X, const Rational &C, unsigned Root);

  /// Seeds both bounds of \p R (skipping absent endpoints) with the
  /// given provenance, e.g. from already-contracted presolve ranges.
  void constrainVar(uint32_t X, const Interval &R,
                    const std::set<unsigned> &Sources);

  /// Builds and closes the DBM. Returns false on a negative cycle.
  bool close(bool InjectBadClosure = false);

  bool closed() const { return Matrix.has_value(); }
  bool consistent() const;
  bool triangleConsistent() const;
  std::set<unsigned> negativeCycleSources() const;

  /// The closure-implied interval of \p X (top when unregistered).
  Interval varInterval(uint32_t X) const;
  /// Assertion indices justifying varInterval(X).
  std::set<unsigned> varIntervalSources(uint32_t X) const;

  /// A value for \p X from shortest-path potentials on the closed
  /// consistent DBM: the potential assignment satisfies every recorded
  /// zone constraint (the caller's evaluator decides everything the zone
  /// cannot see). nullopt when unregistered or inconsistent.
  std::optional<Rational> potential(uint32_t X) const;

private:
  unsigned node(uint32_t VarId) const { return VarNode.at(VarId) + 1; }

  struct PendingEdge {
    unsigned I, J;
    Rational C;
    unsigned Root;
  };
  struct PendingRange {
    uint32_t Var;
    Interval R;
    std::set<unsigned> Sources;
  };

  std::unordered_map<uint32_t, unsigned> VarNode;
  std::vector<uint32_t> Vars;
  std::vector<PendingEdge> Edges;
  std::vector<PendingRange> Seeds;
  std::optional<Dbm> Matrix;
};

/// Harvests zone facts from one positive-position formula into \p Z:
/// comparison/equality atoms of the shapes `(- x y) cmp c`, `x cmp y`,
/// and `x cmp c` (both orientations, descending through `and`s). Strict
/// comparisons over integer-valued sorts tighten by one; over Real the
/// closed bound soundly overapproximates. \p Root is the assertion index
/// recorded as provenance. Returns the number of facts recorded.
unsigned harvestZoneFacts(const TermManager &Manager, Term Formula,
                          unsigned Root, Zone &Z);

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_ZONE_H
