//===- analysis/Octagon.h - Octagon domain over the term DAG ----*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The octagon abstract domain: conjunctions of `+-x +-y <= c` via the
/// standard signed-variable encoding on the DBM core (analysis/Dbm.h).
/// Variable k owns two nodes, 2k (value +x_k) and 2k+1 (value -x_k); a
/// DBM entry D(u, v) bounds val(u) - val(v), so every octagon constraint
/// `sx*x + sy*y <= c` is the edge D(node(x, sx), node(y, -sy)) <= c.
/// The octagon ranges over integer-valued variables (Int on the original
/// side, bitvectors on the bounded side). close() runs strong closure
/// (Dbm::strongClose): Floyd-Warshall alternated with the octagonal
/// strengthening step D(i,j) <= (D(i, bar i) + D(bar j, j))/2 and
/// even-tightening of the doubled unary bounds, always ending on a plain
/// Floyd-Warshall pass so the result is triangle-consistent. It runs on
/// the DBM's fixed-point kernel in units of 1/4: the integral inputs make
/// the two halving rounds exact there, and even-tightening rounds a
/// doubled bound down to a multiple of 8 units. Only octagons past the
/// kernel's admission bound (width-64 variables, huge constants) close
/// in Rationals. Unlike the zone, the octagon's matrix stores no
/// provenance at all: no caller reads it.
///
/// Facts are harvested from assertion atoms in a canonical form
/// (`RelFact`) that records *which* overflow-capable operation the atom
/// reads through, if any: a fact like `x - y <= c` harvested from
/// `(<= (- x y) c)` is only valid in bounded models where that
/// subtraction provably does not wrap — i.e. its guard is kept or the
/// operation is provably safe. Guard elision (staub/Transform.cpp) and
/// staub-lint (analysis/Lint.cpp) both build octagons from the validity-
/// filtered fact set and call the one shared
/// relationalOverflowImpossible() oracle, mirroring how the two sides
/// share overflowImpossible() today, so elided output lints clean by
/// construction.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_OCTAGON_H
#define STAUB_ANALYSIS_OCTAGON_H

#include "analysis/Dbm.h"
#include "analysis/Interval.h"
#include "smtlib/Term.h"

#include <optional>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace staub::analysis {

/// One harvested octagon fact in the canonical form SX*X + SY*Y <= C
/// (unary when SY == 0), plus the overflow-capable source operation the
/// atom reads through (none for plain var/const atoms).
struct RelFact {
  uint32_t X = 0;
  uint32_t Y = 0; ///< Meaningless when SY == 0.
  int SX = 1;     ///< +1 or -1.
  int SY = 0;     ///< +1, -1, or 0 (unary).
  Rational C;
  /// True when the atom reads through an Add/Sub/Neg (or BvAdd/BvSub/
  /// BvNeg) node whose overflow behaviour conditions the fact.
  bool HasSource = false;
  Kind SourceOp = Kind::And; ///< Meaningless unless HasSource.
  uint32_t SourceA = 0;      ///< First operand term id of the source op.
  uint32_t SourceB = 0;      ///< Second operand id (== SourceA for Neg).
};

/// The overflow predicate guarding \p OpKind — Int-side Neg/Add/Sub/Mul/
/// IntDiv or their bitvector counterparts — nullopt for kinds that need
/// no guard. Shared by guard elision, staub-lint, and the RelFact
/// validity rule so all three agree on which predicate protects an op.
std::optional<Kind> overflowPredicateFor(Kind OpKind);

/// Key identifying a guard: predicate kind plus operand term ids
/// (normalized for the commutative BvSAddO/BvSMulO; B is UINT32_MAX for
/// the unary BvNegO).
using GuardKey = std::tuple<uint8_t, uint32_t, uint32_t>;

GuardKey makeGuardKey(Kind Predicate, uint32_t A, uint32_t B);

struct RelFact;

/// The guard key of \p F's source operation — the key its protecting
/// guard carries if one is asserted. Elision and lint both decide fact
/// validity by membership of exactly this key in their kept-guard set.
GuardKey relFactSourceKey(const RelFact &F);

/// Harvests RelFacts from the conjunction of \p Assertions, descending
/// through top-level `and`s. Kind-parallel on both sides of the
/// translation: Le/Lt/Ge/Gt/Eq atoms on the Int side and BvSle/BvSlt/
/// BvSge/BvSgt on the bounded side harvest the identical fact set
/// (strict comparisons over integer-valued sorts tighten by one).
/// Recognized atom shapes: `(- x y) cmp c`, `(+ x y) cmp c`,
/// `(- x) cmp c` (both orientations), `x cmp y`, and `x cmp c`.
std::vector<RelFact> harvestRelationalFacts(const TermManager &Manager,
                                            const std::vector<Term> &Assertions);

/// An octagon under construction: integer-valued variables register,
/// facts accumulate, close() builds and strongly closes the signed-node
/// DBM.
class Octagon {
public:
  /// Registers the integer-valued variable \p VarId (idempotent).
  void addVariable(uint32_t VarId);

  bool hasVariable(uint32_t VarId) const { return VarPair.count(VarId) != 0; }

  /// Seeds x in [R.Lo, R.Hi] (absent endpoints skipped).
  void constrainVar(uint32_t VarId, const Interval &R);

  /// Records \p F. Returns false (fact ignored) when a referenced
  /// variable is unregistered.
  bool addFact(const RelFact &F);

  /// Strong closure; false on inconsistency.
  bool close();

  bool consistent() const;

  /// The closure-implied interval of \p VarId (top when unregistered).
  Interval varInterval(uint32_t VarId) const;

  /// sup(SX*x + SY*y) over the closed octagon; nullopt when unbounded or
  /// either variable is unregistered. Signs must be +-1.
  std::optional<Rational> pairUpper(uint32_t X, int SX, uint32_t Y,
                                    int SY) const;

private:
  unsigned posNode(uint32_t VarId) const { return VarPair.at(VarId) * 2; }

  struct PendingBound {
    unsigned I, J;
    Rational C;
  };

  /// Variable id -> its index k (nodes 2k and 2k+1).
  std::unordered_map<uint32_t, unsigned> VarPair;
  std::vector<PendingBound> Bounds;
  std::optional<Dbm> Matrix;
};

/// The relational sibling of overflowImpossible(): decides whether
/// overflow predicate \p GuardKind on operands \p A / \p B (terms on the
/// analyzed side; \p B invalid for the unary BvNegO) provably cannot
/// fire at \p Width, refining the interval facts \p IA / \p IB with the
/// closed octagon's per-variable projections and — for add/sub over two
/// registered variables — its pairwise sum/difference bounds. Exactly
/// this function is shared by guard elision and staub-lint, so the two
/// can never disagree on what relational facts prove.
bool relationalOverflowImpossible(const TermManager &Manager, Kind GuardKind,
                                  Term A, Term B, const Interval &IA,
                                  const Interval &IB, unsigned Width,
                                  const Octagon &Oct);

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_OCTAGON_H
