//===- analysis/Interval.h - Interval domain over the term DAG --*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interval analysis over exact rationals: harvests asserted range facts
/// (`x <= 100`, `0 < y`, equalities, and variable-variable orderings) from
/// the assertion conjunction via a capped fixpoint, then propagates
/// intervals through the DAG with per-operator transfer functions. The
/// same engine runs on both sides of the Int -> BV translation:
///
///  * On the unbounded side, Transform.cpp uses it (with every Int node
///    clamped to the signed range of the chosen width W) to discharge
///    overflow guards that provably cannot fire.
///  * On the bounded side, Lint.cpp uses it (BV nodes are intrinsically
///    clamped by their sort) to verify that every unguarded
///    overflow-capable op is provably safe, and to judge every guard as
///    redundant (never fires) or contradictory (always fires).
///
/// Both sides ask overflowImpossible(), and nothing else, whether a guard
/// can fire. Exact rational intervals work alike at every width.
///
/// Transfer functions are deliberately *kind-parallel*: Add and BvAdd,
/// IntMod and BvSRem, etc. compute the identical interval, and n-ary ops
/// fold left-associatively clamping each step, exactly mirroring the
/// translator's binary expansion. This parity is what makes `staub-lint`
/// complete against guard-dropping: elision removes exactly the guards
/// the engine can prove, so any guard still present is unprovable, and
/// dropping it leaves an op the bounded-side engine cannot prove either.
///
/// Soundness of the bounded-side intervals rests on the translator's
/// guarded-or-proven invariant (every overflow-capable op either carries
/// a guard or was statically discharged): in any model of the guarded
/// output, ops evaluate without wraparound, so the mathematical interval
/// arithmetic is valid. Lint checks exactly that invariant, so a
/// violation report is accurate by a minimal-violator argument: the
/// topologically first unguarded-unproven op has exact descendants, making
/// its own interval derivation valid.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_INTERVAL_H
#define STAUB_ANALYSIS_INTERVAL_H

#include "smtlib/Term.h"
#include "support/Rational.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace staub::analysis {

/// A closed interval over the rationals; a missing endpoint means
/// unbounded on that side. `Empty` is the bottom element (contradictory
/// facts); a default-constructed Interval is top.
struct Interval {
  std::optional<Rational> Lo;
  std::optional<Rational> Hi;
  bool Empty = false;

  static Interval top() { return {}; }
  static Interval bottom() {
    Interval I;
    I.Empty = true;
    return I;
  }
  static Interval point(Rational V) {
    Interval I;
    I.Lo = V;
    I.Hi = std::move(V);
    return I;
  }
  static Interval range(Rational Low, Rational High);

  bool isTop() const { return !Empty && !Lo && !Hi; }
  bool isFinite() const { return !Empty && Lo && Hi; }
  bool isPoint() const { return isFinite() && Lo == Hi; }
  bool contains(const Rational &V) const;
  /// True when every value of this interval lies in [Low, High]. The
  /// empty interval is vacuously within any range.
  bool within(const Rational &Low, const Rational &High) const;
  std::string toString() const;
  bool operator==(const Interval &RHS) const = default;
};

/// Lattice meet (intersection) and join (convex hull).
Interval meet(const Interval &A, const Interval &B);
Interval hull(const Interval &A, const Interval &B);

/// Exact interval arithmetic. All propagate Empty.
Interval negI(const Interval &A);
Interval addI(const Interval &A, const Interval &B);
Interval subI(const Interval &A, const Interval &B);
Interval mulI(const Interval &A, const Interval &B);
Interval absI(const Interval &A);
/// Shared transfer for IntDiv *and* BvSDiv: both truncated and Euclidean
/// quotients satisfy |q| <= max(|dividend|) when the divisor interval
/// excludes 0; otherwise top.
Interval divI(const Interval &A, const Interval &B);
/// Shared transfer for IntMod *and* BvSRem: when the divisor interval
/// excludes 0, both remainder semantics lie in [-(D-1), D-1] for
/// D = max |divisor|. Deliberately not the tighter Euclidean [0, D-1] on
/// the Int side: the two sides must compute identical intervals.
Interval remI(const Interval &A, const Interval &B);

/// The signed range of a \p Width -bit bitvector, as rationals.
Rational widthRangeLo(unsigned Width);
Rational widthRangeHi(unsigned Width);

/// The exact rational value of a numeric constant term (Int, Real, or
/// sign-interpreted BitVec); nullopt for anything else. Shared by the
/// interval and zone fact harvesters so both read constants identically.
std::optional<Rational> numericConstOf(const TermManager &Manager, Term T);

/// Decides whether the overflow predicate \p GuardKind (BvSAddO, BvSSubO,
/// BvSMulO, BvNegO, BvSDivO) provably cannot fire at \p Width given the
/// operand intervals (\p B ignored for the unary BvNegO); true for an
/// empty operand, which no model reaches. This single function is called
/// by both guard elision (Transform.cpp, Int-side intervals) and
/// staub-lint (bounded-side intervals), so the two can never disagree on
/// what is provable. With point operands it is exact: false then means
/// the predicate fires.
bool overflowImpossible(Kind GuardKind, const Interval &A, const Interval &B,
                        unsigned Width);

/// Cap on analyzeIntervals()' variable-variable fact propagation rounds.
/// Stopping early only widens intervals, which is always sound. One
/// constant for every caller, so guard elision and lint converge to the
/// same bounds on both sides of a translation.
inline constexpr unsigned VarVarRounds = 8;

/// Options for analyzeIntervals().
struct IntervalOptions {
  /// When nonzero, every Int-sorted node is clamped to the signed range
  /// of this width (guard-elision mode: justified by the
  /// guarded-or-proven invariant at the chosen translation width).
  unsigned ClampAllWidth = 0;
  /// When nonzero, only *variables* of Int sort are clamped (width
  /// refinement mode: encodes the paper's variable assumption without
  /// assuming anything about intermediates).
  unsigned ClampVarsWidth = 0;
  /// When nonzero, Real variables are clamped to the symmetric value
  /// range of this magnitude assumption: |v| <= 2^(m-1) - 1 (magnitude
  /// refinement mode for real bound inference).
  unsigned ClampRealVarsMagnitude = 0;
  /// Harvest variable-variable ordering facts (x <= y). The elision/lint
  /// engines keep this on (identically on both sides); width refinement
  /// turns it off to preserve the paper's Fig. 4 arithmetic.
  bool UseVarVarFacts = true;
};

/// The result of an interval analysis: per-node intervals, computed
/// lazily and memoized. Movable value type over a shared implementation.
class IntervalSummary {
public:
  IntervalSummary();
  ~IntervalSummary();
  IntervalSummary(IntervalSummary &&) noexcept;
  IntervalSummary &operator=(IntervalSummary &&) noexcept;

  /// The interval of \p T (top for unanalyzable kinds). Lazy: safe to
  /// call for any term of the analyzed manager, including terms created
  /// after the analysis was set up (e.g. mid-translation) — but transfer
  /// evaluation itself never creates terms.
  const Interval &of(Term T) const;

  /// The harvested interval for a variable (top if none).
  Interval varFact(Term Variable) const;

  /// True when at least one range fact was harvested from the
  /// assertions. Width refinement skips interval tightening entirely
  /// when there is nothing beyond the clamp assumption to exploit.
  bool hasFacts() const;

private:
  friend IntervalSummary analyzeIntervals(const TermManager &,
                                          const std::vector<Term> &,
                                          const IntervalOptions &);
  struct Impl;
  std::unique_ptr<Impl> TheImpl;
};

/// Harvests range facts from the conjunction of \p Assertions (descending
/// through top-level `and`s) and prepares per-node interval evaluation
/// under \p Options.
IntervalSummary analyzeIntervals(const TermManager &Manager,
                                 const std::vector<Term> &Assertions,
                                 const IntervalOptions &Options = {});

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_INTERVAL_H
