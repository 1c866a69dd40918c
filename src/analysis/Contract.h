//===- analysis/Contract.h - Shared interval contraction kernels -*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval semantics shared by the presolver (analysis/Presolve.cpp)
/// and MiniSMT's ICP solver (solver/Icp.cpp). Three parts:
///
///  * Full-precision *forward* kernels over analysis::Interval that track
///    unbounded endpoints exactly (unlike the deliberately coarse parity
///    kernels in Interval.h, which collapse infinity-touching products to
///    top because elision/lint clamp with the width range anyway):
///    multiplication with IEEE-like endpoint-infinity rules, exact
///    division via the reciprocal interval, dependency-aware powers, and
///    integral endpoint tightening.
///
///  * IntervalEvaluator: forward evaluation of whole terms and formulas
///    with those kernels, giving Int/Real terms an interval and formulas
///    a Kleene truth value over per-variable ranges. The presolver
///    evaluates its contracted ranges with it, ICP its search boxes.
///
///  * HC4-revise-style *backward* transfer functions: given the interval
///    a result is known to lie in, narrow an operand. The presolver
///    alternates these with forward evaluation to a capped fixpoint
///    (docs/ANALYSIS.md "The presolver").
///
/// Everything is sound over the exact unbounded semantics: a derived
/// empty interval proves the narrowed constraint has no model.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_CONTRACT_H
#define STAUB_ANALYSIS_CONTRACT_H

#include "analysis/Interval.h"

#include <unordered_map>
#include <utility>
#include <vector>

namespace staub::analysis {

//===----------------------------------------------------------------------===//
// Forward kernels (full precision).
//===----------------------------------------------------------------------===//

/// Interval product handling unbounded operands: endpoint candidates are
/// multiplied with IEEE-like infinity rules (0 * oo resolves to 0, valid
/// for endpoint hulls when the zero side is an exact endpoint).
Interval mulFullI(const Interval &A, const Interval &B);

/// Hull of the exact quotient A / B via the reciprocal interval. Returns
/// top when B may be zero (sound: SMT-LIB division by zero is
/// unconstrained).
Interval divFullI(const Interval &A, const Interval &B);

/// A^N with dependency awareness: even powers are non-negative, odd
/// powers are monotone. powFullI(A, 0) is the point [1, 1].
Interval powFullI(const Interval &A, unsigned N);

/// Tightens to integral endpoints [ceil(lo), floor(hi)]; may become
/// empty (e.g. [1/3, 2/3] holds no integer).
Interval roundToIntI(const Interval &A);

//===----------------------------------------------------------------------===//
// Forward evaluation of terms and formulas.
//===----------------------------------------------------------------------===//

/// Kleene truth value of a formula under variable ranges and Boolean
/// assignments: True (False) means true (false) in every model consistent
/// with them.
enum class Tri : uint8_t { False, True, Unknown };

/// The factors of product \p Mul with identical children grouped, as
/// (factor, multiplicity) in first-occurrence order. Evaluating x*x as
/// x^2 keeps the dependency a plain interval product loses: even powers
/// are non-negative.
std::vector<std::pair<Term, unsigned>> groupFactors(const TermManager &M,
                                                    Term Mul);

/// Forward interval evaluation over the exact unbounded semantics. Each
/// variable has a slot, its index in the list the evaluator is built
/// with: a numeric variable reads its range from Ranges[slot], a Bool
/// variable its assignment from Bools[slot]. Variables outside the list
/// are unconstrained. Results are memoized per term; the caller writes
/// Ranges and Bools directly and calls invalidate() after any change.
class IntervalEvaluator {
public:
  IntervalEvaluator(const TermManager &M, std::vector<Term> Vars);

  /// The variables, in slot order.
  const std::vector<Term> &vars() const { return Vars; }
  /// The slot of \p Var, which must be one of vars().
  unsigned slot(Term Var) const;

  /// Per-slot range of each numeric variable (top until narrowed).
  std::vector<Interval> Ranges;
  /// Per-slot assignment of each Bool variable (Unknown until pinned).
  std::vector<Tri> Bools;

  /// Drops the memo; required after any change to Ranges or Bools.
  void invalidate() { Memo.clear(); }

  /// The interval of an Int/Real term: top for unhandled kinds, integral
  /// endpoints for Int terms, top whenever an operation is unspecified on
  /// part of its operands' ranges (division or `mod` by a divisor that
  /// may be zero). The reference stays valid until invalidate().
  const Interval &iv(Term T);

  /// The Kleene value of a Bool term.
  Tri tri(Term T);

private:
  const TermManager &M;
  std::vector<Term> Vars;
  std::unordered_map<uint32_t, unsigned> Slots;
  std::unordered_map<uint32_t, Interval> Memo;
};

//===----------------------------------------------------------------------===//
// Backward (HC4-revise) transfer functions.
//===----------------------------------------------------------------------===//

/// X + Other = Result  =>  X in Result - Other.
Interval backAddOperand(const Interval &Result, const Interval &Other);

/// Left - Right = Result  =>  Left in Result + Right.
Interval backSubLeft(const Interval &Result, const Interval &Right);

/// Left - Right = Result  =>  Right in Left - Result.
Interval backSubRight(const Interval &Result, const Interval &Left);

/// -X = Result  =>  X in -Result.
Interval backNeg(const Interval &Result);

/// X * Other = Result  =>  X in Result / Other when Other provably
/// excludes zero; top otherwise (zero kills invertibility).
Interval backMulOperand(const Interval &Result, const Interval &Other);

/// |X| = Result  =>  X in [-hi(Result), hi(Result)] (top when Result is
/// unbounded above; empty when Result is entirely negative).
Interval backAbs(const Interval &Result);

/// (div A B) = Result  =>  A in Result * B + [-s, s] where s bounds |B|.
/// Sound for both Euclidean and truncated semantics (|remainder| < |B|);
/// top when the divisor magnitude is unbounded or may be zero.
Interval backIntDivDividend(const Interval &Result, const Interval &Divisor);

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_CONTRACT_H
