//===- analysis/Contract.cpp - Shared interval contraction kernels --------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Contract.h"

#include <algorithm>
#include <cassert>

using namespace staub;
using namespace staub::analysis;

//===--------------------------------------------------------------------===//
// Forward kernels.
//===--------------------------------------------------------------------===//

namespace {

/// Extended value for endpoint products: finite, or +/- infinity.
struct ExtValue {
  int InfSign = 0; ///< -1, 0 (finite), +1.
  Rational Finite;

  static ExtValue negInf() { return {-1, Rational()}; }
  static ExtValue posInf() { return {+1, Rational()}; }
  static ExtValue fin(Rational V) { return {0, std::move(V)}; }

  bool operator<(const ExtValue &RHS) const {
    if (InfSign != RHS.InfSign)
      return InfSign < RHS.InfSign;
    if (InfSign != 0)
      return false;
    return Finite < RHS.Finite;
  }
};

/// Multiplies two interval endpoints with IEEE-like infinity rules.
/// 0 * inf resolves to 0, which is valid for endpoint hulls when the
/// zero side is an exact endpoint.
ExtValue extMul(const ExtValue &A, const ExtValue &B) {
  if (A.InfSign == 0 && B.InfSign == 0)
    return ExtValue::fin(A.Finite * B.Finite);
  int SignA = A.InfSign != 0 ? A.InfSign : A.Finite.sign();
  int SignB = B.InfSign != 0 ? B.InfSign : B.Finite.sign();
  int Sign = SignA * SignB;
  if (Sign > 0)
    return ExtValue::posInf();
  if (Sign < 0)
    return ExtValue::negInf();
  return ExtValue::fin(Rational(0));
}

ExtValue loOf(const Interval &I) {
  return I.Lo ? ExtValue::fin(*I.Lo) : ExtValue::negInf();
}
ExtValue hiOf(const Interval &I) {
  return I.Hi ? ExtValue::fin(*I.Hi) : ExtValue::posInf();
}

/// Rational integer power helper.
Rational ratPow(const Rational &V, unsigned N) {
  return Rational(V.numerator().pow(N), V.denominator().pow(N));
}

bool mayBeZero(const Interval &I) { return I.contains(Rational(0)); }

} // namespace

Interval analysis::mulFullI(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::bottom();
  ExtValue Candidates[4] = {extMul(loOf(A), loOf(B)), extMul(loOf(A), hiOf(B)),
                            extMul(hiOf(A), loOf(B)), extMul(hiOf(A), hiOf(B))};
  ExtValue Min = Candidates[0], Max = Candidates[0];
  for (int I = 1; I < 4; ++I) {
    if (Candidates[I] < Min)
      Min = Candidates[I];
    if (Max < Candidates[I])
      Max = Candidates[I];
  }
  Interval Out;
  if (Min.InfSign == 0)
    Out.Lo = Min.Finite;
  if (Max.InfSign == 0)
    Out.Hi = Max.Finite;
  return Out;
}

Interval analysis::divFullI(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::bottom();
  // If the divisor may be zero, give up (sound hull).
  if (mayBeZero(B))
    return Interval::top();
  // Divisor has a definite sign; 1/B is monotone.
  Interval Reciprocal;
  // B strictly positive or strictly negative; endpoints may be missing
  // (e.g. [2, +inf) -> (0, 1/2]).
  if (B.Lo && B.Lo->sign() > 0) {
    Reciprocal.Hi = B.Lo->inverse();
    // Slightly loose when unbounded above (closed at 0).
    Reciprocal.Lo = B.Hi ? B.Hi->inverse() : Rational(0);
  } else {
    assert(B.Hi && B.Hi->sign() < 0 && "divisor interval spans zero");
    Reciprocal.Lo = B.Hi->inverse();
    Reciprocal.Hi = B.Lo ? B.Lo->inverse() : Rational(0);
  }
  return mulFullI(A, Reciprocal);
}

Interval analysis::powFullI(const Interval &A, unsigned N) {
  if (A.Empty)
    return Interval::bottom();
  if (N == 0)
    return Interval::point(Rational(1));
  if (N == 1)
    return A;
  if (N % 2 == 1) {
    // Odd powers are monotone.
    Interval Out;
    if (A.Lo)
      Out.Lo = ratPow(*A.Lo, N);
    if (A.Hi)
      Out.Hi = ratPow(*A.Hi, N);
    return Out;
  }
  // Even powers: work on the absolute value (lower endpoint >= 0).
  Interval Abs = absI(A);
  Interval Out;
  Out.Lo = Abs.Lo ? ratPow(*Abs.Lo, N) : Rational(0);
  if (Abs.Hi)
    Out.Hi = ratPow(*Abs.Hi, N);
  return Out;
}

Interval analysis::roundToIntI(const Interval &A) {
  if (A.Empty)
    return Interval::bottom();
  Interval Out;
  if (A.Lo)
    Out.Lo = Rational(A.Lo->ceil());
  if (A.Hi)
    Out.Hi = Rational(A.Hi->floor());
  if (Out.Lo && Out.Hi && *Out.Hi < *Out.Lo)
    return Interval::bottom();
  return Out;
}

//===--------------------------------------------------------------------===//
// Forward evaluation of terms and formulas.
//===--------------------------------------------------------------------===//

namespace {

Tri triOf(bool B) { return B ? Tri::True : Tri::False; }

/// a <= b from operand intervals. Empty operands yield Unknown: the
/// presolver's contraction entry check reports the contradiction with
/// better provenance.
Tri cmpLe(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Tri::Unknown;
  if (A.Hi && B.Lo && *A.Hi <= *B.Lo)
    return Tri::True;
  if (A.Lo && B.Hi && *B.Hi < *A.Lo)
    return Tri::False;
  return Tri::Unknown;
}

Tri cmpLt(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Tri::Unknown;
  if (A.Hi && B.Lo && *A.Hi < *B.Lo)
    return Tri::True;
  if (A.Lo && B.Hi && *B.Hi <= *A.Lo)
    return Tri::False;
  return Tri::Unknown;
}

/// meet(A, B).Empty without building the meet, whose endpoints would be
/// bignum copies: this is the hot test of every equality.
bool disjoint(const Interval &A, const Interval &B) {
  return A.Empty || B.Empty || (A.Hi && B.Lo && *A.Hi < *B.Lo) ||
         (B.Hi && A.Lo && *B.Hi < *A.Lo);
}

} // namespace

std::vector<std::pair<Term, unsigned>> analysis::groupFactors(
    const TermManager &M, Term Mul) {
  std::vector<std::pair<Term, unsigned>> Groups;
  for (Term Child : M.children(Mul)) {
    auto Same = [&](const auto &G) { return G.first == Child; };
    auto It = std::find_if(Groups.begin(), Groups.end(), Same);
    if (It != Groups.end())
      ++It->second;
    else
      Groups.emplace_back(Child, 1);
  }
  return Groups;
}

IntervalEvaluator::IntervalEvaluator(const TermManager &M,
                                     std::vector<Term> TheVars)
    : Ranges(TheVars.size()), Bools(TheVars.size(), Tri::Unknown), M(M),
      Vars(std::move(TheVars)) {
  for (unsigned I = 0; I < Vars.size(); ++I)
    Slots.emplace(Vars[I].id(), I);
}

unsigned IntervalEvaluator::slot(Term Var) const {
  auto It = Slots.find(Var.id());
  assert(It != Slots.end() && "not a variable of this evaluator");
  return It->second;
}

const Interval &IntervalEvaluator::iv(Term T) {
  auto Found = Memo.find(T.id());
  if (Found != Memo.end())
    return Found->second;

  Interval R = Interval::top();
  switch (M.kind(T)) {
  case Kind::ConstInt:
    R = Interval::point(Rational(M.intValue(T)));
    break;
  case Kind::ConstReal:
    R = Interval::point(M.realValue(T));
    break;
  case Kind::Variable: {
    auto It = Slots.find(T.id());
    if (It != Slots.end())
      R = Ranges[It->second];
    break;
  }
  case Kind::Neg:
    R = negI(iv(M.child(T, 0)));
    break;
  case Kind::IntAbs:
    R = absI(iv(M.child(T, 0)));
    break;
  case Kind::Add: {
    R = iv(M.child(T, 0));
    for (unsigned I = 1; I < M.numChildren(T); ++I)
      R = addI(R, iv(M.child(T, I)));
    break;
  }
  case Kind::Sub: {
    R = iv(M.child(T, 0));
    for (unsigned I = 1; I < M.numChildren(T); ++I)
      R = subI(R, iv(M.child(T, I)));
    break;
  }
  case Kind::Mul: {
    bool First = true;
    for (const auto &[Factor, Count] : groupFactors(M, T)) {
      Interval Power = powFullI(iv(Factor), Count);
      R = First ? std::move(Power) : mulFullI(R, Power);
      First = false;
    }
    break;
  }
  case Kind::RealDiv:
    // divFullI is top when the divisor may be zero: division by zero is
    // unspecified in SMT-LIB, so its value is unconstrained.
    R = divFullI(iv(M.child(T, 0)), iv(M.child(T, 1)));
    break;
  case Kind::IntDiv: {
    R = divFullI(iv(M.child(T, 0)), iv(M.child(T, 1)));
    // Euclidean division: real-division hull +-1.
    if (!R.Empty) {
      if (R.Lo)
        R.Lo = *R.Lo - Rational(1);
      if (R.Hi)
        R.Hi = *R.Hi + Rational(1);
    }
    break;
  }
  case Kind::IntMod: {
    // Euclidean remainder: 0 <= mod < |divisor|, but only where the
    // divisor cannot be zero (mod by zero is unspecified, like division).
    const Interval &Divisor = iv(M.child(T, 1));
    if (!Divisor.Empty && !Divisor.contains(Rational(0))) {
      Interval AbsDiv = absI(Divisor);
      R.Lo = Rational(0);
      if (AbsDiv.Hi)
        R.Hi = *AbsDiv.Hi - Rational(1);
    }
    break;
  }
  case Kind::Ite: {
    Tri Cond = tri(M.child(T, 0));
    if (Cond == Tri::True)
      R = iv(M.child(T, 1));
    else if (Cond == Tri::False)
      R = iv(M.child(T, 2));
    else
      R = hull(iv(M.child(T, 1)), iv(M.child(T, 2)));
    break;
  }
  default:
    break;
  }
  if (M.sort(T).isInt())
    R = roundToIntI(R);
  return Memo.emplace(T.id(), std::move(R)).first->second;
}

Tri IntervalEvaluator::tri(Term T) {
  switch (M.kind(T)) {
  case Kind::ConstBool:
    return triOf(M.boolValue(T));
  case Kind::Variable: {
    auto It = Slots.find(T.id());
    return It == Slots.end() ? Tri::Unknown : Bools[It->second];
  }
  case Kind::Not: {
    Tri Inner = tri(M.child(T, 0));
    if (Inner == Tri::Unknown)
      return Tri::Unknown;
    return Inner == Tri::True ? Tri::False : Tri::True;
  }
  case Kind::And: {
    bool AnyUnknown = false;
    for (Term Child : M.children(T)) {
      Tri V = tri(Child);
      if (V == Tri::False)
        return Tri::False;
      if (V == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::True;
  }
  case Kind::Or: {
    bool AnyUnknown = false;
    for (Term Child : M.children(T)) {
      Tri V = tri(Child);
      if (V == Tri::True)
        return Tri::True;
      if (V == Tri::Unknown)
        AnyUnknown = true;
    }
    return AnyUnknown ? Tri::Unknown : Tri::False;
  }
  case Kind::Implies: {
    Tri A = tri(M.child(T, 0)), B = tri(M.child(T, 1));
    if (A == Tri::False || B == Tri::True)
      return Tri::True;
    if (A == Tri::True && B == Tri::False)
      return Tri::False;
    return Tri::Unknown;
  }
  case Kind::Xor: {
    bool Acc = false;
    for (Term Child : M.children(T)) {
      Tri V = tri(Child);
      if (V == Tri::Unknown)
        return Tri::Unknown;
      Acc = Acc != (V == Tri::True);
    }
    return triOf(Acc);
  }
  case Kind::Eq: {
    if (M.sort(M.child(T, 0)).isBool()) {
      Tri First = tri(M.child(T, 0));
      bool AllKnown = First != Tri::Unknown;
      for (unsigned I = 1; I < M.numChildren(T); ++I) {
        Tri V = tri(M.child(T, I));
        if (V == Tri::Unknown)
          AllKnown = false;
        else if (First != Tri::Unknown && V != First)
          return Tri::False;
      }
      return AllKnown ? Tri::True : Tri::Unknown;
    }
    if (!M.sort(M.child(T, 0)).isUnbounded())
      return Tri::Unknown;
    bool AllEqualPoints = true;
    const Interval &First = iv(M.child(T, 0));
    for (unsigned I = 1; I < M.numChildren(T); ++I) {
      const Interval &V = iv(M.child(T, I));
      if (disjoint(First, V))
        return Tri::False;
      if (!(First.isPoint() && V.isPoint() && *First.Lo == *V.Lo))
        AllEqualPoints = false;
    }
    return AllEqualPoints ? Tri::True : Tri::Unknown;
  }
  case Kind::Distinct: {
    if (!M.sort(M.child(T, 0)).isUnbounded())
      return Tri::Unknown;
    bool AllDisjoint = true;
    for (unsigned I = 0; I < M.numChildren(T); ++I)
      for (unsigned J = I + 1; J < M.numChildren(T); ++J) {
        const Interval &A = iv(M.child(T, I)), &B = iv(M.child(T, J));
        if (A.Empty || B.Empty)
          return Tri::Unknown;
        if (A.isPoint() && B.isPoint() && *A.Lo == *B.Lo)
          return Tri::False;
        if (!disjoint(A, B))
          AllDisjoint = false;
      }
    return AllDisjoint ? Tri::True : Tri::Unknown;
  }
  case Kind::Le:
    return cmpLe(iv(M.child(T, 0)), iv(M.child(T, 1)));
  case Kind::Lt:
    return cmpLt(iv(M.child(T, 0)), iv(M.child(T, 1)));
  case Kind::Ge:
    return cmpLe(iv(M.child(T, 1)), iv(M.child(T, 0)));
  case Kind::Gt:
    return cmpLt(iv(M.child(T, 1)), iv(M.child(T, 0)));
  case Kind::Ite: {
    Tri Cond = tri(M.child(T, 0));
    if (Cond == Tri::True)
      return tri(M.child(T, 1));
    if (Cond == Tri::False)
      return tri(M.child(T, 2));
    Tri Then = tri(M.child(T, 1)), Else = tri(M.child(T, 2));
    return Then == Else ? Then : Tri::Unknown;
  }
  default:
    return Tri::Unknown;
  }
}

//===--------------------------------------------------------------------===//
// Backward transfer functions.
//===--------------------------------------------------------------------===//

Interval analysis::backAddOperand(const Interval &Result,
                                  const Interval &Other) {
  return subI(Result, Other);
}

Interval analysis::backSubLeft(const Interval &Result, const Interval &Right) {
  return addI(Result, Right);
}

Interval analysis::backSubRight(const Interval &Result, const Interval &Left) {
  return subI(Left, Result);
}

Interval analysis::backNeg(const Interval &Result) { return negI(Result); }

Interval analysis::backMulOperand(const Interval &Result,
                                  const Interval &Other) {
  if (Result.Empty || Other.Empty)
    return Interval::bottom();
  if (mayBeZero(Other))
    return Interval::top();
  return divFullI(Result, Other);
}

Interval analysis::backAbs(const Interval &Result) {
  if (Result.Empty)
    return Interval::bottom();
  if (Result.Hi && Result.Hi->sign() < 0)
    return Interval::bottom(); // |x| is never negative.
  if (!Result.Hi)
    return Interval::top();
  Interval Out;
  Out.Lo = Result.Hi->negated();
  Out.Hi = *Result.Hi;
  return Out;
}

Interval analysis::backIntDivDividend(const Interval &Result,
                                      const Interval &Divisor) {
  if (Result.Empty || Divisor.Empty)
    return Interval::bottom();
  Interval AbsDiv = absI(Divisor);
  if (!AbsDiv.Hi || mayBeZero(Divisor))
    return Interval::top();
  Interval Product = mulFullI(Result, Divisor);
  Interval Slack;
  Slack.Lo = AbsDiv.Hi->negated();
  Slack.Hi = *AbsDiv.Hi;
  return addI(Product, Slack);
}
