//===- analysis/Interval.cpp - Interval domain over the term DAG ----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Interval.h"

#include "analysis/Dataflow.h"

#include <algorithm>
#include <cassert>

using namespace staub;
using namespace staub::analysis;

//===----------------------------------------------------------------------===//
// Interval basics.
//===----------------------------------------------------------------------===//

Interval Interval::range(Rational Low, Rational High) {
  if (High < Low)
    return bottom();
  Interval I;
  I.Lo = std::move(Low);
  I.Hi = std::move(High);
  return I;
}

bool Interval::contains(const Rational &V) const {
  if (Empty)
    return false;
  if (Lo && V < *Lo)
    return false;
  if (Hi && *Hi < V)
    return false;
  return true;
}

bool Interval::within(const Rational &Low, const Rational &High) const {
  if (Empty)
    return true;
  return Lo && Hi && Low <= *Lo && *Hi <= High;
}

std::string Interval::toString() const {
  if (Empty)
    return "[]";
  return "[" + (Lo ? Lo->toString() : std::string("-oo")) + ", " +
         (Hi ? Hi->toString() : std::string("+oo")) + "]";
}

namespace {

/// Re-establishes the invariant after endpoint updates: crossing
/// endpoints mean the empty set.
Interval normalized(Interval I) {
  if (!I.Empty && I.Lo && I.Hi && *I.Hi < *I.Lo)
    return Interval::bottom();
  return I;
}

} // namespace

Interval analysis::meet(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::bottom();
  Interval Out;
  if (A.Lo && B.Lo)
    Out.Lo = std::max(*A.Lo, *B.Lo);
  else
    Out.Lo = A.Lo ? A.Lo : B.Lo;
  if (A.Hi && B.Hi)
    Out.Hi = std::min(*A.Hi, *B.Hi);
  else
    Out.Hi = A.Hi ? A.Hi : B.Hi;
  return normalized(Out);
}

Interval analysis::hull(const Interval &A, const Interval &B) {
  if (A.Empty)
    return B;
  if (B.Empty)
    return A;
  Interval Out;
  if (A.Lo && B.Lo)
    Out.Lo = std::min(*A.Lo, *B.Lo);
  if (A.Hi && B.Hi)
    Out.Hi = std::max(*A.Hi, *B.Hi);
  return Out;
}

//===----------------------------------------------------------------------===//
// Interval arithmetic.
//===----------------------------------------------------------------------===//

Interval analysis::negI(const Interval &A) {
  if (A.Empty)
    return Interval::bottom();
  Interval Out;
  if (A.Hi)
    Out.Lo = -*A.Hi;
  if (A.Lo)
    Out.Hi = -*A.Lo;
  return Out;
}

Interval analysis::addI(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::bottom();
  Interval Out;
  if (A.Lo && B.Lo)
    Out.Lo = *A.Lo + *B.Lo;
  if (A.Hi && B.Hi)
    Out.Hi = *A.Hi + *B.Hi;
  return Out;
}

Interval analysis::subI(const Interval &A, const Interval &B) {
  return addI(A, negI(B));
}

Interval analysis::mulI(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::bottom();
  // Only the finite x finite case is tracked; anything touching infinity
  // collapses to top (a signed case split buys little here because
  // callers clamp with the width range anyway).
  if (!A.isFinite() || !B.isFinite())
    return Interval::top();
  Rational P1 = *A.Lo * *B.Lo;
  Rational P2 = *A.Lo * *B.Hi;
  Rational P3 = *A.Hi * *B.Lo;
  Rational P4 = *A.Hi * *B.Hi;
  Interval Out;
  Out.Lo = std::min(std::min(P1, P2), std::min(P3, P4));
  Out.Hi = std::max(std::max(P1, P2), std::max(P3, P4));
  return Out;
}

Interval analysis::absI(const Interval &A) {
  if (A.Empty)
    return Interval::bottom();
  Interval Out;
  if (A.Hi && *A.Hi < Rational(0)) {
    // Entirely negative.
    Out.Lo = -*A.Hi;
    if (A.Lo)
      Out.Hi = -*A.Lo;
    return Out;
  }
  if (A.Lo && Rational(0) < *A.Lo) {
    // Entirely positive.
    Out.Lo = *A.Lo;
    Out.Hi = A.Hi;
    return Out;
  }
  // Straddles (or may straddle) zero.
  Out.Lo = Rational(0);
  if (A.Lo && A.Hi)
    Out.Hi = std::max(-*A.Lo, *A.Hi);
  return Out;
}

Interval analysis::divI(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::bottom();
  bool DivisorNonzero =
      (B.Lo && Rational(0) < *B.Lo) || (B.Hi && *B.Hi < Rational(0));
  if (!DivisorNonzero || !A.isFinite())
    return Interval::top();
  // Integer division with |divisor| >= 1: |quotient| <= max |dividend|
  // under both truncated (bvsdiv) and Euclidean (div) semantics.
  Rational M = std::max(A.Lo->abs(), A.Hi->abs());
  return Interval::range(-M, M);
}

Interval analysis::remI(const Interval &A, const Interval &B) {
  if (A.Empty || B.Empty)
    return Interval::bottom();
  bool DivisorNonzero =
      (B.Lo && Rational(0) < *B.Lo) || (B.Hi && *B.Hi < Rational(0));
  // SMT-LIB defines (bvsrem t 0) = t, so a divisor interval containing 0
  // gives no bound independent of the dividend.
  if (!DivisorNonzero || !B.isFinite())
    return Interval::top();
  Rational D = std::max(B.Lo->abs(), B.Hi->abs());
  return Interval::range(Rational(1) - D, D - Rational(1));
}

Rational analysis::widthRangeLo(unsigned Width) {
  assert(Width >= 1);
  return Rational(BigInt::pow2(Width - 1).negated());
}

Rational analysis::widthRangeHi(unsigned Width) {
  assert(Width >= 1);
  return Rational(BigInt::pow2(Width - 1) - BigInt(1));
}

bool analysis::overflowImpossible(Kind GuardKind, const Interval &A,
                                  const Interval &B, unsigned Width) {
  Rational Lo = widthRangeLo(Width);
  Rational Hi = widthRangeHi(Width);
  switch (GuardKind) {
  case Kind::BvSAddO:
    return addI(A, B).within(Lo, Hi);
  case Kind::BvSSubO:
    return subI(A, B).within(Lo, Hi);
  case Kind::BvSMulO:
    return mulI(A, B).within(Lo, Hi);
  case Kind::BvNegO:
    return negI(A).within(Lo, Hi);
  case Kind::BvSDivO:
    // Fires only for MIN / -1.
    if (A.Empty || B.Empty)
      return true;
    if (A.Lo && Lo < *A.Lo)
      return true;
    return !B.contains(Rational(-1));
  default:
    assert(false && "not an overflow predicate kind");
    return false;
  }
}

Interval analysis::intervalFromKnownBits(const KnownBits &K) {
  if (!K.hasInfo() || K.Width > 64)
    return Interval::top();
  uint64_t Mask = KnownBits::maskOf(K.Width);
  uint64_t SignBit = uint64_t(1) << (K.Width - 1);
  // With the sign bit unknown the unsigned envelope straddles the signed
  // wrap point, so nothing better than top is sound.
  if (SignBit & ~(K.Zero | K.One))
    return Interval::top();
  // Unsigned envelope: known ones set, everything not known-zero settable.
  // Both endpoints carry the same (known) sign bit, so the unsigned
  // ordering survives the signed reinterpretation.
  uint64_t UMin = K.One;
  uint64_t UMax = Mask & ~K.Zero;
  auto Signed = [&](uint64_t U) {
    if (K.Width == 64) // Two's-complement cast IS the signed value here.
      return Rational(BigInt(static_cast<int64_t>(U)));
    BigInt V(static_cast<int64_t>(U));
    return U & SignBit ? Rational(V - BigInt::pow2(K.Width)) : Rational(V);
  };
  return Interval::range(Signed(UMin), Signed(UMax));
}

std::optional<Rational> analysis::numericConstOf(const TermManager &Manager,
                                                 Term T) {
  switch (Manager.kind(T)) {
  case Kind::ConstInt:
    return Rational(Manager.intValue(T));
  case Kind::ConstReal:
    return Manager.realValue(T);
  case Kind::ConstBitVec:
    return Rational(Manager.bitVecValue(T).toSigned());
  default:
    return std::nullopt;
  }
}

bool analysis::overflowImpossible(Kind GuardKind, const Interval &A,
                                  const Interval &B, unsigned Width,
                                  const KnownBits &KA, const KnownBits &KB) {
  Interval MA = meet(A, intervalFromKnownBits(KA));
  Interval MB = meet(B, intervalFromKnownBits(KB));
  // Contradictory facts mean the operand is unreachable; a guard on it
  // can never fire.
  if (MA.Empty || MB.Empty)
    return true;
  return overflowImpossible(GuardKind, MA, MB, Width);
}

//===----------------------------------------------------------------------===//
// Fact harvesting.
//===----------------------------------------------------------------------===//

namespace {

/// A normalized variable-variable ordering fact. Rel is Le, Lt, or Eq
/// (between variables A and B); IsInt enables the off-by-one tightening
/// for strict inequalities over integer-valued sorts.
struct VarVarFact {
  Kind Rel;
  uint32_t A;
  uint32_t B;
  bool IsInt;
};

/// State threaded through harvesting.
struct Harvest {
  std::unordered_map<uint32_t, Interval> VarBounds;
  std::vector<VarVarFact> VarVar;
  unsigned FactCount = 0;
};

std::optional<Rational> constOf(const TermManager &M, Term T) {
  return numericConstOf(M, T);
}

bool isNumericVar(const TermManager &M, Term T) {
  if (M.kind(T) != Kind::Variable)
    return false;
  Sort S = M.sort(T);
  return S.isInt() || S.isReal() || S.isBitVec();
}

bool isIntegerValued(const TermManager &M, Term T) {
  Sort S = M.sort(T);
  return S.isInt() || S.isBitVec();
}

Interval &boundsSlot(Harvest &H, Term Var) {
  return H.VarBounds.try_emplace(Var.id(), Interval::top()).first->second;
}

void tightenLo(Harvest &H, Term Var, Rational Limit) {
  Interval &I = boundsSlot(H, Var);
  Interval Fact;
  Fact.Lo = std::move(Limit);
  I = meet(I, Fact);
  ++H.FactCount;
}

void tightenEq(Harvest &H, Term Var, Rational V) {
  Interval &I = boundsSlot(H, Var);
  I = meet(I, Interval::point(std::move(V)));
  ++H.FactCount;
}

/// Records facts from one comparison atom `L (Rel) R` where Rel is the
/// non-strict/strict less-than after normalization.
void harvestLess(const TermManager &M, Harvest &H, Term L, Term R, bool Strict,
                 bool UseVarVar) {
  auto CL = constOf(M, L);
  auto CR = constOf(M, R);
  bool VL = isNumericVar(M, L);
  bool VR = isNumericVar(M, R);
  if (VL && CR) {
    Rational Limit = *CR;
    if (Strict && isIntegerValued(M, L))
      Limit = Limit - Rational(1);
    Interval Fact;
    Fact.Hi = std::move(Limit);
    Interval &I = boundsSlot(H, L);
    I = meet(I, Fact);
    ++H.FactCount;
    return;
  }
  if (CL && VR) {
    Rational Limit = *CL;
    if (Strict && isIntegerValued(M, R))
      Limit = Limit + Rational(1);
    tightenLo(H, R, std::move(Limit));
    return;
  }
  if (VL && VR && UseVarVar && M.sort(L) == M.sort(R)) {
    H.VarVar.push_back({Strict ? Kind::Lt : Kind::Le, L.id(), R.id(),
                        isIntegerValued(M, L)});
    ++H.FactCount;
  }
}

/// Records facts from an equality atom over numeric terms (pairwise over
/// the n-ary chain).
void harvestEq(const TermManager &M, Harvest &H, Term T, bool UseVarVar) {
  unsigned N = M.numChildren(T);
  for (unsigned I = 0; I < N; ++I) {
    for (unsigned J = I + 1; J < N; ++J) {
      Term A = M.child(T, I);
      Term B = M.child(T, J);
      auto CA = constOf(M, A);
      auto CB = constOf(M, B);
      bool VA = isNumericVar(M, A);
      bool VB = isNumericVar(M, B);
      if (VA && CB)
        tightenEq(H, A, *CB);
      else if (CA && VB)
        tightenEq(H, B, *CA);
      else if (VA && VB && UseVarVar && M.sort(A) == M.sort(B)) {
        H.VarVar.push_back({Kind::Eq, A.id(), B.id(), isIntegerValued(M, A)});
        ++H.FactCount;
      }
    }
  }
}

/// Harvests facts from one positive-position formula: comparison atoms
/// directly, conjunctions recursively. Anything else (negations,
/// disjunctions, ites) asserts nothing unconditionally and is skipped.
void harvestFormula(const TermManager &M, Harvest &H, Term T, bool UseVarVar) {
  switch (M.kind(T)) {
  case Kind::And:
    for (Term Child : M.children(T))
      harvestFormula(M, H, Child, UseVarVar);
    return;
  case Kind::Le:
  case Kind::BvSle:
    harvestLess(M, H, M.child(T, 0), M.child(T, 1), /*Strict=*/false,
                UseVarVar);
    return;
  case Kind::Lt:
  case Kind::BvSlt:
    harvestLess(M, H, M.child(T, 0), M.child(T, 1), /*Strict=*/true,
                UseVarVar);
    return;
  case Kind::Ge:
  case Kind::BvSge:
    harvestLess(M, H, M.child(T, 1), M.child(T, 0), /*Strict=*/false,
                UseVarVar);
    return;
  case Kind::Gt:
  case Kind::BvSgt:
    harvestLess(M, H, M.child(T, 1), M.child(T, 0), /*Strict=*/true,
                UseVarVar);
    return;
  case Kind::Eq:
    if (M.numChildren(T) >= 2 && !M.sort(M.child(T, 0)).isBool())
      harvestEq(M, H, T, UseVarVar);
    return;
  default:
    return;
  }
}

/// Runs the capped variable-variable fixpoint. Each round applies every
/// ordering fact once, in harvest order; identical fact lists (the
/// translated conjunction mirrors the original's structure) therefore
/// converge to identical bounds on both sides of the translation.
void propagateVarVar(Harvest &H) {
  for (unsigned Round = 0; Round < VarVarRounds; ++Round) {
    bool Changed = false;
    for (const VarVarFact &F : H.VarVar) {
      Interval A = H.VarBounds.count(F.A) ? H.VarBounds[F.A] : Interval::top();
      Interval B = H.VarBounds.count(F.B) ? H.VarBounds[F.B] : Interval::top();
      Interval NewA = A;
      Interval NewB = B;
      if (F.Rel == Kind::Eq) {
        NewA = meet(A, B);
        NewB = NewA;
      } else {
        bool Tight = F.Rel == Kind::Lt && F.IsInt;
        // A <= B (or A <= B - 1): A's upper bound from B, B's lower from A.
        if (B.Hi) {
          Interval Fact;
          Fact.Hi = Tight ? *B.Hi - Rational(1) : *B.Hi;
          NewA = meet(NewA, Fact);
        }
        if (A.Lo) {
          Interval Fact;
          Fact.Lo = Tight ? *A.Lo + Rational(1) : *A.Lo;
          NewB = meet(NewB, Fact);
        }
        if (B.Empty)
          NewA = Interval::bottom();
        if (A.Empty)
          NewB = Interval::bottom();
      }
      if (NewA != A) {
        H.VarBounds[F.A] = NewA;
        Changed = true;
      }
      if (NewB != B) {
        H.VarBounds[F.B] = NewB;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
}

//===--------------------------------------------------------------------===//
// The interval domain (a Dataflow.h client).
//===--------------------------------------------------------------------===//

/// Matches the abs idiom ite(x < 0, -x, x) on either side of the
/// translation (Transform.cpp emits exactly this shape for IntAbs). Both
/// sides must agree, or elision and lint would diverge on abs operands.
bool isAbsPattern(const TermManager &M, Term T) {
  Term Cond = M.child(T, 0);
  Kind CK = M.kind(Cond);
  if ((CK != Kind::Lt && CK != Kind::BvSlt) || M.numChildren(Cond) != 2)
    return false;
  Term X = M.child(Cond, 0);
  Term Zero = M.child(Cond, 1);
  auto ZeroVal = constOf(M, Zero);
  if (!ZeroVal || *ZeroVal != Rational(0))
    return false;
  if (M.child(T, 2) != X)
    return false;
  Term Then = M.child(T, 1);
  Kind TK = M.kind(Then);
  return (TK == Kind::Neg || TK == Kind::BvNeg) && M.child(Then, 0) == X;
}

struct IntervalDomain {
  using Value = Interval;

  const TermManager &M;
  const std::unordered_map<uint32_t, Interval> *VarBounds;
  IntervalOptions Opts;

  Interval clampNode(Term T, Interval V) const {
    Sort S = M.sort(T);
    if (S.isBitVec())
      return meet(V, Interval::range(widthRangeLo(S.bitVecWidth()),
                                     widthRangeHi(S.bitVecWidth())));
    if (S.isInt() && Opts.ClampAllWidth)
      return meet(V, Interval::range(widthRangeLo(Opts.ClampAllWidth),
                                     widthRangeHi(Opts.ClampAllWidth)));
    return V;
  }

  /// Left-associative fold with a per-step clamp, mirroring both the
  /// translator's binary expansion of n-ary ops and the bounded side's
  /// per-node sort clamp.
  template <typename Op>
  Interval foldSteps(Term T, const std::vector<Interval> &C, Op StepOp) const {
    Interval Acc = C[0];
    for (size_t I = 1; I < C.size(); ++I)
      Acc = clampNode(T, StepOp(Acc, C[I]));
    return Acc;
  }

  Interval transfer(Term T, const std::vector<Interval> &C) const {
    Kind K = M.kind(T);
    Interval R = Interval::top();
    switch (K) {
    case Kind::ConstInt:
      R = Interval::point(Rational(M.intValue(T)));
      break;
    case Kind::ConstReal:
      R = Interval::point(M.realValue(T));
      break;
    case Kind::ConstBitVec:
      R = Interval::point(Rational(M.bitVecValue(T).toSigned()));
      break;
    case Kind::Variable: {
      Sort S = M.sort(T);
      if (VarBounds) {
        auto Found = VarBounds->find(T.id());
        if (Found != VarBounds->end())
          R = Found->second;
      }
      if (S.isInt() && Opts.ClampVarsWidth)
        R = meet(R, Interval::range(widthRangeLo(Opts.ClampVarsWidth),
                                    widthRangeHi(Opts.ClampVarsWidth)));
      if (S.isReal() && Opts.ClampRealVarsMagnitude) {
        Rational Bound(BigInt::pow2(Opts.ClampRealVarsMagnitude - 1) -
                       BigInt(1));
        R = meet(R, Interval::range(-Bound, Bound));
      }
      break;
    }
    case Kind::Neg:
    case Kind::BvNeg:
      R = negI(C[0]);
      break;
    case Kind::Add:
    case Kind::BvAdd:
      R = foldSteps(T, C, [](const Interval &A, const Interval &B) {
        return addI(A, B);
      });
      break;
    case Kind::Sub:
    case Kind::BvSub:
      R = foldSteps(T, C, [](const Interval &A, const Interval &B) {
        return subI(A, B);
      });
      break;
    case Kind::Mul:
    case Kind::BvMul:
      R = foldSteps(T, C, [](const Interval &A, const Interval &B) {
        return mulI(A, B);
      });
      break;
    case Kind::IntDiv:
    case Kind::BvSDiv:
      R = divI(C[0], C[1]);
      break;
    case Kind::IntMod:
    case Kind::BvSRem:
      R = remI(C[0], C[1]);
      break;
    case Kind::IntAbs:
      R = absI(C[0]);
      break;
    case Kind::RealDiv: {
      // a / b via the reciprocal interval when b provably excludes 0.
      const Interval &B = C[1];
      if (B.isFinite() && !B.contains(Rational(0))) {
        Interval Recip;
        Recip.Lo = Rational(1) / *B.Hi;
        Recip.Hi = Rational(1) / *B.Lo;
        R = mulI(C[0], normalized(Recip));
      }
      break;
    }
    case Kind::Ite:
      if (!M.sort(T).isBool())
        R = isAbsPattern(M, T) ? absI(C[2]) : hull(C[1], C[2]);
      break;
    default:
      break; // Comparisons, connectives, unanalyzed ops: top.
    }
    return clampNode(T, R);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// IntervalSummary.
//===----------------------------------------------------------------------===//

struct IntervalSummary::Impl {
  std::unordered_map<uint32_t, Interval> VarBounds;
  unsigned FactCount = 0;
  std::optional<DagAnalysis<IntervalDomain>> Analysis;
};

IntervalSummary::IntervalSummary() : TheImpl(std::make_unique<Impl>()) {}
IntervalSummary::~IntervalSummary() = default;
IntervalSummary::IntervalSummary(IntervalSummary &&) noexcept = default;
IntervalSummary &
IntervalSummary::operator=(IntervalSummary &&) noexcept = default;

const Interval &IntervalSummary::of(Term T) const {
  assert(TheImpl->Analysis && "summary not initialized");
  return TheImpl->Analysis->get(T);
}

Interval IntervalSummary::varFact(Term Variable) const {
  auto Found = TheImpl->VarBounds.find(Variable.id());
  return Found == TheImpl->VarBounds.end() ? Interval::top() : Found->second;
}

bool IntervalSummary::hasFacts() const { return TheImpl->FactCount > 0; }

IntervalSummary analysis::analyzeIntervals(const TermManager &Manager,
                                           const std::vector<Term> &Assertions,
                                           const IntervalOptions &Options) {
  IntervalSummary Summary;
  Harvest H;
  for (Term Assertion : Assertions)
    harvestFormula(Manager, H, Assertion, Options.UseVarVarFacts);
  propagateVarVar(H);
  Summary.TheImpl->VarBounds = std::move(H.VarBounds);
  Summary.TheImpl->FactCount = H.FactCount;
  Summary.TheImpl->Analysis.emplace(
      Manager,
      IntervalDomain{Manager, &Summary.TheImpl->VarBounds, Options});
  return Summary;
}
