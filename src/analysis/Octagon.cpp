//===- analysis/Octagon.cpp - Octagon domain over the term DAG ------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Octagon.h"

using namespace staub;
using namespace staub::analysis;

//===----------------------------------------------------------------------===//
// Octagon.
//===----------------------------------------------------------------------===//

void Octagon::addVariable(uint32_t VarId) {
  VarPair.try_emplace(VarId, unsigned(VarPair.size()));
}

void Octagon::constrainVar(uint32_t VarId, const Interval &R) {
  if (!hasVariable(VarId) || R.isTop() || R.Empty)
    return;
  unsigned P = posNode(VarId);
  // x <= hi doubles to D(+x, -x) <= 2*hi; x >= lo to D(-x, +x) <= -2*lo.
  if (R.Hi)
    Bounds.push_back({P, P + 1, *R.Hi + *R.Hi});
  if (R.Lo)
    Bounds.push_back({P + 1, P, -(*R.Lo + *R.Lo)});
}

bool Octagon::addFact(const RelFact &F) {
  if (!hasVariable(F.X) || (F.SY != 0 && !hasVariable(F.Y)))
    return false;
  unsigned NX = posNode(F.X) + (F.SX > 0 ? 0 : 1);
  if (F.SY == 0) {
    // SX*x <= C doubles on the signed pair: D(node(x,SX), node(x,-SX)).
    Bounds.push_back({NX, NX ^ 1u, F.C + F.C});
    return true;
  }
  // SX*x + SY*y <= C: val(node(x,SX)) - val(node(y,-SY)) = SX*x + SY*y,
  // recorded with its coherent dual edge.
  unsigned NYDual = posNode(F.Y) + (F.SY > 0 ? 1 : 0);
  Bounds.push_back({NX, NYDual, F.C});
  unsigned NY = NYDual ^ 1u;
  Bounds.push_back({NY, NX ^ 1u, F.C});
  return true;
}

bool Octagon::close() {
  Matrix.emplace(unsigned(VarPair.size()) * 2, /*TrackSources=*/false);
  for (const PendingBound &B : Bounds)
    Matrix->tighten(B.I, B.J, B.C);
  return Matrix->strongClose();
}

bool Octagon::consistent() const { return !Matrix || Matrix->consistent(); }

Interval Octagon::varInterval(uint32_t VarId) const {
  if (!Matrix || !hasVariable(VarId))
    return Interval::top();
  if (!Matrix->consistent())
    return Interval::bottom();
  unsigned P = posNode(VarId);
  Interval Out;
  if (std::optional<Rational> Hi = Matrix->at(P, P + 1))
    Out.Hi = Rational((*Hi / Rational(2)).floor());
  if (std::optional<Rational> Lo = Matrix->at(P + 1, P))
    Out.Lo = Rational((-(*Lo / Rational(2))).ceil());
  if (Out.Lo && Out.Hi && *Out.Hi < *Out.Lo)
    return Interval::bottom();
  return Out;
}

std::optional<Rational> Octagon::pairUpper(uint32_t X, int SX, uint32_t Y,
                                           int SY) const {
  if (!Matrix || !Matrix->consistent() || !hasVariable(X) || !hasVariable(Y))
    return std::nullopt;
  unsigned NX = posNode(X) + (SX > 0 ? 0 : 1);
  unsigned NYDual = posNode(Y) + (SY > 0 ? 1 : 0);
  return Matrix->at(NX, NYDual);
}

//===----------------------------------------------------------------------===//
// Guard keys.
//===----------------------------------------------------------------------===//

std::optional<Kind> analysis::overflowPredicateFor(Kind OpKind) {
  switch (OpKind) {
  case Kind::Neg:
  case Kind::BvNeg:
    return Kind::BvNegO;
  case Kind::Add:
  case Kind::BvAdd:
    return Kind::BvSAddO;
  case Kind::Sub:
  case Kind::BvSub:
    return Kind::BvSSubO;
  case Kind::Mul:
  case Kind::BvMul:
    return Kind::BvSMulO;
  case Kind::IntDiv:
  case Kind::BvSDiv:
    return Kind::BvSDivO;
  default:
    return std::nullopt;
  }
}

GuardKey analysis::makeGuardKey(Kind Predicate, uint32_t A, uint32_t B) {
  bool Commutative = Predicate == Kind::BvSAddO || Predicate == Kind::BvSMulO;
  if (Commutative && B != UINT32_MAX && A > B)
    std::swap(A, B);
  return {static_cast<uint8_t>(Predicate), A, B};
}

GuardKey analysis::relFactSourceKey(const RelFact &F) {
  Kind Predicate = overflowPredicateFor(F.SourceOp).value_or(Kind::And);
  // Guards of the unary bvneg carry no second operand.
  uint32_t B = Predicate == Kind::BvNegO ? UINT32_MAX : F.SourceB;
  return makeGuardKey(Predicate, F.SourceA, B);
}

//===----------------------------------------------------------------------===//
// Fact harvesting.
//===----------------------------------------------------------------------===//

namespace {

bool isRelVar(const TermManager &M, Term T) {
  if (M.kind(T) != Kind::Variable)
    return false;
  Sort S = M.sort(T);
  return S.isInt() || S.isReal() || S.isBitVec();
}

bool isIntegerValuedSort(const Sort &S) { return S.isInt() || S.isBitVec(); }

/// A matched linear form SX*X + SY*Y over at most two variables, with
/// the overflow-capable operation it reads through (if any).
struct LinForm {
  uint32_t X = 0;
  uint32_t Y = 0;
  int SX = 1;
  int SY = 0;
  bool HasSource = false;
  Kind SourceOp = Kind::And;
  uint32_t SourceA = 0;
  uint32_t SourceB = 0;
};

std::optional<LinForm> linearOf(const TermManager &M, Term T) {
  Kind K = M.kind(T);
  if (K == Kind::Variable) {
    if (!isRelVar(M, T))
      return std::nullopt;
    LinForm F;
    F.X = T.id();
    return F;
  }
  if ((K == Kind::Neg || K == Kind::BvNeg) && M.numChildren(T) == 1) {
    Term X = M.child(T, 0);
    if (!isRelVar(M, X))
      return std::nullopt;
    LinForm F;
    F.X = X.id();
    F.SX = -1;
    F.HasSource = true;
    F.SourceOp = K;
    F.SourceA = F.SourceB = X.id();
    return F;
  }
  if ((K == Kind::Sub || K == Kind::BvSub || K == Kind::Add ||
       K == Kind::BvAdd) &&
      M.numChildren(T) == 2) {
    Term X = M.child(T, 0), Y = M.child(T, 1);
    if (!isRelVar(M, X) || !isRelVar(M, Y) || M.sort(X) != M.sort(Y))
      return std::nullopt;
    LinForm F;
    F.X = X.id();
    F.Y = Y.id();
    F.SY = (K == Kind::Sub || K == Kind::BvSub) ? -1 : 1;
    F.HasSource = true;
    F.SourceOp = K;
    F.SourceA = X.id();
    F.SourceB = Y.id();
    return F;
  }
  return std::nullopt;
}

/// Records facts of one normalized atom `L <= R` (or `L < R`).
void harvestRelLess(const TermManager &M, std::vector<RelFact> &Out, Term L,
                    Term R, bool Strict) {
  auto CL = numericConstOf(M, L);
  auto CR = numericConstOf(M, R);
  Rational Adjust =
      Strict && isIntegerValuedSort(M.sort(L)) ? Rational(1) : Rational(0);

  auto Emit = [&](const LinForm &Form, Rational C, bool Negate) {
    RelFact F;
    F.X = Form.X;
    F.Y = Form.Y;
    F.SX = Negate ? -Form.SX : Form.SX;
    F.SY = Negate ? -Form.SY : Form.SY;
    F.C = std::move(C);
    F.HasSource = Form.HasSource;
    F.SourceOp = Form.SourceOp;
    F.SourceA = Form.SourceA;
    F.SourceB = Form.SourceB;
    Out.push_back(std::move(F));
  };

  if (CR) {
    if (auto Form = linearOf(M, L))
      Emit(*Form, *CR - Adjust, /*Negate=*/false);
    return;
  }
  if (CL) {
    // c <= form  ==  -form <= -c.
    if (auto Form = linearOf(M, R))
      Emit(*Form, -*CL - Adjust, /*Negate=*/true);
    return;
  }
  // x <= y between plain variables of one sort: x - y <= 0.
  if (isRelVar(M, L) && isRelVar(M, R) && L != R && M.sort(L) == M.sort(R)) {
    LinForm Form;
    Form.X = L.id();
    Form.Y = R.id();
    Form.SY = -1;
    Emit(Form, -Adjust, /*Negate=*/false);
  }
}

void harvestRelFormula(const TermManager &M, std::vector<RelFact> &Out,
                       Term T) {
  switch (M.kind(T)) {
  case Kind::And:
    for (Term Child : M.children(T))
      harvestRelFormula(M, Out, Child);
    return;
  case Kind::Le:
  case Kind::BvSle:
    harvestRelLess(M, Out, M.child(T, 0), M.child(T, 1), /*Strict=*/false);
    return;
  case Kind::Lt:
  case Kind::BvSlt:
    harvestRelLess(M, Out, M.child(T, 0), M.child(T, 1), /*Strict=*/true);
    return;
  case Kind::Ge:
  case Kind::BvSge:
    harvestRelLess(M, Out, M.child(T, 1), M.child(T, 0), /*Strict=*/false);
    return;
  case Kind::Gt:
  case Kind::BvSgt:
    harvestRelLess(M, Out, M.child(T, 1), M.child(T, 0), /*Strict=*/true);
    return;
  case Kind::Eq:
    if (M.numChildren(T) == 2 && !M.sort(M.child(T, 0)).isBool()) {
      harvestRelLess(M, Out, M.child(T, 0), M.child(T, 1), /*Strict=*/false);
      harvestRelLess(M, Out, M.child(T, 1), M.child(T, 0), /*Strict=*/false);
    }
    return;
  default:
    return;
  }
}

} // namespace

std::vector<RelFact>
analysis::harvestRelationalFacts(const TermManager &Manager,
                                 const std::vector<Term> &Assertions) {
  std::vector<RelFact> Out;
  for (Term Assertion : Assertions)
    harvestRelFormula(Manager, Out, Assertion);
  return Out;
}

//===----------------------------------------------------------------------===//
// The shared relational overflow oracle.
//===----------------------------------------------------------------------===//

bool analysis::relationalOverflowImpossible(const TermManager &Manager,
                                            Kind GuardKind, Term A, Term B,
                                            const Interval &IA,
                                            const Interval &IB, unsigned Width,
                                            const Octagon &Oct) {
  // Contradictory relational facts mean the operands are unreachable in
  // any model of the (guarded) constraint; the guard can never fire.
  if (!Oct.consistent())
    return true;

  auto RegisteredVar = [&](Term T) {
    return T.isValid() && Manager.kind(T) == Kind::Variable &&
           Oct.hasVariable(T.id());
  };
  auto Refine = [&](Term T, const Interval &I) {
    return RegisteredVar(T) ? meet(I, Oct.varInterval(T.id())) : I;
  };
  Interval RA = Refine(A, IA);
  Interval RB = B.isValid() ? Refine(B, IB) : IB;
  if (RA.Empty || RB.Empty)
    return true;

  // The pairwise bounds are what the projections cannot express: for
  // x + y and x - y over registered variables, the closed octagon holds
  // sup/inf of the combination directly.
  if ((GuardKind == Kind::BvSAddO || GuardKind == Kind::BvSSubO) &&
      RegisteredVar(A) && RegisteredVar(B)) {
    int SY = GuardKind == Kind::BvSAddO ? 1 : -1;
    Interval Pair;
    if (auto Up = Oct.pairUpper(A.id(), 1, B.id(), SY))
      Pair.Hi = *Up;
    if (auto Down = Oct.pairUpper(A.id(), -1, B.id(), -SY))
      Pair.Lo = -*Down;
    Interval Result = GuardKind == Kind::BvSAddO ? addI(RA, RB) : subI(RA, RB);
    Result = meet(Result, Pair);
    if (Result.Empty)
      return true;
    return Result.within(widthRangeLo(Width), widthRangeHi(Width));
  }

  return overflowImpossible(GuardKind, RA, RB, Width);
}
