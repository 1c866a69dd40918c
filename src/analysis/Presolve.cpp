//===- analysis/Presolve.cpp - Interval-contraction presolver -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Presolve.h"

#include "analysis/Contract.h"
#include "analysis/Zone.h"
#include "smtlib/Printer.h"

#include <algorithm>
#include <set>
#include <unordered_set>

using namespace staub;
using namespace staub::analysis;

std::string_view analysis::toString(PresolveVerdict V) {
  switch (V) {
  case PresolveVerdict::None:
    return "none";
  case PresolveVerdict::TriviallyUnsat:
    return "trivially-unsat";
  case PresolveVerdict::TriviallySat:
    return "trivially-sat";
  }
  return "none";
}

namespace {

/// Every variable of \p Roots, in first-seen order (deterministic
/// materialization).
std::vector<Term> firstSeenVars(const TermManager &M,
                                const std::vector<Term> &Roots) {
  std::vector<Term> Vars;
  std::unordered_set<uint32_t> Seen;
  for (Term Root : Roots)
    for (Term Var : M.collectVariables(Root))
      if (Seen.insert(Var.id()).second)
        Vars.push_back(Var);
  return Vars;
}

/// The whole pass lives in one stateful engine: flatten, fixpoint
/// (forward evaluation by the shared IntervalEvaluator + backward HC4
/// contraction), Boolean simplification, then verdict/materialization.
class Engine {
public:
  Engine(TermManager &M, const std::vector<Term> &Roots,
         const PresolveOptions &Opts)
      : M(M), Roots(Roots), Opts(Opts), Eval(M, firstSeenVars(M, Roots)) {}

  PresolveResult run();

private:
  TermManager &M;
  const std::vector<Term> &Roots;
  const PresolveOptions &Opts;

  /// One top-level conjunct (after descending through `and`s), tagged
  /// with the index of the original assertion it came from.
  struct Conjunct {
    Term T;
    unsigned Root;
    bool Dropped = false;
  };
  std::vector<Conjunct> Conjuncts;
  /// Forward evaluation over the contracted ranges of numeric variables
  /// and the pinned Bool variables (unit propagation, pure literals);
  /// its slots are every variable of the input, in first-seen order.
  IntervalEvaluator Eval;
  /// Original assertion indices that contributed to a variable's
  /// narrowing (certificate provenance).
  std::unordered_map<uint32_t, std::set<unsigned>> Sources;

  /// Feasible per-variable points from the last zone closure (the
  /// shortest-distance potential function); pickValue() prefers them for
  /// variables whose range stayed unbounded.
  std::unordered_map<uint32_t, Rational> Potentials;

  bool Changed = false;
  bool Failed = false;
  unsigned FailedConjunct = 0;
  /// Set when the relational pass (not a conjunct contraction) derived
  /// the contradiction; RelFailRoots then carries the certificate.
  bool RelFailed = false;
  std::set<unsigned> RelFailRoots;

  void fail(unsigned CIdx) {
    if (!Failed) {
      Failed = true;
      FailedConjunct = CIdx;
    }
  }

  void invalidate() {
    Changed = true;
    Eval.invalidate();
  }

  void flatten(Term T, unsigned Root) {
    if (M.kind(T) == Kind::And) {
      for (Term Child : M.childrenCopy(T))
        flatten(Child, Root);
      return;
    }
    Conjuncts.push_back({T, Root});
  }

  void contractFormula(Term T, bool Target, unsigned CIdx);
  void contractCompare(Kind K, Term A, Term B, bool Target, unsigned CIdx);
  void contractTerm(Term T, const Interval &Target, unsigned CIdx);
  void shaveNeq(Term X, Term Other, unsigned CIdx);
  void assignBool(Term Var, bool V, unsigned CIdx);

  void pureLiteralPass();
  void polarity(Term T, uint8_t Mode,
                std::unordered_map<uint32_t, uint8_t> &Out,
                std::unordered_set<uint64_t> &Seen);

  bool relationalPass();

  Value pickValue(Term Var) const;
  void buildSuggested(PresolveResult &R) const;
  void buildCertificate(PresolveResult &R) const;
  void materialize(PresolveResult &R);
};

//===--------------------------------------------------------------------===//
// Backward contraction.
//===--------------------------------------------------------------------===//

void Engine::assignBool(Term Var, bool V, unsigned CIdx) {
  Tri &Cur = Eval.Bools[Eval.slot(Var)];
  if (Cur != Tri::Unknown) {
    if ((Cur == Tri::True) != V)
      fail(CIdx);
    return;
  }
  Cur = V ? Tri::True : Tri::False;
  Sources[Var.id()].insert(Conjuncts[CIdx].Root);
  invalidate();
}

void Engine::contractFormula(Term T, bool Target, unsigned CIdx) {
  if (Failed)
    return;
  switch (M.kind(T)) {
  case Kind::ConstBool:
    if (M.boolValue(T) != Target)
      fail(CIdx);
    return;
  case Kind::Variable:
    assignBool(T, Target, CIdx);
    return;
  case Kind::Not:
    contractFormula(M.child(T, 0), !Target, CIdx);
    return;
  case Kind::And: {
    if (Target) {
      for (Term Child : M.children(T)) {
        contractFormula(Child, true, CIdx);
        if (Failed)
          return;
      }
      return;
    }
    // (and ...) = false: conclusive only when all but one child are
    // definitely true.
    unsigned Unknowns = 0;
    Term Open = T;
    for (Term Child : M.children(T)) {
      Tri V = Eval.tri(Child);
      if (V == Tri::False)
        return; // Already false.
      if (V == Tri::Unknown) {
        ++Unknowns;
        Open = Child;
      }
    }
    if (Unknowns == 0)
      fail(CIdx);
    else if (Unknowns == 1)
      contractFormula(Open, false, CIdx);
    return;
  }
  case Kind::Or: {
    if (!Target) {
      for (Term Child : M.children(T)) {
        contractFormula(Child, false, CIdx);
        if (Failed)
          return;
      }
      return;
    }
    unsigned Unknowns = 0;
    Term Open = T;
    for (Term Child : M.children(T)) {
      Tri V = Eval.tri(Child);
      if (V == Tri::True)
        return; // Already true.
      if (V == Tri::Unknown) {
        ++Unknowns;
        Open = Child;
      }
    }
    if (Unknowns == 0)
      fail(CIdx);
    else if (Unknowns == 1)
      contractFormula(Open, true, CIdx);
    return;
  }
  case Kind::Implies: {
    Term A = M.child(T, 0), B = M.child(T, 1);
    if (!Target) {
      contractFormula(A, true, CIdx);
      if (!Failed)
        contractFormula(B, false, CIdx);
      return;
    }
    if (Eval.tri(A) == Tri::True)
      contractFormula(B, true, CIdx);
    else if (Eval.tri(B) == Tri::False)
      contractFormula(A, false, CIdx);
    return;
  }
  case Kind::Xor: {
    if (M.numChildren(T) != 2)
      return;
    Term A = M.child(T, 0), B = M.child(T, 1);
    Tri VA = Eval.tri(A), VB = Eval.tri(B);
    // Target = a xor b  =>  b = a xor Target.
    if (VA != Tri::Unknown)
      contractFormula(B, (VA == Tri::True) != Target, CIdx);
    else if (VB != Tri::Unknown)
      contractFormula(A, (VB == Tri::True) != Target, CIdx);
    return;
  }
  case Kind::Eq: {
    Term C0 = M.child(T, 0);
    if (M.sort(C0).isBool()) {
      if (Target) {
        // All children equal: any known child pins the rest.
        Tri Known = Tri::Unknown;
        for (Term Child : M.children(T))
          if (Eval.tri(Child) != Tri::Unknown) {
            Known = Eval.tri(Child);
            break;
          }
        if (Known == Tri::Unknown)
          return;
        for (Term Child : M.children(T)) {
          contractFormula(Child, Known == Tri::True, CIdx);
          if (Failed)
            return;
        }
      } else if (M.numChildren(T) == 2) {
        Term A = C0, B = M.child(T, 1);
        if (Eval.tri(A) != Tri::Unknown)
          contractFormula(B, Eval.tri(A) != Tri::True, CIdx);
        else if (Eval.tri(B) != Tri::Unknown)
          contractFormula(A, Eval.tri(B) != Tri::True, CIdx);
      }
      return;
    }
    if (!M.sort(C0).isUnbounded())
      return;
    if (Target) {
      Interval Meet = Eval.iv(C0);
      for (unsigned I = 1; I < M.numChildren(T); ++I)
        Meet = meet(Meet, Eval.iv(M.child(T, I)));
      for (Term Child : M.childrenCopy(T)) {
        contractTerm(Child, Meet, CIdx);
        if (Failed)
          return;
      }
    } else if (M.numChildren(T) == 2) {
      shaveNeq(C0, M.child(T, 1), CIdx);
      if (!Failed)
        shaveNeq(M.child(T, 1), C0, CIdx);
    }
    return;
  }
  case Kind::Distinct: {
    if (M.numChildren(T) != 2 || !M.sort(M.child(T, 0)).isUnbounded())
      return;
    Term A = M.child(T, 0), B = M.child(T, 1);
    if (Target) {
      shaveNeq(A, B, CIdx);
      if (!Failed)
        shaveNeq(B, A, CIdx);
    } else {
      Interval Meet = meet(Eval.iv(A), Eval.iv(B));
      contractTerm(A, Meet, CIdx);
      if (!Failed)
        contractTerm(B, Meet, CIdx);
    }
    return;
  }
  case Kind::Le:
  case Kind::Lt:
  case Kind::Ge:
  case Kind::Gt:
    contractCompare(M.kind(T), M.child(T, 0), M.child(T, 1), Target, CIdx);
    return;
  case Kind::Ite: {
    Term Cond = M.child(T, 0), Then = M.child(T, 1), Else = M.child(T, 2);
    Tri C = Eval.tri(Cond);
    if (C == Tri::True) {
      contractFormula(Then, Target, CIdx);
    } else if (C == Tri::False) {
      contractFormula(Else, Target, CIdx);
    } else {
      Tri TThen = Eval.tri(Then), TElse = Eval.tri(Else);
      if (TThen != Tri::Unknown && (TThen == Tri::True) != Target) {
        // The then-branch cannot produce Target: the condition is false.
        contractFormula(Cond, false, CIdx);
        if (!Failed)
          contractFormula(Else, Target, CIdx);
      } else if (TElse != Tri::Unknown && (TElse == Tri::True) != Target) {
        contractFormula(Cond, true, CIdx);
        if (!Failed)
          contractFormula(Then, Target, CIdx);
      }
    }
    return;
  }
  default:
    return;
  }
}

void Engine::contractCompare(Kind K, Term A, Term B, bool Target,
                             unsigned CIdx) {
  // Normalize to A <= B / A < B.
  if (!Target) {
    // not (a <= b)  ==  a > b, etc.
    switch (K) {
    case Kind::Le:
      K = Kind::Gt;
      break;
    case Kind::Lt:
      K = Kind::Ge;
      break;
    case Kind::Ge:
      K = Kind::Lt;
      break;
    case Kind::Gt:
      K = Kind::Le;
      break;
    default:
      return;
    }
  }
  if (K == Kind::Ge || K == Kind::Gt) {
    std::swap(A, B);
    K = K == Kind::Ge ? Kind::Le : Kind::Lt;
  }
  bool Strict = K == Kind::Lt;
  bool IntSorted = M.sort(A).isInt();
  // Strict comparisons over Int tighten by one; over Real the closed
  // endpoint is a sound overapproximation of the open one. The
  // bad-contract injection applies the Int tightening to non-strict
  // comparisons too — exactly one off too tight.
  bool TightenByOne = IntSorted && (Strict || Opts.InjectBadContract);

  Interval UpperForA = Interval::top();
  if (Interval IB = Eval.iv(B); IB.Hi) {
    UpperForA.Hi = TightenByOne ? *IB.Hi - Rational(1) : *IB.Hi;
  }
  contractTerm(A, UpperForA, CIdx);
  if (Failed)
    return;
  Interval LowerForB = Interval::top();
  if (Interval IA = Eval.iv(A); IA.Lo) {
    LowerForB.Lo = TightenByOne ? *IA.Lo + Rational(1) : *IA.Lo;
  }
  contractTerm(B, LowerForB, CIdx);
}

void Engine::shaveNeq(Term X, Term Other, unsigned CIdx) {
  // X != Other with Other a known point: shave matching integral
  // endpoints off X's range.
  if (!M.sort(X).isInt())
    return;
  Interval IO = Eval.iv(Other);
  if (!(IO.isFinite() && IO.Lo == IO.Hi))
    return;
  const Rational &P = *IO.Lo;
  Interval IX = Eval.iv(X);
  if (IX.Empty)
    return;
  if (IX.Lo && *IX.Lo == P) {
    Interval Shaved = Interval::top();
    Shaved.Lo = P + Rational(1);
    contractTerm(X, Shaved, CIdx);
  } else if (IX.Hi && *IX.Hi == P) {
    Interval Shaved = Interval::top();
    Shaved.Hi = P - Rational(1);
    contractTerm(X, Shaved, CIdx);
  }
}

void Engine::contractTerm(Term T, const Interval &Target, unsigned CIdx) {
  if (Failed)
    return;
  Interval Cur = Eval.iv(T);
  Interval R = meet(Cur, Target);
  if (M.sort(T).isInt())
    R = roundToIntI(R);
  if (R.Empty) {
    fail(CIdx);
    return;
  }
  if (R == Cur)
    return; // Nothing new to push down.

  switch (M.kind(T)) {
  case Kind::Variable: {
    Eval.Ranges[Eval.slot(T)] = R;
    Sources[T.id()].insert(Conjuncts[CIdx].Root);
    invalidate();
    return;
  }
  case Kind::Neg:
    contractTerm(M.child(T, 0), backNeg(R), CIdx);
    return;
  case Kind::IntAbs:
    contractTerm(M.child(T, 0), backAbs(R), CIdx);
    return;
  case Kind::Add: {
    unsigned N = M.numChildren(T);
    for (unsigned I = 0; I < N; ++I) {
      Interval Others;
      bool First = true;
      for (unsigned J = 0; J < N; ++J) {
        if (J == I)
          continue;
        Interval C = Eval.iv(M.child(T, J));
        Others = First ? C : addI(Others, C);
        First = false;
      }
      if (First)
        Others = Interval::point(Rational(0));
      contractTerm(M.child(T, I), backAddOperand(R, Others), CIdx);
      if (Failed)
        return;
    }
    return;
  }
  case Kind::Sub: {
    // c0 - c1 - ... - cn.
    unsigned N = M.numChildren(T);
    Interval Tail = Interval::point(Rational(0));
    for (unsigned J = 1; J < N; ++J)
      Tail = addI(Tail, Eval.iv(M.child(T, J)));
    contractTerm(M.child(T, 0), backSubLeft(R, Tail), CIdx);
    if (Failed)
      return;
    for (unsigned I = 1; I < N; ++I) {
      Interval OthersTail = Interval::point(Rational(0));
      for (unsigned J = 1; J < N; ++J)
        if (J != I)
          OthersTail = addI(OthersTail, Eval.iv(M.child(T, J)));
      // Left = c0 minus the other tail terms; value = Left - ci.
      Interval Left = subI(Eval.iv(M.child(T, 0)), OthersTail);
      contractTerm(M.child(T, I), backSubRight(R, Left), CIdx);
      if (Failed)
        return;
    }
    return;
  }
  case Kind::Mul: {
    // Narrow only degree-1 factors: inverting x^k needs k-th roots,
    // which exact rationals do not close over.
    auto Groups = groupFactors(M, T);
    for (const auto &[Factor, Count] : Groups) {
      if (Count != 1)
        continue;
      Interval OthProd = Interval::point(Rational(1));
      for (const auto &[Other, OCount] : Groups)
        if (Other != Factor)
          OthProd = mulFullI(OthProd, powFullI(Eval.iv(Other), OCount));
      contractTerm(Factor, backMulOperand(R, OthProd), CIdx);
      if (Failed)
        return;
    }
    return;
  }
  case Kind::RealDiv: {
    Term A = M.child(T, 0), B = M.child(T, 1);
    Interval IB = Eval.iv(B);
    if (IB.Empty || IB.contains(Rational(0)))
      return; // Division may be unconstrained: no narrowing is sound.
    contractTerm(A, mulFullI(R, IB), CIdx);
    if (Failed)
      return;
    contractTerm(B, divFullI(Eval.iv(A), R), CIdx);
    return;
  }
  case Kind::IntDiv:
    contractTerm(M.child(T, 0), backIntDivDividend(R, Eval.iv(M.child(T, 1))),
                 CIdx);
    return;
  case Kind::Ite: {
    Term Cond = M.child(T, 0), Then = M.child(T, 1), Else = M.child(T, 2);
    Tri C = Eval.tri(Cond);
    if (C == Tri::True) {
      contractTerm(Then, R, CIdx);
    } else if (C == Tri::False) {
      contractTerm(Else, R, CIdx);
    } else {
      bool ThenEmpty = meet(Eval.iv(Then), R).Empty;
      bool ElseEmpty = meet(Eval.iv(Else), R).Empty;
      if (ThenEmpty && ElseEmpty) {
        fail(CIdx);
      } else if (ThenEmpty) {
        contractFormula(Cond, false, CIdx);
        if (!Failed)
          contractTerm(Else, R, CIdx);
      } else if (ElseEmpty) {
        contractFormula(Cond, true, CIdx);
        if (!Failed)
          contractTerm(Then, R, CIdx);
      }
    }
    return;
  }
  default:
    return;
  }
}

//===--------------------------------------------------------------------===//
// Pure literals.
//===--------------------------------------------------------------------===//

namespace {
constexpr uint8_t PolPos = 1, PolNeg = 2;
uint8_t flipPol(uint8_t Mode) {
  uint8_t Out = 0;
  if (Mode & PolPos)
    Out |= PolNeg;
  if (Mode & PolNeg)
    Out |= PolPos;
  return Out;
}
} // namespace

void Engine::polarity(Term T, uint8_t Mode,
                      std::unordered_map<uint32_t, uint8_t> &Out,
                      std::unordered_set<uint64_t> &Seen) {
  if (!Seen.insert(uint64_t(T.id()) * 4 + Mode).second)
    return;
  switch (M.kind(T)) {
  case Kind::Variable:
    if (M.sort(T).isBool())
      Out[T.id()] |= Mode;
    return;
  case Kind::Not:
    polarity(M.child(T, 0), flipPol(Mode), Out, Seen);
    return;
  case Kind::And:
  case Kind::Or:
    for (Term Child : M.children(T))
      polarity(Child, Mode, Out, Seen);
    return;
  case Kind::Implies:
    polarity(M.child(T, 0), flipPol(Mode), Out, Seen);
    polarity(M.child(T, 1), Mode, Out, Seen);
    return;
  default:
    // Non-monotone or non-Boolean context: count both polarities.
    for (Term Child : M.children(T))
      polarity(Child, PolPos | PolNeg, Out, Seen);
    return;
  }
}

void Engine::pureLiteralPass() {
  std::unordered_map<uint32_t, uint8_t> Pol;
  std::unordered_set<uint64_t> Seen;
  for (const Conjunct &C : Conjuncts)
    if (!C.Dropped)
      polarity(C.T, PolPos, Pol, Seen);
  bool Assigned = false;
  for (const auto &[Id, Mode] : Pol) {
    Tri &Cur = Eval.Bools[Eval.slot(Term(Id))];
    if (Cur != Tri::Unknown)
      continue;
    if (Mode == PolPos)
      Cur = Tri::True;
    else if (Mode == PolNeg)
      Cur = Tri::False;
    else
      continue;
    Assigned = true;
  }
  if (!Assigned)
    return;
  Eval.invalidate();
  // Pure assignments are satisfiability-preserving choices, not entailed
  // facts: they may only *drop* conjuncts, never conclude unsat.
  for (Conjunct &C : Conjuncts)
    if (!C.Dropped && Eval.tri(C.T) == Tri::True)
      C.Dropped = true;
}

//===--------------------------------------------------------------------===//
// Relational (zone) closure.
//===--------------------------------------------------------------------===//

/// One zone pass: harvest difference bounds from the surviving
/// conjuncts, seed the current contracted ranges, close, and fold the
/// closure's conclusions back. Returns true when some range tightened
/// (the HC4 loop then re-enters with the new seeds); on an inconsistency
/// sets Failed with the contributing assertions in RelFailRoots.
bool Engine::relationalPass() {
  Zone Z;
  for (const Conjunct &C : Conjuncts)
    if (!C.Dropped)
      harvestZoneFacts(M, C.T, C.Root, Z);
  // A zone with no var-var difference edge projects exactly the seeded
  // HC4 ranges back out, so the pass is a no-op there; skip the closure
  // entirely on relation-free systems.
  if (Z.numVariables() == 0 || !Z.hasBinaryConstraints())
    return false;
  const std::vector<Term> &Vars = Eval.vars();
  for (unsigned Slot = 0; Slot < Vars.size(); ++Slot) {
    Term Var = Vars[Slot];
    if (!Z.hasVariable(Var.id()) || Eval.Ranges[Slot].isTop())
      continue;
    auto SIt = Sources.find(Var.id());
    Z.constrainVar(Var.id(), Eval.Ranges[Slot],
                   SIt != Sources.end() ? SIt->second : std::set<unsigned>{});
  }
  Z.close(Opts.InjectBadClosure);
  if (!Z.consistent()) {
    // A negative cycle: the named difference constraints are jointly
    // unsatisfiable over the exact unbounded semantics.
    RelFailed = true;
    RelFailRoots = Z.negativeCycleSources();
    Failed = true;
    return false;
  }
  bool Tightened = false;
  for (unsigned Slot = 0; Slot < Vars.size(); ++Slot) {
    Term Var = Vars[Slot];
    if (!Z.hasVariable(Var.id()))
      continue;
    Interval Proj = Z.varInterval(Var.id());
    if (!Proj.isTop()) {
      const Interval &Cur = Eval.Ranges[Slot];
      Interval R = meet(Cur, Proj);
      if (M.sort(Var).isInt())
        R = roundToIntI(R);
      if (R.Empty) {
        RelFailed = true;
        RelFailRoots = Z.varIntervalSources(Var.id());
        auto SIt = Sources.find(Var.id());
        if (SIt != Sources.end())
          RelFailRoots.insert(SIt->second.begin(), SIt->second.end());
        Failed = true;
        return false;
      }
      if (!(R == Cur)) {
        Eval.Ranges[Slot] = R;
        std::set<unsigned> Src = Z.varIntervalSources(Var.id());
        Sources[Var.id()].insert(Src.begin(), Src.end());
        invalidate();
        Tightened = true;
      }
    }
    if (std::optional<Rational> P = Z.potential(Var.id()))
      Potentials[Var.id()] = *P;
  }
  return Tightened;
}

//===--------------------------------------------------------------------===//
// Results.
//===--------------------------------------------------------------------===//

Value Engine::pickValue(Term Var) const {
  const Sort &S = M.sort(Var);
  if (S.isBool())
    return Value(Eval.Bools[Eval.slot(Var)] == Tri::True);
  const Interval &R = Eval.Ranges[Eval.slot(Var)];
  // An unbounded range gives zero-or-endpoint no information to work
  // with; the zone potential is a point that jointly satisfies every
  // closed difference constraint, so prefer it there.
  if (!R.isFinite()) {
    auto PIt = Potentials.find(Var.id());
    if (PIt != Potentials.end()) {
      Rational P = S.isInt() ? Rational(PIt->second.floor()) : PIt->second;
      if (R.contains(P))
        return S.isInt() ? Value(P.floor()) : Value(P);
    }
  }
  Rational V(0);
  if (!R.contains(V)) {
    if (R.Lo)
      V = S.isInt() ? Rational(R.Lo->ceil()) : *R.Lo;
    else if (R.Hi)
      V = S.isInt() ? Rational(R.Hi->floor()) : *R.Hi;
  }
  if (S.isInt())
    return Value(V.floor());
  return Value(V);
}

void Engine::buildSuggested(PresolveResult &R) const {
  for (Term Var : Eval.vars())
    R.Suggested.set(Var, pickValue(Var));
}

void Engine::buildCertificate(PresolveResult &R) const {
  if (RelFailed) {
    // The zone closure found the contradiction: the provenance sets of
    // the negative cycle (or of the emptied projection) name the exact
    // participating assertions.
    for (unsigned I : RelFailRoots)
      R.Certificate.push_back({I, Roots[I]});
    return;
  }
  std::set<unsigned> Indices;
  const Conjunct &C = Conjuncts[FailedConjunct];
  Indices.insert(C.Root);
  for (Term Var : M.collectVariables(C.T)) {
    auto It = Sources.find(Var.id());
    if (It != Sources.end())
      Indices.insert(It->second.begin(), It->second.end());
  }
  for (unsigned I : Indices)
    R.Certificate.push_back({I, Roots[I]});
}

void Engine::materialize(PresolveResult &Out) {
  for (const Conjunct &C : Conjuncts)
    if (!C.Dropped)
      Out.Assertions.push_back(C.T);
  const std::vector<Term> &Vars = Eval.vars();
  for (unsigned Slot = 0; Slot < Vars.size(); ++Slot) {
    Term Var = Vars[Slot];
    const Sort &S = M.sort(Var);
    if (S.isBool()) {
      if (Eval.Bools[Slot] != Tri::Unknown)
        Out.Assertions.push_back(Eval.Bools[Slot] == Tri::True ? Var
                                                               : M.mkNot(Var));
      continue;
    }
    const Interval &R = Eval.Ranges[Slot];
    if (!S.isUnbounded() || R.isTop())
      continue;
    if (R.Lo) {
      Term Const = S.isInt() ? M.mkIntConst(R.Lo->ceil())
                             : M.mkRealConst(*R.Lo);
      Out.Assertions.push_back(M.mkCompare(Kind::Ge, Var, Const));
    }
    if (R.Hi) {
      Term Const = S.isInt() ? M.mkIntConst(R.Hi->floor())
                             : M.mkRealConst(*R.Hi);
      Out.Assertions.push_back(M.mkCompare(Kind::Le, Var, Const));
    }
  }
}

PresolveResult Engine::run() {
  PresolveResult Out;
  if (Roots.empty())
    return Out;

  for (unsigned I = 0; I < Roots.size(); ++I)
    flatten(Roots[I], I);

  unsigned Round = 0;
  unsigned RelPasses = 0;
  while (!Failed) {
    while (Round < Opts.MaxRounds && !Failed) {
      Changed = false;
      ++Round;
      for (unsigned CI = 0; CI < Conjuncts.size() && !Failed; ++CI) {
        Conjunct &C = Conjuncts[CI];
        if (C.Dropped)
          continue;
        switch (Eval.tri(C.T)) {
        case Tri::True:
          C.Dropped = true;
          Changed = true;
          break;
        case Tri::False:
          fail(CI);
          break;
        case Tri::Unknown:
          contractFormula(C.T, true, CI);
          break;
        }
      }
      if (!Changed)
        break;
    }
    // Alternate with relational closure: the zone pass decides
    // difference cycles HC4 cannot (it propagates one link per round,
    // stalling on long chains) and its tightened projections re-seed
    // another HC4 descent. The pass runs even with the round budget
    // exhausted — closure is one shot, not a per-round propagation.
    if (Failed || !Opts.Relational || RelPasses >= 3)
      break;
    ++RelPasses;
    if (!relationalPass())
      break;
  }
  Out.Stats.Rounds = Round;
  for (const Interval &R : Eval.Ranges)
    if (!R.isTop())
      ++Out.Stats.VarsContracted;

  if (Failed) {
    Out.Stats.Verdict = PresolveVerdict::TriviallyUnsat;
    buildCertificate(Out);
    return Out;
  }

  pureLiteralPass();

  for (const Conjunct &C : Conjuncts)
    if (C.Dropped)
      ++Out.Stats.AssertionsDropped;
  const std::vector<Term> &Vars = Eval.vars();
  for (unsigned Slot = 0; Slot < Vars.size(); ++Slot)
    if (!Eval.Ranges[Slot].isTop())
      Out.VarRanges.emplace(Vars[Slot].id(), Eval.Ranges[Slot]);
  buildSuggested(Out);

  // Trivially sat? The heuristic witness only proposes; the exact
  // evaluator on the ORIGINAL conjunction decides.
  if (evaluatesToTrue(M, M.mkAnd(Roots), Out.Suggested)) {
    Out.Stats.Verdict = PresolveVerdict::TriviallySat;
    Out.Witness = Out.Suggested;
    return Out;
  }

  materialize(Out);
  return Out;
}

} // namespace

PresolveResult analysis::presolve(TermManager &Manager,
                                  const std::vector<Term> &Assertions,
                                  const PresolveOptions &Options) {
  Engine E(Manager, Assertions, Options);
  return E.run();
}

void analysis::completeModel(const TermManager &Manager,
                             const std::vector<Term> &Assertions,
                             const PresolveResult &P, Model &M) {
  for (Term Root : Assertions)
    for (Term Var : Manager.collectVariables(Root)) {
      if (M.get(Var))
        continue;
      if (const Value *V = P.Suggested.get(Var))
        M.set(Var, *V);
    }
}

std::vector<std::string>
analysis::certificateLines(const TermManager &Manager,
                           const PresolveResult &P) {
  std::vector<std::string> Lines;
  for (const CertificateStep &Step : P.Certificate)
    Lines.push_back("assertion #" + std::to_string(Step.AssertionIndex) +
                    ": " + printTerm(Manager, Step.Assertion));
  return Lines;
}
