//===- solver/MiniSmt.cpp - The internal SMT solver -----------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniSMT: the from-scratch solver backend. Dispatches on the theory
/// content of the input:
///   * Bool/BitVec  -> eager bit-blasting into the CDCL core (fast path;
///     this is the "bounded theories are cheap" side of the arbitrage).
///   * linear Int/Real -> lazy DPLL(T): CDCL over the boolean skeleton
///     with exact-rational simplex theory checks; branch-and-bound layers
///     integrality on top.
///   * nonlinear Int/Real -> interval branch-and-prune (Icp.h).
///   * FloatingPoint -> real relaxation through ICP, with candidate
///     rounding checked by the exact evaluator.
/// Anything else returns Unknown, mirroring how real solvers give up.
///
//===----------------------------------------------------------------------===//

#include "smtlib/Term.h"
#include "solver/BitBlaster.h"
#include "solver/Icp.h"
#include "solver/LinearArith.h"
#include "solver/Sat.h"
#include "solver/Solver.h"
#include "support/Timer.h"

#include <cassert>
#include <unordered_map>
#include <unordered_set>

using namespace staub;

namespace {

/// What theories a term set touches.
struct TheoryProfile {
  bool HasBool = false;
  bool HasBitVec = false;
  bool HasFp = false;
  bool HasInt = false;
  bool HasReal = false;
  bool HasNonlinear = false;
};

TheoryProfile profile(const TermManager &Manager,
                      const std::vector<Term> &Assertions) {
  TheoryProfile P;
  std::unordered_set<uint32_t> Seen;
  std::vector<Term> Stack(Assertions.begin(), Assertions.end());
  while (!Stack.empty()) {
    Term T = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(T.id()).second)
      continue;
    Sort S = Manager.sort(T);
    switch (S.kind()) {
    case SortKind::Bool:
      P.HasBool = true;
      break;
    case SortKind::BitVec:
      P.HasBitVec = true;
      break;
    case SortKind::FloatingPoint:
      P.HasFp = true;
      break;
    case SortKind::Int:
      P.HasInt = true;
      break;
    case SortKind::Real:
      P.HasReal = true;
      break;
    }
    switch (Manager.kind(T)) {
    case Kind::Mul: {
      unsigned NonConst = 0;
      for (Term Child : Manager.children(T))
        if (!Manager.isConst(Child))
          ++NonConst;
      if (NonConst >= 2)
        P.HasNonlinear = true;
      break;
    }
    case Kind::IntDiv:
    case Kind::IntMod:
      if (!Manager.isConst(Manager.child(T, 1)))
        P.HasNonlinear = true;
      else
        P.HasNonlinear = true; // Euclidean div is non-affine either way.
      break;
    case Kind::RealDiv:
      if (!Manager.isConst(Manager.child(T, 1)))
        P.HasNonlinear = true;
      break;
    case Kind::IntAbs:
      P.HasNonlinear = true;
      break;
    default:
      break;
    }
    for (Term Child : Manager.children(T))
      Stack.push_back(Child);
  }
  return P;
}

/// Rewrites arithmetic (dis)equalities into inequalities so the lazy
/// simplex path only sees Le/Lt/Ge/Gt atoms. Also expands n-ary distinct.
class ArithEqRewriter {
public:
  explicit ArithEqRewriter(TermManager &Manager) : Manager(Manager) {}

  Term rewrite(Term T) {
    auto Found = Cache.find(T.id());
    if (Found != Cache.end())
      return Found->second;
    Term Result = rewriteNode(T);
    Cache.emplace(T.id(), Result);
    return Result;
  }

private:
  TermManager &Manager;
  std::unordered_map<uint32_t, Term> Cache;

  Term rewriteNode(Term T) {
    Kind K = Manager.kind(T);
    if (Manager.numChildren(T) == 0)
      return T;
    std::vector<Term> Children;
    for (Term Child : Manager.childrenCopy(T))
      Children.push_back(rewrite(Child));

    if (K == Kind::Eq && Manager.sort(Children[0]).isUnbounded()) {
      Term Le = Manager.mkCompare(Kind::Le, Children[0], Children[1]);
      Term Ge = Manager.mkCompare(Kind::Ge, Children[0], Children[1]);
      return Manager.mkAnd(std::vector<Term>{Le, Ge});
    }
    if (K == Kind::Distinct && Manager.sort(Children[0]).isUnbounded()) {
      std::vector<Term> Conjuncts;
      for (size_t I = 0; I < Children.size(); ++I)
        for (size_t J = I + 1; J < Children.size(); ++J) {
          Term Lt = Manager.mkCompare(Kind::Lt, Children[I], Children[J]);
          Term Gt = Manager.mkCompare(Kind::Gt, Children[I], Children[J]);
          Conjuncts.push_back(Manager.mkOr(std::vector<Term>{Lt, Gt}));
        }
      return Manager.mkAnd(Conjuncts);
    }
    return Manager.mkApp(K, Children, Manager.paramA(T), Manager.paramB(T));
  }
};

/// Encodes the boolean skeleton of a formula into a SAT solver, mapping
/// arithmetic atoms to fresh SAT variables.
class SkeletonEncoder {
public:
  SkeletonEncoder(const TermManager &Manager, SatSolver &Solver)
      : Manager(Manager), Solver(Solver) {
    TrueLit = Lit(Solver.newVar(), false);
    Solver.addUnit(TrueLit);
  }

  void assertTrue(Term T) { Solver.addUnit(encode(T)); }

  /// Atom terms in encounter order with their SAT literals.
  const std::vector<std::pair<Term, Lit>> &atoms() const { return Atoms; }

private:
  const TermManager &Manager;
  SatSolver &Solver;
  Lit TrueLit;
  std::unordered_map<uint32_t, Lit> Cache;
  std::vector<std::pair<Term, Lit>> Atoms;

  Lit falseLit() const { return ~TrueLit; }
  Lit fresh() { return Lit(Solver.newVar(), false); }

  Lit mkAndMany(const std::vector<Lit> &Inputs) {
    std::vector<Lit> Useful;
    for (Lit L : Inputs) {
      if (L == falseLit())
        return falseLit();
      if (L == TrueLit)
        continue;
      Useful.push_back(L);
    }
    if (Useful.empty())
      return TrueLit;
    if (Useful.size() == 1)
      return Useful[0];
    Lit Out = fresh();
    std::vector<Lit> LongClause = {Out};
    for (Lit L : Useful) {
      Solver.addBinary(~Out, L);
      LongClause.push_back(~L);
    }
    Solver.addClause(LongClause);
    return Out;
  }

  Lit mkXor(Lit A, Lit B) {
    Lit Out = fresh();
    Solver.addTernary(~Out, A, B);
    Solver.addTernary(~Out, ~A, ~B);
    Solver.addTernary(Out, ~A, B);
    Solver.addTernary(Out, A, ~B);
    return Out;
  }

  Lit encode(Term T) {
    auto Found = Cache.find(T.id());
    if (Found != Cache.end())
      return Found->second;
    Lit Result;
    switch (Manager.kind(T)) {
    case Kind::ConstBool:
      Result = Manager.boolValue(T) ? TrueLit : falseLit();
      break;
    case Kind::Not:
      Result = ~encode(Manager.child(T, 0));
      break;
    case Kind::And: {
      std::vector<Lit> Inputs;
      for (Term Child : Manager.children(T))
        Inputs.push_back(encode(Child));
      Result = mkAndMany(Inputs);
      break;
    }
    case Kind::Or: {
      std::vector<Lit> Inputs;
      for (Term Child : Manager.children(T))
        Inputs.push_back(~encode(Child));
      Result = ~mkAndMany(Inputs);
      break;
    }
    case Kind::Xor:
      Result = mkXor(encode(Manager.child(T, 0)),
                     encode(Manager.child(T, 1)));
      break;
    case Kind::Implies:
      Result = ~mkAndMany(std::vector<Lit>{encode(Manager.child(T, 0)),
                                           ~encode(Manager.child(T, 1))});
      break;
    case Kind::Ite: {
      Lit C = encode(Manager.child(T, 0));
      Lit Then = encode(Manager.child(T, 1));
      Lit Else = encode(Manager.child(T, 2));
      Lit Out = fresh();
      Solver.addTernary(~C, ~Then, Out);
      Solver.addTernary(~C, Then, ~Out);
      Solver.addTernary(C, ~Else, Out);
      Solver.addTernary(C, Else, ~Out);
      Result = Out;
      break;
    }
    case Kind::Eq:
      if (Manager.sort(Manager.child(T, 0)).isBool()) {
        Result = ~mkXor(encode(Manager.child(T, 0)),
                        encode(Manager.child(T, 1)));
        break;
      }
      [[fallthrough]];
    default: {
      // Theory atom (comparison) or boolean variable.
      Result = fresh();
      Atoms.emplace_back(T, Result);
      break;
    }
    }
    Cache.emplace(T.id(), Result);
    return Result;
  }
};

/// Bounds how long one SAT call may run, derived from the wall deadline
/// and the caller's cancellation token.
SatStatus solveSatWithDeadline(SatSolver &Solver, WallTimer &Timer,
                               double TimeoutSeconds,
                               const CancellationToken *Cancel) {
  for (;;) {
    SatBudget Chunk;
    Chunk.MaxConflicts = 2000;
    Chunk.Cancel = Cancel;
    SatStatus Status = Solver.solve(Chunk);
    if (Status != SatStatus::Unknown)
      return Status;
    if (Timer.elapsedSeconds() > TimeoutSeconds || stopRequested(Cancel))
      return SatStatus::Unknown;
  }
}

/// One SatSolver + BitBlaster kept alive across escalation steps.
/// Frames are MiniSat-style relaxation groups: every clause of a frame is
/// extended with the negated frame selector, so omitting the selector
/// from the assumptions turns the whole frame off without erasing the
/// learnt clauses it seeded.
class MiniSmtIncrementalBv : public IncrementalBvSession {
public:
  explicit MiniSmtIncrementalBv(const TermManager &Manager)
      : Blaster(Manager, Sat) {}

  void pushFrame(const std::vector<Term> &Hard,
                 const std::vector<Term> &Guards) override {
    FrameSelector = Lit(Sat.newVar(), false);
    for (Term Assertion : Hard)
      Sat.addBinary(~FrameSelector, Blaster.encodeBool(Assertion));
    GuardSelectors.clear();
    for (Term Guard : Guards) {
      Lit Selector = Lit(Sat.newVar(), false);
      Sat.addBinary(~Selector, Blaster.encodeBool(Guard));
      GuardSelectors.push_back(Selector);
    }
  }

  SolveStatus solve(const SolverOptions &Options) override {
    if (SolveCalls++ > 0)
      ClausesReusedTotal += Sat.numLearnts();
    std::vector<Lit> Assumptions;
    Assumptions.push_back(FrameSelector);
    Assumptions.insert(Assumptions.end(), GuardSelectors.begin(),
                       GuardSelectors.end());
    WallTimer Timer;
    for (;;) {
      SatBudget Chunk;
      Chunk.MaxConflicts = 2000;
      Chunk.Cancel = Options.Cancel;
      SatStatus Status = Sat.solve(Chunk, Assumptions);
      if (Status == SatStatus::Sat)
        return SolveStatus::Sat;
      if (Status == SatStatus::Unsat) {
        CoreHasGuards = false;
        for (Lit Failed : Sat.failedAssumptions())
          for (Lit Selector : GuardSelectors)
            if (Failed == Selector)
              CoreHasGuards = true;
        return SolveStatus::Unsat;
      }
      if (Timer.elapsedSeconds() > Options.TimeoutSeconds ||
          stopRequested(Options.Cancel))
        return SolveStatus::Unknown;
    }
  }

  bool coreHasGuards() const override { return CoreHasGuards; }

  Model model(const std::vector<Term> &Variables) const override {
    return Blaster.extractModel(Variables);
  }

  uint64_t clausesReused() const override { return ClausesReusedTotal; }
  uint64_t blastCacheHits() const override { return Blaster.cacheHits(); }

private:
  SatSolver Sat;
  BitBlaster Blaster;
  Lit FrameSelector;
  std::vector<Lit> GuardSelectors;
  unsigned SolveCalls = 0;
  uint64_t ClausesReusedTotal = 0;
  bool CoreHasGuards = false;
};

class MiniSmtSolver : public SolverBackend {
public:
  SolveResult solve(TermManager &Manager, const std::vector<Term> &Assertions,
                    const SolverOptions &Options) override;
  std::string_view name() const override { return "minismt"; }

  bool supportsIncrementalBv() const override { return true; }
  std::unique_ptr<IncrementalBvSession>
  openIncrementalBv(const TermManager &Manager) override {
    return std::make_unique<MiniSmtIncrementalBv>(Manager);
  }

private:
  SolveResult solveBitVec(TermManager &Manager,
                          const std::vector<Term> &Assertions,
                          const SolverOptions &Options);
  SolveResult solveLinearArith(TermManager &Manager,
                               const std::vector<Term> &Assertions,
                               const SolverOptions &Options, bool IsInt);
  SolveResult solveFp(TermManager &Manager,
                      const std::vector<Term> &Assertions,
                      const SolverOptions &Options);

  /// Integer branch-and-bound over a feasible rational simplex. Returns
  /// Sat/Unsat/Unknown for this atom assignment.
  SolveStatus branchAndBound(Simplex &S,
                             const std::vector<unsigned> &IntVars,
                             unsigned Depth, WallTimer &Timer,
                             double Deadline, const CancellationToken *Cancel,
                             std::vector<Rational> &ModelOut);
};

SolveResult MiniSmtSolver::solveBitVec(TermManager &Manager,
                                       const std::vector<Term> &Assertions,
                                       const SolverOptions &Options) {
  WallTimer Timer;
  SolveResult Result;
  SatSolver Sat;
  BitBlaster Blaster(Manager, Sat);

  // Pre-encode variables so model extraction can find them even when a
  // variable only occurs under assertions that simplify away.
  std::vector<Term> Variables =
      Manager.collectVariables(Manager.mkAnd(Assertions));
  for (Term Assertion : Assertions)
    Blaster.assertTrue(Assertion);

  SatStatus Status = solveSatWithDeadline(Sat, Timer, Options.TimeoutSeconds,
                                          Options.Cancel);
  Result.TimeSeconds = Timer.elapsedSeconds();
  switch (Status) {
  case SatStatus::Sat:
    Result.Status = SolveStatus::Sat;
    Result.TheModel = Blaster.extractModel(Variables);
    break;
  case SatStatus::Unsat:
    Result.Status = SolveStatus::Unsat;
    break;
  case SatStatus::Unknown:
    Result.Status = SolveStatus::Unknown;
    break;
  }
  return Result;
}

SolveStatus MiniSmtSolver::branchAndBound(Simplex &S,
                                          const std::vector<unsigned> &IntVars,
                                          unsigned Depth, WallTimer &Timer,
                                          double Deadline,
                                          const CancellationToken *Cancel,
                                          std::vector<Rational> &ModelOut) {
  if (Timer.elapsedSeconds() > Deadline || Depth > 64 ||
      stopRequested(Cancel))
    return SolveStatus::Unknown;
  if (!S.check(/*PivotBudget=*/100000, Cancel))
    return S.exhausted() ? SolveStatus::Unknown : SolveStatus::Unsat;

  // Find a fractional integer variable.
  int Fractional = -1;
  for (unsigned Var : IntVars) {
    Rational V = S.concreteValue(Var);
    if (!V.isInteger()) {
      Fractional = static_cast<int>(Var);
      break;
    }
  }
  if (Fractional < 0) {
    ModelOut.clear();
    for (unsigned Var : IntVars)
      ModelOut.push_back(S.concreteValue(Var));
    return SolveStatus::Sat;
  }

  Rational V = S.concreteValue(static_cast<unsigned>(Fractional));
  BigInt Floor = V.floor();

  // Left branch: x <= floor(v).
  bool SawUnknown = false;
  {
    Simplex Left = S;
    std::map<unsigned, Rational> Expr;
    Expr[static_cast<unsigned>(Fractional)] = Rational(1);
    if (Left.assertConstraint(Expr, Rational(Floor).negated(),
                              Simplex::Relation::Le)) {
      SolveStatus Status = branchAndBound(Left, IntVars, Depth + 1, Timer,
                                          Deadline, Cancel, ModelOut);
      if (Status == SolveStatus::Sat)
        return Status;
      if (Status == SolveStatus::Unknown)
        SawUnknown = true;
    }
  }
  // Right branch: x >= floor(v) + 1.
  {
    Simplex Right = S;
    std::map<unsigned, Rational> Expr;
    Expr[static_cast<unsigned>(Fractional)] = Rational(1);
    if (Right.assertConstraint(Expr,
                               Rational(Floor + BigInt(1)).negated(),
                               Simplex::Relation::Ge)) {
      SolveStatus Status = branchAndBound(Right, IntVars, Depth + 1, Timer,
                                          Deadline, Cancel, ModelOut);
      if (Status == SolveStatus::Sat)
        return Status;
      if (Status == SolveStatus::Unknown)
        SawUnknown = true;
    }
  }
  return SawUnknown ? SolveStatus::Unknown : SolveStatus::Unsat;
}

SolveResult MiniSmtSolver::solveLinearArith(TermManager &Manager,
                                            const std::vector<Term> &Assertions,
                                            const SolverOptions &Options,
                                            bool IsInt) {
  WallTimer Timer;
  SolveResult Result;

  // Rewrite (dis)equalities into inequalities, then encode the skeleton.
  ArithEqRewriter Rewriter(Manager);
  std::vector<Term> Rewritten;
  for (Term Assertion : Assertions)
    Rewritten.push_back(Rewriter.rewrite(Assertion));

  SatSolver Sat;
  SkeletonEncoder Skeleton(Manager, Sat);
  for (Term Assertion : Rewritten)
    Skeleton.assertTrue(Assertion);

  // Validate atoms: each must be a linear comparison or a Bool variable.
  struct AtomInfo {
    Term AtomTerm;
    Lit SatLit;
    bool IsBoolVar;
    LinearExpr Expr; ///< LHS - RHS as a linear form.
    Kind CompareKind;
  };
  std::vector<AtomInfo> Atoms;
  for (const auto &[AtomTerm, SatLit] : Skeleton.atoms()) {
    AtomInfo Info;
    Info.AtomTerm = AtomTerm;
    Info.SatLit = SatLit;
    Info.IsBoolVar = Manager.kind(AtomTerm) == Kind::Variable;
    if (!Info.IsBoolVar) {
      Kind K = Manager.kind(AtomTerm);
      if (K != Kind::Le && K != Kind::Lt && K != Kind::Ge && K != Kind::Gt) {
        Result.Status = SolveStatus::Unknown; // Unsupported atom shape.
        Result.TimeSeconds = Timer.elapsedSeconds();
        return Result;
      }
      auto Lhs = extractLinear(Manager, Manager.child(AtomTerm, 0));
      auto Rhs = extractLinear(Manager, Manager.child(AtomTerm, 1));
      if (!Lhs || !Rhs) {
        Result.Status = SolveStatus::Unknown; // Nonlinear leak.
        Result.TimeSeconds = Timer.elapsedSeconds();
        return Result;
      }
      Lhs->add(*Rhs, Rational(-1));
      Info.Expr = std::move(*Lhs);
      Info.CompareKind = K;
    }
    Atoms.push_back(std::move(Info));
  }

  // Collect arithmetic variables.
  std::vector<Term> ArithVars =
      Manager.collectVariables(Manager.mkAnd(Rewritten));
  std::vector<Term> NumericVars;
  for (Term Var : ArithVars)
    if (Manager.sort(Var).isUnbounded())
      NumericVars.push_back(Var);

  // DPLL(T) loop with naive blocking clauses.
  for (;;) {
    if (Timer.elapsedSeconds() > Options.TimeoutSeconds ||
        stopRequested(Options.Cancel)) {
      Result.Status = SolveStatus::Unknown;
      break;
    }
    SatStatus Status = solveSatWithDeadline(Sat, Timer,
                                            Options.TimeoutSeconds,
                                            Options.Cancel);
    if (Status == SatStatus::Unsat) {
      Result.Status = SolveStatus::Unsat;
      break;
    }
    if (Status == SatStatus::Unknown) {
      Result.Status = SolveStatus::Unknown;
      break;
    }

    // Build a simplex instance from the asserted atoms.
    Simplex S;
    std::unordered_map<uint32_t, unsigned> VarIndex;
    std::vector<unsigned> SimplexVars;
    for (Term Var : NumericVars) {
      unsigned Index = S.addVariable();
      VarIndex[Var.id()] = Index;
      SimplexVars.push_back(Index);
    }
    std::vector<Lit> AssertedLits;
    bool ImmediateConflict = false;
    for (const AtomInfo &Atom : Atoms) {
      bool Asserted = Sat.modelValue(Atom.SatLit.var()) !=
                      Atom.SatLit.negated();
      AssertedLits.push_back(Asserted ? Atom.SatLit : ~Atom.SatLit);
      if (Atom.IsBoolVar)
        continue;
      // Translate `lhs-rhs OP 0` (or its negation) to a simplex relation.
      Kind K = Atom.CompareKind;
      Simplex::Relation Rel;
      if (Asserted) {
        Rel = K == Kind::Le   ? Simplex::Relation::Le
              : K == Kind::Lt ? Simplex::Relation::Lt
              : K == Kind::Ge ? Simplex::Relation::Ge
                              : Simplex::Relation::Gt;
      } else {
        Rel = K == Kind::Le   ? Simplex::Relation::Gt
              : K == Kind::Lt ? Simplex::Relation::Ge
              : K == Kind::Ge ? Simplex::Relation::Lt
                              : Simplex::Relation::Le;
      }
      // Integer tightening: strict integer comparisons become non-strict.
      if (IsInt) {
        // Expr has integer coefficients scaled by rationals; conservative
        // tightening only when the expression is integral is skipped for
        // simplicity; strictness is handled exactly by delta-rationals.
      }
      std::map<unsigned, Rational> Expr;
      for (const auto &[VarId, Coeff] : Atom.Expr.Coefficients)
        Expr[VarIndex.at(VarId)] = Coeff;
      if (!S.assertConstraint(Expr, Atom.Expr.Constant, Rel)) {
        ImmediateConflict = true;
        break;
      }
    }

    SolveStatus TheoryStatus;
    std::vector<Rational> IntModel;
    if (ImmediateConflict) {
      TheoryStatus = SolveStatus::Unsat;
    } else if (IsInt) {
      TheoryStatus =
          branchAndBound(S, SimplexVars, 0, Timer, Options.TimeoutSeconds,
                         Options.Cancel, IntModel);
    } else {
      if (!S.check(/*PivotBudget=*/200000, Options.Cancel))
        TheoryStatus =
            S.exhausted() ? SolveStatus::Unknown : SolveStatus::Unsat;
      else
        TheoryStatus = SolveStatus::Sat;
    }

    if (TheoryStatus == SolveStatus::Sat) {
      Result.Status = SolveStatus::Sat;
      for (size_t I = 0; I < NumericVars.size(); ++I) {
        if (IsInt) {
          Rational V = IntModel.empty() ? S.concreteValue(SimplexVars[I])
                                        : IntModel[I];
          Result.TheModel.set(NumericVars[I], Value(V.numerator()));
        } else {
          Result.TheModel.set(NumericVars[I],
                              Value(S.concreteValue(SimplexVars[I])));
        }
      }
      for (const AtomInfo &Atom : Atoms)
        if (Atom.IsBoolVar)
          Result.TheModel.set(Atom.AtomTerm,
                              Value(Sat.modelValue(Atom.SatLit.var()) !=
                                    Atom.SatLit.negated()));
      break;
    }
    if (TheoryStatus == SolveStatus::Unknown) {
      Result.Status = SolveStatus::Unknown;
      break;
    }
    // Theory conflict: block this atom assignment and continue.
    std::vector<Lit> Blocking;
    for (Lit L : AssertedLits)
      Blocking.push_back(~L);
    if (Blocking.empty() || !Sat.addClause(Blocking)) {
      Result.Status = SolveStatus::Unsat;
      break;
    }
  }
  Result.TimeSeconds = Timer.elapsedSeconds();
  return Result;
}

/// Builds the real relaxation of an FP term; returns an invalid Term when
/// the structure has no faithful real image (NaN/Inf literals, fp.abs on
/// our term language, classification predicates other than isZero).
static Term relaxFpTerm(TermManager &Manager, Term T,
                        std::unordered_map<uint32_t, Term> &Cache) {
  auto Found = Cache.find(T.id());
  if (Found != Cache.end())
    return Found->second;
  Term Result;
  Kind K = Manager.kind(T);
  switch (K) {
  case Kind::ConstBool:
    Result = T;
    break;
  case Kind::ConstFp: {
    const SoftFloat &V = Manager.fpValue(T);
    if (!V.isFinite())
      break; // Invalid.
    Result = Manager.mkRealConst(V.toRational());
    break;
  }
  case Kind::Variable:
    if (Manager.sort(T).isFloatingPoint())
      Result = Manager.mkVariable("fp.relax!" + Manager.variableName(T),
                                  Sort::real());
    else
      Result = T;
    break;
  default: {
    std::vector<Term> Children;
    for (Term Child : Manager.childrenCopy(T)) {
      Term R = relaxFpTerm(Manager, Child, Cache);
      if (!R.isValid()) {
        Cache.emplace(T.id(), Term());
        return Term();
      }
      Children.push_back(R);
    }
    switch (K) {
    case Kind::FpNeg:
      Result = Manager.mkNeg(Children[0]);
      break;
    case Kind::FpAdd:
      Result = Manager.mkAdd(Children);
      break;
    case Kind::FpSub:
      Result = Manager.mkSub(Children);
      break;
    case Kind::FpMul:
      Result = Manager.mkMul(Children);
      break;
    case Kind::FpDiv:
      Result = Manager.mkRealDiv(Children[0], Children[1]);
      break;
    case Kind::FpLeq:
      Result = Manager.mkCompare(Kind::Le, Children[0], Children[1]);
      break;
    case Kind::FpLt:
      Result = Manager.mkCompare(Kind::Lt, Children[0], Children[1]);
      break;
    case Kind::FpGeq:
      Result = Manager.mkCompare(Kind::Ge, Children[0], Children[1]);
      break;
    case Kind::FpGt:
      Result = Manager.mkCompare(Kind::Gt, Children[0], Children[1]);
      break;
    case Kind::FpEq:
    case Kind::Eq:
      Result = Manager.mkEq(Children[0], Children[1]);
      break;
    case Kind::FpIsZero:
      Result = Manager.mkEq(Children[0], Manager.mkRealConst(Rational(0)));
      break;
    case Kind::Not:
      Result = Manager.mkNot(Children[0]);
      break;
    case Kind::And:
      Result = Manager.mkAnd(Children);
      break;
    case Kind::Or:
      Result = Manager.mkOr(Children);
      break;
    case Kind::Implies:
      Result = Manager.mkImplies(Children[0], Children[1]);
      break;
    case Kind::Xor:
      Result = Manager.mkXor(Children[0], Children[1]);
      break;
    case Kind::Ite:
      Result = Manager.mkIte(Children[0], Children[1], Children[2]);
      break;
    default:
      break; // Invalid: FpAbs, FpIsNaN, FpIsInf, ...
    }
    break;
  }
  }
  Cache.emplace(T.id(), Result);
  return Result;
}

SolveResult MiniSmtSolver::solveFp(TermManager &Manager,
                                   const std::vector<Term> &Assertions,
                                   const SolverOptions &Options) {
  WallTimer Timer;
  SolveResult Result;
  Result.Status = SolveStatus::Unknown;

  Term Original = Manager.mkAnd(Assertions);
  std::vector<Term> FpVars = Manager.collectVariables(Original);

  // Candidate 1: simple special values.
  auto TryAssignment = [&](const std::vector<SoftFloat> &Values) {
    Model Candidate;
    for (size_t I = 0; I < FpVars.size(); ++I)
      Candidate.set(FpVars[I], Value(Values[I]));
    if (evaluatesToTrue(Manager, Original, Candidate)) {
      Result.Status = SolveStatus::Sat;
      Result.TheModel = std::move(Candidate);
      return true;
    }
    return false;
  };
  {
    std::vector<SoftFloat> Zeros;
    std::vector<SoftFloat> Ones;
    for (Term Var : FpVars) {
      FpFormat Format = Manager.sort(Var).fpFormat();
      Zeros.push_back(SoftFloat::zero(Format, false));
      Ones.push_back(SoftFloat::fromRational(Format, Rational(1)));
    }
    if (!FpVars.empty() && (TryAssignment(Zeros) || TryAssignment(Ones))) {
      Result.TimeSeconds = Timer.elapsedSeconds();
      return Result;
    }
    if (FpVars.empty()) {
      Model Empty;
      Result.Status = evaluatesToTrue(Manager, Original, Empty)
                          ? SolveStatus::Sat
                          : SolveStatus::Unsat;
      Result.TimeSeconds = Timer.elapsedSeconds();
      return Result;
    }
  }

  // Candidate 2: solve the real relaxation and round.
  std::unordered_map<uint32_t, Term> Cache;
  std::vector<Term> Relaxed;
  for (Term Assertion : Assertions) {
    Term R = relaxFpTerm(Manager, Assertion, Cache);
    if (!R.isValid()) {
      Result.TimeSeconds = Timer.elapsedSeconds();
      return Result; // Unknown.
    }
    Relaxed.push_back(R);
  }
  IcpSolver Icp(Manager, Relaxed);
  IcpOptions IcpOpts;
  IcpOpts.TimeoutSeconds =
      std::max(0.1, Options.TimeoutSeconds - Timer.elapsedSeconds());
  IcpOpts.Cancel = Options.Cancel;
  SolveResult RealResult = Icp.solve(IcpOpts);
  if (RealResult.Status == SolveStatus::Sat) {
    std::vector<SoftFloat> Rounded;
    for (Term Var : FpVars) {
      FpFormat Format = Manager.sort(Var).fpFormat();
      Term Shadow =
          Manager.lookupVariable("fp.relax!" + Manager.variableName(Var));
      const Value *V = Shadow.isValid() ? RealResult.TheModel.get(Shadow)
                                        : nullptr;
      Rational RealValue = V && V->isReal() ? V->asReal() : Rational(0);
      Rounded.push_back(SoftFloat::fromRational(Format, RealValue));
    }
    TryAssignment(Rounded);
  }
  Result.TimeSeconds = Timer.elapsedSeconds();
  return Result;
}

SolveResult MiniSmtSolver::solve(TermManager &Manager,
                                 const std::vector<Term> &Assertions,
                                 const SolverOptions &Options) {
  TheoryProfile P = profile(Manager, Assertions);

  // Mixed bounded/unbounded content is outside every engine's fragment.
  if ((P.HasBitVec || P.HasFp) && (P.HasInt || P.HasReal))
    return {};
  if (P.HasBitVec && P.HasFp)
    return {};

  if (P.HasFp)
    return solveFp(Manager, Assertions, Options);
  if (P.HasBitVec || (!P.HasInt && !P.HasReal))
    return solveBitVec(Manager, Assertions, Options);
  if (P.HasInt && P.HasReal)
    return {}; // Mixed Int/Real unsupported.

  if (!P.HasNonlinear) {
    SolveResult Linear =
        solveLinearArith(Manager, Assertions, Options, P.HasInt);
    if (Linear.Status != SolveStatus::Unknown)
      return Linear;
    // Fall through to ICP on Unknown (e.g. unusual atom shapes).
  }

  WallTimer Timer;
  IcpSolver Icp(Manager, Assertions);
  IcpOptions IcpOpts;
  IcpOpts.TimeoutSeconds = Options.TimeoutSeconds;
  IcpOpts.Cancel = Options.Cancel;
  SolveResult Result = Icp.solve(IcpOpts);
  Result.TimeSeconds = Timer.elapsedSeconds();
  return Result;
}

} // namespace

std::unique_ptr<SolverBackend> staub::createMiniSmtSolver() {
  return std::make_unique<MiniSmtSolver>();
}
