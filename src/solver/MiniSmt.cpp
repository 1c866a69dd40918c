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
/// Anything else returns Unknown, mirroring how real solvers give up. That
/// includes every FloatingPoint input: there is no FP engine, so a Real
/// query's bounded lane reverts at once and the original lane answers it.
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
    case Kind::RealDiv:
      if (!Manager.isConst(Manager.child(T, 1)))
        P.HasNonlinear = true;
      break;
    case Kind::IntDiv:
    case Kind::IntMod:
    case Kind::IntAbs:
      // Euclidean div and mod are non-affine even by a constant.
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

/// Runs \p Solver under \p Assumptions in chunks of 2000 conflicts until
/// it answers, the wall deadline passes, or \p Cancel fires.
SatStatus solveSatWithDeadline(SatSolver &Solver, WallTimer &Timer,
                               double TimeoutSeconds,
                               const CancellationToken *Cancel,
                               const std::vector<Lit> &Assumptions = {}) {
  for (;;) {
    SatBudget Chunk;
    Chunk.MaxConflicts = 2000;
    Chunk.Cancel = Cancel;
    SatStatus Status = Solver.solve(Chunk, Assumptions);
    if (Status != SatStatus::Unknown)
      return Status;
    if (Timer.elapsedSeconds() > TimeoutSeconds || stopRequested(Cancel))
      return SatStatus::Unknown;
  }
}

/// The escalation ladder's session: a fresh SatSolver + BitBlaster per
/// frame. Nothing would carry over between frames: a wider frame's terms
/// have other sorts, so the CNF memo only hits within a frame, and the
/// learnt clauses of a retired width mention only its variables. Only
/// memory carries over: the fresh solver runs on the buffers the retired
/// one parked (solver/Sat.h), so a frame does not fault them in again. The
/// hard assertions go in as units, so blasting simplifies them at level 0;
/// each guard sits behind its own selector, which solve() assumes.
class MiniSmtIncrementalBv : public IncrementalBvSession {
public:
  explicit MiniSmtIncrementalBv(const TermManager &Manager)
      : Manager(Manager) {}

  void pushFrame(const std::vector<Term> &Hard,
                 const std::vector<Term> &Guards) override {
    if (Current)
      RetiredCacheHits += Current->Blaster.cacheHits();
    // Retire the old width first, so that its solver parks its buffers
    // for the next frame's.
    Current.reset();
    Current = std::make_unique<Frame>(Manager);
    for (Term Assertion : Hard)
      Current->Blaster.assertTrue(Assertion);
    for (Term Guard : Guards) {
      Lit Selector = Lit(Current->Sat.newVar(), false);
      Current->Sat.addBinary(~Selector, Current->Blaster.encodeBool(Guard));
      Current->GuardSelectors.push_back(Selector);
    }
  }

  SolveStatus solve(const SolverOptions &Options) override {
    WallTimer Timer;
    SatStatus Status =
        solveSatWithDeadline(Current->Sat, Timer, Options.TimeoutSeconds,
                             Options.Cancel, Current->GuardSelectors);
    if (Status == SatStatus::Sat)
      return SolveStatus::Sat;
    if (Status == SatStatus::Unknown)
      return SolveStatus::Unknown;
    // Only guard selectors are assumed, so any failed assumption is a
    // guard; an empty core means the hard assertions alone are unsat.
    CoreHasGuards = !Current->Sat.failedAssumptions().empty();
    return SolveStatus::Unsat;
  }

  bool coreHasGuards() const override { return CoreHasGuards; }

  Model model(const std::vector<Term> &Variables) const override {
    return Current->Blaster.extractModel(Variables);
  }

  uint64_t clausesReused() const override { return 0; }
  uint64_t blastCacheHits() const override {
    return RetiredCacheHits + (Current ? Current->Blaster.cacheHits() : 0);
  }

private:
  /// One width's solver. Blaster refers to Sat, so a Frame never moves.
  struct Frame {
    explicit Frame(const TermManager &Manager) : Blaster(Manager, Sat) {}
    SatSolver Sat;
    BitBlaster Blaster;
    std::vector<Lit> GuardSelectors;
  };

  const TermManager &Manager;
  std::unique_ptr<Frame> Current;
  uint64_t RetiredCacheHits = 0;
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

SolveResult MiniSmtSolver::solve(TermManager &Manager,
                                 const std::vector<Term> &Assertions,
                                 const SolverOptions &Options) {
  TheoryProfile P = profile(Manager, Assertions);

  // No engine takes FP, mixed bounded/unbounded or mixed Int/Real content.
  if (P.HasFp || (P.HasBitVec && (P.HasInt || P.HasReal)) ||
      (P.HasInt && P.HasReal))
    return {};
  if (P.HasBitVec || (!P.HasInt && !P.HasReal))
    return solveBitVec(Manager, Assertions, Options);

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
