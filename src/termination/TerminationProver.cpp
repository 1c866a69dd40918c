//===- termination/TerminationProver.cpp - Ranking synthesis --------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "termination/TerminationProver.h"

#include "staub/Staub.h"
#include "support/Random.h"

#include <cassert>

using namespace staub;

std::string_view staub::toString(TerminationVerdict Verdict) {
  switch (Verdict) {
  case TerminationVerdict::Terminating:
    return "terminating";
  case TerminationVerdict::NonTerminating:
    return "non-terminating";
  case TerminationVerdict::Unknown:
    return "unknown";
  }
  return "<invalid>";
}

std::vector<Term>
staub::buildNonterminationQuery(TermManager &Manager,
                                const LoopProgram &Program) {
  // A recurrent point: the guard holds and every variable the guard
  // (transitively) depends on is at a fixed point of its update. Such a
  // state re-enters the loop forever; variables outside the dependency
  // closure may keep changing without affecting the guard.
  const size_t N = Program.Variables.size();
  std::vector<bool> InClosure(N, false);
  for (const GuardAtom &Atom : Program.Guard)
    for (const auto &[Var, Coeff] : Atom.Coefficients)
      if (!Coeff.isZero())
        InClosure[Var] = true;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I < N; ++I) {
      if (!InClosure[I])
        continue;
      for (const Monomial &Mono : Program.Updates[I].Monomials)
        for (const auto &[Var, Exp] : Mono.Powers)
          if (Exp > 0 && !InClosure[Var]) {
            InClosure[Var] = true;
            Changed = true;
          }
    }
  }

  std::vector<Term> Vars;
  for (const std::string &Name : Program.Variables)
    Vars.push_back(Manager.mkVariable(Program.Name + "!nt!" + Name,
                                      Sort::integer()));
  std::vector<Term> Assertions;
  for (const GuardAtom &Atom : Program.Guard)
    Assertions.push_back(guardAtomToTerm(Manager, Atom, Vars));
  for (size_t I = 0; I < N; ++I)
    if (InClosure[I])
      Assertions.push_back(Manager.mkEq(
          updateExprToTerm(Manager, Program.Updates[I], Vars), Vars[I]));
  return Assertions;
}

std::vector<Term> staub::buildRankingQuery(TermManager &Manager,
                                           const LoopProgram &Program) {
  assert(Program.isLinear() && "ranking synthesis needs linear updates");
  const size_t N = Program.Variables.size();

  // Normalize the guard into rows: Row_j . x + RowConst_j >= 0.
  std::vector<std::vector<BigInt>> Rows;
  std::vector<BigInt> RowConsts;
  for (const GuardAtom &Atom : Program.Guard) {
    std::vector<BigInt> Row(N);
    BigInt Const = Atom.Constant;
    auto Push = [&](int Sign, const BigInt &Shift) {
      std::vector<BigInt> Out(N);
      for (const auto &[Var, Coeff] : Atom.Coefficients)
        Out[Var] = Sign > 0 ? Coeff : Coeff.negated();
      BigInt OutConst = Sign > 0 ? Const : Const.negated();
      Rows.push_back(Out);
      RowConsts.push_back(OutConst + Shift);
    };
    switch (Atom.Relation) {
    case Kind::Ge: // e >= 0.
      Push(+1, BigInt(0));
      break;
    case Kind::Gt: // e > 0 <=> e - 1 >= 0 over Int.
      Push(+1, BigInt(-1));
      break;
    case Kind::Le: // e <= 0 <=> -e >= 0.
      Push(-1, BigInt(0));
      break;
    case Kind::Lt: // e < 0 <=> -e - 1 >= 0.
      Push(-1, BigInt(-1));
      break;
    case Kind::Eq: // Both directions.
      Push(+1, BigInt(0));
      Push(-1, BigInt(0));
      break;
    default:
      assert(false && "unexpected guard relation");
    }
  }
  const size_t TotalRows = Rows.size();

  // Linear update: x'_i = sum(U_ij x_j) + c_i.
  std::vector<std::vector<BigInt>> U(N, std::vector<BigInt>(N));
  std::vector<BigInt> CVec(N);
  for (size_t I = 0; I < N; ++I)
    for (const Monomial &Mono : Program.Updates[I].Monomials) {
      if (Mono.Powers.empty())
        CVec[I] += Mono.Coefficient;
      else
        U[I][Mono.Powers.begin()->first] += Mono.Coefficient;
    }

  // Unknowns: ranking coefficients r_i, offset r0, Farkas multipliers
  // lambda_j (boundedness) and mu_j (decrease), all integers, lambda/mu
  // >= 0.
  auto Var = [&](const std::string &Base, size_t I) {
    return Manager.mkVariable(Program.Name + "!rk!" + Base +
                                  std::to_string(I),
                              Sort::integer());
  };
  std::vector<Term> R, Lambda, Mu;
  for (size_t I = 0; I < N; ++I)
    R.push_back(Var("r", I));
  Term R0 = Manager.mkVariable(Program.Name + "!rk!r0", Sort::integer());
  for (size_t J = 0; J < TotalRows; ++J) {
    Lambda.push_back(Var("l", J));
    Mu.push_back(Var("m", J));
  }

  std::vector<Term> Assertions;
  Term Zero = Manager.mkIntConst(BigInt(0));
  for (size_t J = 0; J < TotalRows; ++J) {
    Assertions.push_back(Manager.mkCompare(Kind::Ge, Lambda[J], Zero));
    Assertions.push_back(Manager.mkCompare(Kind::Ge, Mu[J], Zero));
  }

  auto RowCombo = [&](const std::vector<Term> &Mult, size_t Col) {
    // sum_j Mult_j * Rows[j][Col].
    std::vector<Term> Sum;
    for (size_t J = 0; J < TotalRows; ++J)
      if (!Rows[J][Col].isZero())
        Sum.push_back(Manager.mkMul(std::vector<Term>{
            Mult[J], Manager.mkIntConst(Rows[J][Col])}));
    if (Sum.empty())
      return Zero;
    return Manager.mkAdd(Sum);
  };
  auto ConstCombo = [&](const std::vector<Term> &Mult) {
    std::vector<Term> Sum;
    for (size_t J = 0; J < TotalRows; ++J)
      if (!RowConsts[J].isZero())
        Sum.push_back(Manager.mkMul(std::vector<Term>{
            Mult[J], Manager.mkIntConst(RowConsts[J])}));
    if (Sum.empty())
      return Zero;
    return Manager.mkAdd(Sum);
  };

  // (1) Boundedness: guard => r.x + r0 >= 0.
  //     Farkas: sum_j lambda_j Row_j = r (columnwise) and
  //             r0 + sum_j lambda_j RowConst_j >= 0.
  for (size_t Col = 0; Col < N; ++Col)
    Assertions.push_back(Manager.mkEq(RowCombo(Lambda, Col), R[Col]));
  Assertions.push_back(Manager.mkCompare(
      Kind::Ge, Manager.mkAdd(std::vector<Term>{R0, ConstCombo(Lambda)}),
      Zero));

  // (2) Decrease: guard => r.x - r.x' >= 1 with x' = Ux + c, i.e.
  //     d.x >= 1 + r.c where d = r - U^T r.
  //     Farkas: sum_j mu_j Row_j = d and sum_j mu_j RowConst_j + r.c + 1
  //     <= 0 ... careful with signs: guard => d.x - (1 + r.c) >= 0 needs
  //     sum mu Row = d and -(1 + r.c) + sum mu RowConst >= 0.
  for (size_t Col = 0; Col < N; ++Col) {
    // d_col = r_col - sum_i U[i][col] * r_i.
    std::vector<Term> DTerms = {R[Col]};
    for (size_t I = 0; I < N; ++I)
      if (!U[I][Col].isZero())
        DTerms.push_back(Manager.mkMul(std::vector<Term>{
            Manager.mkIntConst(U[I][Col].negated()), R[I]}));
    Term D = Manager.mkAdd(DTerms);
    Assertions.push_back(Manager.mkEq(RowCombo(Mu, Col), D));
  }
  {
    std::vector<Term> RC = {Manager.mkIntConst(BigInt(-1))};
    for (size_t I = 0; I < N; ++I)
      if (!CVec[I].isZero())
        RC.push_back(Manager.mkMul(
            std::vector<Term>{Manager.mkIntConst(CVec[I].negated()), R[I]}));
    RC.push_back(ConstCombo(Mu));
    Assertions.push_back(Manager.mkCompare(Kind::Ge, Manager.mkAdd(RC), Zero));
  }
  return Assertions;
}

TerminationAnalysis staub::analyzeTermination(TermManager &Manager,
                                              const LoopProgram &Program,
                                              SolverBackend &Backend,
                                              const SolverOptions &Options,
                                              bool UseStaub) {
  TerminationAnalysis Out;

  // Phase 1: nontermination witness (the mostly-unsat nonlinear query).
  std::vector<Term> NonTerm = buildNonterminationQuery(Manager, Program);
  if (UseStaub) {
    StaubOptions StaubOpts;
    StaubOpts.Solve = Options;
    PortfolioResult R = runPortfolio(Manager, NonTerm, Backend, StaubOpts,
                                     LanePolicy::Measured);
    Out.NonterminationSeconds = R.PortfolioSeconds;
    Out.StaubWonNontermination = R.StaubWon;
    if (R.Status == SolveStatus::Sat) {
      Out.Verdict = TerminationVerdict::NonTerminating;
      return Out;
    }
  } else {
    SolveResult R = Backend.solve(Manager, NonTerm, Options);
    Out.NonterminationSeconds = R.Status == SolveStatus::Unknown
                                    ? Options.TimeoutSeconds
                                    : R.TimeSeconds;
    if (R.Status == SolveStatus::Sat) {
      Out.Verdict = TerminationVerdict::NonTerminating;
      return Out;
    }
  }

  // Phase 2: linear ranking function (linear updates only).
  if (!Program.isLinear())
    return Out;
  std::vector<Term> Ranking = buildRankingQuery(Manager, Program);
  SolveResult R = Backend.solve(Manager, Ranking, Options);
  Out.RankingSeconds = R.Status == SolveStatus::Unknown
                           ? Options.TimeoutSeconds
                           : R.TimeSeconds;
  if (R.Status == SolveStatus::Sat)
    Out.Verdict = TerminationVerdict::Terminating;
  return Out;
}

std::vector<LoopProgram> staub::generateTerminationSuite(unsigned Count,
                                                         uint64_t Seed) {
  SplitMix64 Rng(Seed);
  std::vector<LoopProgram> Suite;
  for (unsigned I = 0; I < Count; ++I) {
    std::string Source;
    unsigned Kind = static_cast<unsigned>(Rng.below(5));
    int64_t Bound = Rng.range(1, 200);
    int64_t Step = Rng.range(1, 5);
    switch (Kind) {
    case 0:
      // Terminating countdown.
      Source = "vars x; while (x >= 0) { x = x - " + std::to_string(Step) +
               "; }";
      break;
    case 1:
      // Terminating two-variable race.
      Source = "vars x, y; while (x <= " + std::to_string(Bound) +
               " && y >= 0) { x = x + " + std::to_string(Step) +
               "; y = y - 1; }";
      break;
    case 2:
      // Non-terminating: x never changes (fixed point everywhere).
      Source = "vars x, y; while (x >= 0) { y = y + " +
               std::to_string(Step) + "; }";
      break;
    case 3:
      // Polynomial update: x = x*x grows; terminating for x >= 2 bound?
      // Guard x <= Bound with x = x*x escapes quickly but has fixed
      // points at 0 and 1 inside the guard: non-terminating witness.
      Source = "vars x; while (x <= " + std::to_string(Bound) +
               ") { x = x * x; }";
      break;
    default:
      // Polynomial without small fixed points: x = x*x + c, c > 0 moves
      // every point; guard x <= Bound. (x*x + c = x has no integer
      // solution for c >= 1.) Loop terminates for positive x; analysis
      // finds unsat nontermination query, then no linear ranking
      // (nonlinear update), so it stays unknown — the pessimistic case.
      Source = "vars x; while (x <= " + std::to_string(Bound) +
               ") { x = x * x + " + std::to_string(Step) + "; }";
      break;
    }
    auto Parsed = parseLoopProgram(Source, "svcomp" + std::to_string(I));
    assert(Parsed.Ok && "generated program failed to parse");
    Suite.push_back(std::move(Parsed.Program));
  }
  return Suite;
}
