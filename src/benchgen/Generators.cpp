//===- benchgen/Generators.cpp - Synthetic benchmark families -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generators.h"

#include "staub/Config.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace staub;

std::string_view staub::toString(BenchLogic Logic) {
  switch (Logic) {
  case BenchLogic::QF_NIA:
    return "QF_NIA";
  case BenchLogic::QF_LIA:
    return "QF_LIA";
  case BenchLogic::QF_NRA:
    return "QF_NRA";
  case BenchLogic::QF_LRA:
    return "QF_LRA";
  }
  return "<logic>";
}

namespace {

/// Fresh variable names unique per (family, instance).
std::string varName(const std::string &Base, unsigned Instance, unsigned I) {
  return Base + std::to_string(Instance) + "_v" + std::to_string(I);
}

Term intConst(TermManager &M, int64_t V) { return M.mkIntConst(BigInt(V)); }
Term realConst(TermManager &M, int64_t Num, int64_t Den = 1) {
  return M.mkRealConst(Rational(BigInt(Num), BigInt(Den)));
}

/// x^k as an explicit product (matching the MathProblems benchmark style,
/// which writes (* x x x)).
Term power(TermManager &M, Term X, unsigned K) {
  std::vector<Term> Factors(K, X);
  return M.mkMul(Factors);
}

//===--------------------------------------------------------------------===//
// QF_NIA family.
//===--------------------------------------------------------------------===//

/// Sum-of-cubes: x^3 + y^3 + z^3 = N. Sat instances plant N = a^3+b^3+c^3
/// with small a,b,c (like 855 = 7^3 + 8^3 + 0^3); unsat instances pick
/// N == +-4 (mod 9), which is a classical obstruction.
GeneratedConstraint sumOfCubes(TermManager &M, unsigned Instance,
                               SplitMix64 &Rng, bool WantSat,
                               unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "MathProblems-STC";
  Term X = M.mkVariable(varName("nia_stc", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("nia_stc", Instance, 1), Sort::integer());
  Term Z = M.mkVariable(varName("nia_stc", Instance, 2), Sort::integer());
  int64_t Target;
  if (WantSat) {
    int64_t Limit = int64_t(1) << (MaxBits / 3 + 1);
    int64_t A = Rng.range(-Limit, Limit);
    int64_t B = Rng.range(-Limit, Limit);
    int64_t C = Rng.range(0, Limit);
    Target = A * A * A + B * B * B + C * C * C;
    Out.Expected = SolveStatus::Sat;
    Model Witness;
    Witness.set(X, Value(BigInt(A)));
    Witness.set(Y, Value(BigInt(B)));
    Witness.set(Z, Value(BigInt(C)));
    Out.Planted = std::move(Witness);
  } else {
    // n = 4 or 5 (mod 9) has no sum-of-three-cubes representation.
    int64_t Base = Rng.range(1, int64_t(1) << (MaxBits - 1));
    Target = Base - (Base % 9) + (Rng.chance(1, 2) ? 4 : 5);
    Out.Expected = SolveStatus::Unsat;
  }
  Out.Name = "STC_" + std::to_string(Target) + "_" + std::to_string(Instance);
  Term Sum = M.mkAdd(std::vector<Term>{power(M, X, 3), power(M, Y, 3),
                                       power(M, Z, 3)});
  Out.Assertions.push_back(M.mkEq(Sum, intConst(M, Target)));
  // Box the search space in both polarities. Unsat: unbounded mod-9
  // obstructions send Z3's NIA engine into an uninterruptible bignum
  // enumeration, and the obstruction holds on any box. Sat: the planted
  // witness lies inside the box by construction, and the asserted ranges
  // are exactly what interval-based guard elision feeds on (real SMT-LIB
  // benchmarks carry such range facts pervasively). 2^k - 1 rather than
  // 2^k keeps the box symmetric within a (k+1)-bit signed range.
  int64_t Box = WantSat ? ((int64_t(1) << (MaxBits / 3 + 1)))
                        : ((int64_t(1) << (MaxBits / 2)) - 1);
  for (Term V : {X, Y, Z}) {
    Out.Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, Box)));
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, -Box)));
  }
  return Out;
}

/// Planted polynomial equation: p(x, y) = c with a planted root, plus
/// range constraints; or made infeasible via a parity/sign obstruction.
GeneratedConstraint plantedPolynomial(TermManager &M, unsigned Instance,
                                      SplitMix64 &Rng, bool WantSat,
                                      unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "PlantedPoly";
  Out.Name = "poly_" + std::to_string(Instance);
  Term X = M.mkVariable(varName("nia_poly", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("nia_poly", Instance, 1), Sort::integer());
  int64_t Limit = int64_t(1) << (MaxBits / 2);
  int64_t A = Rng.range(-Limit, Limit);
  int64_t B = Rng.range(-Limit, Limit);
  // p = x^2*y? keep degree moderate: x^2 + k*x*y + y^2.
  int64_t K = Rng.range(-3, 3);
  int64_t Value = A * A + K * A * B + B * B;
  Term Poly = M.mkAdd(std::vector<Term>{
      power(M, X, 2),
      M.mkMul(std::vector<Term>{intConst(M, K), X, Y}),
      power(M, Y, 2)});
  if (WantSat) {
    Out.Expected = SolveStatus::Sat;
    Out.Assertions.push_back(M.mkEq(Poly, intConst(M, Value)));
    // Range facts around the planted root (the witness lies inside by
    // construction); these are what interval-based guard elision harvests.
    for (Term V : {X, Y}) {
      Out.Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, Limit)));
      Out.Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, -Limit)));
    }
    Model Witness;
    Witness.set(X, staub::Value(BigInt(A)));
    Witness.set(Y, staub::Value(BigInt(B)));
    Out.Planted = std::move(Witness);
  } else {
    // x^2 + k x y + y^2 >= -|k| (x y) ... instead force p(x,y) < 0 with
    // |k| <= 2, where the form is positive semidefinite: unsat.
    int64_t SmallK = Rng.range(-2, 2);
    Term PsdPoly = M.mkAdd(std::vector<Term>{
        power(M, X, 2),
        M.mkMul(std::vector<Term>{intConst(M, SmallK), X, Y}),
        power(M, Y, 2)});
    Out.Expected = SolveStatus::Unsat;
    Out.Assertions.push_back(
        M.mkCompare(Kind::Lt, PsdPoly, intConst(M, 0)));
  }
  return Out;
}

/// Factoring-style: x * y = N, 1 < x <= y. Sat for composite N, unsat for
/// prime N.
GeneratedConstraint factoring(TermManager &M, unsigned Instance,
                              SplitMix64 &Rng, bool WantSat,
                              unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "Factoring";
  Out.Name = "factor_" + std::to_string(Instance);
  Term X = M.mkVariable(varName("nia_fact", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("nia_fact", Instance, 1), Sort::integer());
  int64_t Limit = int64_t(1) << (MaxBits / 2);
  int64_t N;
  if (WantSat) {
    int64_t P = Rng.range(2, Limit);
    int64_t Q = Rng.range(2, Limit);
    N = P * Q;
    Out.Expected = SolveStatus::Sat;
    Model Witness;
    Witness.set(X, Value(BigInt(std::min(P, Q))));
    Witness.set(Y, Value(BigInt(std::max(P, Q))));
    Out.Planted = std::move(Witness);
  } else {
    static const int64_t Primes[] = {101, 211, 307, 401, 503, 601, 701,
                                     809, 907, 1009, 1103, 1201};
    N = Primes[Rng.below(12)];
    Out.Expected = SolveStatus::Unsat;
  }
  Out.Assertions.push_back(
      M.mkEq(M.mkMul(std::vector<Term>{X, Y}), intConst(M, N)));
  Out.Assertions.push_back(M.mkCompare(Kind::Gt, X, intConst(M, 1)));
  Out.Assertions.push_back(M.mkCompare(Kind::Le, X, Y));
  return Out;
}

//===--------------------------------------------------------------------===//
// QF_LIA / QF_LRA family.
//===--------------------------------------------------------------------===//

/// Random linear system with a planted solution (sat) or a planted
/// positive combination summing to a contradiction (unsat). Over Int when
/// \p IsInt, else over Real.
GeneratedConstraint linearSystem(TermManager &M, unsigned Instance,
                                 SplitMix64 &Rng, bool WantSat, bool IsInt,
                                 unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = IsInt ? "LinearInt" : "LinearReal";
  Out.Name = (IsInt ? std::string("lia_") : std::string("lra_")) +
             std::to_string(Instance);
  Sort VarSort = IsInt ? Sort::integer() : Sort::real();
  const unsigned NumVars = 3 + Rng.below(3);
  const unsigned NumRows = 4 + Rng.below(5);
  std::vector<Term> Vars;
  std::string Base = IsInt ? "lia_s" : "lra_s";
  for (unsigned I = 0; I < NumVars; ++I)
    Vars.push_back(M.mkVariable(varName(Base, Instance, I), VarSort));

  int64_t Limit = int64_t(1) << (MaxBits / 2);
  std::vector<int64_t> Planted;
  for (unsigned I = 0; I < NumVars; ++I)
    Planted.push_back(Rng.range(-Limit, Limit));

  auto MakeConst = [&](int64_t V) {
    return IsInt ? intConst(M, V) : realConst(M, V);
  };

  if (WantSat) {
    Out.Expected = SolveStatus::Sat;
    for (unsigned Row = 0; Row < NumRows; ++Row) {
      std::vector<Term> Sum;
      int64_t Rhs = 0;
      for (unsigned I = 0; I < NumVars; ++I) {
        int64_t Coeff = Rng.range(-5, 5);
        if (Coeff == 0)
          continue;
        Sum.push_back(M.mkMul(std::vector<Term>{MakeConst(Coeff), Vars[I]}));
        Rhs += Coeff * Planted[I];
      }
      if (Sum.empty())
        continue;
      Term Lhs = M.mkAdd(Sum);
      // Loose inequality around the planted point keeps it satisfiable.
      int64_t Slack = Rng.range(0, 9);
      if (Rng.chance(1, 2))
        Out.Assertions.push_back(
            M.mkCompare(Kind::Le, Lhs, MakeConst(Rhs + Slack)));
      else
        Out.Assertions.push_back(
            M.mkCompare(Kind::Ge, Lhs, MakeConst(Rhs - Slack)));
    }
    // One equality pins the planted point's neighborhood.
    Out.Assertions.push_back(M.mkEq(Vars[0], MakeConst(Planted[0])));
    // Box every Int variable at the planting range: the witness satisfies
    // the box by construction, and the facts feed guard elision.
    if (IsInt) {
      for (Term V : Vars) {
        Out.Assertions.push_back(
            M.mkCompare(Kind::Le, V, MakeConst(Limit)));
        Out.Assertions.push_back(
            M.mkCompare(Kind::Ge, V, MakeConst(-Limit)));
      }
    }
    Model Witness;
    for (unsigned I = 0; I < NumVars; ++I)
      Witness.set(Vars[I], IsInt ? Value(BigInt(Planted[I]))
                                 : Value(Rational(Planted[I])));
    Out.Planted = std::move(Witness);
  } else {
    Out.Expected = SolveStatus::Unsat;
    // e >= c and -e >= 1 - c: adding them gives 0 >= 1.
    std::vector<Term> Sum, NegSum;
    for (unsigned I = 0; I < NumVars; ++I) {
      int64_t Coeff = Rng.range(-5, 5);
      if (Coeff == 0)
        Coeff = 1;
      Sum.push_back(M.mkMul(std::vector<Term>{MakeConst(Coeff), Vars[I]}));
      NegSum.push_back(
          M.mkMul(std::vector<Term>{MakeConst(-Coeff), Vars[I]}));
    }
    int64_t C = Rng.range(-Limit, Limit);
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, M.mkAdd(Sum), MakeConst(C)));
    Out.Assertions.push_back(
        M.mkCompare(Kind::Ge, M.mkAdd(NegSum), MakeConst(1 - C)));
    // Camouflage rows so the contradiction is not syntactically obvious.
    for (unsigned Row = 0; Row < NumRows; ++Row) {
      std::vector<Term> Extra;
      for (unsigned I = 0; I < NumVars; ++I) {
        int64_t Coeff = Rng.range(-4, 4);
        if (Coeff)
          Extra.push_back(
              M.mkMul(std::vector<Term>{MakeConst(Coeff), Vars[I]}));
      }
      if (!Extra.empty())
        Out.Assertions.push_back(M.mkCompare(
            Kind::Le, M.mkAdd(Extra), MakeConst(Rng.range(0, Limit))));
    }
  }
  return Out;
}

//===--------------------------------------------------------------------===//
// QF_NRA family.
//===--------------------------------------------------------------------===//

/// Conic intersection with a planted rational point (sat) or a sum-of-
/// squares obstruction (unsat).
GeneratedConstraint conic(TermManager &M, unsigned Instance, SplitMix64 &Rng,
                          bool WantSat, unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "Conic";
  Out.Name = "nra_" + std::to_string(Instance);
  Term X = M.mkVariable(varName("nra_c", Instance, 0), Sort::real());
  Term Y = M.mkVariable(varName("nra_c", Instance, 1), Sort::real());
  int64_t Limit = int64_t(1) << (MaxBits / 2);
  if (WantSat) {
    Out.Expected = SolveStatus::Sat;
    // Plant (a/2, b/2): circle x^2 + y^2 = (a^2+b^2)/4 and halfplane.
    int64_t A = Rng.range(-Limit, Limit);
    int64_t B = Rng.range(-Limit, Limit);
    Term Circle = M.mkAdd(std::vector<Term>{power(M, X, 2), power(M, Y, 2)});
    Out.Assertions.push_back(
        M.mkEq(Circle, realConst(M, A * A + B * B, 4)));
    Out.Assertions.push_back(
        M.mkCompare(Kind::Le, X, realConst(M, A, 2)));
    Model Witness;
    Witness.set(X, Value(Rational(BigInt(A), BigInt(2))));
    Witness.set(Y, Value(Rational(BigInt(B), BigInt(2))));
    Out.Planted = std::move(Witness);
  } else {
    Out.Expected = SolveStatus::Unsat;
    // x^2 + y^2 + 1 <= 0.
    Term Form = M.mkAdd(std::vector<Term>{power(M, X, 2), power(M, Y, 2),
                                          realConst(M, 1)});
    Out.Assertions.push_back(
        M.mkCompare(Kind::Le, Form, realConst(M, 0)));
  }
  return Out;
}

//===--------------------------------------------------------------------===//
// Statically-decidable family (the presolver's dedicated suite).
//===--------------------------------------------------------------------===//

/// Contradicting box: a <= x <= b together with x >= b + k. Interval
/// contraction meets the two upper-side facts into the empty interval.
GeneratedConstraint staticUnsatBox(TermManager &M, unsigned Instance,
                                   SplitMix64 &Rng, unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "StaticBox";
  Out.Name = "sbox_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Unsat;
  int64_t Limit = int64_t(1) << (MaxBits / 2);
  int64_t Lo = Rng.range(-Limit, 0);
  int64_t Hi = Rng.range(1, Limit);
  int64_t K = Rng.range(1, 8);
  Term X = M.mkVariable(varName("static_box", Instance, 0), Sort::integer());
  Out.Assertions.push_back(M.mkCompare(Kind::Ge, X, intConst(M, Lo)));
  Out.Assertions.push_back(M.mkCompare(Kind::Le, X, intConst(M, Hi)));
  Out.Assertions.push_back(M.mkCompare(Kind::Ge, X, intConst(M, Hi + K)));
  return Out;
}

/// Equality chain ending in a contradiction: x = c, y = x + d, y > c + d.
/// Contraction pins x then y to points; the strict comparison folds false.
GeneratedConstraint staticUnsatChain(TermManager &M, unsigned Instance,
                                     SplitMix64 &Rng, unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "StaticChain";
  Out.Name = "schain_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Unsat;
  int64_t Limit = int64_t(1) << (MaxBits / 2);
  int64_t C = Rng.range(-Limit, Limit);
  int64_t D = Rng.range(-Limit, Limit);
  Term X = M.mkVariable(varName("static_chain", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("static_chain", Instance, 1), Sort::integer());
  Out.Assertions.push_back(M.mkEq(X, intConst(M, C)));
  Out.Assertions.push_back(
      M.mkEq(Y, M.mkAdd(std::vector<Term>{X, intConst(M, D)})));
  Out.Assertions.push_back(M.mkCompare(Kind::Gt, Y, intConst(M, C + D)));
  return Out;
}

/// Pinned-sat chain: x = c, y = x + d, y <= c + d, both boxed. Contraction
/// pins both variables to points that the evaluator then verifies.
GeneratedConstraint staticSatPinned(TermManager &M, unsigned Instance,
                                    SplitMix64 &Rng, unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "StaticPinned";
  Out.Name = "spin_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Sat;
  int64_t Limit = int64_t(1) << (MaxBits / 2);
  int64_t C = Rng.range(-Limit, Limit);
  int64_t D = Rng.range(-Limit, Limit);
  Term X = M.mkVariable(varName("static_pin", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("static_pin", Instance, 1), Sort::integer());
  Out.Assertions.push_back(M.mkEq(X, intConst(M, C)));
  Out.Assertions.push_back(
      M.mkEq(Y, M.mkAdd(std::vector<Term>{X, intConst(M, D)})));
  Out.Assertions.push_back(M.mkCompare(Kind::Le, Y, intConst(M, C + D)));
  int64_t Box = std::max(std::abs(C), std::abs(C + D)) + 8;
  for (Term V : {X, Y}) {
    Out.Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, Box)));
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, -Box)));
  }
  Model Witness;
  Witness.set(X, Value(BigInt(C)));
  Witness.set(Y, Value(BigInt(C + D)));
  Out.Planted = std::move(Witness);
  return Out;
}

/// Boxes around zero plus a slack row satisfied at the origin: any point
/// of the box works, so the synthesized witness validates immediately.
GeneratedConstraint staticSatBox(TermManager &M, unsigned Instance,
                                 SplitMix64 &Rng, unsigned MaxBits) {
  GeneratedConstraint Out;
  Out.Family = "StaticBox";
  Out.Name = "ssat_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Sat;
  int64_t Limit = int64_t(1) << (MaxBits / 2);
  int64_t BoxX = Rng.range(1, Limit);
  int64_t BoxY = Rng.range(1, Limit);
  Term X = M.mkVariable(varName("static_sat", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("static_sat", Instance, 1), Sort::integer());
  Out.Assertions.push_back(M.mkCompare(Kind::Le, X, intConst(M, BoxX)));
  Out.Assertions.push_back(M.mkCompare(Kind::Ge, X, intConst(M, -BoxX)));
  Out.Assertions.push_back(M.mkCompare(Kind::Le, Y, intConst(M, BoxY)));
  Out.Assertions.push_back(M.mkCompare(Kind::Ge, Y, intConst(M, -BoxY)));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkAdd(std::vector<Term>{X, Y}),
      intConst(M, Rng.range(0, Limit))));
  Model Witness;
  Witness.set(X, Value(BigInt(0)));
  Witness.set(Y, Value(BigInt(0)));
  Out.Planted = std::move(Witness);
  return Out;
}

//===--------------------------------------------------------------------===//
// Escalation-ladder suite.
//===--------------------------------------------------------------------===//

/// Pair-product escalator: x, y in [Lo, Lo+3] with x*y >= (x+y)*5.
/// Constants stay at 5 bits so the inferred width is ~5, but any true
/// model's product is >= 81 — far outside the bounded range — so the
/// base-width refutation must use an overflow guard, and one +4 step
/// already fits every in-box product. False at the presolver's suggested
/// corner (Lo*Lo < (2*Lo)*5 for Lo <= 11) and interval-overlapping, so
/// neither static verdict fires.
GeneratedConstraint escalatePair(TermManager &M, unsigned Instance,
                                 SplitMix64 &Rng) {
  GeneratedConstraint Out;
  Out.Family = "EscalatePair";
  Out.Name = "esc_pair_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Sat;
  int64_t Lo = 9 + static_cast<int64_t>(Rng.below(3));
  int64_t Hi = Lo + 3;
  Term X = M.mkVariable(varName("esc_pair", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("esc_pair", Instance, 1), Sort::integer());
  for (Term V : {X, Y}) {
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, Lo)));
    Out.Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, Hi)));
  }
  Term Product = M.mkMul(std::vector<Term>{X, Y});
  Term ScaledSum = M.mkMul(std::vector<Term>{
      M.mkAdd(std::vector<Term>{X, Y}), intConst(M, 5)});
  Out.Assertions.push_back(M.mkCompare(Kind::Ge, Product, ScaledSum));
  // (Lo+3)^2 >= (2*Lo+6)*5 holds for every Lo >= 9.
  Model Witness;
  Witness.set(X, Value(BigInt(Hi)));
  Witness.set(Y, Value(BigInt(Hi)));
  Out.Planted = std::move(Witness);
  return Out;
}

/// Triple-product escalator: x, y, z in [9, 12] with x*y*z >= (x+y+z)*K,
/// K in [28, 31]. The product lies in [729, 1728], so both the inferred
/// width (~6) and the first escalation step (~10) overflow — two ladder
/// steps before the model fits. K >= 28 makes the suggested corner
/// (9,9,9) fail (729 < 27*28) while (12,12,12) succeeds.
GeneratedConstraint escalateTriple(TermManager &M, unsigned Instance,
                                   SplitMix64 &Rng) {
  GeneratedConstraint Out;
  Out.Family = "EscalateTriple";
  Out.Name = "esc_triple_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Sat;
  int64_t K = 28 + static_cast<int64_t>(Rng.below(4));
  Term X = M.mkVariable(varName("esc_triple", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("esc_triple", Instance, 1), Sort::integer());
  Term Z = M.mkVariable(varName("esc_triple", Instance, 2), Sort::integer());
  for (Term V : {X, Y, Z}) {
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, 9)));
    Out.Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, 12)));
  }
  Term Product = M.mkMul(std::vector<Term>{X, Y, Z});
  Term ScaledSum = M.mkMul(std::vector<Term>{
      M.mkAdd(std::vector<Term>{X, Y, Z}), intConst(M, K)});
  Out.Assertions.push_back(M.mkCompare(Kind::Ge, Product, ScaledSum));
  // 12^3 = 1728 >= 36*K for every K <= 48.
  Model Witness;
  for (Term V : {X, Y, Z})
    Witness.set(V, Value(BigInt(12)));
  Out.Planted = std::move(Witness);
  return Out;
}

/// Disjunction-masked linear contradiction: the sum is forced >= T through
/// both polarities of a fresh Boolean and <= T-1 directly, so the instance
/// is unsat at every width, but interval contraction cannot look through
/// the disjunctions to see it. All sums fit the inferred width, so the
/// bounded refutation never touches an overflow guard: the ladder must
/// classify the core as guard-free and revert immediately.
GeneratedConstraint maskedContradiction(TermManager &M, unsigned Instance,
                                        SplitMix64 &Rng) {
  GeneratedConstraint Out;
  Out.Family = "MaskedContradiction";
  Out.Name = "esc_mask_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Unsat;
  int64_t Lo = Rng.range(4, 10);
  int64_t Hi = Lo + 7;
  int64_t T = 2 * Lo + 9; // Inside [2*Lo, 2*Hi], so intervals cannot decide.
  Term X = M.mkVariable(varName("esc_mask", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("esc_mask", Instance, 1), Sort::integer());
  Term B = M.mkVariable(varName("esc_mask", Instance, 2), Sort::boolean());
  for (Term V : {X, Y}) {
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, Lo)));
    Out.Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, Hi)));
  }
  Term Sum = M.mkAdd(std::vector<Term>{X, Y});
  Term SumGe = M.mkCompare(Kind::Ge, Sum, intConst(M, T));
  Out.Assertions.push_back(M.mkOr(std::vector<Term>{B, SumGe}));
  Out.Assertions.push_back(M.mkOr(std::vector<Term>{M.mkNot(B), SumGe}));
  Out.Assertions.push_back(M.mkCompare(Kind::Le, Sum, intConst(M, T - 1)));
  return Out;
}

//===--------------------------------------------------------------------===//
// Correlated (relational) suite.
//===--------------------------------------------------------------------===//

/// Negative difference cycle: x - y <= -a, y - z <= -b, z - x <= a+b-1.
/// The cycle sums to -1, so the system is unsat — but no variable has any
/// absolute bound, so interval contraction derives nothing and the
/// bounded lane can only revert. Zone closure spots the negative cycle
/// and concludes PresolvedUnsat with the three links as the certificate.
GeneratedConstraint correlatedNegCycle(TermManager &M, unsigned Instance,
                                       SplitMix64 &Rng) {
  GeneratedConstraint Out;
  Out.Family = "CorrNegCycle";
  Out.Name = "corr_cycle_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Unsat;
  int64_t A = 1 + static_cast<int64_t>(Rng.below(8));
  int64_t B = 1 + static_cast<int64_t>(Rng.below(8));
  Term X = M.mkVariable(varName("corr_cyc", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("corr_cyc", Instance, 1), Sort::integer());
  Term Z = M.mkVariable(varName("corr_cyc", Instance, 2), Sort::integer());
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkSub(std::vector<Term>{X, Y}), intConst(M, -A)));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkSub(std::vector<Term>{Y, Z}), intConst(M, -B)));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkSub(std::vector<Term>{Z, X}), intConst(M, A + B - 1)));
  return Out;
}

/// Consistent anchor-free cycle: the same shape with slack s >= 0 on the
/// closing link, so the system is sat — but every model family is
/// unbounded (shifting all variables preserves it), so no static box
/// exists and the all-zero suggestion fails the first link. The zone's
/// shortest-path potentials give a feasible point and the presolver
/// answers PresolvedSat without a solver call.
GeneratedConstraint correlatedSatCycle(TermManager &M, unsigned Instance,
                                       SplitMix64 &Rng) {
  GeneratedConstraint Out;
  Out.Family = "CorrSatCycle";
  Out.Name = "corr_pot_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Sat;
  int64_t A = 1 + static_cast<int64_t>(Rng.below(8));
  int64_t B = 1 + static_cast<int64_t>(Rng.below(8));
  int64_t S = static_cast<int64_t>(Rng.below(5));
  Term X = M.mkVariable(varName("corr_pot", Instance, 0), Sort::integer());
  Term Y = M.mkVariable(varName("corr_pot", Instance, 1), Sort::integer());
  Term Z = M.mkVariable(varName("corr_pot", Instance, 2), Sort::integer());
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkSub(std::vector<Term>{X, Y}), intConst(M, -A)));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkSub(std::vector<Term>{Y, Z}), intConst(M, -B)));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkSub(std::vector<Term>{Z, X}), intConst(M, A + B + S)));
  Model Witness;
  Witness.set(X, Value(BigInt(0)));
  Witness.set(Y, Value(BigInt(A)));
  Witness.set(Z, Value(BigInt(A + B)));
  Out.Planted = std::move(Witness);
  return Out;
}

/// Anchored difference chain, longer than the HC4 round budget: v_0..v_K
/// with v_i - v_{i+1} <= 3 (asserted front to back), v_i >= 0, and one
/// upper anchor v_K <= ~900 asserted last. Backward interval propagation
/// reaches one link per round, so with K = 20 > PresolveMaxRounds the
/// front variables stay unbounded and the width falls back to the
/// constant assumption (12 bits). One zone closure bounds every variable
/// by anchor + 3*K at once, so the relational pipeline infers width 11.
/// A sum breaker v_0 + v_1 >= b (not zone-representable, and too slack
/// for HC4 to contract against the wide chain ranges) fails at the
/// presolver's endpoint suggestion (v_0 = 1, the rest 0), so neither
/// configuration decides statically and both must translate — which is
/// what makes the inferred-width delta observable.
GeneratedConstraint correlatedChain(TermManager &M, unsigned Instance,
                                    SplitMix64 &Rng) {
  constexpr unsigned K = 20;
  static_assert(K > config::PresolveMaxRounds,
                "the chain must outrun the HC4 round budget");
  GeneratedConstraint Out;
  Out.Family = "CorrChain";
  Out.Name = "corr_chain_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Sat;
  int64_t Anchor = 880 + static_cast<int64_t>(Rng.below(40));
  int64_t Breaker = 3 + static_cast<int64_t>(Rng.below(2));
  std::vector<Term> V;
  for (unsigned I = 0; I <= K; ++I)
    V.push_back(
        M.mkVariable(varName("corr_chain", Instance, I), Sort::integer()));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Ge, M.mkSub(std::vector<Term>{V[0], V[1]}), intConst(M, 1)));
  for (unsigned I = 0; I < K; ++I)
    Out.Assertions.push_back(M.mkCompare(
        Kind::Le, M.mkSub(std::vector<Term>{V[I], V[I + 1]}),
        intConst(M, 3)));
  for (unsigned I = 0; I <= K; ++I)
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, V[I], intConst(M, 0)));
  Out.Assertions.push_back(
      M.mkCompare(Kind::Le, V[K], intConst(M, Anchor)));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Ge, M.mkAdd(std::vector<Term>{V[0], V[1]}),
      intConst(M, Breaker)));
  Model Witness;
  Witness.set(V[0], Value(BigInt(Breaker - 1)));
  Witness.set(V[1], Value(BigInt(1)));
  for (unsigned I = 2; I <= K; ++I)
    Witness.set(V[I], Value(BigInt(0)));
  Out.Planted = std::move(Witness);
  return Out;
}

/// Banded chain with an end-to-end consumer: w_0..w_8 with |w_i - w_{i+1}|
/// <= 3, a breaker w_0 + w_1 <= -3 (kills the all-zero point and the
/// anchor-free potential point, which is identically zero here), and a
/// consumer constraint on w_0 - w_8. The eight band facts imply
/// |w_0 - w_8| <= 24, but no variable has an absolute bound: the
/// width-clamped boxes span the whole range and the zone projects no
/// range either, so guard elision discharges nothing and all ten guards
/// (eight bands, the breaker, the consumer) go to the bounded solve.
GeneratedConstraint correlatedBands(TermManager &M, unsigned Instance,
                                    SplitMix64 &Rng) {
  constexpr unsigned K = 8;
  GeneratedConstraint Out;
  Out.Family = "CorrBands";
  Out.Name = "corr_band_" + std::to_string(Instance);
  Out.Expected = SolveStatus::Sat;
  int64_t Consumer = -(40 + static_cast<int64_t>(Rng.below(20)));
  std::vector<Term> W;
  for (unsigned I = 0; I <= K; ++I)
    W.push_back(
        M.mkVariable(varName("corr_band", Instance, I), Sort::integer()));
  for (unsigned I = 0; I < K; ++I) {
    Term Diff = M.mkSub(std::vector<Term>{W[I], W[I + 1]});
    Out.Assertions.push_back(M.mkCompare(Kind::Le, Diff, intConst(M, 3)));
    Out.Assertions.push_back(M.mkCompare(Kind::Ge, Diff, intConst(M, -3)));
  }
  Out.Assertions.push_back(M.mkCompare(
      Kind::Le, M.mkAdd(std::vector<Term>{W[0], W[1]}), intConst(M, -3)));
  Out.Assertions.push_back(M.mkCompare(
      Kind::Ge, M.mkSub(std::vector<Term>{W[0], W[K]}),
      intConst(M, Consumer)));
  Model Witness;
  Witness.set(W[0], Value(BigInt(-2)));
  for (unsigned I = 1; I <= K; ++I)
    Witness.set(W[I], Value(BigInt(-3)));
  Out.Planted = std::move(Witness);
  return Out;
}

} // namespace

std::vector<GeneratedConstraint>
staub::generateCorrelatedSuite(TermManager &Manager,
                               const BenchConfig &Config) {
  SplitMix64 Rng(Config.Seed ^ 0xC0B8E1A7ull);
  std::vector<GeneratedConstraint> Suite;
  Suite.reserve(Config.Count);
  for (unsigned I = 0; I < Config.Count; ++I) {
    // The instance offset keeps variable names disjoint from the other
    // suites when several live in one manager.
    unsigned Instance = 40000 + I;
    GeneratedConstraint C;
    switch (I % 4) {
    case 0:
      C = correlatedNegCycle(Manager, Instance, Rng);
      break;
    case 1:
      C = correlatedSatCycle(Manager, Instance, Rng);
      break;
    case 2:
      C = correlatedChain(Manager, Instance, Rng);
      break;
    default:
      C = correlatedBands(Manager, Instance, Rng);
      break;
    }
    Suite.push_back(std::move(C));
  }
  return Suite;
}

std::vector<GeneratedConstraint>
staub::generateEscalationSuite(TermManager &Manager,
                               const BenchConfig &Config) {
  SplitMix64 Rng(Config.Seed ^ 0xE5CA1A7Eull);
  std::vector<GeneratedConstraint> Suite;
  Suite.reserve(Config.Count);
  for (unsigned I = 0; I < Config.Count; ++I) {
    // The instance offset keeps variable names disjoint from the other
    // suites when several live in one manager.
    unsigned Instance = 20000 + I;
    GeneratedConstraint C;
    unsigned Pick = static_cast<unsigned>(Rng.below(10));
    if (Pick < 5)
      C = escalatePair(Manager, Instance, Rng);
    else if (Pick < 7)
      C = escalateTriple(Manager, Instance, Rng);
    else
      C = maskedContradiction(Manager, Instance, Rng);
    Suite.push_back(std::move(C));
  }
  return Suite;
}

std::vector<GeneratedConstraint>
staub::generateVcStreamSuite(TermManager &Manager, const BenchConfig &Config,
                             unsigned Bases, unsigned Variants) {
  SplitMix64 Rng(Config.Seed ^ 0x5C57EA11ull);
  std::vector<GeneratedConstraint> Suite;
  Suite.reserve(static_cast<size_t>(Bases) * Variants);
  unsigned Bits = Config.MaxConstantBits < 8 ? 8 : Config.MaxConstantBits;
  if (Bits > 30)
    Bits = 30;
  const int64_t Box = int64_t(1) << Bits;

  for (unsigned B = 0; B < Bases; ++B) {
    // The instance offset keeps variable names disjoint from the other
    // suites; names are also disjoint per base, so only one base's
    // variant group shares conjuncts.
    unsigned Instance = 30000 + B;
    Term X[4];
    for (unsigned I = 0; I < 4; ++I)
      X[I] = Manager.mkVariable(varName("vc", Instance, I), Sort::integer());

    // Planted witness: X0 = Anchor, the rest 0. The workload is tuned so
    // per-query cost is dominated by CNF construction: the row bounds sit
    // near Box^2, so the inferred width is about twice MaxConstantBits
    // and every X_P * X_Q row blasts to a width^2 multiplier circuit —
    // yet no bound is interval-redundant (the presolver keeps every row
    // and narrows nothing, leaving the multipliers at full width), and
    // the rows are loose enough that the SAT search is almost pure
    // propagation.
    // Anchor > Variants so every variant's Floor below stays distinct
    // and witness-compatible.
    int64_t Anchor = Rng.range(int64_t(Variants) + 2, int64_t(Variants) + 20);

    std::vector<Term> BaseConjuncts;
    for (unsigned I = 0; I < 4; ++I) {
      BaseConjuncts.push_back(
          Manager.mkCompare(Kind::Ge, X[I], intConst(Manager, 0)));
      BaseConjuncts.push_back(
          Manager.mkCompare(Kind::Le, X[I], intConst(Manager, Box)));
    }
    // Additive anchor: false at the all-zero corner (so the presolver's
    // suggested witness fails) but true at the planted point.
    Term Sum01 = Manager.mkAdd(std::vector<Term>{X[0], X[1]});
    BaseConjuncts.push_back(
        Manager.mkCompare(Kind::Ge, Sum01, intConst(Manager, Anchor)));
    // Product rows. Bound ~ Box^2/2 is below the interval maximum
    // (Box^2 + K*Box), so the row survives presolve, but far above the
    // row's value at the planted witness (all products zero).
    const int64_t BoxSq = Box * Box;
    for (unsigned J = 0; J < 6; ++J) {
      unsigned P = static_cast<unsigned>(Rng.below(4));
      unsigned Q = (P + 1 + static_cast<unsigned>(Rng.below(3))) % 4;
      unsigned R = 1 + static_cast<unsigned>(Rng.below(3));
      int64_t K = Rng.range(2, 16);
      int64_t Bound =
          BoxSq / 2 + static_cast<int64_t>(Rng.below(uint64_t(BoxSq) / 4));
      Term Lhs = Manager.mkAdd(std::vector<Term>{
          Manager.mkMul(std::vector<Term>{X[P], X[Q]}),
          Manager.mkMul(std::vector<Term>{intConst(Manager, K), X[R]})});
      BaseConjuncts.push_back(
          Manager.mkCompare(Kind::Le, Lhs, intConst(Manager, Bound)));
    }

    for (unsigned V = 0; V < Variants; ++V) {
      GeneratedConstraint C;
      C.Name = "vc_s" + std::to_string(B) + "_v" + std::to_string(V);
      C.Family = "vc-stream";
      C.Assertions = BaseConjuncts;
      // The one varying conjunct: same shape, different constant, still
      // satisfied by the planted witness (X0 + X2 = Anchor >= Floor) and
      // false at the all-zero corner (Floor >= 1). A lower bound narrows
      // nothing — X0's interval keeps its full Box width, so the variant
      // cannot shrink the shared rows' blasted multipliers.
      int64_t Floor = 1 + int64_t(V);
      Term Sum02 = Manager.mkAdd(std::vector<Term>{X[0], X[2]});
      C.Assertions.push_back(
          Manager.mkCompare(Kind::Ge, Sum02, intConst(Manager, Floor)));
      C.Expected = SolveStatus::Sat;
      Model Witness;
      Witness.set(X[0], Value(BigInt(Anchor)));
      for (unsigned I = 1; I < 4; ++I)
        Witness.set(X[I], Value(BigInt(0)));
      C.Planted = std::move(Witness);
      Suite.push_back(std::move(C));
    }
  }
  return Suite;
}

std::vector<GeneratedConstraint>
staub::generateStaticSuite(TermManager &Manager, const BenchConfig &Config) {
  SplitMix64 Rng(Config.Seed ^ 0x51A71Cull);
  std::vector<GeneratedConstraint> Suite;
  Suite.reserve(Config.Count);
  for (unsigned I = 0; I < Config.Count; ++I) {
    GeneratedConstraint C;
    switch (static_cast<unsigned>(Rng.below(6))) {
    case 0:
      C = staticUnsatBox(Manager, I, Rng, Config.MaxConstantBits);
      break;
    case 1:
      C = staticUnsatChain(Manager, I, Rng, Config.MaxConstantBits);
      break;
    case 2:
      C = staticSatPinned(Manager, I, Rng, Config.MaxConstantBits);
      break;
    case 3:
      C = staticSatBox(Manager, I, Rng, Config.MaxConstantBits);
      break;
    default:
      // Not statically decidable: factoring needs an actual search. The
      // instance offset keeps variable names disjoint from the QF_NIA
      // suite when both live in one manager.
      C = factoring(Manager, 10000 + I, Rng, Rng.chance(1, 2),
                    Config.MaxConstantBits);
      break;
    }
    Suite.push_back(std::move(C));
  }
  return Suite;
}

std::vector<GeneratedConstraint>
staub::generateSuite(TermManager &Manager, BenchLogic Logic,
                     const BenchConfig &Config) {
  SplitMix64 Rng(Config.Seed ^ (static_cast<uint64_t>(Logic) << 32));
  std::vector<GeneratedConstraint> Suite;
  Suite.reserve(Config.Count);
  for (unsigned I = 0; I < Config.Count; ++I) {
    bool WantSat = Rng.below(100) < Config.SatPercent;
    GeneratedConstraint C;
    switch (Logic) {
    case BenchLogic::QF_NIA: {
      unsigned Pick = static_cast<unsigned>(Rng.below(3));
      if (Pick == 0)
        C = sumOfCubes(Manager, I, Rng, WantSat, Config.MaxConstantBits);
      else if (Pick == 1)
        C = plantedPolynomial(Manager, I, Rng, WantSat,
                              Config.MaxConstantBits);
      else
        C = factoring(Manager, I, Rng, WantSat, Config.MaxConstantBits);
      break;
    }
    case BenchLogic::QF_LIA:
      C = linearSystem(Manager, I, Rng, WantSat, /*IsInt=*/true,
                       Config.MaxConstantBits);
      break;
    case BenchLogic::QF_LRA:
      C = linearSystem(Manager, I, Rng, WantSat, /*IsInt=*/false,
                       Config.MaxConstantBits);
      break;
    case BenchLogic::QF_NRA:
      C = conic(Manager, I, Rng, WantSat, Config.MaxConstantBits);
      break;
    }
    Suite.push_back(std::move(C));
  }
  return Suite;
}

GeneratedConstraint staub::motivatingExample(TermManager &M) {
  GeneratedConstraint Out;
  Out.Name = "STC_0855";
  Out.Family = "MathProblems-STC";
  Out.Expected = SolveStatus::Sat;
  Term X = M.mkVariable("stc855_x", Sort::integer());
  Term Y = M.mkVariable("stc855_y", Sort::integer());
  Term Z = M.mkVariable("stc855_z", Sort::integer());
  Term Sum = M.mkAdd(std::vector<Term>{power(M, X, 3), power(M, Y, 3),
                                       power(M, Z, 3)});
  Out.Assertions.push_back(M.mkEq(Sum, M.mkIntConst(BigInt(855))));
  Model Witness; // 855 = 7^3 + 8^3 + 0^3.
  Witness.set(X, Value(BigInt(7)));
  Witness.set(Y, Value(BigInt(8)));
  Witness.set(Z, Value(BigInt(0)));
  Out.Planted = std::move(Witness);
  return Out;
}

TheoryGapPair staub::theoryGapPair(TermManager &Manager, uint64_t Seed,
                                   unsigned Width) {
  SplitMix64 Rng(Seed);
  TheoryGapPair Pair;
  // Same operations in both theories: x*x*x + y*y*y + z*z*z = N with N
  // planted from values fitting the width.
  int64_t Limit = int64_t(1) << (Width / 3 - 1);
  int64_t A = Rng.range(-Limit, Limit);
  int64_t B = Rng.range(-Limit, Limit);
  int64_t C = Rng.range(0, Limit);
  int64_t N = A * A * A + B * B * B + C * C * C;

  {
    GeneratedConstraint &Int = Pair.IntVersion;
    Int.Name = "gap_int_" + std::to_string(Seed);
    Int.Family = "TheoryGap";
    Int.Expected = SolveStatus::Sat;
    Term X = Manager.mkVariable("gap" + std::to_string(Seed) + "_ix",
                                Sort::integer());
    Term Y = Manager.mkVariable("gap" + std::to_string(Seed) + "_iy",
                                Sort::integer());
    Term Z = Manager.mkVariable("gap" + std::to_string(Seed) + "_iz",
                                Sort::integer());
    Term Sum = Manager.mkAdd(std::vector<Term>{power(Manager, X, 3),
                                               power(Manager, Y, 3),
                                               power(Manager, Z, 3)});
    Int.Assertions.push_back(Manager.mkEq(Sum, Manager.mkIntConst(BigInt(N))));
  }
  {
    GeneratedConstraint &Bv = Pair.BvVersion;
    Bv.Name = "gap_bv_" + std::to_string(Seed);
    Bv.Family = "TheoryGap";
    Bv.Expected = SolveStatus::Sat;
    Sort BvSort = Sort::bitVec(Width);
    Term X = Manager.mkVariable("gap" + std::to_string(Seed) + "_bx", BvSort);
    Term Y = Manager.mkVariable("gap" + std::to_string(Seed) + "_by", BvSort);
    Term Z = Manager.mkVariable("gap" + std::to_string(Seed) + "_bz", BvSort);
    auto Cube = [&](Term V) {
      return Manager.mkApp(Kind::BvMul, std::vector<Term>{V, V, V});
    };
    Term Sum = Manager.mkApp(
        Kind::BvAdd, std::vector<Term>{Cube(X), Cube(Y), Cube(Z)});
    Bv.Assertions.push_back(Manager.mkEq(
        Sum, Manager.mkBitVecConst(BitVecValue(Width, BigInt(N)))));
  }
  return Pair;
}
