//===- tests/solver_icp_test.cpp - ICP solver and its interval kernels ----===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full-precision interval kernels ICP evaluates its boxes with
/// (analysis/Contract.h; cases not already covered by ContractKernelTest
/// in staub_presolve_test.cpp), and IcpSolver end to end.
///
//===----------------------------------------------------------------------===//

#include "solver/Icp.h"

#include "smtlib/Parser.h"

#include <gtest/gtest.h>

using namespace staub;
using namespace staub::analysis;

namespace {

Rational rat(int64_t N, int64_t D = 1) { return Rational(BigInt(N), BigInt(D)); }

Interval iv(int64_t Lo, int64_t Hi) { return Interval::range(rat(Lo), rat(Hi)); }

Interval atLeast(int64_t Lo) {
  Interval I;
  I.Lo = rat(Lo);
  return I;
}

TEST(IntervalTest, AddSubNeg) {
  Interval A = iv(1, 3), B = iv(-2, 5);
  EXPECT_EQ(addI(A, B), iv(-1, 8));
  EXPECT_EQ(subI(A, B), iv(-4, 5));
  EXPECT_EQ(negI(A), iv(-3, -1));
}

TEST(IntervalTest, UnboundedEndpoints) {
  Interval All = Interval::top();
  EXPECT_FALSE(All.Lo.has_value());
  EXPECT_FALSE(All.Hi.has_value());
  Interval Half = atLeast(3);
  Interval Sum = addI(Half, iv(1, 2));
  EXPECT_EQ(*Sum.Lo, rat(4));
  EXPECT_FALSE(Sum.Hi.has_value());
  Interval Negated = negI(Half);
  EXPECT_FALSE(Negated.Lo.has_value());
  EXPECT_EQ(*Negated.Hi, rat(-3));
}

TEST(IntervalTest, MulSignCases) {
  EXPECT_EQ(mulFullI(iv(2, 3), iv(4, 5)), iv(8, 15));
  EXPECT_EQ(mulFullI(iv(-3, 2), iv(-1, 4)), iv(-12, 8));
  EXPECT_EQ(mulFullI(iv(-2, -1), iv(-4, -3)), iv(3, 8));
  // Unbounded times positive.
  EXPECT_EQ(mulFullI(atLeast(1), iv(2, 3)), atLeast(2));
}

TEST(IntervalTest, DivisionRules) {
  // Divisor strictly positive.
  EXPECT_EQ(divFullI(iv(4, 8), iv(2, 4)), iv(1, 4));
  // Divisor spanning zero: give up.
  EXPECT_TRUE(divFullI(iv(1, 2), iv(-1, 1)).isTop());
  // Strictly negative divisor.
  EXPECT_EQ(divFullI(iv(4, 8), iv(-2, -1)), iv(-8, -2));
}

TEST(IntervalTest, PowEvenOdd) {
  // Straddling even/odd powers: ContractKernelTest.PowEvenIsNonNegative.
  EXPECT_EQ(powFullI(iv(2, 3), 0), iv(1, 1));
  // Unbounded square still has lower bound 0.
  EXPECT_EQ(powFullI(Interval::top(), 2), atLeast(0));
}

TEST(IntervalTest, AbsMeetRound) {
  // Rounding: ContractKernelTest.RoundToIntEmptiesFractionGaps.
  EXPECT_EQ(absI(iv(-5, 3)), iv(0, 5));
  EXPECT_EQ(meet(iv(0, 10), iv(5, 20)), iv(5, 10));
  EXPECT_TRUE(iv(3, 2).Empty);
}

//===--------------------------------------------------------------------===//
// IcpSolver end-to-end on targeted instances.
//===--------------------------------------------------------------------===//

SolveStatus icpSolve(const char *Text, double Timeout = 10.0,
                     uint64_t MaxNodes = IcpOptions().MaxNodes) {
  TermManager M;
  auto R = parseSmtLib(M, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  IcpSolver Solver(M, R.Parsed.Assertions);
  IcpOptions Options;
  Options.TimeoutSeconds = Timeout;
  Options.MaxNodes = MaxNodes;
  SolveResult Result = Solver.solve(Options);
  if (Result.Status == SolveStatus::Sat) {
    EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel));
  }
  return Result.Status;
}

TEST(IcpSolverTest, UnsatProvenOnUnboundedBox) {
  EXPECT_EQ(icpSolve("(declare-fun x () Int)(assert (< (* x x) 0))"),
            SolveStatus::Unsat);
  EXPECT_EQ(icpSolve("(declare-fun x () Real)"
                     "(assert (< (+ (* x x) 1.0) 0.5))"),
            SolveStatus::Unsat);
}

TEST(IcpSolverTest, FindsIntegerWitness) {
  EXPECT_EQ(icpSolve("(declare-fun x () Int)(declare-fun y () Int)"
                     "(assert (= (+ (* x x) (* y y)) 25))"
                     "(assert (> x 0))(assert (> y 0))"),
            SolveStatus::Sat);
}

TEST(IcpSolverTest, FindsRealWitness) {
  EXPECT_EQ(icpSolve("(declare-fun x () Real)"
                     "(assert (> (* x x) 4.0))(assert (< x 100.0))"),
            SolveStatus::Sat);
}

TEST(IcpSolverTest, BudgetExhaustionIsUnknown) {
  // A needle outside the early deepening boxes with a tiny budget.
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)"
                          "(assert (= (* x x) 1046529))"); // 1023^2.
  ASSERT_TRUE(R.Ok);
  IcpSolver Solver(M, R.Parsed.Assertions);
  IcpOptions Options;
  Options.MaxNodes = 3;
  Options.TimeoutSeconds = 0.2;
  EXPECT_EQ(Solver.solve(Options).Status, SolveStatus::Unknown);
}

TEST(IcpSolverTest, ModByPossiblyZeroDivisorIsUnconstrained) {
  // (mod x 0) is unspecified in SMT-LIB, so y = 0 admits any remainder:
  // the box test must not bound mod by [0, |y|) while y may be zero. No
  // checked model exists either, so the search can only end Unknown.
  EXPECT_NE(icpSolve("(declare-fun x () Int)(declare-fun y () Int)"
                     "(assert (= (mod x y) (- 5)))",
                     2.0, 50),
            SolveStatus::Unsat);
}

TEST(IcpSolverTest, ModIsBelowDivisorMagnitude) {
  // 0 <= (mod x 3) <= 2 on the unbounded box.
  EXPECT_EQ(icpSolve("(declare-fun x () Int)(assert (= (mod x 3) 3))", 2.0,
                     50),
            SolveStatus::Unsat);
}

TEST(IcpSolverTest, NoVariables) {
  EXPECT_EQ(icpSolve("(assert (> 3 2))"), SolveStatus::Sat);
  EXPECT_EQ(icpSolve("(assert (> 2 3))"), SolveStatus::Unsat);
}

} // namespace
