//===- tests/theory_evaluator_test.cpp - Evaluator unit tests -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "theory/Evaluator.h"

#include "smtlib/Parser.h"

#include <gtest/gtest.h>

#include <string>

using namespace staub;

namespace {

TEST(EvaluatorTest, MotivatingExampleAssignment) {
  // x=7, y=8, z=0 satisfies x^3+y^3+z^3 = 855 (paper Sec. 2).
  TermManager M;
  Model Mod;
  auto R = parseSmtLib(M, "(declare-fun x () Int)(declare-fun y () Int)"
                          "(declare-fun z () Int)"
                          "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))");
  ASSERT_TRUE(R.Ok) << R.Error;
  Mod.set(M.lookupVariable("x"), Value(BigInt(7)));
  Mod.set(M.lookupVariable("y"), Value(BigInt(8)));
  Mod.set(M.lookupVariable("z"), Value(BigInt(0)));
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Mod));
  // x=7, y=8, z=1 does not.
  Mod.set(M.lookupVariable("z"), Value(BigInt(1)));
  EXPECT_FALSE(evaluatesToTrue(M, R.Parsed.conjoined(M), Mod));
}

TEST(EvaluatorTest, IntegerOperations) {
  TermManager M;
  Model Mod;
  auto R = parseSmtLib(M, "(declare-fun a () Int)"
                          "(assert (= (div a 3) 2))"
                          "(assert (= (mod a 3) 1))"
                          "(assert (= (abs (- a)) a))");
  ASSERT_TRUE(R.Ok) << R.Error;
  Mod.set(M.lookupVariable("a"), Value(BigInt(7)));
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Mod));
}

TEST(EvaluatorTest, EuclideanDivMod) {
  TermManager M;
  Term A = M.mkVariable("a", Sort::integer());
  Term Div = M.mkIntDiv(A, M.mkIntConst(BigInt(-3)));
  Term Mod7 = M.mkIntMod(A, M.mkIntConst(BigInt(-3)));
  Model Mod;
  Mod.set(A, Value(BigInt(-7)));
  // SMT-LIB: (div -7 -3) = 3, (mod -7 -3) = 2.
  EXPECT_EQ(evaluate(M, Div, Mod)->asInt().toString(), "3");
  EXPECT_EQ(evaluate(M, Mod7, Mod)->asInt().toString(), "2");
}

TEST(EvaluatorTest, DivisionByZeroIsUndefined) {
  TermManager M;
  Term A = M.mkVariable("a", Sort::integer());
  Term Div = M.mkIntDiv(A, M.mkIntConst(BigInt(0)));
  Model Mod;
  Mod.set(A, Value(BigInt(5)));
  EXPECT_FALSE(evaluate(M, Div, Mod).has_value());
  // But short-circuiting can hide the undefined branch.
  Term Guarded = M.mkOr(std::vector<Term>{
      M.mkTrue(), M.mkEq(Div, M.mkIntConst(BigInt(1)))});
  EXPECT_TRUE(evaluatesToTrue(M, Guarded, Mod));
  Term AndFalse = M.mkAnd(std::vector<Term>{
      M.mkFalse(), M.mkEq(Div, M.mkIntConst(BigInt(1)))});
  auto V = evaluate(M, AndFalse, Mod);
  ASSERT_TRUE(V.has_value());
  EXPECT_FALSE(V->asBool());
}

TEST(EvaluatorTest, UnboundVariableIsUndefined) {
  TermManager M;
  Term A = M.mkVariable("a", Sort::integer());
  Model Empty;
  EXPECT_FALSE(evaluate(M, A, Empty).has_value());
}

TEST(EvaluatorTest, RealArithmetic) {
  TermManager M;
  Model Mod;
  auto R = parseSmtLib(M, "(declare-fun r () Real)"
                          "(assert (= (* r r) 2.25))"
                          "(assert (< (/ r 2) r))");
  ASSERT_TRUE(R.Ok) << R.Error;
  Mod.set(M.lookupVariable("r"), Value(Rational(BigInt(3), BigInt(2))));
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Mod));
}

TEST(EvaluatorTest, BooleanConnectives) {
  TermManager M;
  Term P = M.mkVariable("p", Sort::boolean());
  Term Q = M.mkVariable("q", Sort::boolean());
  Model Mod;
  Mod.set(P, Value(true));
  Mod.set(Q, Value(false));
  EXPECT_FALSE(evaluatesToTrue(M, M.mkAnd(std::vector<Term>{P, Q}), Mod));
  EXPECT_TRUE(evaluatesToTrue(M, M.mkOr(std::vector<Term>{P, Q}), Mod));
  EXPECT_TRUE(evaluatesToTrue(M, M.mkXor(P, Q), Mod));
  EXPECT_FALSE(evaluatesToTrue(M, M.mkImplies(P, Q), Mod));
  EXPECT_TRUE(evaluatesToTrue(M, M.mkImplies(Q, P), Mod));
  EXPECT_TRUE(evaluatesToTrue(M, M.mkIte(P, P, Q), Mod));
  EXPECT_FALSE(
      evaluatesToTrue(M, M.mkDistinct(std::vector<Term>{P, P}), Mod));
  EXPECT_TRUE(evaluatesToTrue(M, M.mkDistinct(std::vector<Term>{P, Q}), Mod));
}

TEST(EvaluatorTest, BitVectorOperations) {
  TermManager M;
  Model Mod;
  auto R = parseSmtLib(
      M, "(declare-fun v () (_ BitVec 8))"
         "(assert (= (bvadd v (_ bv1 8)) (_ bv0 8)))" // v = 255.
         "(assert (bvult (_ bv0 8) v))"
         "(assert (bvslt v (_ bv0 8)))" // 255 is -1 signed.
         "(assert (= (bvand v (_ bv15 8)) (_ bv15 8)))"
         "(assert (= ((_ extract 3 0) v) #b1111))"
         "(assert (= (bvashr v (_ bv4 8)) v))");
  ASSERT_TRUE(R.Ok) << R.Error;
  Mod.set(M.lookupVariable("v"), Value(BitVecValue(8, 255)));
  EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Mod));
}

TEST(EvaluatorTest, OverflowGuardSemantics) {
  // The Fig. 1b overflow guard: with x=7, (bvsmulo x x) is false at width
  // 12 but (bvsmulo 49*7) would overflow at width 8.
  TermManager M;
  Term X12 = M.mkVariable("x12", Sort::bitVec(12));
  Term Guard = M.mkNot(M.mkApp(Kind::BvSMulO, std::vector<Term>{X12, X12}));
  Model Mod;
  Mod.set(X12, Value(BitVecValue(12, 7)));
  EXPECT_TRUE(evaluatesToTrue(M, Guard, Mod));

  Term X8 = M.mkVariable("x8", Sort::bitVec(8));
  Term Mul = M.mkApp(Kind::BvMul, std::vector<Term>{X8, X8});
  Term Guard8 = M.mkApp(Kind::BvSMulO, std::vector<Term>{Mul, X8});
  Mod.set(X8, Value(BitVecValue(8, 7)));
  EXPECT_TRUE(evaluatesToTrue(M, Guard8, Mod)); // 49*7=343 overflows 8 bits.
}

TEST(EvaluatorTest, FloatingPointSemantics) {
  TermManager M;
  FpFormat F32 = FpFormat::float32();
  Term A = M.mkVariable("a", Sort::floatingPoint(F32));
  Model Mod;
  Mod.set(A, Value(SoftFloat::fromRational(F32, Rational(BigInt(1), BigInt(10)))));
  // a * 10 != 1 exactly in float32 — the classic rounding semantic
  // difference the paper's verification step must catch.
  Term Ten = M.mkFpConst(SoftFloat::fromRational(F32, Rational(10)));
  Term One = M.mkFpConst(SoftFloat::fromRational(F32, Rational(1)));
  Term Product = M.mkApp(Kind::FpMul, std::vector<Term>{A, Ten});
  Term ExactlyOne = M.mkApp(Kind::FpEq, std::vector<Term>{Product, One});
  EXPECT_TRUE(evaluatesToTrue(M, ExactlyOne, Mod)); // Rounds back to 1.0f!

  // The canonical rounding residue: 0.1 + 0.2 != 0.3 in binary64.
  FpFormat F64 = FpFormat::float64();
  Term B1 = M.mkFpConst(
      SoftFloat::fromRational(F64, Rational(BigInt(1), BigInt(10))));
  Term B2 = M.mkFpConst(
      SoftFloat::fromRational(F64, Rational(BigInt(2), BigInt(10))));
  Term B3 = M.mkFpConst(
      SoftFloat::fromRational(F64, Rational(BigInt(3), BigInt(10))));
  Term Sum = M.mkApp(Kind::FpAdd, std::vector<Term>{B1, B2});
  Term Cmp = M.mkApp(Kind::FpEq, std::vector<Term>{Sum, B3});
  auto V = evaluate(M, Cmp, Model());
  ASSERT_TRUE(V.has_value());
  EXPECT_FALSE(V->asBool());
}

TEST(EvaluatorTest, FpNaNAndZeroEquality) {
  TermManager M;
  FpFormat F32 = FpFormat::float32();
  Term NaN = M.mkFpConst(SoftFloat::nan(F32));
  Term PosZero = M.mkFpConst(SoftFloat::zero(F32, false));
  Term NegZero = M.mkFpConst(SoftFloat::zero(F32, true));
  Model Empty;
  // SMT `=` is bit identity.
  EXPECT_TRUE(evaluatesToTrue(M, M.mkEq(NaN, NaN), Empty));
  EXPECT_FALSE(evaluatesToTrue(M, M.mkEq(PosZero, NegZero), Empty));
  // fp.eq is IEEE.
  EXPECT_FALSE(evaluatesToTrue(
      M, M.mkApp(Kind::FpEq, std::vector<Term>{NaN, NaN}), Empty));
  EXPECT_TRUE(evaluatesToTrue(
      M, M.mkApp(Kind::FpEq, std::vector<Term>{PosZero, NegZero}), Empty));
}

TEST(EvaluatorTest, MemoizationHandlesLargeSharedDags) {
  // A DAG with 2^40 paths evaluates instantly if memoized.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Node = X;
  for (int I = 0; I < 40; ++I)
    Node = M.mkAdd(std::vector<Term>{Node, Node});
  Model Mod;
  Mod.set(X, Value(BigInt(1)));
  auto V = evaluate(M, Node, Mod);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->asInt(), BigInt::pow2(40));
}

struct EvalCase {
  const char *Name;
  const char *Assertion; // over the one integer variable x
  int64_t X;
  bool Expected;
};

// Names each case by its label and model. gtest's default printer would dump
// the struct's bytes, and with them the addresses of the strings, which differ
// from run to run and so rename the test with every build.
void PrintTo(const EvalCase &Case, std::ostream *Os) {
  *Os << Case.Name << " at x=" << Case.X;
}

class EvaluatorScriptTest : public ::testing::TestWithParam<EvalCase> {};

TEST_P(EvaluatorScriptTest, EvaluatesCorrectly) {
  const auto &Case = GetParam();
  std::string Script =
      std::string("(declare-fun x () Int)(assert ") + Case.Assertion + ")";
  TermManager M;
  auto R = parseSmtLib(M, Script);
  ASSERT_TRUE(R.Ok) << R.Error;
  Model Mod;
  Mod.set(M.lookupVariable("x"), Value(BigInt(Case.X)));
  EXPECT_EQ(evaluatesToTrue(M, R.Parsed.conjoined(M), Mod), Case.Expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EvaluatorScriptTest,
    ::testing::Values(
        EvalCase{"SquareAbove100", "(> (* x x) 100)", 11, true},
        EvalCase{"SquareAbove100", "(> (* x x) 100)", -11, true},
        EvalCase{"SquareAbove100", "(> (* x x) 100)", 10, false},
        EvalCase{"Even", "(= (mod x 2) 0)", 14, true},
        EvalCase{"Even", "(= (mod x 2) 0)", -13, false},
        EvalCase{"DistinctFrom123", "(distinct x 1 2 3)", 4, true},
        EvalCase{"DistinctFrom123", "(distinct x 1 2 3)", 2, false},
        EvalCase{"AbsIs5", "(ite (< x 0) (= x (- 5)) (= x 5))", -5, true},
        EvalCase{"AbsIs5", "(ite (< x 0) (= x (- 5)) (= x 5))", 5, true},
        EvalCase{"AbsIs5", "(ite (< x 0) (= x (- 5)) (= x 5))", 3, false}));

} // namespace
