//===- tests/smtlib_edgecases_test.cpp - Front-end edge cases -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "smtlib/Parser.h"
#include "smtlib/Printer.h"
#include "theory/Evaluator.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

TEST(LexerEdgeTest, QuotedSymbols) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun |weird name +| () Int)\n"
                          "(assert (> |weird name +| 0))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  Term Var = M.lookupVariable("weird name +");
  ASSERT_TRUE(Var.isValid());
  EXPECT_TRUE(M.sort(Var).isInt());
}

TEST(LexerEdgeTest, StringLiteralsInInfo) {
  TermManager M;
  auto R = parseSmtLib(
      M, "(set-info :source |multi\nline|)\n"
         "(set-info :status \"unknown \"\"quoted\"\"\")\n"
         "(declare-fun x () Int)\n(assert (= x 0))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Parsed.Assertions.size(), 1u);
}

TEST(LexerEdgeTest, UnterminatedConstructs) {
  TermManager M;
  EXPECT_FALSE(parseSmtLib(M, "(set-info :s \"abc").Ok);
  EXPECT_FALSE(parseSmtLib(M, "(declare-fun |abc () Int)").Ok);
  EXPECT_FALSE(parseSmtLib(M, "(assert #b)").Ok);
  EXPECT_FALSE(parseSmtLib(M, "(assert #q1)").Ok);
}

TEST(LexerEdgeTest, CommentsInsideTerms) {
  TermManager M;
  auto R = parseSmtLib(M, "(declare-fun x () Int)\n"
                          "(assert (= ; comment here\n x ; and here\n 3))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(M.kind(R.Parsed.Assertions[0]), Kind::Eq);
}

TEST(ParserEdgeTest, DeeplyNestedTerms) {
  // 200 levels of nesting must not break anything.
  std::string Text = "(declare-fun x () Int)\n(assert (= x ";
  for (int I = 0; I < 200; ++I)
    Text += "(+ 1 ";
  Text += "x";
  Text.append(200, ')');
  Text += "))\n";
  TermManager M;
  auto R = parseSmtLib(M, Text);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(M.dagSize(R.Parsed.Assertions[0]), 203u); // x, 1, 200 sums, =.
}

TEST(ParserEdgeTest, EmptyInputAndWhitespaceOnly) {
  TermManager M;
  EXPECT_TRUE(parseSmtLib(M, "").Ok);
  EXPECT_TRUE(parseSmtLib(M, "  ; only a comment\n").Ok);
}

TEST(ParserEdgeTest, NaryBvOpsNeedTwoOperands) {
  for (const char *Op : {"bvadd", "bvsub", "bvmul", "bvand", "bvor", "bvxor"}) {
    TermManager M;
    auto R = parseSmtLib(M, std::string("(declare-fun x () (_ BitVec 8))"
                                        "(assert (= (") +
                                Op + " x) x))");
    EXPECT_FALSE(R.Ok) << Op;
    EXPECT_NE(R.Error.find("at least two operands"), std::string::npos)
        << R.Error;
  }
}

TEST(ParserEdgeTest, LargeNumerals) {
  TermManager M;
  auto R = parseSmtLib(
      M, "(declare-fun x () Int)\n"
         "(assert (> x 123456789012345678901234567890123456789))\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  Term C = M.child(R.Parsed.Assertions[0], 1);
  EXPECT_EQ(M.intValue(C).toString(),
            "123456789012345678901234567890123456789");
}

TEST(PrinterEdgeTest, DeepSharingStaysLinear) {
  // 2^30 paths, 31 nodes: the printed form must stay small via lets.
  TermManager M;
  Term X = M.mkVariable("p0", Sort::bitVec(4));
  Term Node = X;
  for (int I = 0; I < 30; ++I)
    Node = M.mkApp(Kind::BvAdd, std::vector<Term>{Node, Node});
  Term Assertion = M.mkEq(Node, M.mkBitVecConst(BitVecValue(4, 0)));
  std::string Printed = printTermWithSharing(M, Assertion);
  EXPECT_LT(Printed.size(), 4000u);
  // And it re-parses to an equivalent DAG.
  TermManager M2;
  auto R = parseSmtLib(M2, "(declare-fun p0 () (_ BitVec 4))\n(assert " +
                               Printed + ")\n");
  ASSERT_TRUE(R.Ok) << R.Error << "\n" << Printed;
  EXPECT_EQ(M2.dagSize(R.Parsed.Assertions[0]), 33u);
}

TEST(PrinterEdgeTest, AllLeafSortsRoundTrip) {
  TermManager M1;
  Script S;
  S.Logic = "ALL";
  Term B = M1.mkVariable("vb", Sort::boolean());
  Term I = M1.mkVariable("vi", Sort::integer());
  Term R = M1.mkVariable("vr", Sort::real());
  Term V = M1.mkVariable("vv", Sort::bitVec(5));
  Term F = M1.mkVariable("vf", Sort::floatingPoint({5, 11}));
  S.Assertions = {
      M1.mkEq(B, M1.mkTrue()),
      M1.mkEq(I, M1.mkIntConst(BigInt(-42))),
      M1.mkEq(R, M1.mkRealConst(Rational(BigInt(-7), BigInt(3)))),
      M1.mkEq(V, M1.mkBitVecConst(BitVecValue(5, 21))),
      M1.mkEq(F, M1.mkFpConst(SoftFloat::fromRational(
                     {5, 11}, Rational(BigInt(3), BigInt(4))))),
  };
  std::string Text = printScript(M1, S);
  TermManager M2;
  auto Parsed = parseSmtLib(M2, Text);
  ASSERT_TRUE(Parsed.Ok) << Parsed.Error << "\n" << Text;
  ASSERT_EQ(Parsed.Parsed.Assertions.size(), 5u);
  // Second round trip is a fixpoint.
  Script S2;
  S2.Logic = "ALL";
  S2.Assertions = Parsed.Parsed.Assertions;
  EXPECT_EQ(printScript(M2, S2), Text);
}

TEST(EvaluatorEdgeTest, NaryBvOpsFold) {
  TermManager M;
  Term A = M.mkBitVecConst(BitVecValue(8, 3));
  Term B = M.mkBitVecConst(BitVecValue(8, 5));
  Term C = M.mkBitVecConst(BitVecValue(8, 7));
  Model Empty;
  auto Sum = evaluate(M, M.mkApp(Kind::BvAdd, std::vector<Term>{A, B, C}),
                      Empty);
  ASSERT_TRUE(Sum.has_value());
  EXPECT_EQ(Sum->asBitVec().toUnsigned().toString(), "15");
  auto Diff = evaluate(M, M.mkApp(Kind::BvSub, std::vector<Term>{C, A, B}),
                       Empty);
  EXPECT_EQ(Diff->asBitVec().toSigned().toString(), "-1");
  auto Xors = evaluate(M, M.mkApp(Kind::BvXor, std::vector<Term>{A, B, C}),
                       Empty);
  EXPECT_EQ(Xors->asBitVec().toUnsigned().toString(), "1");
}

TEST(ScriptTest, ConjoinedHandlesEdgeCounts) {
  TermManager M;
  Script Empty;
  EXPECT_EQ(Empty.conjoined(M), M.mkTrue());
  Script One;
  Term X = M.mkVariable("sc_x", Sort::boolean());
  One.Assertions = {X};
  EXPECT_EQ(One.conjoined(M), X);
}

} // namespace
