//===- tests/staub_pipeline_test.cpp - STAUB end-to-end tests -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "staub/Staub.h"

#include "benchgen/Generators.h"
#include "smtlib/Parser.h"
#include "smtlib/Printer.h"
#include "staub/Transform.h"
#include "z3adapter/Z3Solver.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

struct ParsedConstraint {
  TermManager M;
  std::vector<Term> Assertions;
};

void parseInto(ParsedConstraint &P, const char *Text) {
  auto R = parseSmtLib(P.M, Text);
  ASSERT_TRUE(R.Ok) << R.Error;
  P.Assertions = R.Parsed.Assertions;
}

//===--------------------------------------------------------------------===//
// Transformation unit tests.
//===--------------------------------------------------------------------===//

TEST(TransformTest, IntToBvShape) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(declare-fun y () Int)"
               "(assert (= (+ (* x x x) (* y y y)) 855))");
  TransformResult R = transformIntToBv(P.M, P.Assertions, 12);
  ASSERT_TRUE(R.Ok) << R.FailReason;
  // Guards present: each multiplication and addition is guarded.
  EXPECT_GT(R.Assertions.size(), 1u);
  // Translated constraint parses/prints as valid SMT-LIB.
  Script S;
  S.Logic = "QF_BV";
  S.Assertions = R.Assertions;
  S.HasCheckSat = true;
  std::string Printed = printScript(P.M, S);
  TermManager M2;
  auto Reparsed = parseSmtLib(M2, Printed);
  EXPECT_TRUE(Reparsed.Ok) << Reparsed.Error << "\n" << Printed;
  // All translated terms are bounded.
  for (Term A : R.Assertions)
    for (Term Var : P.M.collectVariables(A))
      EXPECT_TRUE(P.M.sort(Var).isBounded());
}

TEST(TransformTest, ConstantTooWideFails) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(assert (= x 855))");
  TransformResult R = transformIntToBv(P.M, P.Assertions, 8);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.FailReason.find("855"), std::string::npos);
}

TEST(TransformTest, RealToFpShape) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun r () Real)"
               "(assert (< (* r r) 2.25))");
  TransformResult R = transformRealToFp(P.M, P.Assertions,
                                        FpFormat::float32());
  ASSERT_TRUE(R.Ok) << R.FailReason;
  ASSERT_EQ(R.Assertions.size(), 1u);
  EXPECT_EQ(P.M.kind(R.Assertions[0]), Kind::FpLt);
}

TEST(TransformTest, ModelBackConversion) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(assert (> x 3))");
  TransformResult R = transformIntToBv(P.M, P.Assertions, 8);
  ASSERT_TRUE(R.Ok);
  Model Bounded;
  // staub.bv8!x = -5 (8-bit 251).
  Term Mapped = P.M.lookupVariable("staub.bv8!x");
  ASSERT_TRUE(Mapped.isValid());
  Bounded.set(Mapped, Value(BitVecValue(8, 251)));
  Model Unbounded;
  ASSERT_TRUE(convertModelBack(P.M, R, Bounded, Unbounded));
  const Value *X = Unbounded.get(P.M.lookupVariable("x"));
  ASSERT_NE(X, nullptr);
  EXPECT_EQ(X->asInt().toString(), "-5");
}

TEST(TransformTest, FpSpecialValuesHaveNoPreimage) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun r () Real)(assert (> r 0.5))");
  TransformResult R = transformRealToFp(P.M, P.Assertions,
                                        FpFormat::float32());
  ASSERT_TRUE(R.Ok);
  Term Mapped = P.M.lookupVariable("staub.fp8.24!r");
  ASSERT_TRUE(Mapped.isValid());
  Model Bounded;
  Bounded.set(Mapped, Value(SoftFloat::nan(FpFormat::float32())));
  Model Unbounded;
  EXPECT_FALSE(convertModelBack(P.M, R, Bounded, Unbounded));
  // -0 maps to 0 (the footnote's phi^-1(-0) = 0).
  Bounded.set(Mapped, Value(SoftFloat::zero(FpFormat::float32(), true)));
  Model Unbounded2;
  ASSERT_TRUE(convertModelBack(P.M, R, Bounded, Unbounded2));
  EXPECT_TRUE(Unbounded2.get(P.M.lookupVariable("r"))->asReal().isZero());
}

TEST(TransformTest, ChooseFpFormat) {
  FpFormat Tiny = chooseFpFormat(3, 4);
  EXPECT_GE((1u << (Tiny.ExponentBits - 1)) - 1, 4u);
  EXPECT_GE(Tiny.SignificandBits, 5u);
  FpFormat Std = chooseFpFormat(3, 4, /*RoundUpToStandard=*/true);
  EXPECT_EQ(Std, FpFormat::float16());
  FpFormat Big = chooseFpFormat(60, 50, true);
  EXPECT_EQ(Big, FpFormat::float64());
}

TEST(TransformTest, ToolsTranslateAsRunStaubDoes) {
  // One translation path: what the tools emit and lint is exactly what
  // runStaub solves with presolve off, under each width and guard policy.
  TermManager M;
  BenchConfig Config;
  Config.Seed = 42;
  Config.Count = 4;
  std::vector<GeneratedConstraint> Inputs = generateCorrelatedSuite(M, Config);
  for (BenchLogic Logic : {BenchLogic::QF_LIA, BenchLogic::QF_NIA,
                           BenchLogic::QF_LRA, BenchLogic::QF_NRA})
    for (GeneratedConstraint &C : generateSuite(M, Logic, Config))
      Inputs.push_back(std::move(C));
  auto Backend = createMiniSmtSolver();
  StaubOptions Default;
  Default.Presolve = false;
  Default.Escalate = false; // The ladder reports the width it verified at.
  Default.Solve.TimeoutSeconds = 0.05;
  StaubOptions Intervals = Default;
  Intervals.Relational = false;
  StaubOptions Fixed = Default;
  Fixed.FixedWidth = 16;
  unsigned Translated = 0, RelationalElided = 0;
  for (const StaubOptions &Options : {Default, Intervals, Fixed}) {
    for (const GeneratedConstraint &C : Inputs) {
      SCOPED_TRACE(C.Name);
      TransformResult T = translateAsParsed(M, C.Assertions, Options);
      StaubOutcome Outcome = runStaub(M, C.Assertions, *Backend, Options);
      ASSERT_EQ(T.Ok, Outcome.Path != StaubPath::TranslationFailed);
      if (!T.Ok)
        continue;
      ++Translated;
      RelationalElided += T.RelationalGuardsElided;
      EXPECT_EQ(T.Assertions, Outcome.BoundedAssertions);
      EXPECT_EQ(T.Width, Outcome.ChosenWidth);
      EXPECT_EQ(T.Format, Outcome.ChosenFormat);
    }
  }
  EXPECT_GT(Translated, 2 * Inputs.size());
  EXPECT_GT(RelationalElided, 0u); // The correlated suite needs octagons.
}

//===--------------------------------------------------------------------===//
// Pipeline tests (MiniSMT backend for speed and independence from Z3).
//===--------------------------------------------------------------------===//

TEST(StaubPipelineTest, MotivatingExampleVerifiedSat) {
  ParsedConstraint P;
  parseInto(P,
            "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
            "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))");
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 60.0;
  StaubOutcome Outcome = runStaub(P.M, P.Assertions, *Backend, Options);
  ASSERT_EQ(Outcome.Path, StaubPath::VerifiedSat);
  // Fig. 1b: 855 needs 11 signed bits, so variables become 12-bit.
  EXPECT_EQ(Outcome.ChosenWidth, 12u);
  // The verified model satisfies the original, by construction; check
  // again defensively.
  EXPECT_TRUE(evaluatesToTrue(P.M, P.M.mkAnd(P.Assertions),
                              Outcome.VerifiedModel));
}

TEST(StaubPipelineTest, FixedWidthTooSmallIsUnsatReverted) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)"
               "(assert (= (* x x) 4225))"); // x = +-65: needs 8 bits.
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.FixedWidth = 14; // Constant 4225 needs 14 signed bits; x*x at
                           // width 14 overflows for x=65? 65^2 = 4225
                           // fits 14 bits (8191); so this is sat.
  StaubOutcome Ok = runStaub(P.M, P.Assertions, *Backend, Options);
  EXPECT_EQ(Ok.Path, StaubPath::VerifiedSat);

  // Width 8: the constant does not fit -> translation fails.
  Options.FixedWidth = 8;
  StaubOutcome Fail = runStaub(P.M, P.Assertions, *Backend, Options);
  EXPECT_EQ(Fail.Path, StaubPath::TranslationFailed);
}

TEST(StaubPipelineTest, UnderapproximationRevertsOnBoundedUnsat) {
  // sat constraint whose solutions all exceed the inferred width: bounded
  // side is unsat and STAUB must revert, not claim unsat (Fig. 6 case 1).
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)"
               "(assert (> (* x x) 7))"); // Constant 7 -> assumption 5
                                          // bits; root 10; x=3 works
                                          // though! Pick harder:
  ParsedConstraint P2;
  parseInto(P2, "(declare-fun x () Int)(declare-fun y () Int)"
                "(assert (= (* x y) 7))(assert (> x 7))");
  // Solutions: x in {7? no >7}; x* y = 7 with x>7: none over integers
  // except... 7 is prime: divisors 1,7: x>7 impossible -> actually unsat.
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Presolve = false; // The presolver decides this one statically;
                            // this test pins the reversion path itself.
  StaubOutcome Outcome = runStaub(P2.M, P2.Assertions, *Backend, Options);
  // Bounded side is unsat; STAUB reverts (it cannot distinguish "truly
  // unsat" from "bounds too small").
  EXPECT_EQ(Outcome.Path, StaubPath::BoundedUnsat);

  // With the presolver on, contraction (y = 7/x with x > 7 rounds to the
  // empty Int interval) proves unsat over the exact unbounded semantics —
  // a decisive verdict where the bounded lane could only revert.
  Options.Presolve = true;
  StaubOutcome Decided = runStaub(P2.M, P2.Assertions, *Backend, Options);
  EXPECT_EQ(Decided.Path, StaubPath::PresolvedUnsat);
  EXPECT_FALSE(Decided.PresolveCertificate.empty());
}

TEST(StaubPipelineTest, RealConstraintVerifiedSat) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun r () Real)"
               "(assert (= (* r 4.0) 3.0))"); // r = 3/4, exact in FP.
  // Z3 solves the FP translation natively; MiniSMT has no FP engine.
  auto Backend = createZ3Solver();
  StaubOptions Options;
  Options.Presolve = false; // Pin the bounded-solve-then-verify path; the
                            // presolver would witness r = 3/4 statically.
  StaubOutcome Outcome = runStaub(P.M, P.Assertions, *Backend, Options);
  EXPECT_EQ(Outcome.Path, StaubPath::VerifiedSat);
  if (Outcome.Path == StaubPath::VerifiedSat) {
    const Value *R = Outcome.VerifiedModel.get(P.M.lookupVariable("r"));
    ASSERT_NE(R, nullptr);
    EXPECT_EQ(R->asReal().toString(), "3/4");
  }

  // Default options: contraction pins r to the point 3/4 and the
  // evaluator-checked witness decides sat with zero solver calls.
  StaubOutcome Pre = runStaub(P.M, P.Assertions, *Backend, StaubOptions{});
  EXPECT_EQ(Pre.Path, StaubPath::PresolvedSat);
  if (Pre.Path == StaubPath::PresolvedSat) {
    const Value *R = Pre.VerifiedModel.get(P.M.lookupVariable("r"));
    ASSERT_NE(R, nullptr);
    EXPECT_EQ(R->asReal().toString(), "3/4");
  }
}

TEST(StaubPipelineTest, BoundedConstraintIsNotTransformed) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun v () (_ BitVec 8))(assert (= v (_ bv1 8)))");
  auto Backend = createMiniSmtSolver();
  StaubOutcome Outcome = runStaub(P.M, P.Assertions, *Backend, {});
  EXPECT_EQ(Outcome.Path, StaubPath::TranslationFailed);
}

TEST(StaubPipelineTest, PortfolioNeverWorseAndSound) {
  // Unsat original: portfolio must answer unsat via the original lane.
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)"
               "(assert (> x 5))(assert (< x 3))");
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                   LanePolicy::Measured);
  EXPECT_EQ(R.Status, SolveStatus::Unsat);
  // The presolver's unsat verdict is decisive, so the STAUB lane now wins
  // this one outright (no model to report).
  EXPECT_TRUE(R.StaubWon);
  EXPECT_EQ(R.Staub.Path, StaubPath::PresolvedUnsat);

  // With presolve off, only the original lane can answer unsat.
  Options.Presolve = false;
  PortfolioResult NoPre = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                       LanePolicy::Measured);
  EXPECT_EQ(NoPre.Status, SolveStatus::Unsat);
  EXPECT_FALSE(NoPre.StaubWon);
}

TEST(StaubPipelineTest, PortfolioSatPrefersFasterLane) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(declare-fun y () Int)"
               "(assert (= (+ (* x x x) (* y y y)) 91))");
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 30.0;
  PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                   LanePolicy::Measured);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_TRUE(evaluatesToTrue(P.M, P.M.mkAnd(P.Assertions), R.TheModel));
  EXPECT_LE(R.PortfolioSeconds,
            std::max(R.OriginalSeconds, R.StaubSeconds) + 1e-9);
}

TEST(StaubPipelineTest, RacingPortfolioAgrees) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)"
               "(assert (= (* x x) 49))(assert (> x 0))");
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 30.0;
  PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                   LanePolicy::Racing);
  EXPECT_EQ(R.Status, SolveStatus::Sat);
}

TEST(StaubPipelineTest, SemanticDifferencePathOnReals) {
  // Force the FP lane into a rounding trap: r * 3 = 1 has no exact FP
  // witness (1/3 is not representable), so the bounded model Z3 finds
  // relies on rounding, fails verification, and STAUB reverts.
  ParsedConstraint P;
  parseInto(P, "(declare-fun r () Real)(assert (= (* r 3.0) 1.0))");
  auto Backend = createZ3Solver();
  StaubOptions Options;
  Options.Presolve = false; // The presolver would witness r = 1/3
                            // statically; this test pins the bounded lane.
  StaubOutcome Outcome = runStaub(P.M, P.Assertions, *Backend, Options);
  EXPECT_EQ(Outcome.Path, StaubPath::SemanticDifference);
}

//===--------------------------------------------------------------------===//
// Pipeline with the Z3 backend (the paper's configuration).
//===--------------------------------------------------------------------===//

TEST(StaubZ3Test, VerifiedSatWithZ3) {
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(declare-fun y () Int)"
               "(assert (= (+ (* x x) (* y y)) 25))"
               "(assert (> x 0))(assert (> y 0))");
  auto Backend = createZ3Solver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 20.0;
  StaubOutcome Outcome = runStaub(P.M, P.Assertions, *Backend, Options);
  ASSERT_EQ(Outcome.Path, StaubPath::VerifiedSat);
  EXPECT_TRUE(evaluatesToTrue(P.M, P.M.mkAnd(P.Assertions),
                              Outcome.VerifiedModel));
}

TEST(StaubZ3Test, GuardsPreventOverflowExploits) {
  // Without guards, 16 + 16 = 0 mod 32 would let a bounded solver "solve"
  // x + x = 0 with x = 16 at width 5. Guards forbid it; the only verified
  // models are genuine.
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)"
               "(assert (= (+ x x) 30))(assert (> x 0))");
  auto Backend = createZ3Solver();
  StaubOptions Options;
  StaubOutcome Outcome = runStaub(P.M, P.Assertions, *Backend, Options);
  ASSERT_EQ(Outcome.Path, StaubPath::VerifiedSat);
  EXPECT_EQ(Outcome.VerifiedModel.get(P.M.lookupVariable("x"))
                ->asInt()
                .toString(),
            "15");
}

} // namespace
