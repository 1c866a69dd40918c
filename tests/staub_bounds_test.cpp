//===- tests/staub_bounds_test.cpp - Bound inference unit tests -----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "staub/BoundInference.h"

#include "analysis/Presolve.h"
#include "benchgen/Generators.h"
#include "smtlib/Parser.h"
#include "staub/Staub.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

IntBounds boundsOf(const char *Text, unsigned Cap = 64) {
  TermManager M;
  auto R = parseSmtLib(M, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  return inferIntBounds(M, R.Parsed.Assertions, Cap);
}

TEST(IntBoundsTest, PaperFig4Example) {
  // (assert (>= a 15)) (assert (< (- a b) 0)): largest constant 15 needs
  // 5 signed bits; the paper's presentation uses 4 (magnitude) with the
  // assumption x = largest-constant-width; our assumption adds the sign
  // bit uniformly. The key property: subtraction adds one bit over the
  // assumption, and the root picks that up.
  IntBounds B = boundsOf("(declare-fun a () Int)(declare-fun b () Int)"
                         "(assert (>= a 15))"
                         "(assert (< (- a b) 0))");
  EXPECT_EQ(B.VariableAssumption, 6u); // 15 needs 5 signed bits, +1.
  EXPECT_EQ(B.RootWidth, B.VariableAssumption + 1); // One subtraction.
}

TEST(IntBoundsTest, ConstantsDriveAssumption) {
  IntBounds Small = boundsOf("(declare-fun x () Int)(assert (= x 3))");
  // 3 needs 3 signed bits; assumption 4.
  EXPECT_EQ(Small.VariableAssumption, 4u);
  IntBounds Large = boundsOf("(declare-fun x () Int)(assert (= x 855))");
  // 855 needs 11 signed bits; assumption 12 (the paper's Fig. 1 width).
  EXPECT_EQ(Large.VariableAssumption, 12u);
}

TEST(IntBoundsTest, MultiplicationSumsWidths) {
  IntBounds B = boundsOf("(declare-fun x () Int)"
                         "(assert (> (* x x) 3))");
  // x assumed 4 bits (const 3 -> 3 bits, +1); x*x -> 8.
  EXPECT_EQ(B.VariableAssumption, 4u);
  EXPECT_EQ(B.RootWidth, 8u);
}

TEST(IntBoundsTest, MotivatingExampleWidths) {
  IntBounds B = boundsOf(
      "(declare-fun x () Int)(declare-fun y () Int)(declare-fun z () Int)"
      "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))");
  EXPECT_EQ(B.VariableAssumption, 12u);
  // Cubes: 36 bits; two n-ary additions add 2; root = 38.
  EXPECT_EQ(B.RootWidth, 38u);
}

TEST(IntBoundsTest, CapApplies) {
  IntBounds B = boundsOf(
      "(declare-fun x () Int)"
      "(assert (> (* x x x x x x x x) 1000000))", /*Cap=*/24);
  EXPECT_LE(B.RootWidth, 24u);
}

TEST(IntBoundsTest, DivAndModAreModest) {
  IntBounds B = boundsOf("(declare-fun x () Int)(declare-fun y () Int)"
                         "(assert (= (div x 7) (mod y 7)))");
  // Constant 7 needs 4 signed bits -> assumption 5; div adds one bit
  // (6), mod is bounded by the divisor width (4); root is the max.
  EXPECT_EQ(B.VariableAssumption, 5u);
  EXPECT_EQ(B.RootWidth, 6u);
}

TEST(IntBoundsTest, BooleanStructurePropagatesMax) {
  IntBounds B = boundsOf("(declare-fun x () Int)(declare-fun p () Bool)"
                         "(assert (or p (> (+ x 100) 0)))");
  // 100 needs 8 signed bits -> assumption 9; one addition -> 10.
  EXPECT_EQ(B.RootWidth, 10u);
}

RealBounds realBoundsOf(const char *Text) {
  TermManager M;
  auto R = parseSmtLib(M, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  return inferRealBounds(M, R.Parsed.Assertions);
}

// chooseTarget reads the assumption alone, from inferIntAssumption. It must
// be inferIntBounds' VariableAssumption on every Int instance of the
// generated, escalation and correlated suites: on the input without
// ranges, and with presolve's ranges on the input and on the presolved
// set, as runStaub's two chooseTarget calls see them.
TEST(IntBoundsTest, AssumptionAloneMatchesFullInference) {
  for (uint64_t Seed : {42u, 1009u}) {
    TermManager M;
    BenchConfig Config;
    Config.Seed = Seed;
    Config.Count = 24;
    std::vector<GeneratedConstraint> Suite;
    auto Append = [&Suite](std::vector<GeneratedConstraint> More) {
      Suite.insert(Suite.end(), More.begin(), More.end());
    };
    for (BenchLogic Logic : {BenchLogic::QF_NIA, BenchLogic::QF_LIA,
                             BenchLogic::QF_NRA, BenchLogic::QF_LRA})
      Append(generateSuite(M, Logic, Config));
    Append(generateEscalationSuite(M, Config));
    Append(generateCorrelatedSuite(M, Config));
    unsigned IntInstances = 0;
    for (const GeneratedConstraint &C : Suite) {
      if (selectSort(M, C.Assertions) != InputSort::Int)
        continue;
      ++IntInstances;
      analysis::PresolveResult Pre = analysis::presolve(M, C.Assertions);
      auto ExpectSame =
          [&](const std::vector<Term> &Assertions,
              const std::unordered_map<uint32_t, analysis::Interval> *Ranges) {
            EXPECT_EQ(inferIntAssumption(M, Assertions, config::DefaultWidthCap,
                                         Ranges),
                      inferIntBounds(M, Assertions, config::DefaultWidthCap,
                                     Ranges)
                          .VariableAssumption)
                << C.Name << " (seed " << Seed << ")";
          };
      ExpectSame(C.Assertions, nullptr);
      ExpectSame(C.Assertions, &Pre.VarRanges);
      ExpectSame(Pre.Assertions, &Pre.VarRanges);
    }
    EXPECT_GE(IntInstances, 4u * 24u) << "seed " << Seed;
  }
}

TEST(RealBoundsTest, MagnitudeAndPrecision) {
  RealBounds B = realBoundsOf("(declare-fun r () Real)"
                              "(assert (< r 6.25))");
  // 6.25 = 25/4: magnitude ceil = 7 -> 4 signed bits (+1 assumption);
  // precision dig = 2.
  EXPECT_EQ(B.MagnitudeAssumption, 5u);
  EXPECT_GE(B.PrecisionAssumption, 3u);
  EXPECT_GE(B.RootPrecision, B.PrecisionAssumption);
}

TEST(RealBoundsTest, MultiplicationAddsBoth) {
  RealBounds B = realBoundsOf("(declare-fun r () Real)"
                              "(assert (> (* r r) 2.5))");
  EXPECT_EQ(B.RootMagnitude, 2 * B.MagnitudeAssumption);
  EXPECT_EQ(B.RootPrecision, 2 * B.PrecisionAssumption);
}

TEST(RealBoundsTest, DivisionUsesModifiedSemantics) {
  // The paper modifies division to (m1+m2, p1+p2) to avoid infinite
  // precision.
  RealBounds B = realBoundsOf("(declare-fun a () Real)(declare-fun b () Real)"
                              "(assert (= (/ a b) 3.0))");
  EXPECT_EQ(B.RootMagnitude, 2 * B.MagnitudeAssumption);
  EXPECT_EQ(B.RootPrecision, 2 * B.PrecisionAssumption);
}

TEST(RealBoundsTest, NonTerminatingDecimalGetsLargePrecision) {
  // 0.1 has no finite binary expansion: treated as high precision, which
  // drives the chosen format up (and likely a semantic difference).
  RealBounds B = realBoundsOf("(declare-fun r () Real)"
                              "(assert (= r 0.1))");
  EXPECT_GE(B.PrecisionAssumption, 64u);
}

} // namespace
