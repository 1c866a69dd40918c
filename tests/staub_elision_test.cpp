//===- tests/staub_elision_test.cpp - Overflow-guard elision --------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Guard elision (TransformOptions::ElideGuards): the translator drops
/// exactly the overflow guards the interval engine proves cannot fire at
/// the chosen width. Units pin exact elide/emit counts on hand-built
/// constraints; a metamorphic check shows elision never changes the
/// pipeline verdict; an aggregate check enforces the >= 20% elision rate
/// on the benchgen Int suites that range facts were added for. Relational
/// (octagon) elision is pinned per family on the correlated suite, a
/// guard the pre-filter drops must still source facts for the others, and
/// a stopped cancellation token keeps the guards not yet elided.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "benchgen/Generators.h"
#include "solver/Solver.h"
#include "staub/BoundInference.h"
#include "staub/Staub.h"
#include "staub/Transform.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

using namespace staub;

namespace {

/// x,y boxed to [-15, 15] plus one product constraint: exactly one
/// overflow-capable op (the mul).
std::vector<Term> boxedProduct(TermManager &M, const std::string &Prefix) {
  Term X = M.mkVariable(Prefix + "_x", Sort::integer());
  Term Y = M.mkVariable(Prefix + "_y", Sort::integer());
  return {M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(15))),
          M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(-15))),
          M.mkCompare(Kind::Le, Y, M.mkIntConst(BigInt(15))),
          M.mkCompare(Kind::Ge, Y, M.mkIntConst(BigInt(-15))),
          M.mkEq(M.mkMul(std::vector<Term>{X, Y}), M.mkIntConst(BigInt(100)))};
}

TEST(GuardElisionTest, ElidesExactlyTheProvableGuards) {
  TermManager M;
  auto Assertions = boxedProduct(M, "ge");
  // 15*15 = 225 fits 16 bits: the single mul guard is provable and
  // elided. At 8 bits it is not (225 > 127) and must be emitted.
  TransformResult Wide = transformIntToBv(M, Assertions, 16);
  ASSERT_TRUE(Wide.Ok);
  EXPECT_EQ(Wide.GuardsElided, 1u);
  EXPECT_EQ(Wide.GuardsEmitted, 0u);
  EXPECT_EQ(Wide.Assertions.size(), Assertions.size());

  TransformResult Narrow = transformIntToBv(M, Assertions, 8);
  ASSERT_TRUE(Narrow.Ok);
  EXPECT_EQ(Narrow.GuardsElided, 0u);
  EXPECT_EQ(Narrow.GuardsEmitted, 1u);
  EXPECT_EQ(Narrow.Assertions.size(), Assertions.size() + 1);
}

TEST(GuardElisionTest, DisablingElisionEmitsEveryGuard) {
  TermManager M;
  auto Assertions = boxedProduct(M, "gd");
  TransformOptions Off;
  Off.ElideGuards = false;
  TransformResult T = transformIntToBv(M, Assertions, 16, Off);
  ASSERT_TRUE(T.Ok);
  EXPECT_EQ(T.GuardsElided, 0u);
  EXPECT_EQ(T.GuardsEmitted, 1u);
  EXPECT_EQ(T.Assertions.size(), Assertions.size() + 1);
}

TEST(GuardElisionTest, NoRangeFactsMeansNoElision) {
  TermManager M;
  Term X = M.mkVariable("gn_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkEq(M.mkMul(std::vector<Term>{X, X}), M.mkIntConst(BigInt(49)))};
  TransformResult T = transformIntToBv(M, Assertions, 16);
  ASSERT_TRUE(T.Ok);
  EXPECT_EQ(T.GuardsElided, 0u);
  EXPECT_GT(T.GuardsEmitted, 0u);
}

TEST(GuardElisionTest, NaryFoldElidesPerStep) {
  // x + y + z with all three boxed at [-15,15]: the translator's binary
  // expansion has two fold steps; at width 8 both partial sums fit (30,
  // 45 <= 127), so both guards elide.
  TermManager M;
  Term X = M.mkVariable("gf_x", Sort::integer());
  Term Y = M.mkVariable("gf_y", Sort::integer());
  Term Z = M.mkVariable("gf_z", Sort::integer());
  std::vector<Term> Assertions;
  for (Term V : {X, Y, Z}) {
    Assertions.push_back(M.mkCompare(Kind::Le, V, M.mkIntConst(BigInt(15))));
    Assertions.push_back(M.mkCompare(Kind::Ge, V, M.mkIntConst(BigInt(-15))));
  }
  Assertions.push_back(M.mkEq(M.mkAdd(std::vector<Term>{X, Y, Z}),
                              M.mkIntConst(BigInt(20))));
  TransformResult T = transformIntToBv(M, Assertions, 8);
  ASSERT_TRUE(T.Ok);
  EXPECT_EQ(T.GuardsElided, 2u);
  EXPECT_EQ(T.GuardsEmitted, 0u);
}

TEST(GuardElisionTest, MetamorphicVerdictStableOnIntSuites) {
  // Elision on vs. off must produce the same pipeline verdict on every
  // benchgen Int instance: elided guards are implied by the asserted
  // range facts, so the bounded model set is unchanged.
  auto Mini = createMiniSmtSolver();
  BenchConfig Config;
  Config.Count = 12;
  Config.MaxConstantBits = 9;
  for (BenchLogic Logic : {BenchLogic::QF_NIA, BenchLogic::QF_LIA}) {
    TermManager M;
    auto Suite = generateSuite(M, Logic, Config);
    for (const GeneratedConstraint &C : Suite) {
      StaubOptions On;
      On.Solve.TimeoutSeconds = 20.0;
      StaubOptions Off = On;
      Off.ElideGuards = false;
      StaubOutcome A = runStaub(M, C.Assertions, *Mini, On);
      StaubOutcome B = runStaub(M, C.Assertions, *Mini, Off);
      EXPECT_EQ(A.Path, B.Path)
          << C.Name << ": elision changed the verdict from "
          << toString(B.Path) << " to " << toString(A.Path);
      EXPECT_EQ(A.GuardsEmitted + A.GuardsElided, B.GuardsEmitted)
          << C.Name << ": elision must partition, not change, the guard set";
    }
  }
}

TEST(GuardElisionTest, IntSuiteElisionRateAtLeastTwentyPercent) {
  // Acceptance criterion: across the benchgen Int suites (QF_NIA +
  // QF_LIA) at the pipeline's own inferred widths, at least 20% of all
  // overflow guards are statically discharged.
  unsigned long Emitted = 0, Elided = 0;
  BenchConfig Config; // Default: 60 instances per suite.
  for (BenchLogic Logic : {BenchLogic::QF_NIA, BenchLogic::QF_LIA}) {
    TermManager M;
    auto Suite = generateSuite(M, Logic, Config);
    for (const GeneratedConstraint &C : Suite) {
      IntBounds Bounds = inferIntBounds(M, C.Assertions);
      TransformResult T =
          transformIntToBv(M, C.Assertions, Bounds.VariableAssumption);
      if (!T.Ok)
        continue;
      Emitted += T.GuardsEmitted;
      Elided += T.GuardsElided;
    }
  }
  ASSERT_GT(Emitted + Elided, 0u);
  EXPECT_GE(Elided * 5, Emitted + Elided)
      << "elision rate " << (100.0 * double(Elided) / double(Emitted + Elided))
      << "% fell below the 20% acceptance bar";
}

TEST(GuardElisionTest, PrefilteredKeptGuardsStillSourceFacts) {
  // At width 8, x - y reaches -130, so the bvssubo guard is unprovable
  // and the pre-filter drops it from the candidates; it stays in the
  // output, so its fact x - y <= 3 is valid. With y <= 10 it bounds
  // x <= 13, and x + 100 <= 113 fits: the bvsaddo guard must elide.
  TermManager M;
  Term X = M.mkVariable("gp_x", Sort::integer());
  Term Y = M.mkVariable("gp_y", Sort::integer());
  auto C = [&](int64_t V) { return M.mkIntConst(BigInt(V)); };
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, M.mkSub(std::vector<Term>{X, Y}), C(3)),
      M.mkCompare(Kind::Le, Y, C(10)),
      M.mkCompare(Kind::Ge, X, C(-120)),
      M.mkCompare(Kind::Ge, Y, C(-120)),
      M.mkCompare(Kind::Le, M.mkAdd(std::vector<Term>{X, C(100)}), C(120))};
  TransformResult T = transformIntToBv(M, Assertions, 8);
  ASSERT_TRUE(T.Ok);
  EXPECT_EQ(T.RelationalGuardsElided, 1u);
  ASSERT_EQ(T.Assertions.size(), T.TranslatedCount + 1);
  Term Guard = T.Assertions.back();
  ASSERT_EQ(M.kind(Guard), Kind::Not);
  EXPECT_EQ(M.kind(M.child(Guard, 0)), Kind::BvSSubO);
  analysis::LintReport Report =
      analysis::lintTranslation(M, Assertions, T.Assertions, T.VariableMap);
  EXPECT_TRUE(Report.clean()) << Report.toString();
}

/// The STAUB outcome every instance of one correlated-suite family gets.
struct PinnedOutcome {
  unsigned GuardsEmitted, GuardsElided, RelationalGuardsElided, ChosenWidth;
  StaubPath Path;
};

TEST(GuardElisionTest, CorrelatedSuiteRelationalElisionIsPinned) {
  // Cycles are decided by zone-closure presolve and translate nothing.
  // A chain's guards all elide classically but one; a band's consumer
  // bvssubo is the one guard only the octagon discharges.
  const std::map<std::string, PinnedOutcome> Expected = {
      {"CorrNegCycle", {0, 0, 0, 0, StaubPath::PresolvedUnsat}},
      {"CorrSatCycle", {0, 0, 0, 0, StaubPath::PresolvedSat}},
      {"CorrChain", {1, 20, 0, 11, StaubPath::VerifiedSat}},
      {"CorrBands", {9, 1, 1, 8, StaubPath::VerifiedSat}},
  };
  auto Mini = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 20.0;
  for (uint64_t Seed : {42u, 1009u}) {
    BenchConfig Config;
    Config.Seed = Seed;
    Config.Count = 24;
    TermManager M;
    for (const GeneratedConstraint &C : generateCorrelatedSuite(M, Config)) {
      SCOPED_TRACE(C.Name + " at seed " + std::to_string(Seed));
      ASSERT_EQ(Expected.count(C.Family), 1u) << C.Family;
      const PinnedOutcome &E = Expected.at(C.Family);
      StaubOutcome O = runStaub(M, C.Assertions, *Mini, Options);
      EXPECT_EQ(O.GuardsEmitted, E.GuardsEmitted);
      EXPECT_EQ(O.GuardsElided, E.GuardsElided);
      EXPECT_EQ(O.RelationalGuardsElided, E.RelationalGuardsElided);
      EXPECT_EQ(O.ChosenWidth, E.ChosenWidth);
      EXPECT_EQ(O.Path, E.Path) << toString(O.Path);
      analysis::LintReport Report =
          analysis::lintBounded(M, O.BoundedAssertions);
      EXPECT_TRUE(Report.clean()) << Report.toString();
    }
  }
}

TEST(GuardElisionTest, RelationalElisionStopsOnCancellation) {
  // Elision polls the query's token between candidates. A stopped token
  // keeps every guard not yet elided, which is always sound and lints
  // clean; a live token changes nothing.
  auto Mini = createMiniSmtSolver();
  BenchConfig Config;
  Config.Seed = 42;
  Config.Count = 24;
  TermManager M;
  for (const GeneratedConstraint &C : generateCorrelatedSuite(M, Config)) {
    if (C.Family != "CorrBands")
      continue;
    StaubOptions Options;
    Options.Solve.TimeoutSeconds = 20.0;
    StaubOutcome Plain = runStaub(M, C.Assertions, *Mini, Options);
    ASSERT_EQ(Plain.RelationalGuardsElided, 1u);

    CancellationToken Live;
    Options.Solve.Cancel = &Live;
    StaubOutcome Same = runStaub(M, C.Assertions, *Mini, Options);
    EXPECT_EQ(Same.RelationalGuardsElided, Plain.RelationalGuardsElided);
    EXPECT_EQ(Same.GuardsEmitted, Plain.GuardsEmitted);
    EXPECT_EQ(Same.GuardsElided, Plain.GuardsElided);
    EXPECT_EQ(Same.BoundedAssertions, Plain.BoundedAssertions);
    EXPECT_EQ(Same.Path, Plain.Path) << toString(Same.Path);

    CancellationToken Stopped;
    Stopped.cancel();
    Options.Solve.Cancel = &Stopped;
    StaubOutcome Kept = runStaub(M, C.Assertions, *Mini, Options);
    EXPECT_EQ(Kept.RelationalGuardsElided, 0u);
    EXPECT_EQ(Kept.GuardsEmitted, Plain.GuardsEmitted + 1);
    EXPECT_EQ(Kept.GuardsElided, Plain.GuardsElided - 1);
    analysis::LintReport Report =
        analysis::lintBounded(M, Kept.BoundedAssertions);
    EXPECT_TRUE(Report.clean()) << Report.toString();
    return;
  }
  FAIL() << "the correlated suite has no CorrBands instance";
}

} // namespace
