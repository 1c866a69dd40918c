//===- tests/analysis_lint_test.cpp - staub-lint soundness checker --------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// staub-lint (analysis/Lint.h) units plus the acceptance campaign: over
/// 200 fuzzer-generated Int instances, every drop-guards mutant must be
/// flagged *statically* — no solver is constructed anywhere in this file.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "fuzz/Fuzzer.h"
#include "staub/BoundInference.h"
#include "staub/Config.h"
#include "staub/Transform.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace staub;
using namespace staub::analysis;

namespace {

bool hasCheck(const LintReport &Report, std::string_view Check) {
  return std::any_of(Report.Findings.begin(), Report.Findings.end(),
                     [&](const LintFinding &F) { return F.Check == Check; });
}

/// The pipeline's own translation of one Int constraint.
TransformResult translate(TermManager &M, const std::vector<Term> &Assertions) {
  IntBounds Bounds = inferIntBounds(M, Assertions);
  return transformIntToBv(M, Assertions, Bounds.VariableAssumption);
}

TEST(LintTest, CleanTranslationLintsClean) {
  TermManager M;
  Term X = M.mkVariable("lc_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkEq(M.mkMul(std::vector<Term>{X, X}), M.mkIntConst(BigInt(49)))};
  TransformResult T = translate(M, Assertions);
  ASSERT_TRUE(T.Ok);
  ASSERT_GT(T.GuardsEmitted, 0u) << "x is unbounded; the mul needs a guard";
  LintReport Report =
      lintTranslation(M, Assertions, T.Assertions, T.VariableMap);
  EXPECT_TRUE(Report.clean()) << Report.toString();
}

TEST(LintTest, DroppedGuardIsFlaggedStatically) {
  TermManager M;
  Term X = M.mkVariable("ld_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkEq(M.mkMul(std::vector<Term>{X, X}), M.mkIntConst(BigInt(49)))};
  TransformResult T = translate(M, Assertions);
  ASSERT_TRUE(T.Ok);
  ASSERT_GT(T.Assertions.size(), Assertions.size());
  std::vector<Term> Stripped = T.Assertions;
  Stripped.resize(Assertions.size());
  LintReport Report = lintTranslation(M, Assertions, Stripped, T.VariableMap);
  EXPECT_FALSE(Report.clean());
  EXPECT_TRUE(hasCheck(Report, "unguarded-overflow")) << Report.toString();
}

TEST(LintTest, ElidedGuardsAreAcceptedByParity) {
  // Guards the interval engine discharges are exactly the ones lint can
  // re-prove: elided output must lint clean with guards still required.
  TermManager M;
  Term X = M.mkVariable("lp_x", Sort::integer());
  Term Y = M.mkVariable("lp_y", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(15))),
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(-15))),
      M.mkCompare(Kind::Le, Y, M.mkIntConst(BigInt(15))),
      M.mkCompare(Kind::Ge, Y, M.mkIntConst(BigInt(-15))),
      M.mkEq(M.mkMul(std::vector<Term>{X, Y}), M.mkIntConst(BigInt(100)))};
  TransformResult T = transformIntToBv(M, Assertions, 16);
  ASSERT_TRUE(T.Ok);
  EXPECT_GT(T.GuardsElided, 0u);
  LintReport Report =
      lintTranslation(M, Assertions, T.Assertions, T.VariableMap);
  EXPECT_TRUE(Report.clean()) << Report.toString();
}

TEST(LintTest, MissingVariableMapEntryIsTotalityError) {
  TermManager M;
  Term X = M.mkVariable("lt_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Gt, X, M.mkIntConst(BigInt(3)))};
  TransformResult T = translate(M, Assertions);
  ASSERT_TRUE(T.Ok);
  std::unordered_map<uint32_t, Term> Hollow; // phi^-1 lost every variable.
  LintReport Report = lintTranslation(M, Assertions, T.Assertions, Hollow);
  EXPECT_FALSE(Report.clean());
  EXPECT_TRUE(hasCheck(Report, "map-totality")) << Report.toString();
}

TEST(LintTest, NonBooleanAssertionIsError) {
  TermManager M;
  Term V = M.mkVariable("lb_v", Sort::bitVec(8));
  LintReport Report = lintBounded(M, {V});
  EXPECT_FALSE(Report.clean());
  EXPECT_TRUE(hasCheck(Report, "non-boolean-assertion"));
}

TEST(LintTest, AlwaysFiringGuardIsContradictoryWarning) {
  // (not (bvsaddo 100 100)) at width 8 is false in every model: the guard
  // provably fires. Legal (makes the constraint unsat) but suspicious.
  TermManager M;
  Term C = M.mkBitVecConst(BitVecValue(8, BigInt(100)));
  Term V = M.mkVariable("lw_v", Sort::bitVec(8));
  Term Sum = M.mkApp(Kind::BvAdd, std::vector<Term>{C, C});
  std::vector<Term> Assertions = {
      M.mkEq(Sum, V),
      M.mkNot(M.mkApp(Kind::BvSAddO, std::vector<Term>{C, C}))};
  LintReport Report = lintBounded(M, Assertions);
  EXPECT_TRUE(Report.clean()) << "warnings must not make the report dirty";
  EXPECT_TRUE(hasCheck(Report, "contradictory-guard")) << Report.toString();
}

TEST(LintTest, PinnedOperandGuardIsContradictoryWarning) {
  // (= v #x64) pins v to 100, so (bvsaddo v v) at width 8 fires in every
  // model: the operand interval is a point, and at points the interval
  // oracle is exact.
  TermManager M;
  Term V = M.mkVariable("lq_v", Sort::bitVec(8));
  std::vector<Term> Assertions = {
      M.mkEq(V, M.mkBitVecConst(BitVecValue(8, BigInt(100)))),
      M.mkNot(M.mkApp(Kind::BvSAddO, std::vector<Term>{V, V}))};
  LintReport Report = lintBounded(M, Assertions);
  EXPECT_TRUE(Report.clean()) << Report.toString();
  EXPECT_TRUE(hasCheck(Report, "contradictory-guard")) << Report.toString();
}

TEST(LintTest, ForeignBoundedScriptNeedsNoGuards) {
  TermManager M;
  Term A = M.mkVariable("lf_a", Sort::bitVec(16));
  Term B = M.mkVariable("lf_b", Sort::bitVec(16));
  std::vector<Term> Assertions = {
      M.mkEq(M.mkApp(Kind::BvAdd, std::vector<Term>{A, B}),
             M.mkBitVecConst(BitVecValue(16, BigInt(256))))};
  LintOptions Relaxed;
  Relaxed.RequireGuards = false;
  EXPECT_TRUE(lintBounded(M, Assertions, Relaxed).clean());
  EXPECT_FALSE(lintBounded(M, Assertions).clean())
      << "with guards required, the unguarded bvadd must be flagged";
}

TEST(LintTest, CorrelationAloneDoesNotDischargeAGuard) {
  // x <= y and y <= x bound x - y to [0, 0], but each operand alone spans
  // the whole 8-bit range. Lint discharges a guard by operand intervals
  // only, so the unguarded bvsub is an error.
  TermManager M;
  Term X = M.mkVariable("lr_x", Sort::bitVec(8));
  Term Y = M.mkVariable("lr_y", Sort::bitVec(8));
  std::vector<Term> Assertions = {
      M.mkApp(Kind::BvSle, std::vector<Term>{X, Y}),
      M.mkApp(Kind::BvSle, std::vector<Term>{Y, X}),
      M.mkEq(M.mkApp(Kind::BvSub, std::vector<Term>{X, Y}),
             M.mkBitVecConst(BitVecValue(8, BigInt(0))))};
  LintReport Report = lintBounded(M, Assertions);
  EXPECT_FALSE(Report.clean());
  EXPECT_TRUE(hasCheck(Report, "unguarded-overflow")) << Report.toString();
}

TEST(LintTest, GuardKeyNormalizesCommutativeOperands) {
  EXPECT_EQ(makeGuardKey(Kind::BvSAddO, 9, 3), makeGuardKey(Kind::BvSAddO, 3, 9));
  EXPECT_NE(makeGuardKey(Kind::BvSSubO, 9, 3), makeGuardKey(Kind::BvSSubO, 3, 9));
}

//===--------------------------------------------------------------------===//
// Acceptance campaign: 100% static detection of drop-guards mutants.
//===--------------------------------------------------------------------===//

TEST(LintCampaignTest, DetectsAllDroppedGuardMutantsStatically) {
  unsigned Mutants = 0, Flagged = 0, CleanOriginals = 0;
  for (uint64_t I = 0; I < 200; ++I) {
    TermManager M;
    FuzzInstance Instance =
        buildFuzzInstance(M, FuzzTheory::Int, fuzzIterationSeed(1, I));
    IntBounds Bounds = inferIntBounds(M, Instance.Assertions);
    unsigned Width =
        std::clamp(Bounds.VariableAssumption, 1u, config::DefaultWidthCap);
    TransformResult T = transformIntToBv(M, Instance.Assertions, Width);
    if (!T.Ok)
      continue;

    // The untouched translation must lint clean (elided guards included).
    LintReport Clean =
        lintTranslation(M, Instance.Assertions, T.Assertions, T.VariableMap);
    EXPECT_TRUE(Clean.clean())
        << "iteration " << I << ":\n" << Clean.toString();
    if (Clean.clean())
      ++CleanOriginals;

    if (T.GuardsEmitted == 0)
      continue; // Nothing to drop: no mutant.
    ++Mutants;
    std::vector<Term> Stripped = T.Assertions;
    Stripped.resize(Instance.Assertions.size());
    LintReport Report =
        lintTranslation(M, Instance.Assertions, Stripped, T.VariableMap);
    if (!Report.clean() && hasCheck(Report, "unguarded-overflow"))
      ++Flagged;
    else
      ADD_FAILURE() << "iteration " << I
                    << ": mutant escaped static lint:\n" << Report.toString();
  }
  EXPECT_GT(Mutants, 100u) << "campaign lost its statistical teeth";
  EXPECT_EQ(Flagged, Mutants);
  EXPECT_GT(CleanOriginals, 150u);
}

} // namespace
