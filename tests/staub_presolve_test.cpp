//===- tests/staub_presolve_test.cpp - Interval-contraction presolver -----===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The presolver (analysis/Presolve.h) and its shared contraction
/// kernels (analysis/Contract.h): backward-transfer units, static
/// verdicts with certificates and checked witnesses, equisatisfiability
/// on generated suites, the pipeline-level acceptance criteria (>= 30%
/// of the dedicated static suite decided with zero solver calls; mean
/// inferred width no worse with presolve), and the presolve-equisat
/// fuzz oracle's sensitivity to --inject=bad-contract.
///
//===----------------------------------------------------------------------===//

#include "analysis/Contract.h"
#include "analysis/Presolve.h"
#include "benchgen/Harness.h"
#include "fuzz/Fuzzer.h"
#include "smtlib/Printer.h"

#include <gtest/gtest.h>

using namespace staub;
using namespace staub::analysis;

namespace {

Interval box(int64_t Lo, int64_t Hi) {
  return Interval::range(Rational(Lo), Rational(Hi));
}

//===--------------------------------------------------------------------===//
// Backward (HC4-revise) kernel units.
//===--------------------------------------------------------------------===//

TEST(ContractKernelTest, BackAddSubtractsTheOtherOperand) {
  // X + [3,4] in [0,10]  =>  X in [-4,7].
  EXPECT_EQ(backAddOperand(box(0, 10), box(3, 4)), box(-4, 7));
}

TEST(ContractKernelTest, BackSubRecoversBothSides) {
  // L - [1,2] in [0,5]  =>  L in [1,7];  [10,12] - R in [0,5]  =>
  // R in [5,12].
  EXPECT_EQ(backSubLeft(box(0, 5), box(1, 2)), box(1, 7));
  EXPECT_EQ(backSubRight(box(0, 5), box(10, 12)), box(5, 12));
}

TEST(ContractKernelTest, BackNegMirrors) {
  EXPECT_EQ(backNeg(box(-7, 2)), box(-2, 7));
}

TEST(ContractKernelTest, BackMulDividesWhenZeroExcluded) {
  // X * [2,2] in [6,6]  =>  X in [3,3]; a zero-straddling factor kills
  // invertibility and must widen to top, never to something wrong.
  EXPECT_EQ(backMulOperand(box(6, 6), box(2, 2)), box(3, 3));
  EXPECT_TRUE(backMulOperand(box(6, 6), box(-1, 1)).isTop());
}

TEST(ContractKernelTest, RoundToIntEmptiesFractionGaps) {
  // [1/3, 2/3] holds no integer.
  Interval Frac = Interval::range(Rational(BigInt(1), BigInt(3)),
                                  Rational(BigInt(2), BigInt(3)));
  EXPECT_TRUE(roundToIntI(Frac).Empty);
  EXPECT_EQ(roundToIntI(Interval::range(Rational(BigInt(1), BigInt(2)),
                                        Rational(BigInt(7), BigInt(2)))),
            box(1, 3));
}

TEST(ContractKernelTest, PowEvenIsNonNegative) {
  EXPECT_EQ(powFullI(box(-3, 2), 2), box(0, 9));
  EXPECT_EQ(powFullI(box(-3, 2), 3), box(-27, 8));
}

//===--------------------------------------------------------------------===//
// Static verdicts.
//===--------------------------------------------------------------------===//

TEST(PresolveTest, ContradictoryBoxIsTriviallyUnsatWithCertificate) {
  TermManager M;
  Term X = M.mkVariable("pu_x", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(0))),
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(10))),
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(11)))};
  PresolveResult Pre = presolve(M, Assertions);
  EXPECT_EQ(Pre.Stats.Verdict, PresolveVerdict::TriviallyUnsat);
  ASSERT_FALSE(Pre.Certificate.empty());
  // The chain names original assertion indices, staub-lint style.
  bool NamesContradictor = false;
  for (const CertificateStep &Step : Pre.Certificate)
    NamesContradictor |= Step.AssertionIndex == 2;
  EXPECT_TRUE(NamesContradictor);
  EXPECT_FALSE(certificateLines(M, Pre).empty());
}

TEST(PresolveTest, PinnedChainIsTriviallySatWithCheckedWitness) {
  TermManager M;
  Term X = M.mkVariable("ps_x", Sort::integer());
  Term Y = M.mkVariable("ps_y", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkEq(X, M.mkIntConst(BigInt(5))),
      M.mkEq(Y, M.mkAdd(std::vector<Term>{X, M.mkIntConst(BigInt(3))})),
      M.mkCompare(Kind::Le, Y, M.mkIntConst(BigInt(8)))};
  PresolveResult Pre = presolve(M, Assertions);
  ASSERT_EQ(Pre.Stats.Verdict, PresolveVerdict::TriviallySat);
  for (Term A : Assertions) {
    std::optional<Value> V = evaluate(M, A, Pre.Witness);
    ASSERT_TRUE(V && V->isBool());
    EXPECT_TRUE(V->asBool());
  }
}

TEST(PresolveTest, FactoringStaysUndecidedButEquisat) {
  // x*y = 35 with open factors: no static verdict, but the presolved set
  // must keep the original's models (the planted one in particular).
  TermManager M;
  Term X = M.mkVariable("pf_x", Sort::integer());
  Term Y = M.mkVariable("pf_y", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkEq(M.mkMul(std::vector<Term>{X, Y}), M.mkIntConst(BigInt(35))),
      M.mkCompare(Kind::Gt, X, M.mkIntConst(BigInt(1))),
      M.mkCompare(Kind::Gt, Y, M.mkIntConst(BigInt(1)))};
  PresolveResult Pre = presolve(M, Assertions);
  EXPECT_EQ(Pre.Stats.Verdict, PresolveVerdict::None);
  ASSERT_FALSE(Pre.Assertions.empty());
  Model Witness;
  Witness.set(X, Value(BigInt(5)));
  Witness.set(Y, Value(BigInt(7)));
  for (Term A : Pre.Assertions) {
    std::optional<Value> V = evaluate(M, A, Witness);
    ASSERT_TRUE(V && V->isBool()) << printTerm(M, A);
    EXPECT_TRUE(V->asBool()) << printTerm(M, A);
  }
}

//===--------------------------------------------------------------------===//
// The presolve-equisat oracle and its sensitivity mutant.
//===--------------------------------------------------------------------===//

TEST(PresolveTest, InjectedBadContractIsCaught) {
  // x in [0,3] and x >= 3 is satisfied exactly at x = 3. Bad contraction
  // narrows (<= x 3) to (<= x 2), manufacturing an empty meet — a
  // trivially-unsat verdict the planted witness refutes. Guaranteed to
  // fire, not probabilistic.
  TermManager M;
  Term X = M.mkVariable("pb_x", Sort::integer());
  FuzzInstance Instance;
  Instance.Name = "bad-contract-pin";
  Instance.Assertions = {
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(0))),
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(3))),
      M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(3)))};
  Instance.Expected = SolveStatus::Sat;
  Model Planted;
  Planted.set(X, Value(BigInt(3)));
  Instance.Planted = Planted;

  auto Backend = createMiniSmtSolver();
  OracleOptions Options;
  Options.Inject = BugInjection::BadContract;
  std::optional<Violation> V =
      runOracleByName("presolve-equisat", M, Instance, *Backend, Options);
  ASSERT_TRUE(V.has_value())
      << "oracle missed a deliberately unsound contraction";
  EXPECT_EQ(V->Property, "presolve-equisat");

  Options.Inject = BugInjection::None;
  EXPECT_FALSE(
      runOracleByName("presolve-equisat", M, Instance, *Backend, Options)
          .has_value());
}

TEST(PresolveTest, EquisatOracleCleanOnGeneratedSuites) {
  // The ninth stage oracle over fuzzer-built Int and Real instances:
  // no violation anywhere on an uninjected run.
  auto Backend = createMiniSmtSolver();
  for (FuzzTheory Theory : {FuzzTheory::Int, FuzzTheory::Real}) {
    for (uint64_t I = 0; I < 25; ++I) {
      TermManager M;
      FuzzInstance Instance =
          buildFuzzInstance(M, Theory, fuzzIterationSeed(7, I));
      OracleOptions Options;
      Options.Theory = Theory;
      std::optional<Violation> V =
          runOracleByName("presolve-equisat", M, Instance, *Backend, Options);
      if (V)
        ADD_FAILURE() << "theory " << (Theory == FuzzTheory::Int ? "int"
                                                                 : "real")
                      << " iteration " << I << ": " << V->Detail;
    }
  }
}

TEST(PresolveCampaignTest, BadContractCampaignFires) {
  // The full engine must surface the injected contraction bug within a
  // modest iteration budget (satellite: oracle sensitivity).
  FuzzOptions Options;
  Options.Seed = 9;
  Options.Iterations = 60;
  Options.Theory = FuzzTheory::Int;
  Options.Inject = BugInjection::BadContract;
  Options.CheckPortfolio = false;
  Options.MaxViolations = 1;
  FuzzReport Report = runFuzzer(Options);
  ASSERT_FALSE(Report.Violations.empty())
      << "bad-contract mutant escaped the campaign";
  EXPECT_EQ(Report.Violations.front().Property, "presolve-equisat");
}

TEST(PresolveCampaignTest, CleanCampaignVerdictsStable) {
  // 200 deterministic iterations through the full oracle stack —
  // presolve-equisat included — with no injection: every metamorphic
  // verdict must be unchanged (the acceptance criterion; the labeled
  // fuzz_driver_int/real ctest entries run the same 200 iterations with
  // solving enabled at a bigger budget).
  FuzzOptions Options;
  Options.Seed = 2;
  Options.Iterations = 200;
  Options.Theory = FuzzTheory::Int;
  Options.CheckPortfolio = false;
  Options.SolveTimeoutSeconds = 0.25;
  FuzzReport Report = runFuzzer(Options);
  EXPECT_EQ(Report.IterationsRun, 200u);
  for (const FuzzViolationReport &V : Report.Violations)
    ADD_FAILURE() << V.Property << ": " << V.Detail << "\n"
                  << V.OriginalSmtLib;
}

//===--------------------------------------------------------------------===//
// Pipeline-level acceptance criteria.
//===--------------------------------------------------------------------===//

TEST(PresolveSuiteTest, StaticSuiteMostlyDecidedWithoutSolver) {
  TermManager M;
  BenchConfig Config;
  Config.Count = 40;
  auto Suite = generateStaticSuite(M, Config);
  auto Backend = createMiniSmtSolver();
  const double Timeout = 2.0;
  auto Records = evaluateSuite(M, Suite, *Backend, Timeout, {EvalConfig()})[0];
  EvalSummary S = summarize(Records, Timeout);
  ASSERT_EQ(S.Count, 40u);
  // Acceptance floor: >= 30% decided by the presolver alone. The suite
  // mixes ~2/3 statically decidable families with factoring, so passing
  // requires actually deciding them, with margin below the 2/3 ceiling.
  EXPECT_GE(S.PresolveDecided * 100, S.Count * 30)
      << S.PresolveDecided << "/" << S.Count;
  // Statically decided means statically decided: no solve time at all.
  for (const EvalRecord &R : Records)
    if (R.presolveDecided()) {
      EXPECT_EQ(R.Staub.SolveSeconds, 0.0) << R.Name;
    }
}

TEST(PresolveSuiteTest, MeanInferredWidthDropsOnBoxedSatSuite) {
  TermManager M;
  BenchConfig Config;
  Config.Count = 24;
  Config.SatPercent = 100; // Boxed planted-sat rows: ranges to contract.
  auto Suite = generateSuite(M, BenchLogic::QF_LIA, Config);
  auto Backend = createMiniSmtSolver();

  std::vector<EvalConfig> Configs(2);
  Configs[0].Label = "no-presolve";
  Configs[0].Staub.Presolve = false;
  Configs[1].Label = "presolve";
  auto All = evaluateSuite(M, Suite, *Backend, 2.0, Configs);

  unsigned long W0 = 0, W1 = 0, BitsSaved = 0;
  for (const EvalRecord &R : All[0])
    W0 += R.Staub.ChosenWidth;
  for (const EvalRecord &R : All[1]) {
    W1 += R.Staub.ChosenWidth;
    BitsSaved += R.Staub.Presolve.WidthBitsSaved;
  }
  // Presolve never picks a worse width (substitution is gated on it),
  // and on boxed suites it must actually save bits somewhere.
  EXPECT_LE(W1, W0);
  EXPECT_GT(BitsSaved, 0u);
}

} // namespace
