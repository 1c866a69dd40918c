//===- tests/integration_test.cpp - Cross-module integration --------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end flows that cross module boundaries: file-level SMT-LIB
/// round trips, STAUB's printed bounded output consumed by a fresh
/// parser+solver (the paper's "output for use with other solvers" flag),
/// backend agreement between Z3 and MiniSMT, SLOT inside the STAUB
/// pipeline, and the termination client over the portfolio.
///
//===----------------------------------------------------------------------===//

#include "benchgen/Generators.h"
#include "slot/Slot.h"
#include "smtlib/Parser.h"
#include "smtlib/Printer.h"
#include "staub/Staub.h"
#include "termination/TerminationProver.h"
#include "z3adapter/Z3Solver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace staub;

namespace {

TEST(IntegrationTest, FileRoundTrip) {
  // Write a script to disk, parse it back through the file API.
  std::string Path = ::testing::TempDir() + "/staub_roundtrip.smt2";
  {
    std::ofstream Out(Path);
    Out << "(set-logic QF_LIA)\n(declare-fun a () Int)\n"
        << "(assert (<= (* 3 a) 17))\n(check-sat)\n";
  }
  TermManager M;
  auto R = parseSmtLibFile(M, Path);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Parsed.Logic, "QF_LIA");
  EXPECT_EQ(R.Parsed.Assertions.size(), 1u);
  std::remove(Path.c_str());
  // Missing file is a diagnosed error, not a crash.
  auto Missing = parseSmtLibFile(M, Path + ".does-not-exist");
  EXPECT_FALSE(Missing.Ok);
}

TEST(IntegrationTest, TransformedOutputSolvableByFreshSolverInstance) {
  // STAUB's printed bounded constraint must be self-contained: parse it
  // in a NEW manager and solve it there (simulating "any SMT-LIB
  // compliant solver" consuming the output).
  TermManager M;
  auto Parsed = parseSmtLib(
      M, "(declare-fun x () Int)(declare-fun y () Int)"
         "(assert (= (+ (* x x) (* y y)) 25))(assert (> x 0))"
         "(assert (> y 0))");
  ASSERT_TRUE(Parsed.Ok);
  auto Backend = createMiniSmtSolver();
  StaubOutcome Out = runStaub(M, Parsed.Parsed.Assertions, *Backend, {});
  ASSERT_EQ(Out.Path, StaubPath::VerifiedSat);

  Script BoundedScript;
  BoundedScript.Logic = "QF_BV";
  BoundedScript.Assertions = Out.BoundedAssertions;
  BoundedScript.HasCheckSat = true;
  std::string Text = printScript(M, BoundedScript);

  TermManager Fresh;
  auto Reparsed = parseSmtLib(Fresh, Text);
  ASSERT_TRUE(Reparsed.Ok) << Reparsed.Error << "\n" << Text;
  auto Z3 = createZ3Solver();
  SolveResult R = Z3->solve(Fresh, Reparsed.Parsed.Assertions, {});
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_TRUE(
      evaluatesToTrue(Fresh, Reparsed.Parsed.conjoined(Fresh), R.TheModel));
}

TEST(IntegrationTest, BackendsAgreeOnGeneratedSuites) {
  // Z3 and MiniSMT must never contradict each other on decided instances.
  auto Z3 = createZ3Solver();
  auto Mini = createMiniSmtSolver();
  SolverOptions Options;
  Options.TimeoutSeconds = 5.0;
  for (BenchLogic Logic : {BenchLogic::QF_LIA, BenchLogic::QF_LRA}) {
    TermManager M;
    BenchConfig Config;
    Config.Count = 10;
    Config.Seed = 31337;
    auto Suite = generateSuite(M, Logic, Config);
    for (const GeneratedConstraint &C : Suite) {
      SolveResult A = Z3->solve(M, C.Assertions, Options);
      SolveResult B = Mini->solve(M, C.Assertions, Options);
      if (A.Status == SolveStatus::Unknown ||
          B.Status == SolveStatus::Unknown)
        continue;
      EXPECT_EQ(A.Status, B.Status)
          << std::string(toString(Logic)) << "/" << C.Name;
    }
  }
}

TEST(IntegrationTest, SlotInsideStaubPipelinePreservesAnswers) {
  TermManager M;
  auto Parsed = parseSmtLib(
      M, "(declare-fun x () Int)(declare-fun y () Int)"
         "(assert (= (+ (* x x x) (* y y y)) 1072))"); // 7^3 + 9^3.
  ASSERT_TRUE(Parsed.Ok);
  auto Backend = createZ3Solver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 20.0;
  StaubOutcome Plain = runStaub(M, Parsed.Parsed.Assertions, *Backend,
                                Options);
  StaubOutcome WithSlot = runStaub(M, Parsed.Parsed.Assertions, *Backend,
                                   Options, slotOptimizerHook);
  EXPECT_EQ(Plain.Path, StaubPath::VerifiedSat);
  EXPECT_EQ(WithSlot.Path, StaubPath::VerifiedSat);
}

TEST(IntegrationTest, TerminationClientThroughPortfolio) {
  auto Backend = createMiniSmtSolver();
  SolverOptions Options;
  Options.TimeoutSeconds = 10.0;
  auto R = parseLoopProgram("vars x; while (x <= 50) { x = x * x; }",
                            "integ");
  ASSERT_TRUE(R.Ok) << R.Error;
  TermManager M;
  TerminationAnalysis A =
      analyzeTermination(M, R.Program, *Backend, Options, /*UseStaub=*/true);
  EXPECT_EQ(A.Verdict, TerminationVerdict::NonTerminating);
}

TEST(IntegrationTest, PortfolioSoundOnMixedSuite) {
  // Racing and measured portfolio agree with planted truth across a
  // mixed suite on the internal solver.
  TermManager M;
  BenchConfig Config;
  Config.Count = 8;
  Config.Seed = 1234;
  auto Suite = generateSuite(M, BenchLogic::QF_LIA, Config);
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 5.0;
  for (const GeneratedConstraint &C : Suite) {
    PortfolioResult Measured = runPortfolio(M, C.Assertions, *Backend, Options,
                                            LanePolicy::Measured);
    if (C.Expected && Measured.Status != SolveStatus::Unknown)
      EXPECT_EQ(Measured.Status, *C.Expected) << C.Name;
    if (Measured.Status == SolveStatus::Sat && !Measured.TheModel.empty())
      EXPECT_TRUE(
          evaluatesToTrue(M, M.mkAnd(C.Assertions), Measured.TheModel))
          << C.Name;
  }
}

} // namespace
