//===- tests/benchgen_test.cpp - Generator/harness tests ------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generators.h"
#include "benchgen/Harness.h"

#include "z3adapter/Z3Solver.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

TEST(GeneratorsTest, Determinism) {
  TermManager M1, M2;
  BenchConfig Config;
  Config.Count = 10;
  auto A = generateSuite(M1, BenchLogic::QF_NIA, Config);
  auto B = generateSuite(M2, BenchLogic::QF_NIA, Config);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Expected, B[I].Expected);
  }
}

TEST(GeneratorsTest, CorrelatedSuiteIsDeterministic) {
  TermManager M1, M2;
  BenchConfig Config;
  Config.Count = 8;
  auto A = generateCorrelatedSuite(M1, Config);
  auto B = generateCorrelatedSuite(M2, Config);
  ASSERT_EQ(A.size(), 8u);
  ASSERT_EQ(B.size(), A.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Name, B[I].Name);
    EXPECT_EQ(A[I].Family, B[I].Family);
    EXPECT_EQ(A[I].Expected, B[I].Expected);
    EXPECT_EQ(A[I].Assertions.size(), B[I].Assertions.size());
  }
}

TEST(GeneratorsTest, CorrelatedSuitePlantsGroundTruthThroughout) {
  // Every correlated instance carries a verdict, and every sat instance
  // a witness the exact evaluator accepts — the suite exists to measure
  // relational-vs-interval deltas, so its labels must be beyond doubt.
  TermManager M;
  BenchConfig Config;
  Config.Count = 12;
  auto Suite = generateCorrelatedSuite(M, Config);
  ASSERT_EQ(Suite.size(), 12u);
  unsigned SatCases = 0, UnsatCases = 0;
  for (const GeneratedConstraint &C : Suite) {
    ASSERT_TRUE(C.Expected.has_value()) << C.Name;
    if (*C.Expected == SolveStatus::Unsat) {
      ++UnsatCases;
      continue;
    }
    ++SatCases;
    ASSERT_TRUE(C.Planted.has_value()) << C.Name;
    EXPECT_TRUE(evaluatesToTrue(M, M.mkAnd(C.Assertions), *C.Planted))
        << C.Name;
  }
  // All four families cycle through a 12-instance suite.
  EXPECT_GE(SatCases, 6u);
  EXPECT_GE(UnsatCases, 3u);
}

TEST(GeneratorsTest, MotivatingExampleMatchesPaper) {
  TermManager M;
  GeneratedConstraint C = motivatingExample(M);
  EXPECT_EQ(C.Name, "STC_0855");
  ASSERT_EQ(C.Assertions.size(), 1u);
  // x=7, y=8, z=0 satisfies it.
  Model Mod;
  Mod.set(M.lookupVariable("stc855_x"), Value(BigInt(7)));
  Mod.set(M.lookupVariable("stc855_y"), Value(BigInt(8)));
  Mod.set(M.lookupVariable("stc855_z"), Value(BigInt(0)));
  EXPECT_TRUE(evaluatesToTrue(M, C.Assertions[0], Mod));
}

class SuitePlantedTruthTest : public ::testing::TestWithParam<BenchLogic> {};

TEST_P(SuitePlantedTruthTest, PlantedTruthAgreesWithZ3) {
  TermManager M;
  BenchConfig Config;
  Config.Count = 12;
  Config.Seed = 2024;
  auto Suite = generateSuite(M, GetParam(), Config);
  ASSERT_EQ(Suite.size(), 12u);
  auto Solver = createZ3ProcessSolver();
  SolverOptions Options;
  Options.TimeoutSeconds = 2.0;
  unsigned Decided = 0;
  for (const GeneratedConstraint &C : Suite) {
    ASSERT_TRUE(C.Expected.has_value()) << C.Name;
    SolveResult R = Solver->solve(M, C.Assertions, Options);
    if (R.Status == SolveStatus::Unknown)
      continue; // Hard instance: fine, that is the point of the corpus.
    ++Decided;
    EXPECT_EQ(R.Status, *C.Expected) << toString(GetParam()) << "/" << C.Name;
  }
  // Most instances should be decidable at this scale.
  EXPECT_GT(Decided, 6u);
}

INSTANTIATE_TEST_SUITE_P(AllLogics, SuitePlantedTruthTest,
                         ::testing::Values(BenchLogic::QF_NIA,
                                           BenchLogic::QF_LIA,
                                           BenchLogic::QF_NRA,
                                           BenchLogic::QF_LRA));

TEST(TheoryGapTest, BoundedSideAlwaysTractable) {
  // The pair is satisfiable by construction. The bounded (bitvector)
  // side must be solved quickly; the unbounded Int side may time out —
  // that asymmetry IS the theory gap the paper measures (Sec. 5.1).
  auto Solver = createZ3ProcessSolver();
  for (uint64_t Seed : {uint64_t(5), uint64_t(9)}) {
    TermManager M;
    TheoryGapPair Pair = theoryGapPair(M, Seed, 12);
    SolverOptions Options;
    Options.TimeoutSeconds = 10.0;
    SolveResult BvR = Solver->solve(M, Pair.BvVersion.Assertions, Options);
    EXPECT_EQ(BvR.Status, SolveStatus::Sat) << "seed " << Seed;
    SolveResult IntR = Solver->solve(M, Pair.IntVersion.Assertions, Options);
    EXPECT_NE(IntR.Status, SolveStatus::Unsat) << "seed " << Seed;
  }
}

TEST(HarnessTest, EvaluateAndSummarize) {
  TermManager M;
  BenchConfig Config;
  Config.Count = 8;
  Config.Seed = 77;
  auto Suite = generateSuite(M, BenchLogic::QF_LIA, Config);
  auto Solver = createZ3ProcessSolver();
  const double Timeout = 1.0;
  auto Records = evaluateSuite(M, Suite, *Solver, Timeout, {EvalConfig()})[0];
  ASSERT_EQ(Records.size(), Suite.size());
  EvalSummary Summary = summarize(Records, Timeout);
  EXPECT_EQ(Summary.Count, Records.size());
  // Portfolio accounting: overall speedup is at least ~1 (never worse).
  EXPECT_GE(Summary.OverallSpeedup, 0.99);
  // The row formats into a non-empty line.
  EXPECT_FALSE(formatSummaryRow("QF_LIA z3 0-300", Summary).empty());
}

TEST(HarnessTest, IntervalFiltering) {
  std::vector<EvalRecord> Records(3);
  Records[0].TPre = 0.5;
  Records[0].OriginalStatus = SolveStatus::Sat;
  Records[1].TPre = 2.0;
  Records[1].OriginalStatus = SolveStatus::Sat;
  Records[2].OriginalStatus = SolveStatus::Unknown; // Counts as timeout.
  EvalSummary All = summarize(Records, /*Timeout=*/5.0);
  EXPECT_EQ(All.Count, 3u);
  EvalSummary Slow = summarize(Records, 5.0, /*MinPre=*/1.0);
  EXPECT_EQ(Slow.Count, 2u);
}

} // namespace
