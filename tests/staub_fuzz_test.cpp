//===- tests/staub_fuzz_test.cpp - Pipeline soundness fuzzing -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized soundness checks over the full STAUB pipeline: for seeded
/// random integer constraints, every VerifiedSat outcome must carry a
/// model that the exact evaluator accepts on the original constraint, and
/// outcomes must be consistent with Z3's verdict on the original
/// (VerifiedSat implies the original is genuinely satisfiable). The
/// underapproximation may miss models (BoundedUnsat on a sat constraint
/// is legal) but must never invent one.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "smtlib/Printer.h"
#include "staub/Staub.h"
#include "support/Random.h"
#include "z3adapter/Z3Solver.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

/// Builds a random integer constraint with moderate constants.
std::vector<Term> randomIntConstraint(TermManager &M, SplitMix64 &Rng,
                                      const std::string &Prefix) {
  std::vector<Term> Pool = {
      M.mkVariable(Prefix + "_x", Sort::integer()),
      M.mkVariable(Prefix + "_y", Sort::integer()),
      M.mkIntConst(BigInt(Rng.range(-30, 30))),
      M.mkIntConst(BigInt(Rng.range(0, 100)))};
  for (int I = 0; I < 5; ++I) {
    Term A = Pool[Rng.below(Pool.size())];
    Term B = Pool[Rng.below(Pool.size())];
    switch (Rng.below(4)) {
    case 0:
      Pool.push_back(M.mkAdd(std::vector<Term>{A, B}));
      break;
    case 1:
      Pool.push_back(M.mkSub(std::vector<Term>{A, B}));
      break;
    case 2:
      Pool.push_back(M.mkMul(std::vector<Term>{A, B}));
      break;
    default:
      Pool.push_back(M.mkNeg(A));
      break;
    }
  }
  std::vector<Term> Assertions;
  unsigned NumAtoms = 1 + Rng.below(3);
  for (unsigned I = 0; I < NumAtoms; ++I) {
    Term A = Pool[Rng.below(Pool.size())];
    Term B = Pool[Rng.below(Pool.size())];
    Kind Cmps[] = {Kind::Le, Kind::Lt, Kind::Ge, Kind::Gt};
    if (Rng.chance(1, 4))
      Assertions.push_back(M.mkEq(A, B));
    else
      Assertions.push_back(
          M.mkCompare(Cmps[Rng.below(4)], A, B));
  }
  return Assertions;
}

class StaubFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaubFuzzTest, NeverInventsModels) {
  SplitMix64 Rng(GetParam() * 2654435761u + 17);
  TermManager M;
  auto Assertions =
      randomIntConstraint(M, Rng, "fz" + std::to_string(GetParam()));

  auto Mini = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 5.0;
  StaubOutcome Outcome = runStaub(M, Assertions, *Mini, Options);

  if (Outcome.Path == StaubPath::VerifiedSat) {
    // Internal invariant.
    ASSERT_TRUE(
        evaluatesToTrue(M, M.mkAnd(Assertions), Outcome.VerifiedModel))
        << printTerm(M, M.mkAnd(Assertions));
    // External consistency: Z3 must not call the original unsat.
    auto Z3 = createZ3Solver();
    SolverOptions Solve;
    Solve.TimeoutSeconds = 10.0;
    SolveResult R = Z3->solve(M, Assertions, Solve);
    EXPECT_NE(R.Status, SolveStatus::Unsat)
        << "seed " << GetParam() << "\n"
        << printTerm(M, M.mkAnd(Assertions));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaubFuzzTest,
                         ::testing::Range(uint64_t(1), uint64_t(61)));

class StaubRealFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaubRealFuzzTest, RealPipelineNeverInventsModels) {
  SplitMix64 Rng(GetParam() * 40503 + 29);
  TermManager M;
  std::string Prefix = "fr" + std::to_string(GetParam());
  Term X = M.mkVariable(Prefix + "_r", Sort::real());
  std::vector<Term> Pool = {
      X, M.mkRealConst(Rational(BigInt(Rng.range(-16, 16)), BigInt(4))),
      M.mkRealConst(Rational(Rng.range(0, 20)))};
  for (int I = 0; I < 4; ++I) {
    Term A = Pool[Rng.below(Pool.size())];
    Term B = Pool[Rng.below(Pool.size())];
    switch (Rng.below(3)) {
    case 0:
      Pool.push_back(M.mkAdd(std::vector<Term>{A, B}));
      break;
    case 1:
      Pool.push_back(M.mkMul(std::vector<Term>{A, B}));
      break;
    default:
      Pool.push_back(M.mkSub(std::vector<Term>{A, B}));
      break;
    }
  }
  std::vector<Term> Assertions = {
      M.mkCompare(Rng.chance(1, 2) ? Kind::Le : Kind::Ge,
                  Pool[Rng.below(Pool.size())],
                  Pool[Rng.below(Pool.size())])};

  auto Mini = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 5.0;
  StaubOutcome Outcome = runStaub(M, Assertions, *Mini, Options);
  if (Outcome.Path == StaubPath::VerifiedSat)
    ASSERT_TRUE(
        evaluatesToTrue(M, M.mkAnd(Assertions), Outcome.VerifiedModel))
        << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaubRealFuzzTest,
                         ::testing::Range(uint64_t(1), uint64_t(41)));

class StaubMixedFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StaubMixedFuzzTest, MixedSortPipelineNeverInventsModels) {
  // Conjunctions mixing Int atoms with Real atoms: the translation may
  // legally give up on the unfamiliar sort mix (TranslationFailed /
  // BoundedUnknown), but a VerifiedSat answer must still carry a model
  // the exact evaluator accepts on the whole original conjunction.
  SplitMix64 Rng(GetParam() * 7919 + 5);
  TermManager M;
  std::string Prefix = "fm" + std::to_string(GetParam());
  auto Assertions = randomIntConstraint(M, Rng, Prefix);

  Term R = M.mkVariable(Prefix + "_q", Sort::real());
  std::vector<Term> RealPool = {
      R, M.mkRealConst(Rational(BigInt(Rng.range(-12, 12)), BigInt(4))),
      M.mkRealConst(Rational(Rng.range(1, 9)))};
  for (int I = 0; I < 3; ++I) {
    Term A = RealPool[Rng.below(RealPool.size())];
    Term B = RealPool[Rng.below(RealPool.size())];
    RealPool.push_back(Rng.chance(1, 2)
                           ? M.mkAdd(std::vector<Term>{A, B})
                           : M.mkMul(std::vector<Term>{A, B}));
  }
  constexpr Kind Cmps[] = {Kind::Le, Kind::Lt, Kind::Ge, Kind::Gt};
  unsigned RealAtoms = 1 + Rng.below(2);
  for (unsigned I = 0; I < RealAtoms; ++I)
    Assertions.push_back(
        M.mkCompare(Cmps[Rng.below(4)], RealPool[Rng.below(RealPool.size())],
                    RealPool[Rng.below(RealPool.size())]));

  auto Mini = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 5.0;
  StaubOutcome Outcome = runStaub(M, Assertions, *Mini, Options);
  if (Outcome.Path == StaubPath::VerifiedSat)
    ASSERT_TRUE(
        evaluatesToTrue(M, M.mkAnd(Assertions), Outcome.VerifiedModel))
        << "seed " << GetParam() << "\n"
        << printTerm(M, M.mkAnd(Assertions));
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaubMixedFuzzTest,
                         ::testing::Range(uint64_t(1), uint64_t(31)));

//===--------------------------------------------------------------------===//
// The fuzz engine itself: oracle sensitivity and clean-run behavior.
//===--------------------------------------------------------------------===//

TEST(FuzzEngineTest, InjectedGuardDropIsCaughtAndShrunk) {
  // Dropping the overflow guards breaks the exactness theorem (paper
  // Sec. 4.3); either the dynamic int-translation-exactness oracle or the
  // static translation-lint oracle must notice, and the shrinker must
  // reduce the reproducer to a handful of assertions.
  FuzzOptions Options;
  Options.Seed = 5;
  Options.Iterations = 12;
  Options.Theory = FuzzTheory::Int;
  Options.Inject = BugInjection::DropOverflowGuards;
  Options.CheckPortfolio = false;
  Options.MaxViolations = 2;
  Options.SolveTimeoutSeconds = 2.0;
  FuzzReport Report = runFuzzer(Options);

  ASSERT_FALSE(Report.Violations.empty())
      << "oracles failed to detect a deliberately injected soundness bug";
  for (const FuzzViolationReport &V : Report.Violations) {
    EXPECT_TRUE(V.Property == "int-translation-exactness" ||
                V.Property == "translation-lint")
        << "unexpected property: " << V.Property;
    EXPECT_GE(V.ShrunkAssertionCount, 1u);
    EXPECT_LE(V.ShrunkAssertionCount, 10u)
        << "shrinker left a bloated reproducer:\n" << V.ShrunkSmtLib;
    EXPECT_NE(V.ShrunkSmtLib.find("(check-sat)"), std::string::npos);
  }
}

TEST(FuzzEngineTest, InjectedBadCoreIsCaughtByEscalationEquivalence) {
  // The bad-core injection makes the width ladder climb on a guard-free
  // refutation, but verification keeps every verdict sound — no amount of
  // verdict comparison can see the lie. Only the escalation-equivalence
  // oracle's clean-run cross-check of the BaseCoreHasGuards claim can,
  // so pin that it does, on the disjunction-masked contradiction the
  // presolver cannot settle and the guards play no part in.
  TermManager M;
  Term X = M.mkVariable("bc_x", Sort::integer());
  Term Y = M.mkVariable("bc_y", Sort::integer());
  Term B = M.mkVariable("bc_b", Sort::boolean());
  auto IntC = [&](int64_t V) { return M.mkIntConst(BigInt(V)); };
  FuzzInstance Instance;
  Instance.Name = "bad-core-pin";
  for (Term V : {X, Y}) {
    Instance.Assertions.push_back(M.mkCompare(Kind::Ge, V, IntC(4)));
    Instance.Assertions.push_back(M.mkCompare(Kind::Le, V, IntC(11)));
  }
  Term Sum = M.mkAdd(std::vector<Term>{X, Y});
  Term SumGe = M.mkCompare(Kind::Ge, Sum, IntC(17));
  Instance.Assertions.push_back(M.mkOr(std::vector<Term>{B, SumGe}));
  Instance.Assertions.push_back(M.mkOr(std::vector<Term>{M.mkNot(B), SumGe}));
  Instance.Assertions.push_back(M.mkCompare(Kind::Le, Sum, IntC(16)));
  Instance.Expected = SolveStatus::Unsat;

  auto Backend = createMiniSmtSolver();
  OracleOptions Options;
  Options.SolveTimeoutSeconds = 5.0;
  std::optional<Violation> Clean = runOracleByName("escalation-equivalence",
                                                   M, Instance, *Backend,
                                                   Options);
  EXPECT_FALSE(Clean.has_value()) << Clean->Detail;

  Options.Inject = BugInjection::BadCore;
  std::optional<Violation> Caught = runOracleByName("escalation-equivalence",
                                                    M, Instance, *Backend,
                                                    Options);
  ASSERT_TRUE(Caught.has_value())
      << "oracle failed to detect the injected bad-core lie";
  EXPECT_EQ(Caught->Property, "escalation-equivalence");
}

TEST(FuzzEngineTest, InjectedBadClosureIsCaughtByRelationalSoundness) {
  // bad-closure drops every Floyd-Warshall relaxation through the last
  // pivot, leaving the matrix under-closed. Under-closure only ever
  // weakens verdicts, so no verdict comparison can see it — only the
  // relational-soundness oracle's triangle-consistency self-check can.
  // On this chain the zone has nodes {0, x, y, z} and the skipped pivot
  // is z: the path x <= y <= z <= 3 never reaches D(y, 0), so
  // D(y, 0) = inf while D(y, z) + D(z, 0) = 3 — a deterministic
  // triangle violation.
  TermManager M;
  Term X = M.mkVariable("rc_x", Sort::integer());
  Term Y = M.mkVariable("rc_y", Sort::integer());
  Term Z = M.mkVariable("rc_z", Sort::integer());
  auto IntC = [&](int64_t V) { return M.mkIntConst(BigInt(V)); };
  FuzzInstance Instance;
  Instance.Name = "bad-closure-pin";
  Instance.Assertions = {M.mkCompare(Kind::Le, X, Y),
                         M.mkCompare(Kind::Le, Y, Z),
                         M.mkCompare(Kind::Le, Z, IntC(3)),
                         M.mkCompare(Kind::Ge, X, IntC(0))};
  Instance.Expected = SolveStatus::Sat;
  Model Planted;
  for (Term V : {X, Y, Z})
    Planted.set(V, Value(BigInt(0)));
  Instance.Planted = Planted;

  auto Backend = createMiniSmtSolver();
  OracleOptions Options;
  Options.SolveTimeoutSeconds = 5.0;
  std::optional<Violation> Clean = runOracleByName("relational-soundness",
                                                   M, Instance, *Backend,
                                                   Options);
  EXPECT_FALSE(Clean.has_value()) << Clean->Detail;

  Options.Inject = BugInjection::BadClosure;
  std::optional<Violation> Caught = runOracleByName("relational-soundness",
                                                    M, Instance, *Backend,
                                                    Options);
  ASSERT_TRUE(Caught.has_value())
      << "oracle failed to detect the injected under-closure";
  EXPECT_EQ(Caught->Property, "relational-soundness");
}

TEST(FuzzEngineTest, RelationalCleanCampaignFindsNothing) {
  // 200 deterministic fuzz instances through the relational-soundness
  // oracle alone, uninjected: the zone layer must never be triangle-
  // inconsistent, exclude a planted model, or make the relational and
  // --no-relational pipelines disagree. Focused on the one oracle so
  // two hundred iterations stay cheap (relation-free instances exit
  // before the solver runs); the full-stack campaigns live in the
  // fuzz_driver_* ctest targets.
  TermManager M;
  auto Backend = createMiniSmtSolver();
  OracleOptions Options;
  Options.SolveTimeoutSeconds = 0.25;
  Options.CheckPortfolio = false;
  for (uint64_t I = 0; I < 200; ++I) {
    FuzzInstance Instance =
        buildFuzzInstance(M, FuzzTheory::Int, fuzzIterationSeed(11, I));
    std::optional<Violation> V = runOracleByName("relational-soundness", M,
                                                 Instance, *Backend, Options);
    if (V)
      ADD_FAILURE() << "iteration " << I << ": " << V->Detail << "\n"
                    << printTerm(M, M.mkAnd(Instance.Assertions));
  }
}

TEST(FuzzEngineTest, CleanCampaignFindsNothing) {
  // Seed/range picked so every instance solves far inside the budget; a
  // timed-out oracle is a skip, not a pass, so fast instances keep this
  // an actual check.
  FuzzOptions Options;
  Options.Seed = 4;
  Options.Iterations = 8;
  Options.Theory = FuzzTheory::Int;
  Options.CheckPortfolio = false;
  FuzzReport Report = runFuzzer(Options);
  EXPECT_EQ(Report.IterationsRun, 8u);
  EXPECT_GT(Report.MutantsChecked, 0u);
  for (const FuzzViolationReport &V : Report.Violations)
    ADD_FAILURE() << V.Property << ": " << V.Detail << "\n"
                  << V.OriginalSmtLib;
}

} // namespace
