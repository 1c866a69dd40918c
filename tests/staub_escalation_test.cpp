//===- tests/staub_escalation_test.cpp - Width-escalation ladder ----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests for the incremental width-escalation driver: guard-only
// cores climb the ladder to a verified EscalatedSat, guard-free cores
// revert immediately, and the ladder respects cancellation, the solve
// budget, --fixed-width, and --no-escalate.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Generators.h"
#include "benchgen/Harness.h"
#include "staub/Staub.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

using namespace staub;

namespace {

Term intConst(TermManager &M, int64_t V) { return M.mkIntConst(BigInt(V)); }

/// x, y in [9, 12] with x*y >= (x+y)*5: every constant fits 5 bits, but
/// any true model's product is >= 81, so the base bounded instance is
/// unsat purely because of the overflow guards.
std::vector<Term> escalatableInstance(TermManager &M) {
  Term X = M.mkVariable("esc_x", Sort::integer());
  Term Y = M.mkVariable("esc_y", Sort::integer());
  std::vector<Term> Assertions;
  for (Term V : {X, Y}) {
    Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, 9)));
    Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, 12)));
  }
  Term Product = M.mkMul(std::vector<Term>{X, Y});
  Term ScaledSum = M.mkMul(
      std::vector<Term>{M.mkAdd(std::vector<Term>{X, Y}), intConst(M, 5)});
  Assertions.push_back(M.mkCompare(Kind::Ge, Product, ScaledSum));
  return Assertions;
}

/// Disjunction-masked contradiction: x+y forced >= 17 through both
/// polarities of b and <= 16 directly. Unsat at every width, with every
/// intermediate value in range — the refutation never needs a guard.
std::vector<Term> guardFreeUnsatInstance(TermManager &M) {
  Term X = M.mkVariable("gf_x", Sort::integer());
  Term Y = M.mkVariable("gf_y", Sort::integer());
  Term B = M.mkVariable("gf_b", Sort::boolean());
  std::vector<Term> Assertions;
  for (Term V : {X, Y}) {
    Assertions.push_back(M.mkCompare(Kind::Ge, V, intConst(M, 4)));
    Assertions.push_back(M.mkCompare(Kind::Le, V, intConst(M, 11)));
  }
  Term Sum = M.mkAdd(std::vector<Term>{X, Y});
  Term SumGe = M.mkCompare(Kind::Ge, Sum, intConst(M, 17));
  Assertions.push_back(M.mkOr(std::vector<Term>{B, SumGe}));
  Assertions.push_back(M.mkOr(std::vector<Term>{M.mkNot(B), SumGe}));
  Assertions.push_back(M.mkCompare(Kind::Le, Sum, intConst(M, 16)));
  return Assertions;
}

/// A backend whose one-shot solve answers unsat and whose session solves
/// take 20 ms each and always blame the guards, so only the time budget
/// can stop the ladder before the width cap. Records the budget every
/// session solve receives.
class SlowGuardBlamingBackend : public SolverBackend {
public:
  std::vector<double> Budgets;

  SolveResult solve(TermManager &, const std::vector<Term> &,
                    const SolverOptions &) override {
    SolveResult Result;
    Result.Status = SolveStatus::Unsat;
    return Result;
  }
  std::string_view name() const override { return "slow-guard-blaming"; }
  bool supportsIncrementalBv() const override { return true; }
  std::unique_ptr<IncrementalBvSession>
  openIncrementalBv(const TermManager &) override {
    return std::make_unique<Session>(Budgets);
  }

private:
  class Session : public IncrementalBvSession {
  public:
    explicit Session(std::vector<double> &Budgets) : Budgets(Budgets) {}
    void pushFrame(const std::vector<Term> &,
                   const std::vector<Term> &) override {}
    SolveStatus solve(const SolverOptions &Options) override {
      Budgets.push_back(Options.TimeoutSeconds);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return SolveStatus::Unsat;
    }
    bool coreHasGuards() const override { return true; }
    Model model(const std::vector<Term> &) const override { return {}; }
    uint64_t clausesReused() const override { return 0; }
    uint64_t blastCacheHits() const override { return 0; }

  private:
    std::vector<double> &Budgets;
  };
};

TEST(EscalationTest, LadderSharesOneBudget) {
  // The bounded solve and every step draw on one 0.1 s budget, so five
  // 20 ms steps spend it; with a fresh budget per step the ladder would
  // climb all the way to the 64-bit cap. Neither a lower bound nor a wall
  // clock bound is asserted, so a loaded host cannot fail this.
  TermManager M;
  std::vector<Term> Assertions = escalatableInstance(M);
  SlowGuardBlamingBackend Backend;
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 0.1;
  StaubOutcome Outcome = runStaub(M, Assertions, Backend, Options);

  EXPECT_EQ(Outcome.Path, StaubPath::BoundedUnsat);
  EXPECT_LE(Outcome.EscalationSteps, 5u);
  for (size_t I = 1; I < Backend.Budgets.size(); ++I)
    EXPECT_LE(Backend.Budgets[I], Backend.Budgets[I - 1]) << "step " << I;
}

TEST(EscalationTest, GuardOnlyCoreClimbsToVerifiedSat) {
  TermManager M;
  std::vector<Term> Assertions = escalatableInstance(M);
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  EXPECT_EQ(Outcome.Path, StaubPath::EscalatedSat);
  EXPECT_GE(Outcome.EscalationSteps, 1u);
  EXPECT_EQ(Outcome.BaseCoreHasGuards, 1);
  EXPECT_GT(Outcome.SessionBlastCacheHits, 0u);
  // The verified model satisfies the original unbounded constraint.
  Term Original = M.mkAnd(Assertions);
  EXPECT_TRUE(evaluatesToTrue(M, Original, Outcome.VerifiedModel));
}

TEST(EscalationTest, GuardFreeCoreRevertsImmediately) {
  TermManager M;
  std::vector<Term> Assertions = guardFreeUnsatInstance(M);
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  EXPECT_EQ(Outcome.Path, StaubPath::BoundedUnsat);
  EXPECT_EQ(Outcome.EscalationSteps, 0u);
  EXPECT_EQ(Outcome.BaseCoreHasGuards, 0);
}

TEST(EscalationTest, NoEscalateReproducesPaperRevert) {
  TermManager M;
  std::vector<Term> Assertions = escalatableInstance(M);
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Escalate = false;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  EXPECT_EQ(Outcome.Path, StaubPath::BoundedUnsat);
  EXPECT_EQ(Outcome.EscalationSteps, 0u);
  EXPECT_EQ(Outcome.ClausesReused, 0u);
  EXPECT_EQ(Outcome.BaseCoreHasGuards, -1) << "ladder must never run";
}

TEST(EscalationTest, FixedWidthDisablesTheLadder) {
  TermManager M;
  std::vector<Term> Assertions = escalatableInstance(M);
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.FixedWidth = 5;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  EXPECT_EQ(Outcome.Path, StaubPath::BoundedUnsat);
  EXPECT_EQ(Outcome.EscalationSteps, 0u);
  EXPECT_EQ(Outcome.BaseCoreHasGuards, -1);
}

TEST(EscalationTest, WidthCapBoundsTheClimb) {
  TermManager M;
  std::vector<Term> Assertions = escalatableInstance(M);
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  // The product needs ~9 bits; a 6-bit cap exhausts the ladder before the
  // model fits, so the sound revert survives.
  Options.WidthCap = 6;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  EXPECT_EQ(Outcome.Path, StaubPath::BoundedUnsat);
  EXPECT_LE(Outcome.ChosenWidth, 6u);
}

TEST(EscalationTest, CancelledTokenStopsThePipeline) {
  TermManager M;
  std::vector<Term> Assertions = escalatableInstance(M);
  auto Backend = createMiniSmtSolver();
  CancellationToken Cancel;
  Cancel.cancel();
  StaubOptions Options;
  Options.Presolve = false; // Reach the solver, not a static verdict.
  Options.Solve.Cancel = &Cancel;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  // A cancelled lane must end non-decisively and must not climb.
  EXPECT_FALSE(isDecisive(Outcome.Path));
  EXPECT_EQ(Outcome.EscalationSteps, 0u);
}

TEST(EscalationTest, MidRunDeadlineStaysSound) {
  // A deadline that expires while the ladder is climbing: whatever the
  // timing, the outcome is either non-decisive or a verified answer.
  TermManager M;
  std::vector<Term> Assertions = escalatableInstance(M);
  auto Backend = createMiniSmtSolver();
  CancellationToken Cancel;
  Cancel.setDeadlineIn(0.0005);
  StaubOptions Options;
  Options.Solve.Cancel = &Cancel;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  if (isDecisive(Outcome.Path)) {
    Term Original = M.mkAnd(Assertions);
    EXPECT_TRUE(evaluatesToTrue(M, Original, Outcome.VerifiedModel));
  } else {
    EXPECT_TRUE(Outcome.Path == StaubPath::BoundedUnsat ||
                Outcome.Path == StaubPath::BoundedUnknown);
  }
}

TEST(EscalationTest, InjectBadCoreClimbsOnGuardFreeRefutation) {
  // The fault injection lies about the base core, so the ladder climbs on
  // a genuinely unsat instance. Soundness survives (every width is unsat)
  // but the recorded claim flips — exactly what the escalation-equivalence
  // fuzz oracle cross-checks.
  TermManager M;
  std::vector<Term> Assertions = guardFreeUnsatInstance(M);
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.InjectBadCore = true;
  StaubOutcome Outcome = runStaub(M, Assertions, *Backend, Options);

  EXPECT_EQ(Outcome.Path, StaubPath::BoundedUnsat);
  EXPECT_EQ(Outcome.BaseCoreHasGuards, 1) << "the injected lie";
  EXPECT_GE(Outcome.EscalationSteps, 1u) << "wasted climb from the lie";
}

TEST(EscalationTest, SuiteConvertsRevertsToEscalatedSat) {
  // Acceptance shape of the escalation bench: on the dedicated suite, at
  // least a quarter of the instances are bounded-unsat at the inferred
  // width yet sat a step up, and the ladder converts at least half of the
  // paper pipeline's reverts into decisive answers.
  TermManager M;
  BenchConfig Config;
  Config.Count = 16;
  std::vector<GeneratedConstraint> Suite = generateEscalationSuite(M, Config);
  auto Backend = createMiniSmtSolver();

  unsigned Reverts = 0, Converted = 0;
  uint64_t CacheHits = 0;
  for (const GeneratedConstraint &C : Suite) {
    StaubOptions Paper;
    Paper.Escalate = false;
    StaubOutcome Base = runStaub(M, C.Assertions, *Backend, Paper);
    if (Base.Path != StaubPath::BoundedUnsat)
      continue;
    ++Reverts;
    StaubOptions Ladder;
    StaubOutcome Escalated = runStaub(M, C.Assertions, *Backend, Ladder);
    if (Escalated.Path == StaubPath::EscalatedSat) {
      ++Converted;
      CacheHits += Escalated.SessionBlastCacheHits;
      if (C.Expected) {
        EXPECT_EQ(*C.Expected, SolveStatus::Sat);
      }
    }
  }
  EXPECT_GE(Reverts, Suite.size() / 4) << "suite must stress the ladder";
  EXPECT_GE(Converted * 2, Reverts)
      << "ladder should convert at least half of the reverts";
  EXPECT_GT(CacheHits, 0u);
}

} // namespace
