//===- tests/staub_portfolio_test.cpp - Racing portfolio tests ------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the query driver's lane policies and their supporting pieces:
/// cooperative cancellation of MiniSMT, cross-manager term cloning, model
/// remapping from the racing clone back into the caller's manager, each
/// policy's lane schedule, and the parallel suite evaluator's determinism
/// contract.
///
//===----------------------------------------------------------------------===//

#include "benchgen/Harness.h"
#include "smtlib/Parser.h"
#include "solver/Solver.h"
#include "staub/Staub.h"
#include "support/Cancellation.h"
#include "support/Timer.h"
#include "theory/Evaluator.h"

#include <gtest/gtest.h>

#include <thread>

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
// CancellationToken basics.
//===--------------------------------------------------------------------===//

TEST(CancellationTest, FlagIsSticky) {
  CancellationToken Token;
  EXPECT_FALSE(Token.shouldStop());
  Token.cancel();
  EXPECT_TRUE(Token.isCancelled());
  EXPECT_TRUE(Token.shouldStop());
}

TEST(CancellationTest, SoftDeadlineFires) {
  CancellationToken Token;
  Token.setDeadlineIn(0.02);
  EXPECT_FALSE(Token.isCancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_TRUE(Token.shouldStop());
  EXPECT_FALSE(Token.isCancelled()); // Deadline, not the sticky flag.
  Token.clearDeadline();
  EXPECT_FALSE(Token.shouldStop());
}

TEST(CancellationTest, ChildStopsWithParent) {
  CancellationToken Parent;
  CancellationToken Child(&Parent);
  EXPECT_FALSE(Child.shouldStop());
  Child.cancel(); // Cancelling the child leaves the parent running.
  EXPECT_FALSE(Parent.shouldStop());
  CancellationToken Sibling(&Parent);
  Parent.cancel();
  EXPECT_TRUE(Sibling.shouldStop());
  EXPECT_FALSE(Sibling.isCancelled()); // Polled, not copied.
}

//===--------------------------------------------------------------------===//
// Cancelled MiniSMT calls return Unknown promptly.
//===--------------------------------------------------------------------===//

/// A bitvector instance MiniSMT's CDCL core grinds on for far longer
/// than this test is willing to wait: factor a 40-bit *prime*. The caps
/// keep x*y below 2^40 (no wraparound solutions), so the instance is
/// unsat and the solver must refute the whole 2^20 x 2^20 factor space —
/// measured at well over 8 seconds uncancelled, against a 300ms cancel.
void buildHardBvFactoring(TermManager &M, std::vector<Term> &Assertions) {
  const unsigned W = 40;
  Sort S = Sort::bitVec(W);
  Term X = M.mkVariable("x", S);
  Term Y = M.mkVariable("y", S);
  Term One = M.mkBitVecConst(BitVecValue(W, 1));
  Term Cap = M.mkBitVecConst(BitVecValue(W, (1LL << 20) - 1));
  Term Product = M.mkBitVecConst(BitVecValue(W, 549756338149LL)); // prime
  Assertions = {
      M.mkEq(M.mkApp(Kind::BvMul, std::vector<Term>{X, Y}), Product),
      M.mkApp(Kind::BvUgt, std::vector<Term>{X, One}),
      M.mkApp(Kind::BvUgt, std::vector<Term>{Y, One}),
      M.mkApp(Kind::BvUle, std::vector<Term>{X, Y}),
      M.mkApp(Kind::BvUle, std::vector<Term>{X, Cap}),
      M.mkApp(Kind::BvUle, std::vector<Term>{Y, Cap}),
  };
}

TEST(CancellationTest, MiniSmtStopsPromptly) {
  TermManager M;
  std::vector<Term> Assertions;
  buildHardBvFactoring(M, Assertions);

  auto Backend = createMiniSmtSolver();
  CancellationToken Token;
  SolverOptions Options;
  Options.TimeoutSeconds = 60.0; // Cancellation must beat this by far.
  Options.Cancel = &Token;

  SolveResult Result;
  double SolveReturnedAt = 0.0;
  WallTimer Timer;
  std::thread Solve([&] {
    Result = Backend->solve(M, Assertions, Options);
    SolveReturnedAt = Timer.elapsedSeconds();
  });
  // Let the solver get deep into the search before firing the token.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  double CancelledAt = Timer.elapsedSeconds();
  Token.cancel();
  Solve.join();

  EXPECT_EQ(Result.Status, SolveStatus::Unknown);
  // The uncancelled solve needs 8+ seconds; returning within 2s of the
  // cancel proves the token was honored. The generous bound absorbs CPU
  // contention and sanitizer overhead without weakening the check.
  EXPECT_LT(SolveReturnedAt - CancelledAt, 2.0)
      << "cancelled solve took too long to return";
}

TEST(CancellationTest, MiniSmtLinearArithHonorsToken) {
  // A pre-cancelled token stops the DPLL(T) path immediately.
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(declare-fun y () Int)"
               "(assert (<= (+ x y) 10))(assert (>= (- x y) 3))");
  auto Backend = createMiniSmtSolver();
  CancellationToken Token;
  Token.cancel();
  SolverOptions Options;
  Options.TimeoutSeconds = 60.0;
  Options.Cancel = &Token;
  WallTimer Timer;
  SolveResult Result = Backend->solve(P.M, P.Assertions, Options);
  EXPECT_EQ(Result.Status, SolveStatus::Unknown);
  // Unknown (not a decided answer) is the real check: a solver ignoring
  // the pre-cancelled token would decide this trivial instance. The time
  // bound only guards against spinning until the 60s timeout.
  EXPECT_LT(Timer.elapsedSeconds(), 5.0);
}

//===--------------------------------------------------------------------===//
// TermCloner: worklist-based deep copies.
//===--------------------------------------------------------------------===//

TEST(TermClonerTest, ClonesSharedStructureOnce) {
  TermManager Src;
  Term X = Src.mkVariable("x", Sort::integer());
  Term Shared = Src.mkAdd(std::vector<Term>{X, Src.mkIntConst(BigInt(7))});
  Term Root = Src.mkEq(Src.mkMul(std::vector<Term>{Shared, Shared}),
                       Src.mkIntConst(BigInt(49)));

  TermManager Dst;
  TermCloner Cloner(Src, Dst);
  Term Copy = Cloner.clone(Root);
  EXPECT_EQ(Dst.dagSize(Copy), Src.dagSize(Root));
  EXPECT_EQ(Dst.kind(Copy), Kind::Eq);
  // The clone hash-conses too: both Mul operands are the same node.
  Term Mul = Dst.child(Copy, 0);
  EXPECT_EQ(Dst.child(Mul, 0), Dst.child(Mul, 1));
}

TEST(TermClonerTest, DeepChainDoesNotOverflowStack) {
  // A chain this deep crashes a naive recursive cloner; the worklist
  // cloner must walk it iteratively.
  constexpr int Depth = 200000;
  TermManager Src;
  Term One = Src.mkIntConst(BigInt(1));
  Term Chain = Src.mkVariable("x", Sort::integer());
  for (int I = 0; I < Depth; ++I)
    Chain = Src.mkAdd(std::vector<Term>{Chain, One});

  TermManager Dst;
  TermCloner Cloner(Src, Dst);
  Term Copy = Cloner.clone(Chain);
  EXPECT_EQ(Dst.dagSize(Copy), Src.dagSize(Chain));
}

TEST(TermClonerTest, CachePersistsAcrossRoots) {
  TermManager Src;
  Term X = Src.mkVariable("x", Sort::integer());
  Term A = Src.mkCompare(Kind::Le, X, Src.mkIntConst(BigInt(5)));
  Term B = Src.mkCompare(Kind::Ge, X, Src.mkIntConst(BigInt(0)));

  TermManager Dst;
  TermCloner Cloner(Src, Dst);
  Term CopyA = Cloner.clone(A);
  size_t TermsAfterA = Dst.numTerms();
  Term CopyB = Cloner.clone(B);
  // B reuses the cached clone of x; only the new comparison nodes appear.
  EXPECT_EQ(Dst.child(CopyA, 0), Dst.child(CopyB, 0));
  EXPECT_GT(Dst.numTerms(), TermsAfterA);
}

//===--------------------------------------------------------------------===//
// Racing portfolio: agreement, cancellation, and model remapping.
//===--------------------------------------------------------------------===//

TEST(PortfolioRacingTest, AgreesWithMeasuredOnMixedSuite) {
  // Seeded mixed sat/unsat constraints that both lanes decide quickly, so
  // racing, measured and sequential must report identical statuses.
  struct Case {
    const char *Text;
    SolveStatus Expected;
  };
  const Case Cases[] = {
      {"(declare-fun x () Int)(declare-fun y () Int)"
       "(assert (= (+ x y) 10))(assert (>= x 3))(assert (>= y 3))",
       SolveStatus::Sat},
      {"(declare-fun x () Int)(assert (> x 5))(assert (< x 3))",
       SolveStatus::Unsat},
      {"(declare-fun x () Int)(assert (= (* x x) 49))(assert (> x 0))",
       SolveStatus::Sat},
      {"(declare-fun x () Int)(assert (< (* x x) 0))", SolveStatus::Unsat},
      {"(declare-fun a () Real)(declare-fun b () Real)"
       "(assert (= (+ a b) 1.5))(assert (>= a 0.5))(assert (>= b 0.5))",
       SolveStatus::Sat},
  };

  auto Backend = createMiniSmtSolver();
  for (const Case &C : Cases) {
    ParsedConstraint P;
    parseInto(P, C.Text);
    StaubOptions Options;
    Options.Solve.TimeoutSeconds = 20.0;

    PortfolioResult Racing = runPortfolio(P.M, P.Assertions, *Backend,
                                          Options, LanePolicy::Racing);
    PortfolioResult Measured = runPortfolio(P.M, P.Assertions, *Backend,
                                            Options, LanePolicy::Measured);
    PortfolioResult Sequential = runPortfolio(
        P.M, P.Assertions, *Backend, Options, LanePolicy::Sequential);

    EXPECT_EQ(Racing.Status, C.Expected) << C.Text;
    EXPECT_EQ(Racing.Status, Measured.Status) << C.Text;
    EXPECT_EQ(Sequential.Status, Measured.Status) << C.Text;
    // Per-lane accounting is honest: the winning lane's time bounds the
    // portfolio, and a sat answer carries a model.
    EXPECT_GE(Racing.PortfolioSeconds, 0.0);
    if (Racing.Status == SolveStatus::Sat)
      EXPECT_FALSE(Racing.TheModel.empty()) << C.Text;
  }
}

TEST(PortfolioRacingTest, IntModelRemapRoundTrips) {
  // FixedWidth 4 cannot express 1000, so the STAUB lane reverts and the
  // original lane's model — solved in the clone manager — must be remapped
  // onto this manager's variables by name.
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(assert (= x 1000))");
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.FixedWidth = 4;
  Options.Presolve = false; // The presolver would witness x = 1000
                            // statically; this test pins the remap path.
  Options.Solve.TimeoutSeconds = 20.0;

  PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                   LanePolicy::Racing);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_FALSE(R.StaubWon);
  Term X = P.M.lookupVariable("x");
  ASSERT_TRUE(X.isValid());
  const Value *V = R.TheModel.get(X);
  ASSERT_NE(V, nullptr) << "model not remapped onto the caller's manager";
  ASSERT_TRUE(V->isInt());
  EXPECT_EQ(V->asInt(), BigInt(1000));
  // The remapped model satisfies the original constraint in this manager.
  EXPECT_TRUE(evaluatesToTrue(P.M, P.M.mkAnd(P.Assertions), R.TheModel));
}

TEST(PortfolioRacingTest, RealModelRemapRoundTrips) {
  // float16 cannot represent 1/3: the bounded model fails verification
  // (semantic difference), so the exact simplex lane must supply x = 1/3
  // through the name-based remap.
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Real)(assert (= (* 3.0 x) 1.0))");
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.FixedWidth = 16;
  Options.Presolve = false; // The presolver would witness x = 1/3
                            // statically; this test pins the remap path.
  Options.Solve.TimeoutSeconds = 20.0;

  PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                   LanePolicy::Racing);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_FALSE(R.StaubWon);
  Term X = P.M.lookupVariable("x");
  ASSERT_TRUE(X.isValid());
  const Value *V = R.TheModel.get(X);
  ASSERT_NE(V, nullptr) << "model not remapped onto the caller's manager";
  ASSERT_TRUE(V->isReal());
  EXPECT_EQ(V->asReal(), Rational(1, 3));
  EXPECT_TRUE(evaluatesToTrue(P.M, P.M.mkAnd(P.Assertions), R.TheModel));
}

TEST(PortfolioRacingTest, StaubWinStrictlyBeatsOriginalLane) {
  // STC_505 (sum of three cubes = 505): MiniSMT's unbounded
  // branch-and-bound needs seconds while the 11-bit translation verifies
  // in a fraction of that, so the STAUB lane must win the race and the
  // losing lane must get cancelled, not joined to completion. Winning is
  // checked by event ordering (StaubWon, and the original lane's honest
  // time-at-cancel beating its solo time), not by comparing two
  // wall-clock measurements of the whole call, which CPU contention can
  // invert.
  TermManager M;
  BenchConfig Config;
  Config.Seed = 42;
  Config.Count = 24;
  auto Suite = generateSuite(M, BenchLogic::QF_NIA, Config);
  ASSERT_GT(Suite.size(), 5u);
  const GeneratedConstraint &C = Suite[5];
  ASSERT_EQ(C.Name, "STC_505_5") << "generator changed; pick a new instance";
  // The generator now boxes sat instances too (range facts feed guard
  // elision); this race needs the *unbounded* search space that makes the
  // original lane slow, so strip the boxes and keep just the equation.
  ASSERT_EQ(M.kind(C.Assertions.front()), Kind::Eq);
  std::vector<Term> Unboxed{C.Assertions.front()};

  auto Backend = createMiniSmtSolver();
  SolverOptions Plain;
  Plain.TimeoutSeconds = 60.0;
  WallTimer SoloTimer;
  SolveResult Solo = Backend->solve(M, Unboxed, Plain);
  double SoloSeconds = SoloTimer.elapsedSeconds();
  ASSERT_EQ(Solo.Status, SolveStatus::Sat);

  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 60.0;
  PortfolioResult R =
      runPortfolio(M, Unboxed, *Backend, Options, LanePolicy::Racing);

  EXPECT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_TRUE(R.StaubWon);
  EXPECT_FALSE(R.TheModel.empty());
  // The cancelled lane reports honest time-at-cancel, not a full solve:
  // it was stopped when STAUB won, well before its multi-second solo time.
  EXPECT_LT(R.OriginalSeconds, SoloSeconds);
}

TEST(PortfolioRacingTest, WinnerCancelsLosingLane) {
  // The original lane decides this bitvector-free constraint instantly;
  // nothing here is translatable (no unbounded sort mix for STAUB), so the
  // staub lane reverts immediately too. The whole call must be far from
  // any timeout.
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))");
  auto Backend = createMiniSmtSolver();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 60.0;
  WallTimer Timer;
  PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                   LanePolicy::Racing);
  EXPECT_EQ(R.Status, SolveStatus::Unsat);
  // Far from the 60s timeout: both lanes settle instantly, so anything
  // near the timeout means the winner failed to cancel the loser.
  EXPECT_LT(Timer.elapsedSeconds(), 30.0);
}

TEST(PortfolioRacingTest, HonorsCallerCancellation) {
  // Sum of three cubes = 4 has no integer solution (cubes are 0 or +-1
  // mod 9), so neither lane can decide it quickly: the original lane
  // would search until its 3 s timeout. With the caller's token already
  // fired, both lane-private tokens must stop at their first poll.
  ParsedConstraint P;
  parseInto(P, "(declare-fun x () Int)(declare-fun y () Int)"
               "(declare-fun z () Int)"
               "(assert (= (+ (* x x x) (* y y y) (* z z z)) 4))");
  auto Backend = createMiniSmtSolver();
  CancellationToken Caller;
  Caller.cancel();
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 3.0;
  Options.Solve.Cancel = &Caller;
  WallTimer Timer;
  PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                   LanePolicy::Racing);
  EXPECT_EQ(R.Status, SolveStatus::Unknown);
  EXPECT_LT(Timer.elapsedSeconds(), 1.0);
}

TEST(PortfolioRacingStress, RepeatedRacesAreClean) {
  // Exercised under the tsan preset: repeated races across sat, unsat,
  // and reverting cases keep both lanes and the cancellation handshake
  // busy.
  const char *Texts[] = {
      "(declare-fun x () Int)(declare-fun y () Int)"
      "(assert (= (+ (* x x) (* y y)) 25))(assert (> x 0))(assert (> y 0))",
      "(declare-fun x () Int)(assert (> x 5))(assert (< x 3))",
      "(declare-fun a () Real)(assert (= (* 3.0 a) 1.0))",
  };
  auto Backend = createMiniSmtSolver();
  for (int Round = 0; Round < 4; ++Round) {
    for (const char *Text : Texts) {
      ParsedConstraint P;
      parseInto(P, Text);
      StaubOptions Options;
      Options.Solve.TimeoutSeconds = 10.0;
      PortfolioResult R = runPortfolio(P.M, P.Assertions, *Backend, Options,
                                       LanePolicy::Racing);
      EXPECT_NE(R.Status, SolveStatus::Unknown) << Text;
    }
  }
}

//===--------------------------------------------------------------------===//
// Lane schedules per policy.
//===--------------------------------------------------------------------===//

/// Wraps MiniSMT and counts the solve() calls on one exact assertion
/// vector, the original constraint: the bounded solves inside runStaub
/// pass the translated assertions instead.
class CountingBackend : public SolverBackend {
public:
  explicit CountingBackend(std::vector<Term> Original)
      : Inner(createMiniSmtSolver()), Original(std::move(Original)) {}

  SolveResult solve(TermManager &Manager, const std::vector<Term> &Assertions,
                    const SolverOptions &Options) override {
    if (Assertions == Original)
      ++OriginalSolves;
    return Inner->solve(Manager, Assertions, Options);
  }
  std::string_view name() const override { return Inner->name(); }
  bool supportsIncrementalBv() const override {
    return Inner->supportsIncrementalBv();
  }
  std::unique_ptr<IncrementalBvSession>
  openIncrementalBv(const TermManager &Manager) override {
    return Inner->openIncrementalBv(Manager);
  }

  unsigned OriginalSolves = 0;

private:
  std::unique_ptr<SolverBackend> Inner;
  std::vector<Term> Original;
};

TEST(PortfolioPolicyTest, SequentialSolvesOriginalOnlyAfterRevert) {
  struct Case {
    const char *Name;
    const char *Text;
    std::optional<unsigned> FixedWidth;
    bool Presolve;
    bool Decisive;
  };
  const Case Cases[] = {
      // The STAUB lane verifies a model: no fallback under Sequential.
      {"decisive", "(declare-fun x () Int)(assert (= (* x x) 49))",
       std::nullopt, true, true},
      // 4 bits cannot express 1000, so the STAUB lane reverts
      // (IntModelRemapRoundTrips' case).
      {"revert", "(declare-fun x () Int)(assert (= x 1000))", 4u, false,
       false},
  };
  for (const Case &C : Cases) {
    for (LanePolicy Policy : {LanePolicy::Sequential, LanePolicy::Measured}) {
      ParsedConstraint P;
      parseInto(P, C.Text);
      CountingBackend Backend(P.Assertions);
      StaubOptions Options;
      Options.FixedWidth = C.FixedWidth;
      Options.Presolve = C.Presolve;
      Options.Solve.TimeoutSeconds = 20.0;
      PortfolioResult R =
          runPortfolio(P.M, P.Assertions, Backend, Options, Policy);
      bool Sequential = Policy == LanePolicy::Sequential;
      EXPECT_EQ(R.Status, SolveStatus::Sat) << C.Name;
      EXPECT_EQ(R.StaubWon, C.Decisive) << C.Name;
      EXPECT_EQ(Backend.OriginalSolves, Sequential && C.Decisive ? 0u : 1u)
          << C.Name << (Sequential ? " sequential" : " measured");
      // A sat answer carries its model whichever lane supplied it.
      EXPECT_TRUE(evaluatesToTrue(P.M, P.M.mkAnd(P.Assertions), R.TheModel))
          << C.Name;
    }
  }
}

//===--------------------------------------------------------------------===//
// Parallel suite evaluation.
//===--------------------------------------------------------------------===//

/// A suite MiniSMT decides in milliseconds even when several workers
/// time-share one core. Record equality between sequential and parallel
/// runs is only well-defined away from the timeout boundary: a solve that
/// takes ~T seconds sequentially can exceed T under CPU contention, so
/// the determinism contract covers statuses, paths, and widths — not
/// wall-clock — and this suite keeps every solve far from the budget.
std::vector<GeneratedConstraint> buildEasySuite(TermManager &M) {
  const struct {
    const char *Name;
    const char *Text;
    SolveStatus Expected;
  } Specs[] = {
      {"lia-sat-sum",
       "(declare-fun a0 () Int)(declare-fun b0 () Int)"
       "(assert (= (+ a0 b0) 10))(assert (>= a0 3))(assert (>= b0 3))",
       SolveStatus::Sat},
      {"lia-unsat-window",
       "(declare-fun a1 () Int)(assert (> a1 5))(assert (< a1 3))",
       SolveStatus::Unsat},
      {"nia-sat-square",
       "(declare-fun a2 () Int)(assert (= (* a2 a2) 49))(assert (> a2 0))",
       SolveStatus::Sat},
      {"nia-unsat-square",
       "(declare-fun a3 () Int)(assert (< (* a3 a3) 0))", SolveStatus::Unsat},
      {"lia-sat-point", "(declare-fun a4 () Int)(assert (= a4 12))",
       SolveStatus::Sat},
      {"lia-unsat-parity",
       "(declare-fun a5 () Int)(assert (= (+ a5 a5) 7))", SolveStatus::Unsat},
  };
  std::vector<GeneratedConstraint> Suite;
  for (const auto &Spec : Specs) {
    auto R = parseSmtLib(M, Spec.Text);
    EXPECT_TRUE(R.Ok) << R.Error;
    GeneratedConstraint C;
    C.Name = Spec.Name;
    C.Family = "handbuilt";
    C.Assertions = R.Parsed.Assertions;
    C.Expected = Spec.Expected;
    Suite.push_back(std::move(C));
  }
  return Suite;
}

TEST(ParallelHarnessTest, MatchesSequentialMeasurements) {
  TermManager M;
  auto Suite = buildEasySuite(M);

  auto Backend = createMiniSmtSolver();
  const double Timeout = 30.0;

  auto Sequential =
      evaluateSuite(M, Suite, *Backend, Timeout, {EvalConfig()})[0];
  auto Parallel =
      evaluateSuite(M, Suite, *Backend, Timeout, {EvalConfig()}, 4)[0];

  ASSERT_EQ(Parallel.size(), Sequential.size());
  for (size_t I = 0; I < Sequential.size(); ++I) {
    EXPECT_EQ(Parallel[I].Name, Sequential[I].Name);
    EXPECT_EQ(Parallel[I].OriginalStatus, Sequential[I].OriginalStatus);
    EXPECT_EQ(Parallel[I].Staub.Path, Sequential[I].Staub.Path);
    EXPECT_EQ(Parallel[I].Staub.ChosenWidth, Sequential[I].Staub.ChosenWidth);
  }
  // Count-type aggregates are identical; only timings may differ.
  EvalSummary SeqSummary = summarize(Sequential, Timeout);
  EvalSummary ParSummary = summarize(Parallel, Timeout);
  EXPECT_EQ(ParSummary.Count, SeqSummary.Count);
  EXPECT_EQ(ParSummary.VerifiedCases, SeqSummary.VerifiedCases);
  EXPECT_EQ(ParSummary.Tractability, SeqSummary.Tractability);
  EXPECT_EQ(ParSummary.SemanticDifferences, SeqSummary.SemanticDifferences);
}

TEST(ParallelHarnessTest, ConfigsMatchSequential) {
  TermManager M;
  auto Suite = buildEasySuite(M);

  auto Backend = createMiniSmtSolver();
  std::vector<EvalConfig> Configs(2);
  Configs[0].Label = "STAUB";
  Configs[1].Label = "fixed-8";
  Configs[1].Staub.FixedWidth = 8;

  auto Sequential = evaluateSuite(M, Suite, *Backend, 30.0, Configs);
  auto Parallel = evaluateSuite(M, Suite, *Backend, 30.0, Configs, 3);

  ASSERT_EQ(Parallel.size(), Sequential.size());
  for (size_t Cfg = 0; Cfg < Sequential.size(); ++Cfg) {
    ASSERT_EQ(Parallel[Cfg].size(), Sequential[Cfg].size());
    for (size_t I = 0; I < Sequential[Cfg].size(); ++I) {
      EXPECT_EQ(Parallel[Cfg][I].Name, Sequential[Cfg][I].Name);
      EXPECT_EQ(Parallel[Cfg][I].OriginalStatus,
                Sequential[Cfg][I].OriginalStatus);
      EXPECT_EQ(Parallel[Cfg][I].Staub.Path, Sequential[Cfg][I].Staub.Path);
      EXPECT_EQ(Parallel[Cfg][I].Staub.ChosenWidth,
                Sequential[Cfg][I].Staub.ChosenWidth);
    }
  }
}

TEST(ParallelHarnessTest, ScalesOnMulticoreHardware) {
  if (std::thread::hardware_concurrency() < 4)
    GTEST_SKIP() << "needs >= 4 hardware threads for a meaningful speedup";

  TermManager M;
  BenchConfig Config;
  Config.Seed = 3;
  Config.Count = 12;
  auto Suite = generateSuite(M, BenchLogic::QF_LIA, Config);
  auto Backend = createMiniSmtSolver();
  const double Timeout = 2.0;

  WallTimer SeqTimer;
  auto Sequential =
      evaluateSuite(M, Suite, *Backend, Timeout, {EvalConfig()})[0];
  double SeqSeconds = SeqTimer.elapsedSeconds();
  WallTimer ParTimer;
  auto Parallel =
      evaluateSuite(M, Suite, *Backend, Timeout, {EvalConfig()}, 4)[0];
  double ParSeconds = ParTimer.elapsedSeconds();

  ASSERT_EQ(Parallel.size(), Sequential.size());
  // Conservative bound: 4 workers over 12 jobs should comfortably halve
  // the wall time unless the suite is trivially fast to begin with.
  if (SeqSeconds > 0.5)
    EXPECT_LT(ParSeconds, SeqSeconds * 0.75);
}

} // namespace
