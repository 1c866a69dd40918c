//===- staub/Staub.cpp - The theory arbitrage pipeline --------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "staub/Staub.h"

#include "staub/BoundInference.h"
#include "support/Timer.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <unordered_set>

using namespace staub;

std::string_view staub::toString(StaubPath Path) {
  switch (Path) {
  case StaubPath::VerifiedSat:
    return "verified-sat";
  case StaubPath::EscalatedSat:
    return "escalated-sat";
  case StaubPath::PresolvedSat:
    return "presolved-sat";
  case StaubPath::PresolvedUnsat:
    return "presolved-unsat";
  case StaubPath::BoundedUnsat:
    return "bounded-unsat";
  case StaubPath::SemanticDifference:
    return "semantic-difference";
  case StaubPath::BoundedUnknown:
    return "bounded-unknown";
  case StaubPath::TranslationFailed:
    return "translation-failed";
  }
  return "<invalid>";
}

InputSort staub::selectSort(const TermManager &Manager,
                            const std::vector<Term> &Assertions) {
  bool HasInt = false, HasReal = false, HasBounded = false;
  std::vector<bool> Seen(Manager.numTerms(), false);
  std::vector<Term> Stack(Assertions.begin(), Assertions.end());
  while (!Stack.empty()) {
    Term T = Stack.back();
    Stack.pop_back();
    if (Seen[T.id()])
      continue;
    Seen[T.id()] = true;
    Sort S = Manager.sort(T);
    HasInt |= S.isInt();
    HasReal |= S.isReal();
    HasBounded |= S.isBitVec() || S.isFloatingPoint();
    for (Term Child : Manager.children(T))
      Stack.push_back(Child);
  }
  if (!HasInt && !HasReal)
    return InputSort::Bounded;
  if (HasBounded || (HasInt && HasReal))
    return InputSort::Mixed;
  return HasInt ? InputSort::Int : InputSort::Real;
}

TranslationTarget staub::chooseTarget(
    const TermManager &Manager, const std::vector<Term> &Assertions,
    InputSort Sort, const StaubOptions &Options,
    const std::unordered_map<uint32_t, analysis::Interval> *Ranges) {
  assert((Sort == InputSort::Int || Sort == InputSort::Real) &&
         "no sort correspondence to target");
  TranslationTarget Target;
  if (Sort == InputSort::Int) {
    if (Options.FixedWidth) {
      Target.Width = *Options.FixedWidth;
    } else if (Options.UseRootWidth) {
      Target.Width =
          inferIntBounds(Manager, Assertions, Options.WidthCap, Ranges)
              .RootWidth;
    } else {
      Target.Width =
          inferIntAssumption(Manager, Assertions, Options.WidthCap, Ranges);
    }
  } else if (Options.FixedWidth) {
    // Fixed-width ablation for reals: interpret the width as the total
    // FP size by picking the standard format of that size.
    Target.Format = *Options.FixedWidth <= 16   ? FpFormat::float16()
                    : *Options.FixedWidth <= 32 ? FpFormat::float32()
                    : *Options.FixedWidth <= 64 ? FpFormat::float64()
                                                : FpFormat::float128();
  } else {
    RealBounds Bounds = inferRealBounds(Manager, Assertions, Options.WidthCap,
                                        config::RealPrecisionCap);
    Target.Format = chooseFpFormat(Bounds.RootMagnitude, Bounds.RootPrecision,
                                   Options.StandardFpFormats);
  }
  return Target;
}

TransformResult staub::translate(TermManager &Manager,
                                 const std::vector<Term> &Assertions,
                                 const TranslationTarget &Target,
                                 const StaubOptions &Options) {
  if (!Target.Width)
    return transformRealToFp(Manager, Assertions, Target.Format);
  TransformOptions TOpts;
  TOpts.ElideGuards = Options.ElideGuards;
  return transformIntToBv(Manager, Assertions, Target.Width, TOpts);
}

TransformResult staub::translateAsParsed(TermManager &Manager,
                                         const std::vector<Term> &Assertions,
                                         const StaubOptions &Options) {
  InputSort Sort = selectSort(Manager, Assertions);
  if (Sort == InputSort::Int || Sort == InputSort::Real)
    return translate(Manager, Assertions,
                     chooseTarget(Manager, Assertions, Sort, Options),
                     Options);
  TransformResult Failed;
  if (Sort == InputSort::Mixed) {
    Failed.FailReason =
        "mixed Int/Real/bounded sorts are outside the translation contract";
    return Failed;
  }
  // Already bounded: name the sort, as the translators do for a variable
  // they cannot map.
  Failed.FailReason = "no Int or Real term to translate";
  for (Term A : Assertions)
    for (Term V : Manager.collectVariables(A))
      if (!Manager.sort(V).isBool()) {
        Failed.FailReason =
            "unsupported variable sort " + Manager.sort(V).toString();
        return Failed;
      }
  return Failed;
}

std::optional<Model> staub::verifyBoundedModel(
    TermManager &Manager, const std::vector<Term> &Assertions,
    const TransformResult &Transform, const Model &Bounded,
    const analysis::PresolveResult *Presolved) {
  Model Unbounded;
  if (!convertModelBack(Manager, Transform, Bounded, Unbounded))
    return std::nullopt;
  // Model transport: variables whose every occurrence was presolved away
  // are unbound in the bounded model; fill them from the presolver's
  // suggestions before checking against the ORIGINAL constraint.
  if (Presolved)
    analysis::completeModel(Manager, Assertions, *Presolved, Unbounded);
  if (!evaluatesToTrue(Manager, Manager.mkAnd(Assertions), Unbounded))
    return std::nullopt;
  return Unbounded;
}

namespace {

/// The width-escalation ladder (Sec. 4.4 extension). Entered after the
/// backend reported bounded-unsat on \p Base, the translation of \p Input
/// at the chosen width: solves it again inside an incremental session (the
/// one-shot backend call cannot expose a core), and while the
/// failed-assumption core blames an overflow guard, retries at width +
/// EscalationStepBits. Every step is a fresh frame whose hard assertions
/// simplify at level 0, so a step costs about one bounded solve of its
/// width. The bounded solve and all steps share one budget,
/// Options.Solve.TimeoutSeconds counted by \p SolveBudget; once it is
/// spent the ladder stops and the revert stands.
/// Soundness is untouched: a revert keeps the paper's behaviour, and an
/// escalated model is only accepted after verifying against the ORIGINAL
/// assertions under exact unbounded semantics.
void escalateWidths(TermManager &Manager,
                    const std::vector<Term> &OriginalAssertions,
                    const std::vector<Term> &Input, const TransformResult &Base,
                    const analysis::PresolveResult *Presolved,
                    SolverBackend &Backend, const StaubOptions &Options,
                    const WallTimer &SolveBudget, StaubOutcome &Outcome) {
  std::unique_ptr<IncrementalBvSession> Session =
      Backend.openIncrementalBv(Manager);
  if (!Session)
    return;
  unsigned Width = Outcome.ChosenWidth;
  TransformResult Wider;
  for (;;) {
    // The racing portfolio cancels the STAUB lane through this token;
    // give up between steps so the loser thread exits promptly.
    if (stopRequested(Options.Solve.Cancel))
      return;
    if (Outcome.EscalationSteps > 0) {
      Wider = translate(Manager, Input, TranslationTarget{Width}, Options);
      if (!Wider.Ok)
        return;
    }
    const TransformResult &Step = Outcome.EscalationSteps ? Wider : Base;
    std::vector<Term> Hard(Step.Assertions.begin(),
                           Step.Assertions.begin() + Step.TranslatedCount);
    std::vector<Term> Guards(Step.Assertions.begin() + Step.TranslatedCount,
                             Step.Assertions.end());
    Session->pushFrame(Hard, Guards);
    SolverOptions StepOptions = Options.Solve;
    StepOptions.TimeoutSeconds -= SolveBudget.elapsedSeconds();
    if (StepOptions.TimeoutSeconds <= 0)
      return; // The budget is spent: keep the sound revert answer.
    SolveStatus Status = Session->solve(StepOptions);
    Outcome.SessionBlastCacheHits = Session->blastCacheHits();
    if (Status == SolveStatus::Unknown)
      return; // Timeout or cancellation: keep the sound revert answer.
    if (Status == SolveStatus::Sat) {
      // Extract every variable the step's model may be asked for: the
      // translated conjunction's variables plus all VariableMap targets
      // (a variable can be simplified out of the translation entirely).
      std::vector<Term> Variables =
          Manager.collectVariables(Manager.mkAnd(Step.Assertions));
      std::unordered_set<uint32_t> Known;
      for (Term V : Variables)
        Known.insert(V.id());
      for (const auto &[OrigId, Mapped] : Step.VariableMap)
        if (Known.insert(Mapped.id()).second)
          Variables.push_back(Mapped);
      std::optional<Model> Verified =
          verifyBoundedModel(Manager, OriginalAssertions, Step,
                             Session->model(Variables), Presolved);
      if (Verified) {
        Outcome.Path = Outcome.EscalationSteps ? StaubPath::EscalatedSat
                                               : StaubPath::VerifiedSat;
        Outcome.VerifiedModel = std::move(*Verified);
        Outcome.ChosenWidth = Width;
      } else {
        Outcome.Path = StaubPath::SemanticDifference;
      }
      return;
    }
    // Unsat: escalate only when an overflow guard carries the blame.
    bool HasGuardCore = Session->coreHasGuards();
    if (Options.InjectBadCore && !HasGuardCore)
      HasGuardCore = true; // Deliberate misclassification under fuzzing.
    if (Outcome.EscalationSteps == 0)
      Outcome.BaseCoreHasGuards = HasGuardCore ? 1 : 0;
    if (!HasGuardCore)
      return; // Guard-free refutation: unsat at this width regardless of
              // the guards, so wider wrap-around semantics is the only
              // thing escalation could buy — revert instead (sound).
    if (Width + config::EscalationStepBits > Options.WidthCap)
      return; // Ladder exhausted.
    Width += config::EscalationStepBits;
    ++Outcome.EscalationSteps;
  }
}

} // namespace

StaubOutcome staub::runStaub(TermManager &Manager,
                             const std::vector<Term> &Assertions,
                             SolverBackend &Backend,
                             const StaubOptions &Options,
                             std::vector<Term> (*Optimizer)(
                                 TermManager &, const std::vector<Term> &)) {
  StaubOutcome Outcome;
  WallTimer Timer;

  // Step 1: sort selection.
  InputSort Sort = selectSort(Manager, Assertions);
  if (Sort != InputSort::Int && Sort != InputSort::Real) {
    Outcome.Path = StaubPath::TranslationFailed;
    Outcome.TransSeconds = Timer.elapsedSeconds();
    return Outcome;
  }

  // Step 1.5: interval-contraction presolve over the exact unbounded
  // semantics (analysis/Presolve.h, docs/ANALYSIS.md). Static verdicts
  // short-circuit the bounded pipeline before any bound inference;
  // otherwise the presolved set (surviving conjuncts + materialized
  // ranges) replaces the original whenever it takes a no-wider target,
  // and the contracted ranges let the Int variable assumption drop below
  // the constant-width heuristic.
  analysis::PresolveResult Pre;
  if (Options.Presolve) {
    analysis::PresolveOptions POpts;
    POpts.Relational = Options.Relational;
    Pre = analysis::presolve(Manager, Assertions, POpts);
    Outcome.Presolve = Pre.Stats;
    Outcome.PresolveCertificate = Pre.Certificate;
    if (Pre.Stats.Verdict == analysis::PresolveVerdict::TriviallyUnsat) {
      Outcome.Path = StaubPath::PresolvedUnsat;
      Outcome.TransSeconds = Timer.elapsedSeconds();
      return Outcome;
    }
    if (Pre.Stats.Verdict == analysis::PresolveVerdict::TriviallySat) {
      Outcome.Path = StaubPath::PresolvedSat;
      Outcome.VerifiedModel = Pre.Witness;
      Outcome.TransSeconds = Timer.elapsedSeconds();
      return Outcome;
    }
  }

  // Step 2: bound inference picks the target, on the original and (as a
  // candidate) on the presolved set; the narrower wins and is translated
  // once. Never substitute the set under a FixedWidth override:
  // materialized range constants can exceed the fixed width and sink the
  // translation.
  TranslationTarget Target = chooseTarget(Manager, Assertions, Sort, Options);
  bool UsePresolvedSet = false;
  if (Options.Presolve && !Options.FixedWidth) {
    TranslationTarget PreTarget = chooseTarget(Manager, Pre.Assertions, Sort,
                                               Options, &Pre.VarRanges);
    if (PreTarget.totalBits() <= Target.totalBits()) {
      UsePresolvedSet = true;
      Outcome.Presolve.WidthBitsSaved =
          Target.totalBits() - PreTarget.totalBits();
      Target = PreTarget;
    }
  }
  Outcome.ChosenWidth = Target.Width;
  Outcome.ChosenFormat = Target.Format;
  const std::vector<Term> &Input =
      UsePresolvedSet ? Pre.Assertions : Assertions;
  const analysis::PresolveResult *Presolved =
      UsePresolvedSet ? &Pre : nullptr;
  TransformResult Transform = translate(Manager, Input, Target, Options);

  if (!Transform.Ok) {
    Outcome.Path = StaubPath::TranslationFailed;
    Outcome.TransSeconds = Timer.elapsedSeconds();
    return Outcome;
  }
  Outcome.BoundedAssertions = Transform.Assertions;
  Outcome.GuardsEmitted = Transform.GuardsEmitted;
  Outcome.GuardsElided = Transform.GuardsElided;

  // Optional bounded-theory optimizer (SLOT, RQ2).
  std::vector<Term> ToSolve = Transform.Assertions;
  if (Optimizer)
    ToSolve = Optimizer(Manager, ToSolve);
  Outcome.TransSeconds = Timer.elapsedSeconds();

  // Step 3: solve the bounded constraint. The escalation ladder below
  // spends what is left of this solve's budget.
  WallTimer SolveBudget;
  SolveResult Bounded = Backend.solve(Manager, ToSolve, Options.Solve);
  Outcome.SolveSeconds = Bounded.TimeSeconds;

  // Step 3.5: width-escalation ladder on bounded-unsat (Int lane only;
  // an optimizer would have to be re-run per step, so SLOT chaining
  // keeps the paper's revert). Ladder time counts as solve time.
  if (Bounded.Status == SolveStatus::Unsat && Sort == InputSort::Int &&
      Options.Escalate && !Options.FixedWidth && !Optimizer &&
      Backend.supportsIncrementalBv()) {
    WallTimer EscalateTimer;
    Outcome.Path = StaubPath::BoundedUnsat;
    escalateWidths(Manager, Assertions, Input, Transform, Presolved, Backend,
                   Options, SolveBudget, Outcome);
    Outcome.SolveSeconds += EscalateTimer.elapsedSeconds();
    if (Outcome.Path != StaubPath::BoundedUnsat)
      return Outcome; // The ladder reached its own verdict.
  }

  // Step 4: verification (Fig. 6).
  WallTimer CheckTimer;
  switch (Bounded.Status) {
  case SolveStatus::Unsat:
    Outcome.Path = StaubPath::BoundedUnsat;
    break;
  case SolveStatus::Unknown:
    Outcome.Path = StaubPath::BoundedUnknown;
    break;
  case SolveStatus::Sat:
    if (std::optional<Model> Verified = verifyBoundedModel(
            Manager, Assertions, Transform, Bounded.TheModel, Presolved)) {
      Outcome.Path = StaubPath::VerifiedSat;
      Outcome.VerifiedModel = std::move(*Verified);
    } else {
      Outcome.Path = StaubPath::SemanticDifference;
    }
    break;
  }
  Outcome.CheckSeconds = CheckTimer.elapsedSeconds();
  return Outcome;
}

namespace {

/// What the two lanes leave for the precedence rule: each lane's result
/// and its finish time on the policy's clock.
struct LaneResults {
  StaubOutcome Staub;
  SolveResult Original; ///< Unknown until the original lane runs.
  double StaubDone = 0.0;
  double OriginalDone = 0.0;
};

/// The racing lanes: the original lane solves a clone of the constraint
/// on its own thread while the STAUB lane runs on this one, and both
/// finish times are read off one wall clock. The original lane's model is
/// remapped onto \p Manager's variables by name.
LaneResults raceLanes(TermManager &Manager,
                      const std::vector<Term> &Assertions,
                      SolverBackend &Backend, const StaubOptions &Options,
                      std::vector<Term> (*Optimizer)(
                          TermManager &, const std::vector<Term> &)) {
  LaneResults L;
  WallTimer Timer;

  // Clone the constraint for the original lane so the two threads never
  // touch the same TermManager.
  TermManager CloneManager;
  std::vector<Term> CloneAssertions;
  {
    TermCloner Cloner(Manager, CloneManager);
    for (Term Assertion : Assertions)
      CloneAssertions.push_back(Cloner.clone(Assertion));
  }

  // Whichever lane finishes with a decisive answer fires the other lane's
  // token, so the loser stops within one poll interval instead of running
  // out its timeout. Both tokens also stop when the caller's token does.
  CancellationToken CancelOriginal(Options.Solve.Cancel);
  CancellationToken CancelStaub(Options.Solve.Cancel);

  // Writes L.Original and L.OriginalDone, read only after join().
  std::thread OriginalLane([&] {
    SolverOptions LaneOptions = Options.Solve;
    LaneOptions.Cancel = &CancelOriginal;
    L.Original = Backend.solve(CloneManager, CloneAssertions, LaneOptions);
    L.OriginalDone = Timer.elapsedSeconds();
    if (L.Original.Status != SolveStatus::Unknown)
      CancelStaub.cancel();
  });

  StaubOptions StaubOptionsWithCancel = Options;
  StaubOptionsWithCancel.Solve.Cancel = &CancelStaub;
  L.Staub = runStaub(Manager, Assertions, Backend, StaubOptionsWithCancel,
                     Optimizer);
  L.StaubDone = Timer.elapsedSeconds();
  if (isDecisive(L.Staub.Path))
    CancelOriginal.cancel();
  OriginalLane.join();

  // Model values live in the clone manager's terms; remap by name.
  Model Remapped;
  for (const auto &[VarId, V] : L.Original.TheModel) {
    Term Mine = Manager.lookupVariable(CloneManager.variableName(Term(VarId)));
    if (Mine.isValid())
      Remapped.set(Mine, V);
  }
  L.Original.TheModel = std::move(Remapped);
  return L;
}

} // namespace

PortfolioResult staub::runPortfolio(
    TermManager &Manager, const std::vector<Term> &Assertions,
    SolverBackend &Backend, const StaubOptions &Options, LanePolicy Policy,
    std::vector<Term> (*Optimizer)(TermManager &,
                                   const std::vector<Term> &)) {
  LaneResults L;
  switch (Policy) {
  case LanePolicy::Sequential:
    L.Staub = runStaub(Manager, Assertions, Backend, Options, Optimizer);
    L.StaubDone = L.Staub.totalSeconds();
    if (!isDecisive(L.Staub.Path)) {
      // Underapproximation could not conclude: revert to the original
      // constraint.
      L.Original = Backend.solve(Manager, Assertions, Options.Solve);
      L.OriginalDone = L.StaubDone + L.Original.TimeSeconds;
    }
    break;
  case LanePolicy::Measured:
    L.Original = Backend.solve(Manager, Assertions, Options.Solve);
    L.OriginalDone = L.Original.TimeSeconds;
    L.Staub = runStaub(Manager, Assertions, Backend, Options, Optimizer);
    L.StaubDone = L.Staub.totalSeconds();
    break;
  case LanePolicy::Racing:
    L = raceLanes(Manager, Assertions, Backend, Options, Optimizer);
    break;
  }

  PortfolioResult Result;
  Result.OriginalSeconds = L.Original.TimeSeconds;
  Result.StaubSeconds = L.Staub.totalSeconds();
  // The answering lane goes by precedence, not by which lane finished
  // first, so the answer never depends on timing; the portfolio time is
  // still the first decisive lane's.
  bool OriginalDecided = L.Original.Status != SolveStatus::Unknown;
  if (isDecisive(L.Staub.Path)) {
    Result.Status = L.Staub.Path == StaubPath::PresolvedUnsat
                        ? SolveStatus::Unsat
                        : SolveStatus::Sat;
    Result.TheModel = std::move(L.Staub.VerifiedModel);
    Result.StaubWon = true;
    Result.PortfolioSeconds =
        OriginalDecided ? std::min(L.StaubDone, L.OriginalDone) : L.StaubDone;
  } else if (OriginalDecided) {
    Result.Status = L.Original.Status;
    Result.TheModel = std::move(L.Original.TheModel);
    Result.PortfolioSeconds = L.OriginalDone;
  } else {
    Result.PortfolioSeconds = std::max(L.StaubDone, L.OriginalDone);
  }
  Result.Staub = std::move(L.Staub);
  return Result;
}
