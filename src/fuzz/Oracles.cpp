//===- fuzz/Oracles.cpp - Differential stage oracles ----------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracles.h"
#include "analysis/Lint.h"
#include "analysis/Presolve.h"
#include "analysis/Octagon.h"
#include "analysis/Zone.h"
#include "fuzz/Rewrite.h"
#include "staub/BoundInference.h"
#include "staub/Config.h"
#include "staub/Staub.h"
#include "staub/Transform.h"
#include "staub/WidthReduction.h"

#include <algorithm>

using namespace staub;

std::string_view staub::toString(FuzzTheory Theory) {
  switch (Theory) {
  case FuzzTheory::Int:
    return "int";
  case FuzzTheory::Real:
    return "real";
  case FuzzTheory::Fp:
    return "fp";
  }
  return "int";
}

std::optional<FuzzTheory> staub::parseFuzzTheory(std::string_view Text) {
  if (Text == "int")
    return FuzzTheory::Int;
  if (Text == "real")
    return FuzzTheory::Real;
  if (Text == "fp")
    return FuzzTheory::Fp;
  return std::nullopt;
}

bool staub::usesIntDivision(const TermManager &Manager,
                            const std::vector<Term> &Assertions) {
  std::vector<Term> Stack = Assertions;
  std::vector<bool> Seen;
  while (!Stack.empty()) {
    Term T = Stack.back();
    Stack.pop_back();
    if (T.id() >= Seen.size())
      Seen.resize(T.id() + 1, false);
    if (Seen[T.id()])
      continue;
    Seen[T.id()] = true;
    Kind K = Manager.kind(T);
    if (K == Kind::IntDiv || K == Kind::IntMod)
      return true;
    for (Term Child : Manager.children(T))
      Stack.push_back(Child);
  }
  return false;
}

namespace {

/// Evaluates the conjunction of \p Assertions under \p M. nullopt when any
/// assertion hits an undefined operation or an unbound variable.
std::optional<bool> evaluateConjunction(const TermManager &Manager,
                                        const std::vector<Term> &Assertions,
                                        const Model &M) {
  for (Term Assertion : Assertions) {
    std::optional<Value> V = evaluate(Manager, Assertion, M);
    if (!V || !V->isBool())
      return std::nullopt;
    if (!V->asBool())
      return false;
  }
  return true;
}

StaubOptions pipelineOptions(const OracleOptions &Options) {
  StaubOptions SO;
  SO.Solve.TimeoutSeconds = Options.SolveTimeoutSeconds;
  SO.Solve.Cancel = Options.Cancel;
  if (Options.Theory == FuzzTheory::Fp)
    SO.FixedWidth = 16; // Forces float16: maximal rounding stress.
  return SO;
}

SolverOptions solveOptions(const OracleOptions &Options) {
  SolverOptions SOpts;
  SOpts.TimeoutSeconds = Options.SolveTimeoutSeconds;
  SOpts.Cancel = Options.Cancel;
  return SOpts;
}

Violation makeViolation(std::string Property, std::string Detail,
                        const FuzzInstance &Instance) {
  return {std::move(Property), std::move(Detail), Instance.Assertions};
}

bool decisive(SolveStatus Status) { return Status != SolveStatus::Unknown; }

//===----------------------------------------------------------------------===//
// Stage oracles.
//===----------------------------------------------------------------------===//

/// planted-truth: the generator's witness must satisfy its own constraint
/// exactly. Self-validating (pure evaluation), so it also runs while
/// shrinking.
std::optional<Violation> checkPlantedTruth(TermManager &Manager,
                                           const FuzzInstance &Instance,
                                           SolverBackend &,
                                           const OracleOptions &) {
  if (!Instance.Planted)
    return std::nullopt;
  std::optional<bool> Holds =
      evaluateConjunction(Manager, Instance.Assertions, *Instance.Planted);
  if (Holds.value_or(true))
    return std::nullopt;
  return makeViolation("planted-truth",
                       "planted witness does not satisfy the constraint",
                       Instance);
}

/// pipeline-soundness: a VerifiedSat answer must survive independent exact
/// re-evaluation, and (when ground truth is trusted) must not contradict
/// it. An Unsat-side contradiction is only claimed when the planted
/// witness re-validates on this very constraint, which keeps the check
/// meaningful under shrinking.
std::optional<Violation> checkPipelineSoundness(TermManager &Manager,
                                                const FuzzInstance &Instance,
                                                SolverBackend &Backend,
                                                const OracleOptions &Options) {
  StaubOutcome Outcome = runStaub(Manager, Instance.Assertions, Backend,
                                  pipelineOptions(Options));
  if (Outcome.Path == StaubPath::VerifiedSat ||
      Outcome.Path == StaubPath::PresolvedSat) {
    std::optional<bool> Holds = evaluateConjunction(
        Manager, Instance.Assertions, Outcome.VerifiedModel);
    if (!Holds.value_or(false))
      return makeViolation(
          "pipeline-soundness",
          std::string(toString(Outcome.Path)) +
              " model fails independent exact re-evaluation",
          Instance);
    if (Options.TrustExpected && Instance.Expected == SolveStatus::Unsat)
      return makeViolation("pipeline-soundness",
                           "pipeline verified sat on a planted-unsat instance",
                           Instance);
  }
  if (Outcome.Path == StaubPath::PresolvedUnsat && Instance.Planted) {
    // The presolver's unsat verdict is decisive; a planted witness that
    // re-validates right here refutes it self-validatingly.
    std::optional<bool> OnOriginal = evaluateConjunction(
        Manager, Instance.Assertions, *Instance.Planted);
    if (OnOriginal.value_or(false))
      return makeViolation(
          "pipeline-soundness",
          "presolver claimed unsat but the planted witness validates",
          Instance);
  }
  return std::nullopt;
}

/// int-translation-exactness: on the division-free Int fragment the
/// guarded Int->BV translation is exact (paper Sec. 4.3), so every model
/// of the bounded constraint must convert back to a model of the
/// original. BugInjection::DropOverflowGuards deliberately breaks this.
std::optional<Violation>
checkIntTranslationExactness(TermManager &Manager, const FuzzInstance &Instance,
                             SolverBackend &Backend,
                             const OracleOptions &Options) {
  if (Options.Theory != FuzzTheory::Int ||
      usesIntDivision(Manager, Instance.Assertions))
    return std::nullopt;
  IntBounds Bounds = inferIntBounds(Manager, Instance.Assertions);
  unsigned Width =
      std::clamp(Bounds.VariableAssumption, 1u, config::DefaultWidthCap);
  TransformResult Transform =
      transformIntToBv(Manager, Instance.Assertions, Width);
  if (!Transform.Ok)
    return std::nullopt;
  std::vector<Term> Bounded = Transform.Assertions;
  if (Options.Inject == BugInjection::DropOverflowGuards) {
    // The translator emits one assertion per input followed by the guards;
    // truncating to the input count strips exactly the guards.
    Bounded.resize(Instance.Assertions.size());
  }
  SolveResult Result = Backend.solve(Manager, Bounded, solveOptions(Options));
  if (Result.Status != SolveStatus::Sat)
    return std::nullopt;
  Model Unbounded;
  if (!convertModelBack(Manager, Transform, Result.TheModel, Unbounded))
    return makeViolation("int-translation-exactness",
                         "bounded model has no unbounded preimage", Instance);
  std::optional<bool> Holds =
      evaluateConjunction(Manager, Instance.Assertions, Unbounded);
  if (!Holds.value_or(false))
    return makeViolation("int-translation-exactness",
                         "bounded model converts back but fails the original "
                         "(guarded translation must be exact without div)",
                         Instance);
  return std::nullopt;
}

/// translation-lint: staub-lint statically accepts every translation the
/// pipeline produces — no solving involved. Lint re-proves the
/// guarded-or-proven invariant with the same interval engine guard
/// elision uses, so clean output always passes, and output mutated by
/// BugInjection::DropOverflowGuards is flagged purely statically. FP
/// translations are linted for well-sortedness only (rounding cannot be
/// guarded, so there is no guard contract to enforce).
std::optional<Violation> checkTranslationLint(TermManager &Manager,
                                              const FuzzInstance &Instance,
                                              SolverBackend &,
                                              const OracleOptions &Options) {
  analysis::LintOptions LOpts;
  TransformResult Transform;
  if (Options.Theory == FuzzTheory::Int) {
    IntBounds Bounds = inferIntBounds(Manager, Instance.Assertions);
    unsigned Width =
        std::clamp(Bounds.VariableAssumption, 1u, config::DefaultWidthCap);
    Transform = transformIntToBv(Manager, Instance.Assertions, Width);
  } else {
    FpFormat Format = FpFormat::float16();
    if (Options.Theory == FuzzTheory::Real) {
      RealBounds Bounds = inferRealBounds(Manager, Instance.Assertions);
      Format = chooseFpFormat(Bounds.RootMagnitude, Bounds.RootPrecision);
    }
    Transform = transformRealToFp(Manager, Instance.Assertions, Format);
    LOpts.RequireGuards = false;
  }
  if (!Transform.Ok)
    return std::nullopt;
  std::vector<Term> Bounded = Transform.Assertions;
  if (Options.Inject == BugInjection::DropOverflowGuards &&
      Options.Theory == FuzzTheory::Int)
    Bounded.resize(Instance.Assertions.size());
  analysis::LintReport Report = analysis::lintTranslation(
      Manager, Instance.Assertions, Bounded, Transform.VariableMap, LOpts);
  if (Report.clean())
    return std::nullopt;
  return makeViolation("translation-lint",
                       "static lint rejects the translation:\n" +
                           Report.toString(),
                       Instance);
}

/// bound-monotonicity: doubling every constant must never shrink an
/// inferred width — the abstract transfer functions (Fig. 5) are monotone
/// in constant magnitude.
std::optional<Violation> checkBoundMonotonicity(TermManager &Manager,
                                                const FuzzInstance &Instance,
                                                SolverBackend &,
                                                const OracleOptions &Options) {
  TermRewriter Doubler(
      Manager, [](TermManager &M, Term T, const std::vector<Term> &) {
        if (M.kind(T) == Kind::ConstInt)
          return M.mkIntConst(M.intValue(T) * BigInt(2));
        if (M.kind(T) == Kind::ConstReal)
          return M.mkRealConst(M.realValue(T) * Rational(2));
        return Term();
      });
  std::vector<Term> Scaled = Doubler.rewriteAll(Instance.Assertions);
  if (Options.Theory == FuzzTheory::Int) {
    IntBounds Base = inferIntBounds(Manager, Instance.Assertions);
    IntBounds Wide = inferIntBounds(Manager, Scaled);
    if (Wide.VariableAssumption < Base.VariableAssumption ||
        Wide.RootWidth < Base.RootWidth)
      return makeViolation(
          "bound-monotonicity",
          "doubling constants shrank an inferred width (" +
              std::to_string(Base.VariableAssumption) + "/" +
              std::to_string(Base.RootWidth) + " -> " +
              std::to_string(Wide.VariableAssumption) + "/" +
              std::to_string(Wide.RootWidth) + ")",
          Instance);
    return std::nullopt;
  }
  RealBounds Base = inferRealBounds(Manager, Instance.Assertions);
  RealBounds Wide = inferRealBounds(Manager, Scaled);
  // Only the magnitude component must grow with constant magnitude; the
  // precision of c and 2c is the same (the denominator is untouched).
  if (Wide.MagnitudeAssumption < Base.MagnitudeAssumption ||
      Wide.RootMagnitude < Base.RootMagnitude)
    return makeViolation(
        "bound-monotonicity",
        "doubling constants shrank an inferred magnitude (" +
            std::to_string(Base.RootMagnitude) + " -> " +
            std::to_string(Wide.RootMagnitude) + ")",
        Instance);
  return std::nullopt;
}

/// width-reduction-stability: the Sec. 6.4 narrow-solve-verify lane never
/// changes the verdict of the wide BV constraint it is applied to. The
/// wide constraint here is the Int instance's own guarded translation.
std::optional<Violation>
checkWidthReductionStability(TermManager &Manager, const FuzzInstance &Instance,
                             SolverBackend &Backend,
                             const OracleOptions &Options) {
  if (Options.Theory != FuzzTheory::Int)
    return std::nullopt;
  IntBounds Bounds = inferIntBounds(Manager, Instance.Assertions);
  unsigned Width =
      std::clamp(Bounds.VariableAssumption, 1u, config::DefaultWidthCap);
  TransformResult Transform =
      transformIntToBv(Manager, Instance.Assertions, Width);
  if (!Transform.Ok)
    return std::nullopt;
  SolveResult Narrow = runWidthReduction(Manager, Transform.Assertions,
                                         Backend, solveOptions(Options));
  if (Narrow.Status != SolveStatus::Sat)
    return std::nullopt; // The lane only ever answers Sat or Unknown.
  std::optional<bool> Holds =
      evaluateConjunction(Manager, Transform.Assertions, Narrow.TheModel);
  if (!Holds.value_or(false))
    return makeViolation(
        "width-reduction-stability",
        "width-reduced model fails the wide constraint it came from",
        Instance);
  SolveResult Direct =
      Backend.solve(Manager, Transform.Assertions, solveOptions(Options));
  if (Direct.Status == SolveStatus::Unsat)
    return makeViolation(
        "width-reduction-stability",
        "width reduction answered sat on a directly-unsat constraint",
        Instance);
  return std::nullopt;
}

/// portfolio-agreement: measured and racing portfolios must agree with
/// each other when both decide, their sat models must re-verify, and
/// (when trusted) neither may contradict ground truth.
std::optional<Violation> checkPortfolioAgreement(TermManager &Manager,
                                                 const FuzzInstance &Instance,
                                                 SolverBackend &Backend,
                                                 const OracleOptions &Options) {
  StaubOptions SO = pipelineOptions(Options);
  PortfolioResult Measured = runPortfolio(Manager, Instance.Assertions,
                                          Backend, SO, LanePolicy::Measured);
  if (Measured.Status == SolveStatus::Sat) {
    std::optional<bool> Holds =
        evaluateConjunction(Manager, Instance.Assertions, Measured.TheModel);
    if (!Holds.value_or(false))
      return makeViolation("portfolio-agreement",
                           "measured portfolio sat model fails re-evaluation",
                           Instance);
  }
  if (Options.TrustExpected && Instance.Expected &&
      decisive(Measured.Status) && Measured.Status != *Instance.Expected)
    return makeViolation("portfolio-agreement",
                         std::string("measured portfolio answered ") +
                             std::string(toString(Measured.Status)) +
                             " against ground truth " +
                             std::string(toString(*Instance.Expected)),
                         Instance);
  if (!Options.CheckPortfolio)
    return std::nullopt;
  PortfolioResult Racing = runPortfolio(Manager, Instance.Assertions,
                                        Backend, SO, LanePolicy::Racing);
  if (Racing.Status == SolveStatus::Sat) {
    std::optional<bool> Holds =
        evaluateConjunction(Manager, Instance.Assertions, Racing.TheModel);
    if (!Holds.value_or(false))
      return makeViolation("portfolio-agreement",
                           "racing portfolio sat model fails re-evaluation",
                           Instance);
  }
  if (decisive(Measured.Status) && decisive(Racing.Status) &&
      Measured.Status != Racing.Status)
    return makeViolation("portfolio-agreement",
                         std::string("racing answered ") +
                             std::string(toString(Racing.Status)) +
                             " but measured answered " +
                             std::string(toString(Measured.Status)),
                         Instance);
  return std::nullopt;
}

/// reference-agreement: MiniSMT vs. the reference backend (Z3) on the
/// original constraint. Two decisive answers disagreeing is
/// self-validating evidence — at most one solver can be right.
std::optional<Violation> checkReferenceAgreement(TermManager &Manager,
                                                  const FuzzInstance &Instance,
                                                  SolverBackend &Backend,
                                                  const OracleOptions &Options) {
  if (!Options.Reference)
    return std::nullopt;
  SolveResult Mine =
      Backend.solve(Manager, Instance.Assertions, solveOptions(Options));
  SolveResult Ref = Options.Reference->solve(Manager, Instance.Assertions,
                                             solveOptions(Options));
  if (decisive(Mine.Status) && decisive(Ref.Status) &&
      Mine.Status != Ref.Status)
    return makeViolation("reference-agreement",
                         std::string(Backend.name()) + " answered " +
                             std::string(toString(Mine.Status)) + " but " +
                             std::string(Options.Reference->name()) +
                             " answered " +
                             std::string(toString(Ref.Status)),
                         Instance);
  if (Options.TrustExpected && Instance.Expected && decisive(Ref.Status) &&
      Ref.Status != *Instance.Expected)
    return makeViolation("reference-agreement",
                         "reference solver contradicts planted ground truth",
                         Instance);
  return std::nullopt;
}

/// presolve-equisat: the interval-contraction presolver must preserve
/// satisfiability. Static verdicts are checked against self-validating
/// evidence (an evaluator-checked witness, or a re-validating model on the
/// other side); with no verdict, the presolved set must agree with the
/// original under a direct solve, and a presolved-side model completed
/// with the suggested values must transport back to the original.
/// BugInjection::BadContract deliberately narrows away boundary solutions,
/// which this oracle must catch.
std::optional<Violation> checkPresolveEquisat(TermManager &Manager,
                                              const FuzzInstance &Instance,
                                              SolverBackend &Backend,
                                              const OracleOptions &Options) {
  analysis::PresolveOptions POpts;
  POpts.InjectBadContract = Options.Inject == BugInjection::BadContract;
  analysis::PresolveResult Pre =
      analysis::presolve(Manager, Instance.Assertions, POpts);

  switch (Pre.Stats.Verdict) {
  case analysis::PresolveVerdict::TriviallySat: {
    // Self-validating: the synthesized witness must satisfy the ORIGINAL.
    std::optional<bool> Holds =
        evaluateConjunction(Manager, Instance.Assertions, Pre.Witness);
    if (!Holds.value_or(false))
      return makeViolation("presolve-equisat",
                           "trivially-sat witness fails the original",
                           Instance);
    if (Options.TrustExpected && Instance.Expected == SolveStatus::Unsat)
      return makeViolation("presolve-equisat",
                           "presolver claimed sat on a planted-unsat instance",
                           Instance);
    return std::nullopt;
  }
  case analysis::PresolveVerdict::TriviallyUnsat: {
    // Claimed only against self-validating counter-evidence: a planted
    // witness re-validating here, or a direct solve finding a model that
    // re-validates.
    if (Instance.Planted) {
      std::optional<bool> OnOriginal = evaluateConjunction(
          Manager, Instance.Assertions, *Instance.Planted);
      if (OnOriginal.value_or(false))
        return makeViolation(
            "presolve-equisat",
            "presolver claimed unsat but the planted witness validates",
            Instance);
    }
    if (stopRequested(Options.Cancel))
      return std::nullopt;
    SolveResult Direct =
        Backend.solve(Manager, Instance.Assertions, solveOptions(Options));
    if (Direct.Status == SolveStatus::Sat) {
      std::optional<bool> Holds = evaluateConjunction(
          Manager, Instance.Assertions, Direct.TheModel);
      if (Holds.value_or(false))
        return makeViolation(
            "presolve-equisat",
            "presolver claimed unsat but a validated solver model exists",
            Instance);
    }
    return std::nullopt;
  }
  case analysis::PresolveVerdict::None:
    break;
  }

  if (stopRequested(Options.Cancel))
    return std::nullopt;

  // No static verdict: solve both sets; two decisive answers disagreeing
  // breaks equisatisfiability.
  SolveResult OrigResult =
      Backend.solve(Manager, Instance.Assertions, solveOptions(Options));
  SolveResult PreResult =
      Backend.solve(Manager, Pre.Assertions, solveOptions(Options));
  if (decisive(OrigResult.Status) && decisive(PreResult.Status) &&
      OrigResult.Status != PreResult.Status)
    return makeViolation("presolve-equisat",
                         std::string("presolved set answered ") +
                             std::string(toString(PreResult.Status)) +
                             " but the original answered " +
                             std::string(toString(OrigResult.Status)),
                         Instance);
  // Model transport: a model of the presolved set, completed with the
  // suggested values for variables dropped with their assertions, must
  // satisfy the original. Guarded on the model actually satisfying the
  // presolved set so a solver-side model bug is not misattributed.
  if (PreResult.Status == SolveStatus::Sat) {
    std::optional<bool> OnPre =
        evaluateConjunction(Manager, Pre.Assertions, PreResult.TheModel);
    if (OnPre.value_or(false)) {
      Model Completed = PreResult.TheModel;
      analysis::completeModel(Manager, Instance.Assertions, Pre, Completed);
      std::optional<bool> OnOriginal =
          evaluateConjunction(Manager, Instance.Assertions, Completed);
      if (!OnOriginal.value_or(false))
        return makeViolation(
            "presolve-equisat",
            "presolved-set model does not transport to the original",
            Instance);
    }
  }
  return std::nullopt;
}

/// escalation-equivalence: the incremental width-escalation ladder must be
/// a pure performance feature on the Int lane. Three obligations: an
/// EscalatedSat model must survive independent exact re-evaluation; when
/// the escalating and --no-escalate pipelines are both decisive they must
/// agree on satisfiability; and the ladder's base-core classification must
/// match a clean pipeline's claim. The last check is what catches
/// BugInjection::BadCore — the lie flips BaseCoreHasGuards on guard-free
/// refutations while verification keeps every verdict sound, so no
/// verdict-level comparison can see it.
std::optional<Violation>
checkEscalationEquivalence(TermManager &Manager, const FuzzInstance &Instance,
                           SolverBackend &Backend,
                           const OracleOptions &Options) {
  if (Options.Theory != FuzzTheory::Int)
    return std::nullopt; // The ladder only runs on the Int->BV lane.
  if (stopRequested(Options.Cancel))
    return std::nullopt;

  StaubOptions Escalating = pipelineOptions(Options);
  Escalating.InjectBadCore = Options.Inject == BugInjection::BadCore;
  StaubOutcome Ladder =
      runStaub(Manager, Instance.Assertions, Backend, Escalating);

  if (Ladder.Path == StaubPath::EscalatedSat) {
    std::optional<bool> Holds = evaluateConjunction(
        Manager, Instance.Assertions, Ladder.VerifiedModel);
    if (!Holds.value_or(false))
      return makeViolation(
          "escalation-equivalence",
          "escalated-sat model fails independent re-evaluation", Instance);
    if (Options.TrustExpected && Instance.Expected == SolveStatus::Unsat)
      return makeViolation(
          "escalation-equivalence",
          "ladder verified sat on a planted-unsat instance", Instance);
  }

  if (stopRequested(Options.Cancel))
    return std::nullopt;

  StaubOptions Paper = pipelineOptions(Options);
  Paper.Escalate = false;
  StaubOutcome Base = runStaub(Manager, Instance.Assertions, Backend, Paper);

  // The ladder may upgrade a revert into EscalatedSat, but two decisive
  // answers must agree on satisfiability.
  if (isDecisive(Ladder.Path) && isDecisive(Base.Path)) {
    bool LadderSat = Ladder.Path != StaubPath::PresolvedUnsat;
    bool BaseSat = Base.Path != StaubPath::PresolvedUnsat;
    if (LadderSat != BaseSat)
      return makeViolation(
          "escalation-equivalence",
          "escalating and --no-escalate pipelines disagree", Instance);
  }

  // Cross-check the core classification against a clean pipeline. The
  // pipeline is deterministic, so when both runs actually inspected a base
  // core (claim != -1) the claims must match; a timeout on either side
  // leaves its claim unset and the check vacuous, never a false alarm.
  if (Escalating.InjectBadCore) {
    if (stopRequested(Options.Cancel))
      return std::nullopt;
    StaubOutcome Honest =
        runStaub(Manager, Instance.Assertions, Backend, pipelineOptions(Options));
    if (Ladder.BaseCoreHasGuards != -1 && Honest.BaseCoreHasGuards != -1 &&
        Ladder.BaseCoreHasGuards != Honest.BaseCoreHasGuards)
      return makeViolation(
          "escalation-equivalence",
          "base-core guard claim does not match a clean run", Instance);
  }
  return std::nullopt;
}

/// relational-soundness: the zone/octagon layer (analysis/Zone.h) must be
/// a conservative abstraction of the instance. Three claims:
///
///  1. close() leaves a triangle-consistent matrix: for all I,J,K,
///     D(I,J) <= D(I,K) + D(K,J). Everything downstream (projections,
///     potentials, negative-cycle certificates, pairwise bounds) assumes
///     the matrix is shortest-path closed, and this self-check is the
///     only oracle that can see *under*-closure — dropped relaxations
///     only ever make verdicts more conservative, never wrong, which is
///     exactly why --inject=bad-closure must be caught here.
///  2. The closure never excludes a real model: when the planted witness
///     re-validates on the original right here, every registered
///     variable's closure projection contains its value, and the zone
///     cannot have reported a negative cycle at all.
///  3. The relational pipeline is a pure strengthening: runStaub with and
///     without Relational may differ in route and speed but never
///     disagree decisively on satisfiability.
std::optional<Violation>
checkRelationalSoundness(TermManager &Manager, const FuzzInstance &Instance,
                         SolverBackend &Backend,
                         const OracleOptions &Options) {
  analysis::Zone Z;
  for (unsigned I = 0; I < Instance.Assertions.size(); ++I)
    analysis::harvestZoneFacts(Manager, Instance.Assertions[I], I, Z);

  bool Consistent =
      Z.close(Options.Inject == BugInjection::BadClosure);
  if (Consistent && !Z.triangleConsistent())
    return makeViolation("relational-soundness",
                         "zone closure left a triangle-inconsistent matrix",
                         Instance);

  // Model containment. Only claimed when the witness re-validates on the
  // original right here, so the check never inherits a stale label.
  if (Instance.Planted) {
    std::optional<bool> OnOriginal = evaluateConjunction(
        Manager, Instance.Assertions, *Instance.Planted);
    if (OnOriginal.value_or(false)) {
      if (!Consistent)
        return makeViolation(
            "relational-soundness",
            "zone closure reported a negative cycle on a satisfiable system",
            Instance);
      for (uint32_t VarId : Z.variables()) {
        const Value *V = Instance.Planted->get(Term(VarId));
        if (!V || (!V->isInt() && !V->isReal()))
          continue;
        Rational ModelValue = V->isInt() ? Rational(V->asInt()) : V->asReal();
        if (!Z.varInterval(VarId).contains(ModelValue))
          return makeViolation(
              "relational-soundness",
              "zone projection excludes a re-validated planted model value",
              Instance);
      }
    }
  }

  if (stopRequested(Options.Cancel))
    return std::nullopt;

  // Pipeline agreement: relational on vs. off. Only worth two solver
  // runs when the relational passes can actually fire: the presolver's
  // zone pass needs a var-var difference edge, and elision's octagon
  // needs a binary or op-sourced fact (mirroring the gates in
  // Presolve.cpp and Transform.cpp). Without either, the two
  // configurations are the same code path and the comparison is vacuous.
  if (!Z.hasBinaryConstraints()) {
    std::vector<analysis::RelFact> Facts =
        analysis::harvestRelationalFacts(Manager, Instance.Assertions);
    if (std::none_of(Facts.begin(), Facts.end(),
                     [](const analysis::RelFact &F) {
                       return F.SY != 0 || F.HasSource;
                     }))
      return std::nullopt;
  }
  StaubOutcome Rel = runStaub(Manager, Instance.Assertions, Backend,
                              pipelineOptions(Options));
  if (stopRequested(Options.Cancel))
    return std::nullopt;
  StaubOptions Plain = pipelineOptions(Options);
  Plain.Relational = false;
  StaubOutcome NoRel = runStaub(Manager, Instance.Assertions, Backend, Plain);
  if (isDecisive(Rel.Path) && isDecisive(NoRel.Path)) {
    bool RelSat = Rel.Path != StaubPath::PresolvedUnsat;
    bool NoRelSat = NoRel.Path != StaubPath::PresolvedUnsat;
    if (RelSat != NoRelSat)
      return makeViolation(
          "relational-soundness",
          "relational and --no-relational pipelines disagree", Instance);
  }
  return std::nullopt;
}

using OracleFn = std::optional<Violation> (*)(TermManager &,
                                              const FuzzInstance &,
                                              SolverBackend &,
                                              const OracleOptions &);

struct NamedOracle {
  std::string_view Name;
  OracleFn Fn;
};

constexpr NamedOracle StageOracles[] = {
    {"planted-truth", checkPlantedTruth},
    {"pipeline-soundness", checkPipelineSoundness},
    {"int-translation-exactness", checkIntTranslationExactness},
    {"translation-lint", checkTranslationLint},
    {"bound-monotonicity", checkBoundMonotonicity},
    {"width-reduction-stability", checkWidthReductionStability},
    {"portfolio-agreement", checkPortfolioAgreement},
    {"reference-agreement", checkReferenceAgreement},
    {"presolve-equisat", checkPresolveEquisat},
    {"escalation-equivalence", checkEscalationEquivalence},
    {"relational-soundness", checkRelationalSoundness},
};

} // namespace

std::vector<std::string_view> staub::stageOracleNames() {
  std::vector<std::string_view> Names;
  for (const NamedOracle &Oracle : StageOracles)
    Names.push_back(Oracle.Name);
  return Names;
}

std::optional<Violation> staub::runOracleByName(std::string_view Property,
                                                TermManager &Manager,
                                                const FuzzInstance &Instance,
                                                SolverBackend &Backend,
                                                const OracleOptions &Options) {
  for (const NamedOracle &Oracle : StageOracles)
    if (Oracle.Name == Property)
      return Oracle.Fn(Manager, Instance, Backend, Options);
  return std::nullopt;
}

std::optional<Violation> staub::runStageOracles(TermManager &Manager,
                                                const FuzzInstance &Instance,
                                                SolverBackend &Backend,
                                                const OracleOptions &Options) {
  for (const NamedOracle &Oracle : StageOracles) {
    if (stopRequested(Options.Cancel))
      return std::nullopt;
    if (std::optional<Violation> V =
            Oracle.Fn(Manager, Instance, Backend, Options))
      return V;
  }
  return std::nullopt;
}

std::optional<Violation> staub::checkMetamorphic(TermManager &Manager,
                                                 const FuzzInstance &Original,
                                                 const Mutation &Mut,
                                                 SolverBackend &Backend,
                                                 const OracleOptions &Options) {
  if (!Mut.Applied)
    return std::nullopt;
  Violation Template{"", "", Mut.Assertions};

  // Witness transport: a planted witness that satisfies the original must
  // still satisfy the mutant (through the variable renaming). Only claimed
  // when the witness re-validates on the original right here, so the check
  // never inherits a stale label.
  if (Original.Planted) {
    std::optional<bool> OnOriginal = evaluateConjunction(
        Manager, Original.Assertions, *Original.Planted);
    if (OnOriginal.value_or(false)) {
      Model Transported = remapModel(*Original.Planted, Mut);
      std::optional<bool> OnMutant =
          evaluateConjunction(Manager, Mut.Assertions, Transported);
      if (!OnMutant.value_or(false)) {
        Template.Property = "metamorphic-planted-lost";
        Template.Detail = std::string(toString(Mut.Kind)) + " (" + Mut.Note +
                          ") lost the planted witness";
        return Template;
      }
    }
  }

  if (stopRequested(Options.Cancel))
    return std::nullopt;

  // Verdict stability: every catalog mutation preserves satisfiability,
  // so two decisive answers must agree.
  SolveResult OrigResult =
      Backend.solve(Manager, Original.Assertions, solveOptions(Options));
  SolveResult MutResult =
      Backend.solve(Manager, Mut.Assertions, solveOptions(Options));
  if (decisive(OrigResult.Status) && decisive(MutResult.Status) &&
      OrigResult.Status != MutResult.Status) {
    Template.Property = "metamorphic-verdict-flip";
    Template.Detail = std::string(toString(Mut.Kind)) + " (" + Mut.Note +
                      ") flipped the verdict from " +
                      std::string(toString(OrigResult.Status)) + " to " +
                      std::string(toString(MutResult.Status));
    return Template;
  }
  if (Options.TrustExpected && Original.Expected &&
      decisive(MutResult.Status) && MutResult.Status != *Original.Expected) {
    Template.Property = "metamorphic-verdict-flip";
    Template.Detail = std::string(toString(Mut.Kind)) + " (" + Mut.Note +
                      "): mutant verdict " +
                      std::string(toString(MutResult.Status)) +
                      " contradicts ground truth " +
                      std::string(toString(*Original.Expected));
    return Template;
  }

  // Model transport: for model-preserving mutations, a model the solver
  // found for the original must satisfy the mutant after renaming. Guard
  // on the model actually satisfying the original (definedness included)
  // so a solver-side model bug is not misattributed to the mutation.
  if (Mut.ModelPreserving && OrigResult.Status == SolveStatus::Sat) {
    std::optional<bool> OnOriginal = evaluateConjunction(
        Manager, Original.Assertions, OrigResult.TheModel);
    if (OnOriginal.value_or(false)) {
      Model Transported = remapModel(OrigResult.TheModel, Mut);
      std::optional<bool> OnMutant =
          evaluateConjunction(Manager, Mut.Assertions, Transported);
      if (!OnMutant.value_or(false)) {
        Template.Property = "metamorphic-model-lost";
        Template.Detail = std::string(toString(Mut.Kind)) + " (" + Mut.Note +
                          ") lost a solver model of the original";
        return Template;
      }
    }
  }
  return std::nullopt;
}
