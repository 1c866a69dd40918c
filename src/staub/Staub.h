//===- staub/Staub.h - The theory arbitrage pipeline ------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end STAUB pipeline (paper Fig. 3): sort selection, bound
/// inference via abstract interpretation, translation to the bounded
/// theory, solving, and verification of the bounded model against the
/// original constraint under exact unbounded semantics. The query driver,
/// runPortfolio, pairs STAUB with a plain solve of the original constraint
/// under a LanePolicy (Sec. 4.4 / 5.1).
///
/// The translation path is written once, here: selectSort, chooseTarget,
/// translate and verifyBoundedModel. runStaub and its escalation ladder
/// run it; the CLI's --emit-bounded/--lint, staub-lint, the translating
/// fuzz oracles and bench_rq2_slot run it without presolve
/// (translateAsParsed); the width-reduction lane checks its models with
/// verifyBoundedModel.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_STAUB_STAUB_H
#define STAUB_STAUB_STAUB_H

#include "analysis/Presolve.h"
#include "solver/Solver.h"
#include "staub/Config.h"
#include "staub/Transform.h"

#include <optional>

namespace staub {

/// Knobs for the STAUB pipeline.
struct StaubOptions {
  /// Override the inferred width with a fixed one (the paper's 8/16-bit
  /// ablation, Table 3 "Fixed 8-bit" / "Fixed 16-bit").
  std::optional<unsigned> FixedWidth;
  /// Cap on the inferred width.
  unsigned WidthCap = config::DefaultWidthCap;
  /// Statically discharge overflow guards proven impossible at the chosen
  /// width (analysis/Interval.h) and drop them before solving.
  bool ElideGuards = true;
  /// Use the relational (zone/octagon) domain throughout the pipeline:
  /// the presolver alternates HC4 with zone closure (deciding difference
  /// cycles statically) and guard elision additionally discharges guards
  /// provable from `x - y <= c`-shaped correlations. `staub
  /// --no-relational` clears this; verdicts must agree either way.
  bool Relational = true;
  /// Width policy. The default follows the paper's Fig. 1b: variables take
  /// the assumption width x (largest constant + 1) and the overflow guards
  /// keep intermediates honest. Setting this uses the abstract
  /// interpretation's root width [[S]] instead (sufficient for all
  /// intermediate values; wider and slower — the Sec. 6.2 ablation).
  bool UseRootWidth = false;
  /// Round FP formats up to standard IEEE widths (required for SLOT).
  bool StandardFpFormats = false;
  /// Run the interval-contraction presolver before bound inference
  /// (analysis/Presolve.h). Static verdicts skip the bounded solve
  /// entirely; otherwise contracted ranges tighten the inferred width.
  /// `staub --no-presolve` clears this.
  bool Presolve = true;
  /// On bounded-unsat with a guard-only unsat core, escalate the width
  /// (+EscalationStepBits per step, up to WidthCap) through an
  /// incremental session instead of reverting (needs a backend with
  /// supportsIncrementalBv; Int lane only). `staub --no-escalate` clears
  /// this and reproduces the paper's revert-on-unsat behaviour exactly.
  bool Escalate = true;
  /// Fuzzing fault injection: report a guard-free base core as
  /// guard-only, so the ladder climbs on refutations that do not involve
  /// the guards. Oracle 10 (escalation-equivalence) must catch this.
  bool InjectBadCore = false;
  /// Budget for the bounded-side solve.
  SolverOptions Solve;
};

/// Which sort correspondence (Sec. 4.1) a constraint set takes.
enum class InputSort {
  Int,     ///< Int (and Bool) only: Int -> BV.
  Real,    ///< Real (and Bool) only: Real -> FP.
  Bounded, ///< No Int or Real term: nothing to arbitrage.
  Mixed,   ///< Int with Real, or an unbounded sort with a bounded one.
};

/// Sort selection. Every subterm counts, so a variable-free Int
/// constraint is Int.
InputSort selectSort(const TermManager &Manager,
                     const std::vector<Term> &Assertions);

/// The bounded side of one translation: Width-bit bitvectors on the Int
/// lane, floating point of Format on the Real lane (the other is unset).
struct TranslationTarget {
  unsigned Width = 0;
  FpFormat Format{0, 0};

  unsigned totalBits() const { return Width ? Width : Format.totalBits(); }
};

/// Target choice for \p Assertions of sort \p Sort (Int or Real) under
/// Options' width policy: FixedWidth (on Real, the standard format of at
/// least that size); otherwise inferred bounds capped by WidthCap and
/// config::RealPrecisionCap, the root width under UseRootWidth, and
/// standard FP formats under StandardFpFormats. \p Ranges (presolve's
/// contracted variable ranges) may lower an inferred Int width.
TranslationTarget chooseTarget(
    const TermManager &Manager, const std::vector<Term> &Assertions,
    InputSort Sort, const StaubOptions &Options,
    const std::unordered_map<uint32_t, analysis::Interval> *Ranges = nullptr);

/// Translates \p Assertions to \p Target, eliding guards as Options'
/// ElideGuards and Relational say and polling Options.Solve.Cancel.
TransformResult translate(TermManager &Manager,
                          const std::vector<Term> &Assertions,
                          const TranslationTarget &Target,
                          const StaubOptions &Options);

/// The translation runStaub solves when presolve is off: selectSort,
/// chooseTarget and translate on \p Assertions as given. Fails (Ok =
/// false) unless the input is purely Int or purely Real.
TransformResult translateAsParsed(TermManager &Manager,
                                  const std::vector<Term> &Assertions,
                                  const StaubOptions &Options);

/// The model check (Sec. 4.4): phi^-1 of \p Bounded, completed with
/// presolve's suggested values when \p Presolved is the presolved set
/// that \p Transform translated, then exact evaluation of the original
/// \p Assertions. The verified model, or nullopt on a semantic
/// difference.
std::optional<Model>
verifyBoundedModel(TermManager &Manager, const std::vector<Term> &Assertions,
                   const TransformResult &Transform, const Model &Bounded,
                   const analysis::PresolveResult *Presolved = nullptr);

/// How a STAUB run ended (Fig. 6, extended with the presolver's static
/// verdicts).
enum class StaubPath {
  VerifiedSat,        ///< Bounded sat, model verifies: answer sat.
  EscalatedSat,       ///< Bounded unsat at the inferred width, but a wider
                      ///< escalation step found a model that verifies.
  PresolvedSat,       ///< Presolver witness verified: answer sat, no solve.
  PresolvedUnsat,     ///< Presolver derived a contradiction over the exact
                      ///< unbounded semantics: answer unsat, no solve.
  BoundedUnsat,       ///< Bounded unsat: revert (underapproximation).
  SemanticDifference, ///< Bounded sat but model fails verification: revert.
  BoundedUnknown,     ///< Bounded solver gave up: revert.
  TranslationFailed,  ///< Constraint outside the supported fragment.
};

/// Returns a short label for a path.
std::string_view toString(StaubPath Path);

/// True for paths that decide the ORIGINAL constraint: a verified sat
/// model or a presolve static verdict. Unlike BoundedUnsat (an
/// underapproximation artifact), PresolvedUnsat is decisive because the
/// contraction ran on unbounded semantics.
constexpr bool isDecisive(StaubPath Path) {
  return Path == StaubPath::VerifiedSat ||
         Path == StaubPath::EscalatedSat ||
         Path == StaubPath::PresolvedSat ||
         Path == StaubPath::PresolvedUnsat;
}

/// Outcome of the STAUB lane alone (without the portfolio's original-side
/// lane).
struct StaubOutcome {
  StaubPath Path = StaubPath::TranslationFailed;
  /// Verified model in the *original* theory (VerifiedSat and
  /// PresolvedSat).
  Model VerifiedModel;
  /// Presolver counters (zeroed when presolve is disabled).
  analysis::PresolveStats Presolve;
  /// PresolvedUnsat: the contradicting assertion chain.
  std::vector<analysis::CertificateStep> PresolveCertificate;
  /// Timing decomposition (Sec. 5.1): T_trans, T_post, T_check.
  double TransSeconds = 0.0;
  double SolveSeconds = 0.0;
  double CheckSeconds = 0.0;
  /// Chosen bounds.
  unsigned ChosenWidth = 0;
  FpFormat ChosenFormat{0, 0};
  /// Overflow guards kept vs. statically discharged (Int lane).
  unsigned GuardsEmitted = 0;
  unsigned GuardsElided = 0;
  /// Relational elision counters (Int lane): octagon facts harvested
  /// from the original assertions, and guards only the relational domain
  /// could discharge (a subset of GuardsElided).
  unsigned ZoneFactsHarvested = 0;
  unsigned RelationalGuardsElided = 0;
  /// Width-escalation ladder counters (zero when the ladder never ran).
  unsigned EscalationSteps = 0; ///< Widths tried beyond the inferred one.
  /// Always 0; perfbench names it.
  uint64_t ClausesReused = 0;
  /// CNF-memo hits while blasting the ladder's frames, summed over all
  /// escalation steps (each frame has its own memo; none survives the
  /// query).
  uint64_t SessionBlastCacheHits = 0;
  /// Always 0; perfbench names it.
  uint64_t CrossClausesReused = 0;
  /// What the base-width unsat core looked like: -1 when the ladder never
  /// inspected it, 0 guard-free (genuine bounded unsat), 1 guard-only or
  /// mixed (escalation-worthy). The escalation-equivalence fuzz oracle
  /// cross-checks this claim against a clean pipeline run to catch core
  /// misclassification (--inject=bad-core).
  int8_t BaseCoreHasGuards = -1;
  /// The translated constraint (for SLOT chaining and inspection).
  std::vector<Term> BoundedAssertions;

  double totalSeconds() const {
    return TransSeconds + SolveSeconds + CheckSeconds;
  }
};

/// Runs the STAUB lane: infer bounds, translate, solve bounded, verify.
/// \p Backend solves the bounded constraint. An optional \p Optimizer hook
/// (used to chain SLOT, RQ2) rewrites the bounded assertions before
/// solving.
StaubOutcome
runStaub(TermManager &Manager, const std::vector<Term> &Assertions,
         SolverBackend &Backend, const StaubOptions &Options,
         std::vector<Term> (*Optimizer)(TermManager &,
                                        const std::vector<Term> &) = nullptr);

/// How runPortfolio schedules its two lanes: the STAUB lane (runStaub)
/// and the original lane (a plain Backend.solve of the unbounded
/// constraint). The answer never depends on the policy, only the work
/// done and the time taken do: a decisive STAUB path answers, otherwise a
/// decided original lane, otherwise Unknown.
enum class LanePolicy {
  /// The STAUB lane, then the original lane only when STAUB's path is not
  /// decisive (the paper's revert, Sec. 4.4). The fallback gets a fresh
  /// Options.Solve.TimeoutSeconds. The CLI default and staubd.
  Sequential,
  /// Both lanes to completion on the calling thread, original lane first
  /// (Sec. 5.1's measured portfolio). Deterministic and load-independent:
  /// `staub --portfolio --jobs=1`, the fuzz portfolio-agreement oracle and
  /// the termination prover.
  Measured,
  /// Both lanes on two threads (the deployment configuration, `staub
  /// --portfolio`). The original lane solves a clone of the constraint in
  /// a private TermManager. The first decisive lane cancels the other
  /// through its CancellationToken, so the call returns as soon as the
  /// loser observes the token (typically well under 100ms) instead of
  /// waiting out the loser's timeout; the cancelled lane reports Unknown
  /// with its wall time at cancellation.
  Racing,
};

/// Combined portfolio answer for one constraint.
struct PortfolioResult {
  SolveStatus Status = SolveStatus::Unknown;
  /// Original-theory model when Status == Sat, moved out of the answering
  /// lane (so Staub.VerifiedModel is empty when the STAUB lane answered).
  Model TheModel;
  /// True when the STAUB lane supplied the answer: it does whenever its
  /// path is decisive, even if the original lane decided sooner, so the
  /// flag never depends on lane timing.
  bool StaubWon = false;
  double OriginalSeconds = 0.0; ///< T_pre; 0 when the lane never ran.
  double StaubSeconds = 0.0;    ///< T_trans + T_post + T_check.
  StaubOutcome Staub;
  /// The answering lane's finish time on the policy's clock: Sequential
  /// adds the fallback's time to the STAUB lane's; Measured takes the
  /// faster lane when both decide; Racing reads the wall clock. Without
  /// an answer, the time the last lane finished.
  double PortfolioSeconds = 0.0;
};

/// Runs both lanes on one constraint under \p Policy and answers by
/// precedence. \p Optimizer is passed to runStaub.
PortfolioResult
runPortfolio(TermManager &Manager, const std::vector<Term> &Assertions,
             SolverBackend &Backend, const StaubOptions &Options,
             LanePolicy Policy,
             std::vector<Term> (*Optimizer)(TermManager &,
                                            const std::vector<Term> &) =
                 nullptr);

} // namespace staub

#endif // STAUB_STAUB_STAUB_H
