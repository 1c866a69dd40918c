//===- fuzz/Oracles.h - Differential stage oracles --------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracles the fuzzer checks per input, one per pipeline
/// stage plus end-to-end properties:
///
///   planted-truth              the generator's witness actually satisfies
///   pipeline-soundness         VerifiedSat models re-verify exactly; the
///                              pipeline never contradicts ground truth
///   int-translation-exactness  Int->BV with guards is exact on the
///                              division-free fragment (paper Sec. 4.3):
///                              every bounded model converts back and
///                              satisfies the original
///   translation-lint           staub-lint (analysis/Lint.h) statically
///                              accepts the pipeline's own translation:
///                              guard discipline, well-sortedness and
///                              phi^-1 totality, with no solving at all
///   bound-monotonicity         inferred widths are monotone in constant
///                              magnitude (doubling every constant never
///                              shrinks a width)
///   width-reduction-stability  the narrow-solve-verify lane never
///                              contradicts a direct solve of the wide
///                              constraint
///   portfolio-agreement        measured and racing portfolios never
///                              disagree, and never contradict ground
///                              truth
///   reference-agreement        the MiniSMT backend never disagrees with a
///                              reference backend (Z3) on the original
///   presolve-equisat           the interval-contraction presolver's
///                              static verdicts are true of the original,
///                              and its presolved set is equisatisfiable
///                              with it (models transport through dropped
///                              assertions via the suggested values)
///   escalation-equivalence     the width-escalation ladder is a pure
///                              performance feature: it never contradicts
///                              the --no-escalate pipeline, EscalatedSat
///                              models re-verify exactly, and the ladder's
///                              base-core classification matches a clean
///                              run (catches --inject=bad-core)
///   relational-soundness       the zone closure over the instance's
///                              difference atoms is triangle-consistent
///                              after close(), its projections contain
///                              every re-validated planted model, a
///                              negative-cycle verdict never hits a
///                              satisfiable system, and the relational
///                              and --no-relational pipelines never
///                              disagree decisively (catches
///                              --inject=bad-closure)
///
/// Every oracle treats Unknown as vacuous, so time budgets shrink coverage
/// but never cause false alarms. The BugInjection hook deliberately breaks
/// a stage (dropping the overflow guards) so tests can prove the oracles
/// catch real soundness bugs.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_FUZZ_ORACLES_H
#define STAUB_FUZZ_ORACLES_H

#include "fuzz/Mutators.h"
#include "solver/Solver.h"

#include <optional>
#include <string>
#include <vector>

namespace staub {

/// Which unbounded theory the fuzzed instances live in. Fp fuzzes the same
/// Real constraints but forces the pipeline through a 16-bit float format,
/// maximizing rounding stress on the verification step.
enum class FuzzTheory : uint8_t { Int, Real, Fp };

/// Returns "int" / "real" / "fp".
std::string_view toString(FuzzTheory Theory);

/// Parses "int"/"real"/"fp"; nullopt otherwise.
std::optional<FuzzTheory> parseFuzzTheory(std::string_view Text);

/// Deliberate soundness bugs for oracle-sensitivity testing.
enum class BugInjection : uint8_t {
  None,
  /// Strip the overflow-guard assertions from the Int->BV translation
  /// inside int-translation-exactness. The paper's exactness theorem dies
  /// with the guards, so the oracle must fire.
  DropOverflowGuards,
  /// Make the presolver contract non-strict Int comparisons one off too
  /// tight (analysis::PresolveOptions::InjectBadContract). Boundary
  /// solutions vanish, so presolve-equisat must fire.
  BadContract,
  /// Make the escalation driver report a guard-free base unsat core as
  /// guard-only (StaubOptions::InjectBadCore), so the width ladder climbs
  /// on refutations the guards played no part in. Verification keeps the
  /// verdicts sound, so escalation-equivalence must catch the flipped
  /// BaseCoreHasGuards claim against a clean run.
  BadCore,
  /// Make the zone closure drop every relaxation through the last
  /// Floyd-Warshall pivot (analysis::PresolveOptions::InjectBadClosure).
  /// Under-closure never produces a wrong verdict, so only the
  /// relational-soundness oracle's triangle-consistency self-check can
  /// expose it.
  BadClosure,
};

/// One fuzz input: a constraint plus whatever ground truth the generator
/// planted.
struct FuzzInstance {
  std::string Name;
  std::vector<Term> Assertions;
  std::optional<SolveStatus> Expected;
  std::optional<Model> Planted;
};

/// A property violation. Assertions is the offending constraint (in the
/// caller's manager) — the reproducer the shrinker minimizes.
struct Violation {
  std::string Property;
  std::string Detail;
  std::vector<Term> Assertions;
};

/// Oracle knobs.
struct OracleOptions {
  FuzzTheory Theory = FuzzTheory::Int;
  /// Per-solve budget. Timeouts degrade to Unknown = vacuously passing.
  double SolveTimeoutSeconds = 1.0;
  /// Optional reference backend (Z3) for reference-agreement; skipped when
  /// null.
  SolverBackend *Reference = nullptr;
  /// Racing portfolio spawns a thread per check; gate it for cheap runs.
  bool CheckPortfolio = true;
  /// When false (shrinking mode), oracles only use self-validating
  /// evidence: model re-evaluation and two-decisive-answers-disagreeing.
  /// Inherited Expected labels are ignored, because a shrunk constraint
  /// need not keep the original's status.
  bool TrustExpected = true;
  BugInjection Inject = BugInjection::None;
  /// Global budget; oracles return "no violation" promptly once it fires.
  const CancellationToken *Cancel = nullptr;
};

/// Names accepted by runOracleByName, in the order runStageOracles checks
/// them.
std::vector<std::string_view> stageOracleNames();

/// Runs one named stage oracle. Unknown names return nullopt.
std::optional<Violation> runOracleByName(std::string_view Property,
                                         TermManager &Manager,
                                         const FuzzInstance &Instance,
                                         SolverBackend &Backend,
                                         const OracleOptions &Options);

/// Runs the full stage-oracle stack, returning the first violation.
std::optional<Violation> runStageOracles(TermManager &Manager,
                                         const FuzzInstance &Instance,
                                         SolverBackend &Backend,
                                         const OracleOptions &Options);

/// The metamorphic oracle: given an original and an applied mutation,
/// checks that the planted witness survives, the verdict is stable, and
/// (for model-preserving mutations) a found model transports across the
/// rewrite.
std::optional<Violation> checkMetamorphic(TermManager &Manager,
                                          const FuzzInstance &Original,
                                          const Mutation &Mut,
                                          SolverBackend &Backend,
                                          const OracleOptions &Options);

/// True when the constraint contains Int division or modulo — the
/// operators the paper's exactness argument excludes (Euclidean vs.
/// truncated semantics differ).
bool usesIntDivision(const TermManager &Manager,
                     const std::vector<Term> &Assertions);

} // namespace staub

#endif // STAUB_FUZZ_ORACLES_H
