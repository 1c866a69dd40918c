//===- benchgen/Generators.h - Synthetic benchmark families -----*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generators standing in for the SMT-LIB benchmark sets the paper
/// evaluates on (QF_NIA, QF_LIA, QF_NRA, QF_LRA; Sec. 5.1 Benchmarks).
/// There is no network access in this environment, so each family mimics
/// a named SMT-LIB family's structure:
///
///   * QF_NIA: sum-of-cubes Diophantine problems in the style of
///     `QF_NIA/20220315-MathProblems` (the paper's Fig. 1 is STC_0855),
///     planted polynomial equations, and small factoring instances.
///   * QF_LIA: random linear systems with planted integer solutions or
///     planted Farkas infeasibility certificates (scheduling-style).
///   * QF_LRA: the same shapes over rationals.
///   * QF_NRA: conic/quadric intersections with planted rational points
///     and trivially-infeasible variants.
///
/// Every instance is deterministic in its seed, and carries the planted
/// ground truth where one exists so the harness can cross-check results.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_BENCHGEN_GENERATORS_H
#define STAUB_BENCHGEN_GENERATORS_H

#include "smtlib/Term.h"
#include "solver/Solver.h"

#include <optional>
#include <string>
#include <vector>

namespace staub {

/// One generated constraint with provenance.
struct GeneratedConstraint {
  std::string Name;
  std::string Family;
  std::vector<Term> Assertions;
  /// Ground truth when the generator planted it; nullopt for genuinely
  /// open instances.
  std::optional<SolveStatus> Expected;
  /// The planted satisfying assignment for planted-sat instances (keyed by
  /// this constraint's variables in the generating manager). Metamorphic
  /// mutators use it to build model-preserving rewrites and to check that
  /// a mutation did not lose the planted witness.
  std::optional<Model> Planted;
};

/// The four logics of the evaluation.
enum class BenchLogic { QF_NIA, QF_LIA, QF_NRA, QF_LRA };

/// Returns "QF_NIA" etc.
std::string_view toString(BenchLogic Logic);

/// Generation knobs.
struct BenchConfig {
  uint64_t Seed = 42;
  unsigned Count = 60;       ///< Instances per suite.
  unsigned SatPercent = 60;  ///< Fraction of planted-sat instances.
  unsigned MaxConstantBits = 10; ///< Controls inferred widths.
};

/// Generates a suite for \p Logic into \p Manager.
std::vector<GeneratedConstraint> generateSuite(TermManager &Manager,
                                               BenchLogic Logic,
                                               const BenchConfig &Config);

/// The presolver's dedicated suite (bench_presolve, docs/ANALYSIS.md): a
/// seeded Int mix where about two thirds of the instances are statically
/// decidable by interval contraction alone — contradicting boxes,
/// equality chains that pin a contradiction or a witness, and boxes with
/// slack rows satisfied at the suggested point — and the rest are
/// factoring instances no static analysis can decide. Ground truth is
/// planted throughout so the harness's soundness cross-checks stay armed.
std::vector<GeneratedConstraint>
generateStaticSuite(TermManager &Manager, const BenchConfig &Config);

/// The escalation ladder's dedicated suite (bench_table2, escalation
/// section): an Int mix engineered so that a substantial fraction (well
/// over a quarter) of the instances are bounded-unsat at the inferred
/// width yet satisfiable a step or two up the ladder. Two-variable
/// product constraints (`x*y >= (x+y)*k` over a small box) keep every
/// constant tiny — so the inferred width stays around 5-6 bits — while
/// every true model needs an intermediate product far beyond that width,
/// forcing the overflow guards into the unsat core. The constraints are
/// deliberately false at the presolver's suggested corner point and
/// interval-overlapping, so neither static verdict fires. A third family
/// plants disjunction-masked linear contradictions whose bounded refutation
/// never touches a guard, exercising the guard-free-core revert path.
/// Ground truth is planted throughout.
std::vector<GeneratedConstraint>
generateEscalationSuite(TermManager &Manager, const BenchConfig &Config);

/// The relational domain's dedicated suite (bench_presolve, zone
/// section of docs/ANALYSIS.md): an Int mix built entirely from variable
/// correlations (`x - y <= c`, band constraints, difference chains) that
/// interval reasoning alone cannot exploit. Four families, cycled:
/// negative difference cycles (unsat by zone closure, undecidable by
/// boxes), consistent anchor-free cycles (sat at the closure's potential
/// point, no finite box exists), long anchored difference chains whose
/// backward propagation exceeds the HC4 round budget (relational closure
/// makes every range finite, dropping the inferred width below the
/// constant heuristic), and banded chains with no absolute bound, whose
/// guards the band facts imply but no variable range proves. Ground
/// truth is planted throughout; the harness cross-checks that
/// `--no-relational` agrees on every decisive verdict.
std::vector<GeneratedConstraint>
generateCorrelatedSuite(TermManager &Manager, const BenchConfig &Config);

/// A "near-duplicate VC stream" (perfbench `vcstream`, served by staubd):
/// \p Bases base formulas, each emitted as \p Variants queries that share
/// every conjunct except one. A base is an Int box plus an additive
/// anchor plus several two-variable product rows (blast-heavy at the
/// inferred width: the possible-overflow guards keep wide multipliers in
/// the CNF); each variant swaps in a different constant on the single
/// varying conjunct, the way a verifier's successive revisions of one
/// function do. All instances are planted sat and deliberately false at
/// interval corner points so the presolver cannot short-circuit the
/// solve.
std::vector<GeneratedConstraint>
generateVcStreamSuite(TermManager &Manager, const BenchConfig &Config,
                      unsigned Bases, unsigned Variants);

/// The paper's motivating example (Fig. 1a): sum of three cubes = 855.
GeneratedConstraint motivatingExample(TermManager &Manager);

/// A pair of "equivalent-operation" constraints used for the Sec. 5.1
/// claim that solving NIA takes 1.8x-5.5x longer than bitvectors with the
/// same operations: the same polynomial identity once over Int and once
/// over (_ BitVec Width).
struct TheoryGapPair {
  GeneratedConstraint IntVersion;
  GeneratedConstraint BvVersion;
};
TheoryGapPair theoryGapPair(TermManager &Manager, uint64_t Seed,
                            unsigned Width);

} // namespace staub

#endif // STAUB_BENCHGEN_GENERATORS_H
