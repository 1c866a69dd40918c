//===- analysis/Presolve.h - Interval-contraction presolver -----*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixpoint contraction pass over an unbounded (Int/Real/Bool)
/// assertion set, run by the pipeline before bound inference. It
/// alternates forward interval evaluation with HC4-revise-style backward
/// narrowing (analysis/Contract.h) and Boolean-structure simplification
/// (unit propagation over top-level `and`, constant folding, pure-literal
/// dropping), up to `config::PresolveMaxRounds` rounds. Everything runs
/// on the *exact unbounded semantics* — no width clamps — so its
/// conclusions are decisive, unlike the bounded pipeline's:
///
///  * `TriviallyUnsat`: an empty interval (or false conjunct) was
///    derived, so the original constraint has no model. The contradicting
///    assertion chain is reported as a certificate.
///  * `TriviallySat`: a witness synthesized from the contracted ranges
///    satisfies the ORIGINAL conjunction per theory/Evaluator. The
///    evaluator check is the verdict's gate; the heuristics only propose.
///  * Otherwise the result carries an *equisatisfiable* presolved set:
///    surviving conjuncts plus materialized range assertions for every
///    contracted variable (so bound inference and guard elision see the
///    tightened facts), plus suggested values for model transport through
///    dropped assertions.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_PRESOLVE_H
#define STAUB_ANALYSIS_PRESOLVE_H

#include "analysis/Interval.h"
#include "smtlib/Term.h"
#include "staub/Config.h"
#include "theory/Evaluator.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace staub::analysis {

enum class PresolveVerdict : uint8_t {
  None,           ///< No static decision; the presolved set is usable.
  TriviallyUnsat, ///< Empty interval derived: original is unsat.
  TriviallySat,   ///< Evaluator-checked witness found: original is sat.
};

std::string_view toString(PresolveVerdict V);

/// Counters threaded through StaubOutcome, the harness and the benches.
struct PresolveStats {
  PresolveVerdict Verdict = PresolveVerdict::None;
  /// Top-level conjuncts folded to true and dropped.
  unsigned AssertionsDropped = 0;
  /// Variables whose contracted interval is strictly below top.
  unsigned VarsContracted = 0;
  /// Int-width bits the contracted ranges saved vs. the constant-width
  /// heuristic (filled by the pipeline, not by presolve()).
  unsigned WidthBitsSaved = 0;
  /// Contraction rounds actually run (<= config::PresolveMaxRounds).
  unsigned Rounds = 0;
};

struct PresolveOptions {
  /// Alternate the HC4 interval loop with relational (zone/DBM) closure
  /// passes: difference bounds harvested from the surviving conjuncts are
  /// closed under Floyd-Warshall, negative cycles conclude TriviallyUnsat
  /// (with the cycle's assertions as the certificate), and the closure's
  /// per-variable projections re-seed interval contraction. Closure also
  /// yields a feasible "potential" point per variable that pickValue()
  /// prefers for unbounded ranges, letting TriviallySat fire on
  /// anchor-free difference systems.
  bool Relational = true;
  /// Fuzzer bug injection (--inject=bad-contract): contracts non-strict
  /// Int comparisons one off too tight, an unsound narrowing the
  /// presolve-equisat oracle must catch.
  bool InjectBadContract = false;
  /// Fuzzer bug injection (--inject=bad-closure): drops every relaxation
  /// through the last Floyd-Warshall pivot. Under-closure is sound for
  /// the presolver's verdicts, so only the relational-soundness oracle's
  /// triangle-consistency self-check exposes it.
  bool InjectBadClosure = false;
};

/// One step of a TriviallyUnsat certificate: an original assertion that
/// participated in deriving the contradiction.
struct CertificateStep {
  unsigned AssertionIndex; ///< Index into the original assertion vector.
  Term Assertion;          ///< The original root assertion.
};

struct PresolveResult {
  PresolveStats Stats;
  /// Verdict None: the equisatisfiable presolved set (surviving
  /// conjuncts + materialized ranges + pinned Bool units). Empty for
  /// static verdicts.
  std::vector<Term> Assertions;
  /// Variable id -> contracted interval (non-top entries only).
  std::unordered_map<uint32_t, Interval> VarRanges;
  /// TriviallyUnsat: the contradicting assertion chain, in assertion
  /// order.
  std::vector<CertificateStep> Certificate;
  /// TriviallySat: the evaluator-checked witness.
  Model Witness;
  /// Best-effort value for every variable of the input (point in the
  /// contracted interval; pinned or false for Bools). Used to complete
  /// partial models whose variables were dropped with their assertions.
  Model Suggested;
};

/// Runs the contraction pass. May create terms in \p Manager (the
/// materialized range assertions).
PresolveResult presolve(TermManager &Manager,
                        const std::vector<Term> &Assertions,
                        const PresolveOptions &Options = {});

/// Binds every variable of \p Assertions that \p M leaves unbound to its
/// presolve-suggested value (model transport through dropped
/// assertions).
void completeModel(const TermManager &Manager,
                   const std::vector<Term> &Assertions,
                   const PresolveResult &P, Model &M);

/// Renders the TriviallyUnsat certificate as staub-lint-style diagnostic
/// lines ("assertion #2: (<= x 3)").
std::vector<std::string> certificateLines(const TermManager &Manager,
                                          const PresolveResult &P);

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_PRESOLVE_H
