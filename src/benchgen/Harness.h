//===- benchgen/Harness.h - Evaluation harness ------------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared measurement machinery for the table/figure benchmarks: runs a
/// generated suite through a solver backend with and without STAUB,
/// applies the paper's portfolio accounting (Sec. 5.1: timeouts count as
/// full-timeout contributions; speedup alpha = T_pre / (T_trans + T_post
/// + T_check); geometric means), and aggregates the quantities reported
/// in Tables 2-3 and Figures 2 and 7.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_BENCHGEN_HARNESS_H
#define STAUB_BENCHGEN_HARNESS_H

#include "benchgen/Generators.h"
#include "staub/Staub.h"

#include <string>
#include <vector>

namespace staub {

/// Per-constraint measurement.
struct EvalRecord {
  std::string Name;
  SolveStatus OriginalStatus = SolveStatus::Unknown;
  double TPre = 0.0; ///< Original-lane time (timeout => full timeout).
  StaubPath Path = StaubPath::TranslationFailed;
  double TTrans = 0.0, TPost = 0.0, TCheck = 0.0;
  unsigned ChosenWidth = 0;
  /// Overflow-guard accounting for the Int->BV lane: how many guard
  /// assertions the translator emitted vs. statically discharged via
  /// interval analysis (docs/ANALYSIS.md).
  unsigned GuardsEmitted = 0;
  unsigned GuardsElided = 0;
  /// Relational elision counters (staub/Staub.h): octagon facts harvested
  /// from the original assertions, and guards only the relational domain
  /// could discharge (a subset of GuardsElided).
  unsigned ZoneFactsHarvested = 0;
  unsigned RelationalGuardsElided = 0;
  /// Width-escalation ladder counters (staub/Staub.h).
  unsigned EscalationSteps = 0;
  uint64_t ClausesReused = 0;
  uint64_t SessionBlastCacheHits = 0;
  /// Presolver counters for this run (analysis/Presolve.h).
  analysis::PresolveStats Presolve;

  double staubSeconds() const { return TTrans + TPost + TCheck; }
  /// The STAUB lane decisively answered the original constraint: a
  /// verified sat model or a presolve static verdict (either polarity).
  bool verified() const { return isDecisive(Path); }
  /// The presolver alone decided this case (zero solver calls).
  bool presolveDecided() const {
    return Path == StaubPath::PresolvedSat ||
           Path == StaubPath::PresolvedUnsat;
  }
  /// Original lane failed but STAUB produced a verified answer.
  bool tractabilityImprovement() const {
    return OriginalStatus == SolveStatus::Unknown && verified();
  }
  /// Portfolio time: never worse than the original lane.
  double portfolioSeconds(double Timeout) const {
    double Pre = OriginalStatus == SolveStatus::Unknown ? Timeout : TPre;
    if (verified())
      return std::min(Pre, staubSeconds());
    return Pre;
  }
  /// alpha per the paper; timeouts as full-timeout contributions.
  double speedup(double Timeout) const {
    double Pre = OriginalStatus == SolveStatus::Unknown ? Timeout : TPre;
    double Port = portfolioSeconds(Timeout);
    return Pre / std::max(Port, 1e-9);
  }
};

/// Aggregates over a suite.
struct EvalSummary {
  unsigned Count = 0;
  unsigned VerifiedCases = 0;
  unsigned Tractability = 0;
  unsigned SemanticDifferences = 0;
  /// Cases the presolver decided statically (no solver call at all).
  unsigned PresolveDecided = 0;
  /// Total top-level conjuncts the presolver dropped across the suite.
  unsigned PresolveAssertionsDropped = 0;
  /// Total Int-width bits the contracted ranges saved across the suite.
  unsigned PresolveWidthBitsSaved = 0;
  double VerifiedSpeedup = 1.0; ///< Geomean over verified cases.
  double OverallSpeedup = 1.0;  ///< Geomean over the whole suite.
};

/// Options for one evaluation sweep.
struct EvalOptions {
  double TimeoutSeconds = 2.0;
  StaubOptions Staub;
  /// Optional bounded-side optimizer (SLOT, RQ2).
  std::vector<Term> (*Optimizer)(TermManager &,
                                 const std::vector<Term> &) = nullptr;
};

/// Runs every constraint of \p Suite through \p Backend, both plain and
/// via STAUB; returns per-constraint records.
std::vector<EvalRecord> evaluateSuite(TermManager &Manager,
                                      const std::vector<GeneratedConstraint> &Suite,
                                      SolverBackend &Backend,
                                      const EvalOptions &Options);

/// evaluateSuite over a pool of \p Jobs worker threads. Workers pull
/// constraints from a shared queue (work stealing over a suite whose
/// per-constraint costs vary by orders of magnitude) and each owns a
/// private TermManager clone — \p Manager is only read during the run.
/// Records land at their constraint's suite index, so record order and
/// every order-sensitive aggregate (summarize's geomeans) match the
/// sequential evaluator; only wall-clock changes. Jobs <= 1 runs the
/// sequential evaluator; 0 means one job per hardware thread.
std::vector<EvalRecord>
evaluateSuiteParallel(TermManager &Manager,
                      const std::vector<GeneratedConstraint> &Suite,
                      SolverBackend &Backend, const EvalOptions &Options,
                      unsigned Jobs);

/// One STAUB configuration for a multi-config sweep (Table 3's STAUB /
/// Fixed 8-bit / Fixed 16-bit / SLOT columns).
struct EvalConfig {
  std::string Label;
  StaubOptions Staub;
  std::vector<Term> (*Optimizer)(TermManager &,
                                 const std::vector<Term> &) = nullptr;
};

/// Like evaluateSuite but measures the original lane once and the STAUB
/// lane per configuration; returns one record vector per config (indexed
/// like \p Configs).
std::vector<std::vector<EvalRecord>>
evaluateSuiteConfigs(TermManager &Manager,
                     const std::vector<GeneratedConstraint> &Suite,
                     SolverBackend &Backend, double TimeoutSeconds,
                     const std::vector<EvalConfig> &Configs);

/// Parallel evaluateSuiteConfigs; same worker-pool and determinism
/// contract as evaluateSuiteParallel (all configs of one constraint run
/// on the same worker, against the same original-lane measurement).
std::vector<std::vector<EvalRecord>>
evaluateSuiteConfigsParallel(TermManager &Manager,
                             const std::vector<GeneratedConstraint> &Suite,
                             SolverBackend &Backend, double TimeoutSeconds,
                             const std::vector<EvalConfig> &Configs,
                             unsigned Jobs);

/// Aggregates records, optionally restricted to those with TPre within
/// [MinPre, Timeout] (the paper's T_pre interval rows in Table 3).
EvalSummary summarize(const std::vector<EvalRecord> &Records, double Timeout,
                      double MinPre = 0.0);

/// Renders one Table 3-style row.
std::string formatSummaryRow(const std::string &Label,
                             const EvalSummary &Summary);

} // namespace staub

#endif // STAUB_BENCHGEN_HARNESS_H
