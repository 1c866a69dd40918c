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

/// Per-constraint measurement: the original lane once, and the STAUB lane
/// under one configuration.
struct EvalRecord {
  std::string Name;
  SolveStatus OriginalStatus = SolveStatus::Unknown;
  double TPre = 0.0; ///< Original-lane time (timeout => full timeout).
  /// The STAUB lane's outcome. VerifiedModel and BoundedAssertions are
  /// left empty: their terms would belong to the manager the constraint
  /// was solved in, a worker's private clone when evaluateSuite runs with
  /// Jobs > 1.
  StaubOutcome Staub;

  /// The STAUB lane decisively answered the original constraint: a
  /// verified sat model or a presolve static verdict (either polarity).
  bool verified() const { return isDecisive(Staub.Path); }
  /// The presolver alone decided this case (zero solver calls).
  bool presolveDecided() const {
    return Staub.Path == StaubPath::PresolvedSat ||
           Staub.Path == StaubPath::PresolvedUnsat;
  }
  /// Original lane failed but STAUB produced a verified answer.
  bool tractabilityImprovement() const {
    return OriginalStatus == SolveStatus::Unknown && verified();
  }
  /// Portfolio time: never worse than the original lane.
  double portfolioSeconds(double Timeout) const {
    double Pre = OriginalStatus == SolveStatus::Unknown ? Timeout : TPre;
    if (verified())
      return std::min(Pre, Staub.totalSeconds());
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

/// One STAUB configuration for a sweep (Table 3's STAUB / Fixed 8-bit /
/// Fixed 16-bit / SLOT columns).
struct EvalConfig {
  std::string Label;
  StaubOptions Staub;
  /// Optional bounded-side optimizer (SLOT, RQ2).
  std::vector<Term> (*Optimizer)(TermManager &,
                                 const std::vector<Term> &) = nullptr;
};

/// Runs every constraint of \p Suite through \p Backend: the original
/// lane once per constraint, then the STAUB lane once per entry of
/// \p Configs, all with \p TimeoutSeconds. Returns one record vector per
/// config (indexed like \p Configs), each indexed like \p Suite, so all
/// configs of a constraint share one T_pre.
///
/// \p Jobs > 1 runs a pool of worker threads. Workers pull constraints
/// from a shared queue (work stealing over a suite whose per-constraint
/// costs vary by orders of magnitude) and each owns a private TermManager
/// clone — \p Manager is only read during the run. Records land at their
/// constraint's suite index, so record order and every order-sensitive
/// aggregate (summarize's geomeans) match the single-threaded run; only
/// wall-clock changes. 0 means one job per hardware thread.
std::vector<std::vector<EvalRecord>>
evaluateSuite(TermManager &Manager,
              const std::vector<GeneratedConstraint> &Suite,
              SolverBackend &Backend, double TimeoutSeconds,
              const std::vector<EvalConfig> &Configs, unsigned Jobs = 1);

/// Aggregates records, optionally restricted to those with TPre within
/// [MinPre, Timeout] (the paper's T_pre interval rows in Table 3).
EvalSummary summarize(const std::vector<EvalRecord> &Records, double Timeout,
                      double MinPre = 0.0);

/// Renders one Table 3-style row.
std::string formatSummaryRow(const std::string &Label,
                             const EvalSummary &Summary);

} // namespace staub

#endif // STAUB_BENCHGEN_HARNESS_H
