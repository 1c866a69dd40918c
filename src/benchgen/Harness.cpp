//===- benchgen/Harness.cpp - Evaluation harness --------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "benchgen/Harness.h"

#include "support/Statistics.h"

#include <atomic>
#include <cstdio>
#include <thread>

using namespace staub;

namespace {

/// Measures one constraint (original lane + STAUB lane) against
/// \p Assertions, which live in \p Manager — either the suite's own
/// manager (sequential path) or a worker's clone (parallel path).
EvalRecord evaluateOne(TermManager &Manager, const GeneratedConstraint &C,
                       const std::vector<Term> &Assertions,
                       SolverBackend &Backend, const EvalOptions &Options) {
  EvalRecord R;
  R.Name = C.Name;

  SolverOptions SolveOpts;
  SolveOpts.TimeoutSeconds = Options.TimeoutSeconds;
  SolveResult Original = Backend.solve(Manager, Assertions, SolveOpts);
  R.OriginalStatus = Original.Status;
  R.TPre = Original.Status == SolveStatus::Unknown ? Options.TimeoutSeconds
                                                   : Original.TimeSeconds;

  StaubOptions StaubOpts = Options.Staub;
  StaubOpts.Solve.TimeoutSeconds = Options.TimeoutSeconds;
  StaubOutcome Outcome =
      runStaub(Manager, Assertions, Backend, StaubOpts, Options.Optimizer);
  R.Path = Outcome.Path;
  R.TTrans = Outcome.TransSeconds;
  R.TPost = Outcome.SolveSeconds;
  R.TCheck = Outcome.CheckSeconds;
  R.ChosenWidth = Outcome.ChosenWidth;
  R.GuardsEmitted = Outcome.GuardsEmitted;
  R.GuardsElided = Outcome.GuardsElided;
  R.ZoneFactsHarvested = Outcome.ZoneFactsHarvested;
  R.RelationalGuardsElided = Outcome.RelationalGuardsElided;
  R.EscalationSteps = Outcome.EscalationSteps;
  R.SessionBlastCacheHits = Outcome.SessionBlastCacheHits;
  R.Presolve = Outcome.Presolve;

  // Cross-check against the planted ground truth where available: a
  // decisive STAUB answer contradicting the plant would be a soundness
  // bug (sat claims on planted-unsat, and the presolver's decisive unsat
  // on planted-sat).
  if (C.Expected && *C.Expected == SolveStatus::Unsat &&
      (Outcome.Path == StaubPath::VerifiedSat ||
       Outcome.Path == StaubPath::EscalatedSat ||
       Outcome.Path == StaubPath::PresolvedSat)) {
    std::fprintf(stderr,
                 "SOUNDNESS VIOLATION: %s verified sat but planted unsat\n",
                 C.Name.c_str());
    std::abort();
  }
  if (C.Expected && *C.Expected == SolveStatus::Sat &&
      Outcome.Path == StaubPath::PresolvedUnsat) {
    std::fprintf(stderr,
                 "SOUNDNESS VIOLATION: %s presolved unsat but planted sat\n",
                 C.Name.c_str());
    std::abort();
  }
  return R;
}

/// Measures one constraint for evaluateSuiteConfigs: the original lane
/// once, then the STAUB lane per configuration. Writes PerConfig[K][Index].
void evaluateOneConfigs(TermManager &Manager, const GeneratedConstraint &C,
                        const std::vector<Term> &Assertions,
                        SolverBackend &Backend, double TimeoutSeconds,
                        const std::vector<EvalConfig> &Configs,
                        std::vector<std::vector<EvalRecord>> &PerConfig,
                        size_t Index) {
  SolverOptions SolveOpts;
  SolveOpts.TimeoutSeconds = TimeoutSeconds;
  SolveResult Original = Backend.solve(Manager, Assertions, SolveOpts);
  double TPre = Original.Status == SolveStatus::Unknown
                    ? TimeoutSeconds
                    : Original.TimeSeconds;

  for (size_t K = 0; K < Configs.size(); ++K) {
    EvalRecord R;
    R.Name = C.Name;
    R.OriginalStatus = Original.Status;
    R.TPre = TPre;
    StaubOptions StaubOpts = Configs[K].Staub;
    StaubOpts.Solve.TimeoutSeconds = TimeoutSeconds;
    StaubOutcome Outcome = runStaub(Manager, Assertions, Backend, StaubOpts,
                                    Configs[K].Optimizer);
    R.Path = Outcome.Path;
    R.TTrans = Outcome.TransSeconds;
    R.TPost = Outcome.SolveSeconds;
    R.TCheck = Outcome.CheckSeconds;
    R.ChosenWidth = Outcome.ChosenWidth;
    R.GuardsEmitted = Outcome.GuardsEmitted;
    R.GuardsElided = Outcome.GuardsElided;
    R.ZoneFactsHarvested = Outcome.ZoneFactsHarvested;
    R.RelationalGuardsElided = Outcome.RelationalGuardsElided;
    R.EscalationSteps = Outcome.EscalationSteps;
    R.SessionBlastCacheHits = Outcome.SessionBlastCacheHits;
    R.Presolve = Outcome.Presolve;
    if (C.Expected && *C.Expected == SolveStatus::Unsat &&
        (Outcome.Path == StaubPath::VerifiedSat ||
         Outcome.Path == StaubPath::EscalatedSat ||
         Outcome.Path == StaubPath::PresolvedSat)) {
      std::fprintf(
          stderr, "SOUNDNESS VIOLATION: %s verified sat but planted unsat\n",
          C.Name.c_str());
      std::abort();
    }
    if (C.Expected && *C.Expected == SolveStatus::Sat &&
        Outcome.Path == StaubPath::PresolvedUnsat) {
      std::fprintf(
          stderr, "SOUNDNESS VIOLATION: %s presolved unsat but planted sat\n",
          C.Name.c_str());
      std::abort();
    }
    PerConfig[K][Index] = std::move(R);
  }
}

/// Runs \p Body(Index, WorkerManager, ClonedAssertions) for every suite
/// index on \p Jobs worker threads. Indices are claimed from a shared
/// atomic counter, so a worker stuck on a slow constraint never blocks the
/// rest of the queue. Each worker deep-copies constraints into a private
/// TermManager (the cloner's cache persists across constraints, so shared
/// DAG structure is copied once per worker); \p Manager itself is only
/// read, which is safe because TermManager reads never mutate.
template <typename BodyFn>
void forEachConstraintParallel(TermManager &Manager,
                               const std::vector<GeneratedConstraint> &Suite,
                               unsigned Jobs, BodyFn Body) {
  std::atomic<size_t> NextIndex{0};
  auto Worker = [&] {
    TermManager Local;
    TermCloner Cloner(Manager, Local);
    for (;;) {
      size_t Index = NextIndex.fetch_add(1, std::memory_order_relaxed);
      if (Index >= Suite.size())
        return;
      std::vector<Term> Assertions;
      Assertions.reserve(Suite[Index].Assertions.size());
      for (Term Assertion : Suite[Index].Assertions)
        Assertions.push_back(Cloner.clone(Assertion));
      Body(Index, Local, Assertions);
    }
  };
  unsigned NumWorkers = static_cast<unsigned>(
      std::min<size_t>(Jobs, Suite.size()));
  std::vector<std::thread> Workers;
  Workers.reserve(NumWorkers);
  for (unsigned W = 0; W < NumWorkers; ++W)
    Workers.emplace_back(Worker);
  for (std::thread &T : Workers)
    T.join();
}

unsigned resolveJobs(unsigned Jobs) {
  if (Jobs == 0) {
    unsigned Hardware = std::thread::hardware_concurrency();
    return Hardware ? Hardware : 1;
  }
  return Jobs;
}

} // namespace

std::vector<EvalRecord>
staub::evaluateSuite(TermManager &Manager,
                     const std::vector<GeneratedConstraint> &Suite,
                     SolverBackend &Backend, const EvalOptions &Options) {
  std::vector<EvalRecord> Records;
  Records.reserve(Suite.size());
  for (const GeneratedConstraint &C : Suite)
    Records.push_back(evaluateOne(Manager, C, C.Assertions, Backend, Options));
  return Records;
}

std::vector<EvalRecord>
staub::evaluateSuiteParallel(TermManager &Manager,
                             const std::vector<GeneratedConstraint> &Suite,
                             SolverBackend &Backend,
                             const EvalOptions &Options, unsigned Jobs) {
  Jobs = resolveJobs(Jobs);
  if (Jobs <= 1 || Suite.size() <= 1)
    return evaluateSuite(Manager, Suite, Backend, Options);

  std::vector<EvalRecord> Records(Suite.size());
  forEachConstraintParallel(
      Manager, Suite, Jobs,
      [&](size_t Index, TermManager &Local,
          const std::vector<Term> &Assertions) {
        Records[Index] =
            evaluateOne(Local, Suite[Index], Assertions, Backend, Options);
      });
  return Records;
}

std::vector<std::vector<EvalRecord>>
staub::evaluateSuiteConfigs(TermManager &Manager,
                            const std::vector<GeneratedConstraint> &Suite,
                            SolverBackend &Backend, double TimeoutSeconds,
                            const std::vector<EvalConfig> &Configs) {
  std::vector<std::vector<EvalRecord>> PerConfig(
      Configs.size(), std::vector<EvalRecord>(Suite.size()));
  for (size_t I = 0; I < Suite.size(); ++I)
    evaluateOneConfigs(Manager, Suite[I], Suite[I].Assertions, Backend,
                       TimeoutSeconds, Configs, PerConfig, I);
  return PerConfig;
}

std::vector<std::vector<EvalRecord>>
staub::evaluateSuiteConfigsParallel(
    TermManager &Manager, const std::vector<GeneratedConstraint> &Suite,
    SolverBackend &Backend, double TimeoutSeconds,
    const std::vector<EvalConfig> &Configs, unsigned Jobs) {
  Jobs = resolveJobs(Jobs);
  if (Jobs <= 1 || Suite.size() <= 1)
    return evaluateSuiteConfigs(Manager, Suite, Backend, TimeoutSeconds,
                                Configs);

  std::vector<std::vector<EvalRecord>> PerConfig(
      Configs.size(), std::vector<EvalRecord>(Suite.size()));
  forEachConstraintParallel(
      Manager, Suite, Jobs,
      [&](size_t Index, TermManager &Local,
          const std::vector<Term> &Assertions) {
        evaluateOneConfigs(Local, Suite[Index], Assertions, Backend,
                           TimeoutSeconds, Configs, PerConfig, Index);
      });
  return PerConfig;
}

EvalSummary staub::summarize(const std::vector<EvalRecord> &Records,
                             double Timeout, double MinPre) {
  EvalSummary S;
  std::vector<double> VerifiedSpeedups, AllSpeedups;
  for (const EvalRecord &R : Records) {
    double Pre =
        R.OriginalStatus == SolveStatus::Unknown ? Timeout : R.TPre;
    if (Pre < MinPre)
      continue;
    ++S.Count;
    double Alpha = R.speedup(Timeout);
    AllSpeedups.push_back(Alpha);
    if (R.verified()) {
      ++S.VerifiedCases;
      VerifiedSpeedups.push_back(Alpha);
    }
    if (R.tractabilityImprovement())
      ++S.Tractability;
    if (R.Path == StaubPath::SemanticDifference)
      ++S.SemanticDifferences;
    if (R.presolveDecided())
      ++S.PresolveDecided;
    S.PresolveAssertionsDropped += R.Presolve.AssertionsDropped;
    S.PresolveWidthBitsSaved += R.Presolve.WidthBitsSaved;
  }
  S.VerifiedSpeedup = geometricMean(VerifiedSpeedups);
  S.OverallSpeedup = geometricMean(AllSpeedups);
  return S;
}

std::string staub::formatSummaryRow(const std::string &Label,
                                    const EvalSummary &Summary) {
  char Buffer[256];
  std::snprintf(Buffer, sizeof(Buffer),
                "%-28s %6u %9u %10u %12.3f %12.3f", Label.c_str(),
                Summary.Count, Summary.VerifiedCases, Summary.Tractability,
                Summary.VerifiedSpeedup, Summary.OverallSpeedup);
  return Buffer;
}
