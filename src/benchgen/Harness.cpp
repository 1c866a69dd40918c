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

std::vector<std::vector<EvalRecord>>
staub::evaluateSuite(TermManager &Manager,
                     const std::vector<GeneratedConstraint> &Suite,
                     SolverBackend &Backend, double TimeoutSeconds,
                     const std::vector<EvalConfig> &Configs, unsigned Jobs) {
  std::vector<std::vector<EvalRecord>> PerConfig(
      Configs.size(), std::vector<EvalRecord>(Suite.size()));
  // Measures constraint \p Index against \p Assertions, which live in
  // \p M — the suite's own manager (one job) or a worker's clone: the
  // original lane once, then the STAUB lane per configuration.
  auto EvaluateOne = [&](size_t Index, TermManager &M,
                         const std::vector<Term> &Assertions) {
    const GeneratedConstraint &C = Suite[Index];
    SolverOptions SolveOpts;
    SolveOpts.TimeoutSeconds = TimeoutSeconds;
    SolveResult Original = Backend.solve(M, Assertions, SolveOpts);
    for (size_t K = 0; K < Configs.size(); ++K) {
      EvalRecord &R = PerConfig[K][Index];
      R.Name = C.Name;
      R.OriginalStatus = Original.Status;
      R.TPre = Original.Status == SolveStatus::Unknown ? TimeoutSeconds
                                                       : Original.TimeSeconds;
      StaubOptions StaubOpts = Configs[K].Staub;
      StaubOpts.Solve.TimeoutSeconds = TimeoutSeconds;
      R.Staub =
          runStaub(M, Assertions, Backend, StaubOpts, Configs[K].Optimizer);
      R.Staub.VerifiedModel = Model();
      R.Staub.BoundedAssertions.clear();

      // Cross-check against the planted ground truth where available: a
      // decisive STAUB answer contradicting the plant would be a soundness
      // bug (sat claims on planted-unsat, and the presolver's decisive
      // unsat on planted-sat).
      SolveStatus Claimed = R.Staub.Path == StaubPath::PresolvedUnsat
                                ? SolveStatus::Unsat
                                : SolveStatus::Sat;
      if (C.Expected && R.verified() && Claimed != *C.Expected) {
        std::fprintf(stderr, "SOUNDNESS VIOLATION: %s %s but planted %s\n",
                     C.Name.c_str(),
                     std::string(toString(R.Staub.Path)).c_str(),
                     std::string(toString(*C.Expected)).c_str());
        std::abort();
      }
    }
  };
  Jobs = resolveJobs(Jobs);
  if (Jobs <= 1 || Suite.size() <= 1) {
    for (size_t I = 0; I < Suite.size(); ++I)
      EvaluateOne(I, Manager, Suite[I].Assertions);
  } else {
    forEachConstraintParallel(Manager, Suite, Jobs, EvaluateOne);
  }
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
    if (R.Staub.Path == StaubPath::SemanticDifference)
      ++S.SemanticDifferences;
    if (R.presolveDecided())
      ++S.PresolveDecided;
    S.PresolveAssertionsDropped += R.Staub.Presolve.AssertionsDropped;
    S.PresolveWidthBitsSaved += R.Staub.Presolve.WidthBitsSaved;
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
