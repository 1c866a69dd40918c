//===- bench/bench_ablation_bounds.cpp - E12: width-policy ablation -------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation over the bound-selection policy (Sec. 6.2 discussion): the
/// default assumption width (largest constant + 1, the paper's Fig. 1b
/// choice), the abstract interpretation's root width [[S]] (sufficient
/// for all intermediates, but wider), and fixed 8/16/32-bit widths. For
/// each policy: verified cases, tractability improvements, and geomean
/// speedups on the QF_NIA suite under both solvers.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchgen/Harness.h"
#include "z3adapter/Z3Solver.h"

#include <cstdio>

using namespace staub;

int main(int Argc, char **Argv) {
  const double Timeout = benchTimeoutSeconds();
  const unsigned Jobs = benchJobs(Argc, Argv);
  std::printf("=== E12 (Sec. 6.2): bound-selection ablation on QF_NIA ===\n");
  std::printf("timeout %.2fs, %u instances, seed %llu, jobs %u\n\n", Timeout,
              benchCount(), static_cast<unsigned long long>(benchSeed()),
              Jobs);

  std::vector<EvalConfig> Configs(5);
  Configs[0].Label = "assumption"; // Default: largest-constant + 1.
  Configs[1].Label = "root-width";
  Configs[1].Staub.UseRootWidth = true;
  Configs[2].Label = "fixed-8";
  Configs[2].Staub.FixedWidth = 8;
  Configs[3].Label = "fixed-16";
  Configs[3].Staub.FixedWidth = 16;
  Configs[4].Label = "fixed-32";
  Configs[4].Staub.FixedWidth = 32;

  std::unique_ptr<SolverBackend> Solvers[] = {createZ3ProcessSolver(),
                                              createMiniSmtSolver()};
  std::printf("%-8s %-12s %6s %9s %11s %10s %9s\n", "solver", "policy",
              "count", "verified", "tractable", "ver.speed", "overall");
  for (auto &Solver : Solvers) {
    TermManager M;
    auto Suite = generateSuite(M, BenchLogic::QF_NIA, benchConfig());
    auto PerConfig =
        evaluateSuite(M, Suite, *Solver, Timeout, Configs, Jobs);
    for (size_t Cfg = 0; Cfg < Configs.size(); ++Cfg) {
      EvalSummary S = summarize(PerConfig[Cfg], Timeout);
      std::printf("%-8s %-12s %6u %9u %11u %10.3f %9.3f\n",
                  std::string(Solver->name()).c_str(),
                  Configs[Cfg].Label.c_str(), S.Count, S.VerifiedCases,
                  S.Tractability, S.VerifiedSpeedup, S.OverallSpeedup);
    }
    // Report the average chosen width for the two inferred policies.
    for (size_t Cfg = 0; Cfg < 2; ++Cfg) {
      double Sum = 0;
      unsigned N = 0;
      for (const EvalRecord &R : PerConfig[Cfg])
        if (R.Staub.ChosenWidth) {
          Sum += R.Staub.ChosenWidth;
          ++N;
        }
      std::printf("  mean %s width: %.1f bits%s\n",
                  Configs[Cfg].Label.c_str(), N ? Sum / N : 0.0,
                  Cfg == 0 ? "  (paper: 13.1)" : "");
    }
    std::printf("\n");
  }
  return 0;
}
