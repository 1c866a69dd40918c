//===- bench/bench_fig7_scatter.cpp - E6: Fig. 7 --------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 7's scatter data: per constraint, the initial
/// solving time (x axis) versus the time after STAUB is applied under
/// portfolio accounting (y axis), for each solver x logic. Emitted as CSV
/// series; points below the diagonal are speedups, points at x = timeout
/// are tractability improvements. Portfolio methodology guarantees no
/// point lies above the diagonal (beyond measurement noise).
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
  std::printf("=== E6 (Fig. 7): initial vs final solving time (CSV) ===\n");
  std::printf("# timeout=%.2fs jobs=%u; y<=x always (portfolio)\n", Timeout,
              Jobs);
  std::printf("solver,logic,name,t_pre,t_after,original_status,staub_path\n");

  std::unique_ptr<SolverBackend> Solvers[] = {createZ3ProcessSolver(),
                                              createMiniSmtSolver()};
  for (auto &Solver : Solvers) {
    for (BenchLogic Logic : {BenchLogic::QF_NIA, BenchLogic::QF_LIA,
                             BenchLogic::QF_NRA, BenchLogic::QF_LRA}) {
      TermManager M;
      auto Suite = generateSuite(M, Logic, benchConfig());
      auto Records =
          evaluateSuite(M, Suite, *Solver, Timeout, {EvalConfig()}, Jobs)[0];
      for (const EvalRecord &R : Records) {
        double Pre =
            R.OriginalStatus == SolveStatus::Unknown ? Timeout : R.TPre;
        std::printf("%s,%s,%s,%.5f,%.5f,%s,%s\n",
                    std::string(Solver->name()).c_str(),
                    std::string(toString(Logic)).c_str(), R.Name.c_str(),
                    Pre, R.portfolioSeconds(Timeout),
                    std::string(toString(R.OriginalStatus)).c_str(),
                    std::string(toString(R.Staub.Path)).c_str());
      }
    }
  }
  std::printf("\n");
  return 0;
}
