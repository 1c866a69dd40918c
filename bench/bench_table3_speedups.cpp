//===- bench/bench_table3_speedups.cpp - E7/E8: Table 3 -------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 3: geometric-mean speedups per logic x solver x
/// T_pre interval, with the STAUB / Fixed 8-bit / Fixed 16-bit ablation
/// columns and the SLOT-chained column (RQ2). Portfolio accounting as in
/// the paper: verified cases are sped up, everything else reverts, and
/// timeouts count as full-timeout contributions.
///
/// Expected shape: STAUB's verified-case speedups are large for QF_NIA,
/// modest for QF_LIA, tiny/none for the real logics; SLOT adds an extra
/// factor on top for NIA.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchgen/Harness.h"
#include "slot/Slot.h"
#include "z3adapter/Z3Solver.h"

#include <cstdio>

using namespace staub;

int main(int Argc, char **Argv) {
  const double Timeout = benchTimeoutSeconds();
  const unsigned Jobs = benchJobs(Argc, Argv);
  std::printf("=== E7/E8 (Table 3): geometric-mean speedups ===\n");
  std::printf("timeout %.2fs (paper: 300s), %u instances per logic, seed "
              "%llu, jobs %u\n\n",
              Timeout, benchCount(),
              static_cast<unsigned long long>(benchSeed()), Jobs);

  std::vector<EvalConfig> Configs(4);
  Configs[0].Label = "STAUB";
  Configs[1].Label = "Fixed 8-bit";
  Configs[1].Staub.FixedWidth = 8;
  Configs[2].Label = "Fixed 16-bit";
  Configs[2].Staub.FixedWidth = 16;
  Configs[3].Label = "STAUB+SLOT";
  Configs[3].Optimizer = slotOptimizerHook;
  // SLOT requires standard FP formats (Sec. 5.3).
  Configs[3].Staub.StandardFpFormats = true;

  std::unique_ptr<SolverBackend> Solvers[] = {createZ3ProcessSolver(),
                                              createMiniSmtSolver()};

  // T_pre interval rows, as fractions of the timeout (the paper's
  // 0/1/60/180 of 300 s).
  const double Intervals[] = {0.0, 1.0 / 300.0, 60.0 / 300.0, 180.0 / 300.0};
  const char *IntervalNames[] = {"0-T", "T/300-T", "T/5-T", "3T/5-T"};

  std::printf("%-7s %-8s %-10s %6s %8s %10s %9s\n", "logic", "solver",
              "config", "count", "verified", "ver.speed", "overall");
  for (BenchLogic Logic : {BenchLogic::QF_NIA, BenchLogic::QF_LIA,
                           BenchLogic::QF_NRA, BenchLogic::QF_LRA}) {
    for (auto &Solver : Solvers) {
      TermManager M;
      auto Suite = generateSuite(M, Logic, benchConfig());
      auto PerConfig =
          evaluateSuite(M, Suite, *Solver, Timeout, Configs, Jobs);
      for (size_t Cfg = 0; Cfg < Configs.size(); ++Cfg) {
        for (size_t IV = 0; IV < 4; ++IV) {
          EvalSummary S = summarize(PerConfig[Cfg], Timeout,
                                    Intervals[IV] * Timeout);
          // Print only the full row and the slowest-interval row to keep
          // the table readable; all intervals for the main config.
          bool MainConfig = Cfg == 0;
          if (!MainConfig && IV != 0)
            continue;
          std::printf("%-7s %-8s %-10s %6u %8u %10.3f %9.3f   [%s]\n",
                      std::string(toString(Logic)).c_str(),
                      std::string(Solver->name()).c_str(),
                      Configs[Cfg].Label.c_str(), S.Count, S.VerifiedCases,
                      S.VerifiedSpeedup, S.OverallSpeedup,
                      IntervalNames[IV]);
        }
      }
      std::printf("\n");
    }
  }
  std::printf("(paper Table 3 reference points: NIA/Z3 overall 1.21x, "
              "NIA/CVC5 1.25x, NIA SLOT 1.48-2.76x; LIA ~1.01x; LRA "
              "1.000x)\n\n");
  return 0;
}
