//===- examples/portfolio_solving.cpp - Racing portfolio demo -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the deployment configuration of Sec. 4.4: the original
/// constraint and the STAUB pipeline race on two threads, and the first
/// decisive answer wins. Also shows the solver-agnostic design by running
/// the same constraints on both backends (Z3 and the internal MiniSMT).
///
//===----------------------------------------------------------------------===//

#include "benchgen/Generators.h"
#include "staub/Staub.h"
#include "z3adapter/Z3Solver.h"

#include <cstdio>

using namespace staub;

int main() {
  // Z3 runs through the process-isolated backend with the *measured*
  // portfolio (this Z3 build's NIA engine cannot be interrupted
  // in-process, so racing it on a thread risks an unkillable lane);
  // MiniSMT demonstrates the true two-thread racing mode.
  struct Lane {
    std::unique_ptr<SolverBackend> Backend;
    bool Racing;
  };
  Lane Lanes[] = {{createZ3ProcessSolver(), false},
                  {createMiniSmtSolver(), true}};

  for (auto &[Backend, Racing] : Lanes) {
    std::printf("== backend: %s (%s portfolio)\n",
                std::string(Backend->name()).c_str(),
                Racing ? "racing" : "measured");
    TermManager M;
    BenchConfig Config;
    Config.Count = 6;
    Config.Seed = 99;
    auto Suite = generateSuite(M, BenchLogic::QF_NIA, Config);
    Suite.insert(Suite.begin(), motivatingExample(M));

    StaubOptions Options;
    Options.Solve.TimeoutSeconds = 10.0;

    for (const GeneratedConstraint &C : Suite) {
      PortfolioResult R =
          runPortfolio(M, C.Assertions, *Backend, Options,
                       Racing ? LanePolicy::Racing : LanePolicy::Measured);
      std::printf("  %-18s -> %-7s in %6.3fs (%s lane decided",
                  C.Name.c_str(), std::string(toString(R.Status)).c_str(),
                  R.PortfolioSeconds, R.StaubWon ? "STAUB" : "original");
      if (R.StaubWon)
        std::printf(", width %u", R.Staub.ChosenWidth);
      std::printf(")\n");
      // Ground truth cross-check.
      if (C.Expected && R.Status != SolveStatus::Unknown &&
          R.Status != *C.Expected) {
        std::printf("  MISMATCH against planted ground truth!\n");
        return 1;
      }
    }
  }
  return 0;
}
