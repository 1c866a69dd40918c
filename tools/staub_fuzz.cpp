//===- tools/staub_fuzz.cpp - Metamorphic/differential fuzz driver --------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The staub-fuzz driver: seeded metamorphic and differential fuzzing of
/// the whole pipeline (see docs/TESTING.md for the oracle hierarchy).
/// Exits nonzero when any invariant violation is found; each violation is
/// shrunk to a minimal reproducer, printed as SMT-LIB, and (with
/// --corpus) persisted for the corpus regression test.
///
/// Usage:
///   staub-fuzz [options]
/// Options:
///   --seed=N           campaign seed (default 1)
///   --iters=N          iterations (default 100)
///   --time-budget=S    wall-clock budget in seconds; 0 = none (default)
///   --jobs=N           worker threads (default 1; 0 = hardware)
///   --theory=int|real|fp   fuzzed theory (default int)
///   --solve-timeout=S  per-solve budget inside oracles (default 0.5)
///   --use-z3           enable the reference-agreement oracle against Z3
///   --no-portfolio     skip the racing-portfolio oracle (fewer threads)
///   --inject=drop-guards   deliberately break the Int->BV guards
///                          (oracle-sensitivity check: MUST find bugs)
///   --inject=bad-contract  make the presolver contract non-strict Int
///                          comparisons one off too tight (presolve-equisat
///                          sensitivity check: MUST find bugs)
///   --inject=bad-core      make the escalation ladder report guard-free
///                          base cores as guard-only (escalation-equivalence
///                          sensitivity check: MUST find bugs)
///   --inject=bad-closure   make the zone closure drop relaxations through
///                          the last Floyd-Warshall pivot
///                          (relational-soundness sensitivity check: MUST
///                          find bugs)
///   --corpus=DIR       persist shrunk reproducers under DIR
///   --max-violations=N stop after N violations (default 10)
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

using namespace staub;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: staub-fuzz [--seed=N] [--iters=N] [--time-budget=S] [--jobs=N]\n"
      "                  [--theory=int|real|fp] [--solve-timeout=S] [--use-z3]\n"
      "                  [--no-portfolio]\n"
      "                  [--inject=drop-guards|bad-contract|bad-core\n"
      "                   |bad-closure]\n"
      "                  [--corpus=DIR] [--max-violations=N]\n");
}

bool parseArgs(int Argc, char **Argv, FuzzOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--seed=", 0) == 0) {
      Options.Seed = std::strtoull(Arg.c_str() + 7, nullptr, 10);
    } else if (Arg.rfind("--iters=", 0) == 0) {
      long N = std::atol(Arg.c_str() + 8);
      if (N < 1) {
        std::fprintf(stderr, "error: bad --iters '%s'\n", Arg.c_str());
        return false;
      }
      Options.Iterations = static_cast<unsigned>(N);
    } else if (Arg.rfind("--time-budget=", 0) == 0) {
      std::string Budget = Arg.substr(14);
      auto S = Budget == "0" ? std::optional<double>(0.0)
                             : parseTimeoutSeconds(Budget);
      if (!S) {
        std::fprintf(stderr, "error: bad --time-budget '%s'\n", Arg.c_str());
        return false;
      }
      Options.TimeBudgetSeconds = *S;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      long N = std::atol(Arg.c_str() + 7);
      if (N < 0) {
        std::fprintf(stderr, "error: bad --jobs '%s'\n", Arg.c_str());
        return false;
      }
      Options.Jobs = static_cast<unsigned>(N);
    } else if (Arg.rfind("--theory=", 0) == 0) {
      auto Theory = parseFuzzTheory(Arg.substr(9));
      if (!Theory) {
        std::fprintf(stderr, "error: unknown theory '%s'\n",
                     Arg.c_str() + 9);
        return false;
      }
      Options.Theory = *Theory;
    } else if (Arg.rfind("--solve-timeout=", 0) == 0) {
      auto S = parseTimeoutSeconds(Arg.substr(16));
      if (!S) {
        std::fprintf(stderr, "error: bad --solve-timeout '%s'\n",
                     Arg.c_str());
        return false;
      }
      Options.SolveTimeoutSeconds = *S;
    } else if (Arg == "--use-z3") {
      Options.UseZ3 = true;
    } else if (Arg == "--no-portfolio") {
      Options.CheckPortfolio = false;
    } else if (Arg.rfind("--inject=", 0) == 0) {
      std::string Bug = Arg.substr(9);
      if (Bug == "drop-guards") {
        Options.Inject = BugInjection::DropOverflowGuards;
      } else if (Bug == "bad-contract") {
        Options.Inject = BugInjection::BadContract;
      } else if (Bug == "bad-core") {
        Options.Inject = BugInjection::BadCore;
      } else if (Bug == "bad-closure") {
        Options.Inject = BugInjection::BadClosure;
      } else {
        std::fprintf(stderr, "error: unknown injection '%s'\n", Bug.c_str());
        return false;
      }
    } else if (Arg.rfind("--corpus=", 0) == 0) {
      Options.CorpusDir = Arg.substr(9);
    } else if (Arg.rfind("--max-violations=", 0) == 0) {
      long N = std::atol(Arg.c_str() + 17);
      if (N < 1) {
        std::fprintf(stderr, "error: bad --max-violations '%s'\n",
                     Arg.c_str());
        return false;
      }
      Options.MaxViolations = static_cast<unsigned>(N);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", Arg.c_str());
      printUsage();
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Options;
  if (!parseArgs(Argc, Argv, Options))
    return 2;

  std::printf("staub-fuzz: theory=%s seed=%llu iters=%u jobs=%u%s%s\n",
              std::string(toString(Options.Theory)).c_str(),
              static_cast<unsigned long long>(Options.Seed),
              Options.Iterations, Options.Jobs,
              Options.UseZ3 ? " +z3" : "",
              Options.Inject == BugInjection::DropOverflowGuards
                  ? " INJECT=drop-guards"
              : Options.Inject == BugInjection::BadContract
                  ? " INJECT=bad-contract"
              : Options.Inject == BugInjection::BadCore
                  ? " INJECT=bad-core"
              : Options.Inject == BugInjection::BadClosure
                  ? " INJECT=bad-closure"
                  : "");

  FuzzReport Report = runFuzzer(Options);

  std::printf("staub-fuzz: %u iteration(s) run, %u mutant(s) checked%s\n",
              Report.IterationsRun, Report.MutantsChecked,
              Report.TimeBudgetExhausted ? " (time budget exhausted)" : "");

  for (const FuzzViolationReport &V : Report.Violations) {
    std::printf("\n=== VIOLATION: %s (iteration %llu, seed %llu) ===\n",
                V.Property.c_str(),
                static_cast<unsigned long long>(V.IterationIndex),
                static_cast<unsigned long long>(V.IterationSeed));
    std::printf("instance: %s\ndetail:   %s\n", V.InstanceName.c_str(),
                V.Detail.c_str());
    if (!V.CorpusPath.empty())
      std::printf("corpus:   %s\n", V.CorpusPath.c_str());
    std::printf("shrunk reproducer (%u assertion(s)):\n%s",
                V.ShrunkAssertionCount, V.ShrunkSmtLib.c_str());
  }

  if (!Report.Violations.empty()) {
    std::printf("\nstaub-fuzz: %zu violation(s) found\n",
                Report.Violations.size());
    return 1;
  }
  std::printf("staub-fuzz: no invariant violations\n");
  return 0;
}
