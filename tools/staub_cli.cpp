//===- tools/staub_cli.cpp - The STAUB command-line tool ------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front end mirroring the paper's tool: read an SMT-LIB
/// constraint over QF_LIA/QF_NIA/QF_LRA/QF_NRA and either solve it with
/// theory arbitrage (embedded solving + underapproximation checking,
/// Sec. 5.1 "Implementation") or emit the transformed bounded constraint
/// for use with any external SMT-LIB-compliant solver (the terminal
/// output flag). --emit-bounded and --lint translate exactly as the solve
/// path does under the same flags (translateAsParsed), minus presolve:
/// a static verdict would leave no bounded constraint to print.
///
/// Usage:
///   staub [options] [file.smt2]        (stdin when no file)
/// Options:
///   --solver=z3|minismt   backend (default z3)
///   --portfolio           run STAUB and the plain solver as a portfolio
///                         (raced on 2 threads); without it the plain
///                         solver runs only when STAUB cannot decide
///   --fixed-width=N       skip inference; use an N-bit translation
///   --root-width          use the abstract interpretation root width
///   --emit-bounded        print the transformed constraint, do not solve
///   --lint                translate, then statically lint the translation
///                         (staub-lint in-process); exit 1 on lint errors
///   --timeout=SECONDS     per-solve budget (default 30)
///   --jobs=N              threads for --portfolio (default 2; 1 runs the
///                         lanes back to back on the calling thread)
///   --no-presolve         skip the interval-contraction presolver
///   --no-escalate         revert on bounded-unsat instead of escalating
///                         the width through an incremental session
///   --no-relational       intervals only: skip the zone/octagon passes
///                         in presolve, width refinement, and guard
///                         elision (docs/ANALYSIS.md)
///   --stats               print timing decomposition + presolve,
///                         escalation, relational, and per-lane counters
///
/// Prints the status (sat/unsat/unknown) on stdout, followed by one
/// `; var = value` line per declared variable when sat.
/// Exit codes:
///   0  sat or unsat (and a clean --lint, or --emit-bounded)
///   1  unknown, or lint errors under --lint
///   2  usage, parse, or translation errors
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "smtlib/Parser.h"
#include "smtlib/Printer.h"
#include "staub/Staub.h"
#include "z3adapter/Z3Solver.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>

using namespace staub;

namespace {

struct CliOptions {
  std::string SolverName = "z3";
  std::string InputPath;
  bool Portfolio = false;
  bool EmitBounded = false;
  bool Lint = false;
  bool RootWidth = false;
  bool Stats = false;
  bool NoPresolve = false;
  bool NoEscalate = false;
  bool NoRelational = false;
  std::optional<unsigned> FixedWidth;
  double TimeoutSeconds = 30.0;
  unsigned Jobs = 2;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: staub [--solver=z3|minismt] [--portfolio] [--fixed-width=N]\n"
      "             [--root-width] [--emit-bounded] [--lint] [--timeout=S]\n"
      "             [--jobs=N] [--no-presolve] [--no-escalate]\n"
      "             [--no-relational] [--stats] [file.smt2]\n"
      "exit: 0 sat/unsat, 1 unknown, 2 usage/parse/translation error\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--solver=", 0) == 0) {
      Options.SolverName = Arg.substr(9);
      if (Options.SolverName != "z3" && Options.SolverName != "minismt") {
        std::fprintf(stderr, "error: unknown solver '%s'\n",
                     Options.SolverName.c_str());
        return false;
      }
    } else if (Arg == "--portfolio") {
      Options.Portfolio = true;
    } else if (Arg == "--emit-bounded") {
      Options.EmitBounded = true;
    } else if (Arg == "--lint") {
      Options.Lint = true;
    } else if (Arg == "--root-width") {
      Options.RootWidth = true;
    } else if (Arg == "--stats") {
      Options.Stats = true;
    } else if (Arg == "--no-presolve") {
      Options.NoPresolve = true;
    } else if (Arg == "--no-escalate") {
      Options.NoEscalate = true;
    } else if (Arg == "--no-relational") {
      Options.NoRelational = true;
    } else if (Arg.rfind("--fixed-width=", 0) == 0) {
      int Width = std::atoi(Arg.c_str() + 14);
      if (Width < 1 || Width > 512) {
        std::fprintf(stderr, "error: bad width '%s'\n", Arg.c_str());
        return false;
      }
      Options.FixedWidth = static_cast<unsigned>(Width);
    } else if (Arg.rfind("--timeout=", 0) == 0) {
      Options.TimeoutSeconds = std::atof(Arg.c_str() + 10);
      if (Options.TimeoutSeconds <= 0) {
        std::fprintf(stderr, "error: bad timeout '%s'\n", Arg.c_str());
        return false;
      }
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      int Jobs = std::atoi(Arg.c_str() + 7);
      if (Jobs < 1) {
        std::fprintf(stderr, "error: bad job count '%s'\n", Arg.c_str());
        return false;
      }
      Options.Jobs = static_cast<unsigned>(Jobs);
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      int Jobs = std::atoi(Argv[++I]);
      if (Jobs < 1) {
        std::fprintf(stderr, "error: bad job count '%s'\n", Argv[I]);
        return false;
      }
      Options.Jobs = static_cast<unsigned>(Jobs);
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else if (Options.InputPath.empty()) {
      Options.InputPath = Arg;
    } else {
      std::fprintf(stderr, "error: multiple input files\n");
      return false;
    }
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    printUsage();
    return 2;
  }

  TermManager Manager;
  ParseResult Parsed;
  if (Cli.InputPath.empty()) {
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    Parsed = parseSmtLib(Manager, Buffer.str());
  } else {
    Parsed = parseSmtLibFile(Manager, Cli.InputPath);
  }
  if (!Parsed.Ok) {
    std::fprintf(stderr, "error: %s\n", Parsed.Error.c_str());
    return 2;
  }
  const std::vector<Term> &Assertions = Parsed.Parsed.Assertions;

  StaubOptions Options;
  Options.FixedWidth = Cli.FixedWidth;
  Options.UseRootWidth = Cli.RootWidth;
  Options.Presolve = !Cli.NoPresolve;
  Options.Escalate = !Cli.NoEscalate;
  Options.Relational = !Cli.NoRelational;
  Options.Solve.TimeoutSeconds = Cli.TimeoutSeconds;

  if (Cli.EmitBounded || Cli.Lint) {
    // Translation only: emit the bounded constraint for an external
    // solver, or statically lint it (analysis/Lint.h) without solving.
    TransformResult T = translateAsParsed(Manager, Assertions, Options);
    if (!T.Ok) {
      std::fprintf(stderr, "error: translation failed: %s\n",
                   T.FailReason.c_str());
      return 2;
    }
    bool ToBitVectors = T.Width != 0; // Only the Int lane has a width.
    if (Cli.Lint) {
      analysis::LintOptions LOpts;
      LOpts.RequireGuards = ToBitVectors; // The FP lane emits no guards.
      LOpts.Relational = Options.Relational;
      analysis::LintReport Report = analysis::lintTranslation(
          Manager, Assertions, T.Assertions, T.VariableMap, LOpts);
      if (Report.Findings.empty())
        std::printf("clean\n");
      else
        std::fputs(Report.toString().c_str(), stdout);
      return Report.clean() ? 0 : 1;
    }
    Script Out;
    Out.Logic = ToBitVectors ? "QF_BV" : "QF_FP";
    Out.Assertions = T.Assertions;
    Out.HasCheckSat = true;
    std::fputs(printScript(Manager, Out).c_str(), stdout);
    return 0;
  }

  std::unique_ptr<SolverBackend> Backend = Cli.SolverName == "z3"
                                               ? createZ3Solver()
                                               : createMiniSmtSolver();

  // Without --portfolio the original lane runs only as a fallback;
  // --jobs=1 runs both lanes back to back on this thread, >=2 races them
  // with cooperative cancellation.
  LanePolicy Policy = !Cli.Portfolio   ? LanePolicy::Sequential
                      : Cli.Jobs <= 1 ? LanePolicy::Measured
                                      : LanePolicy::Racing;
  PortfolioResult R =
      runPortfolio(Manager, Assertions, *Backend, Options, Policy);
  const StaubOutcome &Outcome = R.Staub;
  // Underapproximation cannot conclude: the original constraint answers.
  if (!R.StaubWon)
    std::fprintf(stderr, "; staub lane: %s — reverted to the original\n",
                 std::string(toString(Outcome.Path)).c_str());
  std::printf("%s\n", std::string(toString(R.Status)).c_str());
  for (Term Var : Parsed.Parsed.Variables)
    if (const Value *V = R.TheModel.get(Var))
      std::printf("; %s = %s\n", Manager.variableName(Var).c_str(),
                  V->toString().c_str());
  if (Cli.Stats) {
    if (Outcome.ChosenWidth)
      std::fprintf(stderr, "; width=%u", Outcome.ChosenWidth);
    else if (Outcome.ChosenFormat.ExponentBits)
      std::fprintf(stderr, "; format=(_ FloatingPoint %u %u)",
                   Outcome.ChosenFormat.ExponentBits,
                   Outcome.ChosenFormat.SignificandBits);
    else // Presolve short-circuited before any translation was chosen.
      std::fprintf(stderr, "; width=none");
    std::fprintf(stderr, " t_trans=%.4fs t_post=%.4fs t_check=%.4fs\n",
                 Outcome.TransSeconds, Outcome.SolveSeconds,
                 Outcome.CheckSeconds);
    std::fprintf(stderr,
                 "; presolve verdict=%s rounds=%u dropped=%u contracted=%u "
                 "width_bits_saved=%u\n",
                 std::string(toString(Outcome.Presolve.Verdict)).c_str(),
                 Outcome.Presolve.Rounds, Outcome.Presolve.AssertionsDropped,
                 Outcome.Presolve.VarsContracted,
                 Outcome.Presolve.WidthBitsSaved);
    std::fprintf(stderr,
                 "; escalation steps=%u session_blast_cache_hits=%llu\n",
                 Outcome.EscalationSteps,
                 static_cast<unsigned long long>(Outcome.SessionBlastCacheHits));
    std::fprintf(stderr,
                 "; relational zone_facts=%u relational_guards_elided=%u\n",
                 Outcome.ZoneFactsHarvested, Outcome.RelationalGuardsElided);
    std::fprintf(stderr,
                 "; portfolio=%.4fs original=%.4fs staub=%.4fs winner=%s\n",
                 R.PortfolioSeconds, R.OriginalSeconds, R.StaubSeconds,
                 R.StaubWon ? "staub" : "original");
  }
  return R.Status == SolveStatus::Unknown ? 1 : 0;
}
