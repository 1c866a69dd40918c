//===- examples/quickstart.cpp - STAUB in five minutes --------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal end-to-end use of the library: parse an SMT-LIB constraint
/// over an unbounded theory, run the STAUB pipeline against a solver
/// backend, and inspect the outcome. Optionally pass a path to an .smt2
/// file; the paper's Fig. 1a constraint is built in as the default.
///
/// Build & run:
///   cmake -B build -G Ninja && cmake --build build
///   ./build/examples/quickstart [file.smt2]
///
//===----------------------------------------------------------------------===//

#include "smtlib/Parser.h"
#include "smtlib/Printer.h"
#include "staub/Staub.h"
#include "z3adapter/Z3Solver.h"

#include <cstdio>

using namespace staub;

static const char *DefaultConstraint =
    "(set-logic QF_NIA)\n"
    "(declare-fun x () Int)\n"
    "(declare-fun y () Int)\n"
    "(declare-fun z () Int)\n"
    "(assert (= (+ (* x x x) (* y y y) (* z z z)) 855))\n"
    "(check-sat)\n";

int main(int argc, char **argv) {
  TermManager Manager;

  // 1. Parse a constraint over the unbounded theory of integers.
  ParseResult Parsed = argc > 1 ? parseSmtLibFile(Manager, argv[1])
                                : parseSmtLib(Manager, DefaultConstraint);
  if (!Parsed.Ok) {
    std::fprintf(stderr, "parse error: %s\n", Parsed.Error.c_str());
    return 1;
  }
  std::printf("parsed %zu assertion(s), logic %s\n",
              Parsed.Parsed.Assertions.size(),
              Parsed.Parsed.Logic.empty() ? "<none>"
                                          : Parsed.Parsed.Logic.c_str());

  // 2. Pick a solver backend. Both the Z3 adapter and the from-scratch
  //    MiniSMT solver implement the same interface.
  std::unique_ptr<SolverBackend> Backend = createZ3Solver();
  std::printf("backend: %s (z3 %s)\n", std::string(Backend->name()).c_str(),
              z3VersionString().c_str());

  // 3. Run the theory-arbitrage pipeline: bound inference, translation to
  //    bitvectors, bounded solving, and verification.
  StaubOptions Options;
  Options.Solve.TimeoutSeconds = 30.0;
  StaubOutcome Outcome =
      runStaub(Manager, Parsed.Parsed.Assertions, *Backend, Options);

  std::printf("STAUB path: %s\n", std::string(toString(Outcome.Path)).c_str());
  if (Outcome.ChosenWidth)
    std::printf("inferred width: %u bits\n", Outcome.ChosenWidth);
  std::printf("T_trans=%.4fs T_post=%.4fs T_check=%.4fs\n",
              Outcome.TransSeconds, Outcome.SolveSeconds,
              Outcome.CheckSeconds);

  if (Outcome.Path == StaubPath::VerifiedSat) {
    std::printf("sat — verified model in the original theory:\n");
    for (Term Var : Parsed.Parsed.Variables) {
      const Value *V = Outcome.VerifiedModel.get(Var);
      std::printf("  %s = %s\n", Manager.variableName(Var).c_str(),
                  V ? V->toString().c_str() : "<unbound>");
    }
    return 0;
  }

  // 4. STAUB could not answer by itself: fall back to the portfolio,
  //    which also runs the original constraint (and thus never loses).
  std::printf("falling back to the portfolio...\n");
  PortfolioResult R = runPortfolio(Manager, Parsed.Parsed.Assertions,
                                   *Backend, Options, LanePolicy::Measured);
  std::printf("portfolio answer: %s (%.4fs; STAUB lane won: %s)\n",
              std::string(toString(R.Status)).c_str(), R.PortfolioSeconds,
              R.StaubWon ? "yes" : "no");
  return 0;
}
