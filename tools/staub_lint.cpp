//===- tools/staub_lint.cpp - Static translation soundness checker --------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// staub-lint: statically verifies STAUB translation output without any
/// solving (analysis/Lint.h). Two modes, chosen per input by sort:
///
///  * Unbounded input (Int or Real): translate it as the pipeline does
///    under default options (translateAsParsed), then lint the
///    *translation* — guard discipline (every overflow-capable bitvector
///    op guarded or proven safe by the interval engine), whole-DAG
///    well-sortedness, guard sanity, and phi^-1 totality of the variable
///    map.
///
///  * Bounded input (no Int or Real term): lint the script structurally.
///    Foreign scripts carry no guard contract, so guard discipline is
///    off unless --require-guards is given.
///
/// Usage:
///   staub-lint [options] [file.smt2...]    (stdin when no files)
/// Options:
///   --require-guards   enforce guard discipline on bounded input too
///   --drop-guards      strip the translator's guards before linting
///                      (test hook: exercises the failure path)
///   --presolve         run the interval-contraction presolver on
///                      unbounded input first and print its verdict; for
///                      trivially-unsat input, print the certificate
///                      chain of contradicting assertions
///   -q, --quiet        suppress per-file reports; exit status only
///
/// Exit status: 0 all inputs lint clean (warnings allowed), 1 at least
/// one lint error, 2 usage or parse errors.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "analysis/Presolve.h"
#include "smtlib/Parser.h"
#include "staub/Staub.h"

#include <cstdio>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace staub;

namespace {

struct CliOptions {
  std::vector<std::string> Inputs;
  bool RequireGuardsOnBounded = false;
  bool DropGuards = false;
  bool ShowPresolve = false;
  bool Quiet = false;
};

void printUsage() {
  std::fprintf(stderr, "usage: staub-lint [--require-guards] [--drop-guards] "
                       "[--presolve] [-q] [file.smt2...]\n");
}

bool parseArgs(int Argc, char **Argv, CliOptions &Options) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--require-guards") {
      Options.RequireGuardsOnBounded = true;
    } else if (Arg == "--drop-guards") {
      Options.DropGuards = true;
    } else if (Arg == "--presolve") {
      Options.ShowPresolve = true;
    } else if (Arg == "-q" || Arg == "--quiet") {
      Options.Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      printUsage();
      std::exit(0);
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      return false;
    } else {
      Options.Inputs.push_back(Arg);
    }
  }
  return true;
}

/// Lints one parsed script. Returns 0 clean, 1 lint errors, 2 when the
/// input cannot be processed at all.
int lintOne(TermManager &Manager, const std::vector<Term> &Assertions,
            const std::string &Label, const CliOptions &Cli) {
  InputSort Sort = selectSort(Manager, Assertions);
  if (Sort == InputSort::Mixed) {
    std::fprintf(stderr, "%s: error: mixed Int/Real/bounded sorts are "
                         "outside the translation contract\n",
                 Label.c_str());
    return 2;
  }

  if (Cli.ShowPresolve && Sort != InputSort::Bounded) {
    analysis::PresolveResult Pre = analysis::presolve(Manager, Assertions);
    if (!Cli.Quiet) {
      std::printf("%s: presolve verdict=%s rounds=%u dropped=%u "
                  "contracted=%u\n",
                  Label.c_str(),
                  std::string(toString(Pre.Stats.Verdict)).c_str(),
                  Pre.Stats.Rounds, Pre.Stats.AssertionsDropped,
                  Pre.Stats.VarsContracted);
      for (const std::string &Line :
           analysis::certificateLines(Manager, Pre))
        std::printf("%s:   %s\n", Label.c_str(), Line.c_str());
    }
  }

  analysis::LintOptions LOpts;
  analysis::LintReport Report;
  if (Sort == InputSort::Bounded) {
    LOpts.RequireGuards = Cli.RequireGuardsOnBounded;
    Report = analysis::lintBounded(Manager, Assertions, LOpts);
  } else {
    TransformResult T = translateAsParsed(Manager, Assertions, {});
    if (!T.Ok) {
      std::fprintf(stderr, "%s: error: translation failed: %s\n",
                   Label.c_str(), T.FailReason.c_str());
      return 2;
    }
    std::vector<Term> Bounded = T.Assertions;
    if (Cli.DropGuards)
      Bounded.resize(T.TranslatedCount);
    LOpts.RequireGuards = Sort == InputSort::Int; // FP emits no guards.
    Report = analysis::lintTranslation(Manager, Assertions, Bounded,
                                       T.VariableMap, LOpts);
  }

  if (!Cli.Quiet) {
    if (Report.Findings.empty()) {
      std::printf("%s: clean\n", Label.c_str());
    } else {
      std::string Text = Report.toString();
      std::printf("%s:\n%s", Label.c_str(), Text.c_str());
      if (!Text.empty() && Text.back() != '\n')
        std::printf("\n");
    }
  }
  return Report.clean() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Cli;
  if (!parseArgs(Argc, Argv, Cli)) {
    printUsage();
    return 2;
  }

  int Worst = 0;
  auto Merge = [&Worst](int Status) {
    // 2 (cannot process) dominates 1 (lint errors) dominates 0.
    Worst = std::max(Worst, Status);
  };

  if (Cli.Inputs.empty()) {
    TermManager Manager;
    std::ostringstream Buffer;
    Buffer << std::cin.rdbuf();
    ParseResult Parsed = parseSmtLib(Manager, Buffer.str());
    if (!Parsed.Ok) {
      std::fprintf(stderr, "<stdin>: error: %s\n", Parsed.Error.c_str());
      return 2;
    }
    Merge(lintOne(Manager, Parsed.Parsed.Assertions, "<stdin>", Cli));
    return Worst;
  }

  for (const std::string &Path : Cli.Inputs) {
    TermManager Manager;
    ParseResult Parsed = parseSmtLibFile(Manager, Path);
    if (!Parsed.Ok) {
      std::fprintf(stderr, "%s: error: %s\n", Path.c_str(),
                   Parsed.Error.c_str());
      Merge(2);
      continue;
    }
    Merge(lintOne(Manager, Parsed.Parsed.Assertions, Path, Cli));
  }
  return Worst;
}
