//===- z3adapter/Z3ProcessSolver.cpp - Fork-isolated Z3 backend -----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A SolverBackend that runs each Z3 check in a forked child process and
/// SIGKILLs it when the deadline passes. This build of Z3 (4.8.12) has
/// nonlinear-integer code paths that ignore both the `timeout` parameter
/// and Z3_solver_interrupt while churning bignum arithmetic; process
/// isolation is the only reliable deadline, and is what the benchmark
/// harness uses so that a single pathological constraint cannot stall an
/// entire table. The child serializes (status, time, model) over a pipe
/// in a simple line protocol.
///
//===----------------------------------------------------------------------===//

#include "z3adapter/Z3Solver.h"

#include "support/Timer.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <poll.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

using namespace staub;

namespace {

/// Writes a model value in the line protocol.
void serializeModel(FILE *Out, const TermManager &Manager, const Model &M) {
  for (const auto &[VarId, V] : M) {
    Term Var(VarId);
    const std::string &Name = Manager.variableName(Var);
    if (V.isBool()) {
      std::fprintf(Out, "var %s bool %d\n", Name.c_str(), V.asBool() ? 1 : 0);
    } else if (V.isInt()) {
      std::fprintf(Out, "var %s int %s\n", Name.c_str(),
                   V.asInt().toString().c_str());
    } else if (V.isReal()) {
      std::fprintf(Out, "var %s real %s/%s\n", Name.c_str(),
                   V.asReal().numerator().toString().c_str(),
                   V.asReal().denominator().toString().c_str());
    } else if (V.isBitVec()) {
      std::fprintf(Out, "var %s bv %u %s\n", Name.c_str(),
                   V.asBitVec().width(),
                   V.asBitVec().toUnsigned().toString().c_str());
    } else if (V.isFp()) {
      BitVecValue Bits = V.asFp().toBits();
      std::fprintf(Out, "var %s fp %u %u %s\n", Name.c_str(),
                   V.asFp().format().ExponentBits,
                   V.asFp().format().SignificandBits,
                   Bits.toUnsigned().toString().c_str());
    }
  }
}

/// Parses one protocol line into (Var, Value) against \p Manager.
bool parseModelLine(const std::string &Line, const TermManager &Manager,
                    Model &M) {
  std::istringstream In(Line);
  std::string Tag, Name, Sort;
  In >> Tag >> Name >> Sort;
  if (Tag != "var")
    return false;
  Term Var = Manager.lookupVariable(Name);
  if (!Var.isValid())
    return false;
  if (Sort == "bool") {
    int B = 0;
    In >> B;
    M.set(Var, Value(B != 0));
    return true;
  }
  if (Sort == "int") {
    std::string Digits;
    In >> Digits;
    auto V = BigInt::fromString(Digits);
    if (!V)
      return false;
    M.set(Var, Value(*V));
    return true;
  }
  if (Sort == "real") {
    std::string Fraction;
    In >> Fraction;
    auto V = Rational::fromString(Fraction);
    if (!V)
      return false;
    M.set(Var, Value(*V));
    return true;
  }
  if (Sort == "bv") {
    unsigned Width = 0;
    std::string Digits;
    In >> Width >> Digits;
    auto V = BigInt::fromString(Digits);
    if (!V || Width == 0)
      return false;
    M.set(Var, Value(BitVecValue(Width, *V)));
    return true;
  }
  if (Sort == "fp") {
    unsigned Eb = 0, Sb = 0;
    std::string Digits;
    In >> Eb >> Sb >> Digits;
    auto V = BigInt::fromString(Digits);
    if (!V || Eb < 2 || Sb < 2)
      return false;
    FpFormat Format{Eb, Sb};
    M.set(Var,
          Value(SoftFloat::fromBits(Format,
                                    BitVecValue(Format.totalBits(), *V))));
    return true;
  }
  return false;
}

class Z3ProcessBackend : public SolverBackend {
public:
  SolveResult solve(TermManager &Manager, const std::vector<Term> &Assertions,
                    const SolverOptions &Options) override {
    WallTimer Timer;
    SolveResult Result;

    int Pipe[2];
    if (pipe(Pipe) != 0) {
      Result.TimeSeconds = Timer.elapsedSeconds();
      return Result; // Unknown.
    }

    pid_t Child = fork();
    if (Child < 0) {
      close(Pipe[0]);
      close(Pipe[1]);
      Result.TimeSeconds = Timer.elapsedSeconds();
      return Result;
    }

    if (Child == 0) {
      // Child: run the in-process Z3 backend and stream the result.
      close(Pipe[0]);
      FILE *Out = fdopen(Pipe[1], "w");
      auto Inner = createZ3Solver();
      SolveResult R = Inner->solve(Manager, Assertions, Options);
      std::fprintf(Out, "status %s\n", std::string(toString(R.Status)).c_str());
      std::fprintf(Out, "time %.6f\n", R.TimeSeconds);
      if (R.Status == SolveStatus::Sat)
        serializeModel(Out, Manager, R.TheModel);
      std::fflush(Out);
      fclose(Out);
      _exit(0);
    }

    // Parent: read with a hard deadline.
    close(Pipe[1]);
    std::string Buffer;
    // Grace for fork/startup/IO, scaled so short bench timeouts are not
    // dominated by it.
    double Deadline = Options.TimeoutSeconds +
                      std::min(1.0, 0.2 + 0.25 * Options.TimeoutSeconds);
    bool ChildDone = false;
    char Chunk[4096];
    for (;;) {
      double Remaining = Deadline - Timer.elapsedSeconds();
      if (Remaining <= 0 || stopRequested(Options.Cancel))
        break;
      // With a cancellation token, cap each poll so the token is observed
      // within ~20ms; otherwise sleep until the deadline, or as long as an
      // int allows when the budget is longer than that.
      double MaxPollMs = std::numeric_limits<int>::max() - 1;
      int PollMs = static_cast<int>(std::min(MaxPollMs, Remaining * 1000)) + 1;
      if (Options.Cancel)
        PollMs = std::min(PollMs, 20);
      struct pollfd Pfd = {Pipe[0], POLLIN, 0};
      int Ready = poll(&Pfd, 1, PollMs);
      if (Ready <= 0)
        continue; // Timeout or EINTR: loop re-checks the deadline.
      ssize_t N = read(Pipe[0], Chunk, sizeof(Chunk));
      if (N <= 0) {
        ChildDone = true; // EOF: child finished writing.
        break;
      }
      Buffer.append(Chunk, static_cast<size_t>(N));
    }
    close(Pipe[0]);

    if (!ChildDone) {
      kill(Child, SIGKILL);
      waitpid(Child, nullptr, 0);
      Result.Status = SolveStatus::Unknown;
      Result.TimeSeconds = Timer.elapsedSeconds();
      return Result;
    }
    int ChildStatus = 0;
    waitpid(Child, &ChildStatus, 0);

    // Parse the protocol.
    std::istringstream In(Buffer);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.rfind("status ", 0) == 0) {
        std::string Status = Line.substr(7);
        Result.Status = Status == "sat"     ? SolveStatus::Sat
                        : Status == "unsat" ? SolveStatus::Unsat
                                            : SolveStatus::Unknown;
      } else if (Line.rfind("time ", 0) == 0) {
        // The child's self-reported solve time excludes fork overhead;
        // prefer the parent's wall measurement for fairness.
      } else if (Line.rfind("var ", 0) == 0) {
        parseModelLine(Line, Manager, Result.TheModel);
      }
    }
    Result.TimeSeconds = Timer.elapsedSeconds();
    return Result;
  }

  std::string_view name() const override { return "z3"; }
};

} // namespace

std::unique_ptr<SolverBackend> staub::createZ3ProcessSolver() {
  return std::make_unique<Z3ProcessBackend>();
}
