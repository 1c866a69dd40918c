//===- solver/Solver.h - Solver backend interface ---------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver-agnostic backend interface STAUB is built against (the paper
/// stresses that theory arbitrage works with any SMT-LIB-compliant
/// solver). Two implementations exist: the Z3 adapter (z3adapter/) and the
/// from-scratch MiniSMT solver (this directory), which stands in for CVC5
/// in the evaluation.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SOLVER_SOLVER_H
#define STAUB_SOLVER_SOLVER_H

#include "smtlib/Term.h"
#include "support/Cancellation.h"
#include "theory/Evaluator.h"

#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace staub {

/// Outcome of a solve call.
enum class SolveStatus { Sat, Unsat, Unknown };

/// Returns "sat", "unsat", or "unknown".
inline std::string_view toString(SolveStatus Status) {
  switch (Status) {
  case SolveStatus::Sat:
    return "sat";
  case SolveStatus::Unsat:
    return "unsat";
  case SolveStatus::Unknown:
    return "unknown";
  }
  return "unknown";
}

/// Empty and unused: perfbench names it, so it stays until the next
/// benchmark change.
struct SharedSolveCaches {};

/// Per-call resource limits. Timeouts produce Unknown, matching how the
/// paper counts solver timeouts.
struct SolverOptions {
  double TimeoutSeconds = 5.0;
  /// Optional cooperative cancellation (not owned; must outlive the solve
  /// call). Backends poll it at coarse-grained points and return Unknown
  /// promptly once it fires — the racing portfolio's first-result-wins
  /// semantics depend on this.
  const CancellationToken *Cancel = nullptr;
  /// Never read; perfbench names it.
  SharedSolveCaches *Shared = nullptr;
};

/// Reads a solve budget given from outside the program (a `--timeout`
/// flag, a staubd `timeout=` token): the whole of \p Text must spell a
/// finite number of seconds above 0; nullopt otherwise.
inline std::optional<double> parseTimeoutSeconds(const std::string &Text) {
  char *End = nullptr;
  double Seconds = std::strtod(Text.c_str(), &End);
  if (*End != '\0' || !std::isfinite(Seconds) || Seconds <= 0)
    return std::nullopt;
  return Seconds;
}

/// Result of a solve call. TheModel is meaningful only when Status is Sat.
struct SolveResult {
  SolveStatus Status = SolveStatus::Unknown;
  Model TheModel;
  double TimeSeconds = 0.0;
};

/// A bounded-solving session for the width-escalation ladder. Each
/// escalation step pushes a *frame*: the Int constraints translated at the
/// next width plus that width's overflow guards. A frame replaces the one
/// before it: the hard assertions hold outright, every guard gets its own
/// selector literal, and solve() assumes the selectors. After an unsat
/// answer the failed-assumption core tells the driver whether the guards
/// are to blame (escalate) or the translated constraints themselves are
/// (revert).
class IncrementalBvSession {
public:
  virtual ~IncrementalBvSession() = default;

  /// Replaces the current frame with a new width's. \p Hard are the
  /// translated assertions, \p Guards the no-overflow side conditions;
  /// both are bit-blasted immediately.
  virtual void pushFrame(const std::vector<Term> &Hard,
                         const std::vector<Term> &Guards) = 0;

  /// Solves the newest frame under its guard selectors.
  virtual SolveStatus solve(const SolverOptions &Options) = 0;

  /// After an Unsat solve: whether the failed-assumption core contains at
  /// least one of the newest frame's guard selectors. False means the
  /// refutation stands without any guard, i.e. the bounded instance is
  /// genuinely unsat at this width.
  virtual bool coreHasGuards() const = 0;

  /// After a Sat solve: values for \p Variables.
  virtual Model model(const std::vector<Term> &Variables) const = 0;

  /// Always 0 for MiniSMT, whose frames share no clauses; perfbench names
  /// it.
  virtual uint64_t clausesReused() const = 0;

  /// CNF-memo hits while bit-blasting all frames so far, summed over
  /// frames.
  virtual uint64_t blastCacheHits() const = 0;
};

/// Abstract solver backend.
class SolverBackend {
public:
  virtual ~SolverBackend() = default;

  /// Decides the conjunction of \p Assertions.
  virtual SolveResult solve(TermManager &Manager,
                            const std::vector<Term> &Assertions,
                            const SolverOptions &Options) = 0;

  /// Human-readable backend name ("z3", "minismt").
  virtual std::string_view name() const = 0;

  /// Whether openIncrementalBv() is available. Process-level backends
  /// (e.g. the Z3 adapter) cannot hold solver state across calls, so the
  /// escalation driver falls back to the paper's revert behaviour there.
  virtual bool supportsIncrementalBv() const { return false; }

  /// Opens an incremental session over \p Manager (which must outlive
  /// it). Returns nullptr when unsupported.
  virtual std::unique_ptr<IncrementalBvSession>
  openIncrementalBv(const TermManager &Manager) {
    (void)Manager;
    return nullptr;
  }
};

/// Creates the internal from-scratch solver.
std::unique_ptr<SolverBackend> createMiniSmtSolver();

} // namespace staub

#endif // STAUB_SOLVER_SOLVER_H
