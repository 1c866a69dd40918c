//===- solver/Sat.h - CDCL SAT solver ---------------------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, first-UIP conflict analysis, VSIDS-style activity
/// decisions with phase saving, and Luby restarts. This is the engine
/// under MiniSMT's bit-blasting path and the boolean skeleton of its lazy
/// arithmetic path — the substrate that makes bounded (bitvector)
/// constraints fast, which is the performance gap STAUB's theory
/// arbitrage exploits.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SOLVER_SAT_H
#define STAUB_SOLVER_SAT_H

#include "support/Cancellation.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace staub {

/// A literal: variable index (1-based) with sign. Encoded internally as
/// 2*var + sign.
class Lit {
public:
  Lit() : Encoded(0) {}
  Lit(unsigned Var, bool Negated) : Encoded(2 * Var + (Negated ? 1 : 0)) {}

  static Lit fromDimacs(int Dimacs) {
    return Lit(static_cast<unsigned>(Dimacs > 0 ? Dimacs : -Dimacs),
               Dimacs < 0);
  }

  unsigned var() const { return Encoded >> 1; }
  bool negated() const { return Encoded & 1; }
  Lit operator~() const {
    Lit Result;
    Result.Encoded = Encoded ^ 1;
    return Result;
  }
  unsigned index() const { return Encoded; }
  bool operator==(const Lit &RHS) const = default;

private:
  unsigned Encoded;
};

/// Tri-state assignment value.
enum class LBool : int8_t { False = -1, Undef = 0, True = 1 };

/// Outcome of a SAT call.
enum class SatStatus { Sat, Unsat, Unknown };

/// Resource budget for a solve call; Unknown is returned on exhaustion.
struct SatBudget {
  uint64_t MaxConflicts = UINT64_MAX;
  uint64_t MaxPropagations = UINT64_MAX;
  /// Cooperative cancellation, polled every CancelCheckPeriod conflicts
  /// and decisions so the CDCL hot loop stays branch-predictable.
  const CancellationToken *Cancel = nullptr;
};

/// CDCL solver. Usage: newVar() for each variable, addClause(), solve().
class SatSolver {
public:
  SatSolver() = default;

  /// Allocates a new variable and returns its index (1-based).
  unsigned newVar();

  /// Number of allocated variables.
  unsigned numVars() const { return VarCount; }

  /// Adds a clause; returns false if the formula is already trivially
  /// unsatisfiable (empty clause or conflicting units at level 0).
  bool addClause(std::vector<Lit> Clause);

  /// Convenience single/double/triple literal clauses.
  bool addUnit(Lit A) { return addClause({A}); }
  bool addBinary(Lit A, Lit B) { return addClause({A, B}); }
  bool addTernary(Lit A, Lit B, Lit C) { return addClause({A, B, C}); }

  /// Solves under the given budget with optional assumptions. Learnt
  /// clauses and variable activities persist across calls, so a sequence
  /// of assumption solves over a growing clause database is incremental
  /// in the MiniSat sense.
  SatStatus solve(const SatBudget &Budget = {},
                  const std::vector<Lit> &Assumptions = {});

  /// After an Unsat result from an assumption solve: the subset of the
  /// assumption literals (in the polarity they were passed) whose
  /// conjunction the clause database refutes. Empty when the database is
  /// unsatisfiable on its own — i.e. the assumptions are not to blame.
  const std::vector<Lit> &failedAssumptions() const {
    return FailedAssumptions;
  }

  /// Model access after a Sat result.
  bool modelValue(unsigned Var) const;
  LBool value(Lit L) const;

  /// Statistics.
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numPropagations() const { return Propagations; }
  uint64_t numDecisions() const { return Decisions; }

  /// Learnt clauses currently alive in the database (survivors of
  /// reduceLearnts); the escalation driver reports these as reused work.
  size_t numLearnts() const;

private:
  struct Clause {
    std::vector<Lit> Lits;
    double Activity = 0.0;
    bool Learnt = false;
  };

  struct Watcher {
    uint32_t ClauseIndex;
    Lit Blocker;
  };

  unsigned VarCount = 0;
  std::vector<Clause> Clauses;
  std::vector<uint32_t> FreeClauseSlots;
  std::vector<std::vector<Watcher>> Watches; ///< Indexed by literal index.
  std::vector<LBool> Assigns;                ///< Indexed by variable.
  std::vector<int> Levels;                   ///< Decision level per variable.
  std::vector<int32_t> Reasons;              ///< Clause index or -1.
  std::vector<Lit> Trail;
  std::vector<size_t> TrailLimits;
  size_t PropagationHead = 0;

  std::vector<double> Activities;
  double ActivityIncrement = 1.0;
  std::vector<bool> SavedPhases;
  std::vector<bool> Seen; ///< Scratch for conflict analysis.

  /// Activity-ordered max-heap of decision candidates (MiniSat-style
  /// order heap). HeapPosition[var-1] is the index in Heap or -1.
  std::vector<unsigned> Heap;
  std::vector<int> HeapPosition;
  bool heapLess(unsigned A, unsigned B) const {
    return Activities[A - 1] > Activities[B - 1];
  }
  void heapPercolateUp(size_t Index);
  void heapPercolateDown(size_t Index);
  void heapInsert(unsigned Var);
  unsigned heapExtractTop();

  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t Decisions = 0;
  bool Unsatisfiable = false;
  std::vector<Lit> FailedAssumptions;

  int decisionLevel() const { return static_cast<int>(TrailLimits.size()); }
  void enqueue(Lit L, int32_t Reason);
  int32_t propagate(); ///< Returns conflicting clause index or -1.
  void analyze(int32_t ConflictIndex, std::vector<Lit> &Learnt,
               int &BacktrackLevel);
  void analyzeFinal(Lit Assumption);
  void backtrack(int Level);
  Lit pickDecision();
  void bumpVariable(unsigned Var);
  void decayActivities();
  void reduceLearnts();
  uint32_t allocClause(std::vector<Lit> Lits, bool Learnt);
  void watchClause(uint32_t Index);
};

} // namespace staub

#endif // STAUB_SOLVER_SAT_H
