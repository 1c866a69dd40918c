//===- solver/Sat.h - CDCL SAT solver ---------------------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A conflict-driven clause-learning SAT solver: two-watched-literal
/// propagation, first-UIP conflict analysis, VSIDS-style activity
/// decisions with phase saving (from an initial phase the caller may give
/// each variable), and Luby restarts. This is the engine
/// under MiniSMT's bit-blasting path and the boolean skeleton of its lazy
/// arithmetic path — the substrate that makes bounded (bitvector)
/// constraints fast, which is the performance gap STAUB's theory
/// arbitrage exploits.
///
/// Storage is two pools, so clause intake and teardown make no allocation
/// per clause or per literal: every clause's literals sit back to back in
/// one literal pool, and every literal's watch list is a slice of one
/// watch pool (see WatchList for when a list moves and what a push
/// invalidates). Intake normalizes a short clause in a stack array.
///
/// Those pools and every other growable buffer outlive the solver: a dying
/// solver clears them, keeps their capacity and parks them for the next
/// solver its thread constructs, so a stream of solves (a staubd worker,
/// the ladder's frames) does not fault the same pages in again for each
/// one. A thread parks at most one set, of at most 64 MiB, and frees it
/// when the thread exits; no set crosses threads, and a solver built while
/// another is alive on its thread starts empty. Only capacities differ, so
/// the search is that of a fresh solver
/// (SatTest.RecycledStorageSearchesAsFresh). Under ASan a parked set is
/// poisoned, so a stale pointer into a dead solver is still reported.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SOLVER_SAT_H
#define STAUB_SOLVER_SAT_H

#include "support/Cancellation.h"

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
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
  /// Adopts the buffers a dead solver parked on this thread, if any.
  SatSolver();
  /// Parks the buffers for the next solver on this thread (see the file
  /// comment).
  ~SatSolver();
  /// A BitBlaster holds a reference to its solver, so a solver never
  /// copies or moves.
  SatSolver(const SatSolver &) = delete;
  SatSolver &operator=(const SatSolver &) = delete;

  /// Allocates a new variable and returns its index (1-based). The search
  /// decides it \p InitialPhase first, until phase saving records the
  /// value it last had.
  unsigned newVar(bool InitialPhase = false);

  /// The value the search would give \p L: its value if it is assigned at
  /// level 0, else its variable's saved (at first, initial) phase.
  bool phase(Lit L) const;

  /// Number of allocated variables.
  unsigned numVars() const { return VarCount; }

  /// Adds a clause; returns false if the formula is already trivially
  /// unsatisfiable (empty clause or conflicting units at level 0).
  bool addClause(const std::vector<Lit> &Clause) {
    return addLits(Clause.data(), Clause.size());
  }
  bool addClause(std::initializer_list<Lit> Clause) {
    return addLits(Clause.begin(), Clause.size());
  }

  /// Convenience single/double/triple literal clauses.
  bool addUnit(Lit A) { return addLits(&A, 1); }
  bool addBinary(Lit A, Lit B) {
    const Lit Lits[] = {A, B};
    return addLits(Lits, 2);
  }
  bool addTernary(Lit A, Lit B, Lit C) {
    const Lit Lits[] = {A, B, C};
    return addLits(Lits, 3);
  }

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
    return Buf.FailedAssumptions;
  }

  /// Model access after a Sat result.
  bool modelValue(unsigned Var) const;
  LBool value(Lit L) const;

  /// Statistics.
  uint64_t numConflicts() const { return Conflicts; }
  uint64_t numPropagations() const { return Propagations; }
  uint64_t numDecisions() const { return Decisions; }

  /// Learnt clauses currently alive in the database (survivors of
  /// reduceLearnts).
  size_t numLearnts() const { return LearntCount; }

private:
  /// A clause is the slice [Begin, Begin + Size) of LitPool. Size 0 marks
  /// a slot freed by reduceLearnts and awaiting reuse; its old literals
  /// stay in the pool as garbage until the next reduceLearnts compacts it.
  struct Clause {
    size_t Begin = 0;
    uint32_t Size = 0;
    bool Learnt = false;
    double Activity = 0.0;
  };

  /// The literals of \p C. Valid until the pool next grows (a clause is
  /// allocated) or is compacted (reduceLearnts).
  Lit *lits(const Clause &C) { return Buf.LitPool.data() + C.Begin; }

  struct Watcher {
    uint32_t ClauseIndex;
    Lit Blocker;
  };

  /// A literal's watch list is the slice [Begin, Begin + Size) of
  /// WatchPool, with room for Capacity watchers. A push onto a full list
  /// moves the list to the pool's end at twice its capacity; its old slots
  /// stay in the pool as garbage until reduceLearnts compacts it. So any
  /// push may move the pool: it invalidates every pointer or reference
  /// into WatchPool (indices stay valid), and it moves the pushed-to list
  /// itself when that list was full.
  struct WatchList {
    size_t Begin = 0;
    uint32_t Size = 0;
    uint32_t Capacity = 0;
  };

  /// Every growable buffer, so that the solver can park them all at once.
  /// Flags are bytes, not std::vector<bool>, so every buffer has a data()
  /// to poison.
  struct Buffers {
    std::vector<Clause> Clauses;
    std::vector<Lit> LitPool; ///< Every clause's literals, back to back.
    std::vector<uint32_t> FreeClauseSlots;
    std::vector<Lit> AddBuffer;    ///< Scratch for normalizing long clauses.
    std::vector<Lit> LearntBuffer; ///< Scratch for conflict analysis.
    std::vector<Watcher> WatchPool; ///< Every watch list, in slices.
    std::vector<WatchList> Watches; ///< Indexed by literal index.
    std::vector<LBool> Assigns;     ///< Indexed by variable.
    std::vector<int> Levels;        ///< Decision level per variable.
    std::vector<int32_t> Reasons;   ///< Clause index or -1.
    std::vector<Lit> Trail;
    std::vector<size_t> TrailLimits;
    std::vector<double> Activities;
    std::vector<uint8_t> SavedPhases;
    std::vector<uint8_t> Seen; ///< Scratch for conflict analysis.
    /// Activity-ordered max-heap of decision candidates (MiniSat-style
    /// order heap). HeapPosition[var-1] is the index in Heap or -1.
    std::vector<unsigned> Heap;
    std::vector<int> HeapPosition;
    std::vector<Lit> FailedAssumptions;

    Buffers() = default;
    Buffers(Buffers &&) = default;
    Buffers &operator=(Buffers &&) = default;
    /// Unpoisons a parked set (ASan) so that it is freed clean.
    ~Buffers() { setPoisoned(false); }

    /// Applies \p F to every buffer.
    template <typename Fn> void forEach(Fn F) {
      F(Clauses), F(LitPool), F(FreeClauseSlots), F(AddBuffer),
          F(LearntBuffer), F(WatchPool), F(Watches), F(Assigns), F(Levels),
          F(Reasons), F(Trail), F(TrailLimits), F(Activities),
          F(SavedPhases), F(Seen), F(Heap), F(HeapPosition),
          F(FailedAssumptions);
    }
    size_t capacityBytes();
    void setPoisoned(bool Poisoned);
  };
  /// The calling thread's parked buffers, if a dead solver left any.
  static std::optional<Buffers> &parked();

  Buffers Buf;
  unsigned VarCount = 0;
  size_t LearntCount = 0;
  size_t PropagationHead = 0;
  double ActivityIncrement = 1.0;

  bool heapLess(unsigned A, unsigned B) const {
    return Buf.Activities[A - 1] > Buf.Activities[B - 1];
  }
  void heapPercolateUp(size_t Index);
  void heapPercolateDown(size_t Index);
  void heapInsert(unsigned Var);
  unsigned heapExtractTop();

  uint64_t Conflicts = 0;
  uint64_t Propagations = 0;
  uint64_t Decisions = 0;
  bool Unsatisfiable = false;

  int decisionLevel() const {
    return static_cast<int>(Buf.TrailLimits.size());
  }
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
  bool addLits(const Lit *Lits, size_t Size);
  uint32_t allocClause(const Lit *Lits, size_t Size, bool Learnt);
  void watchClause(uint32_t Index);
  /// Appends \p W to the watch list of the literal with index \p LitIndex.
  void pushWatch(unsigned LitIndex, Watcher W);
};

} // namespace staub

#endif // STAUB_SOLVER_SAT_H
