//===- solver/Sat.cpp - CDCL SAT solver -----------------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Sat.h"

#include <algorithm>
#include <cassert>
#include <queue>

using namespace staub;

/// Room a watch list gets on its first push.
static constexpr uint32_t MinWatchCapacity = 4;

unsigned SatSolver::newVar() {
  ++VarCount;
  Assigns.push_back(LBool::Undef);
  Levels.push_back(0);
  Reasons.push_back(-1);
  Activities.push_back(0.0);
  SavedPhases.push_back(false);
  Seen.push_back(false);
  HeapPosition.push_back(-1);
  Watches.resize(2 * (VarCount + 1));
  heapInsert(VarCount);
  return VarCount;
}

void SatSolver::heapPercolateUp(size_t Index) {
  unsigned Var = Heap[Index];
  while (Index > 0) {
    size_t Parent = (Index - 1) / 2;
    if (!heapLess(Var, Heap[Parent]))
      break;
    Heap[Index] = Heap[Parent];
    HeapPosition[Heap[Index] - 1] = static_cast<int>(Index);
    Index = Parent;
  }
  Heap[Index] = Var;
  HeapPosition[Var - 1] = static_cast<int>(Index);
}

void SatSolver::heapPercolateDown(size_t Index) {
  unsigned Var = Heap[Index];
  size_t Size = Heap.size();
  for (;;) {
    size_t Left = 2 * Index + 1;
    if (Left >= Size)
      break;
    size_t Child = Left;
    if (Left + 1 < Size && heapLess(Heap[Left + 1], Heap[Left]))
      Child = Left + 1;
    if (!heapLess(Heap[Child], Var))
      break;
    Heap[Index] = Heap[Child];
    HeapPosition[Heap[Index] - 1] = static_cast<int>(Index);
    Index = Child;
  }
  Heap[Index] = Var;
  HeapPosition[Var - 1] = static_cast<int>(Index);
}

void SatSolver::heapInsert(unsigned Var) {
  if (HeapPosition[Var - 1] >= 0)
    return;
  Heap.push_back(Var);
  HeapPosition[Var - 1] = static_cast<int>(Heap.size() - 1);
  heapPercolateUp(Heap.size() - 1);
}

unsigned SatSolver::heapExtractTop() {
  unsigned Top = Heap[0];
  HeapPosition[Top - 1] = -1;
  unsigned Last = Heap.back();
  Heap.pop_back();
  if (!Heap.empty()) {
    Heap[0] = Last;
    HeapPosition[Last - 1] = 0;
    heapPercolateDown(0);
  }
  return Top;
}

LBool SatSolver::value(Lit L) const {
  LBool V = Assigns[L.var() - 1];
  if (V == LBool::Undef)
    return LBool::Undef;
  bool IsTrue = (V == LBool::True) != L.negated();
  return IsTrue ? LBool::True : LBool::False;
}

bool SatSolver::modelValue(unsigned Var) const {
  return Assigns[Var - 1] == LBool::True;
}

/// Appends \p Lits to the pool as a clause, reusing the most recently
/// freed slot first.
uint32_t SatSolver::allocClause(const Lit *Lits, size_t Size, bool Learnt) {
  Clause C;
  C.Begin = LitPool.size();
  C.Size = static_cast<uint32_t>(Size);
  C.Learnt = Learnt;
  LitPool.insert(LitPool.end(), Lits, Lits + Size);
  if (Learnt)
    ++LearntCount;
  if (FreeClauseSlots.empty()) {
    Clauses.push_back(C);
    return static_cast<uint32_t>(Clauses.size() - 1);
  }
  uint32_t Index = FreeClauseSlots.back();
  FreeClauseSlots.pop_back();
  Clauses[Index] = C;
  return Index;
}

void SatSolver::pushWatch(unsigned LitIndex, Watcher W) {
  WatchList &List = Watches[LitIndex];
  if (List.Size == List.Capacity) {
    size_t Begin = WatchPool.size();
    List.Capacity = std::max(2 * List.Capacity, MinWatchCapacity);
    WatchPool.resize(Begin + List.Capacity);
    std::copy_n(WatchPool.begin() + List.Begin, List.Size,
                WatchPool.begin() + Begin);
    List.Begin = Begin;
  }
  WatchPool[List.Begin + List.Size++] = W;
}

void SatSolver::watchClause(uint32_t Index) {
  const Clause &C = Clauses[Index];
  assert(C.Size >= 2 && "watching a short clause");
  const Lit *Lits = lits(C);
  pushWatch((~Lits[0]).index(), {Index, Lits[1]});
  pushWatch((~Lits[1]).index(), {Index, Lits[0]});
}

bool SatSolver::addLits(const Lit *Lits, size_t Size) {
  if (Unsatisfiable)
    return false;
  // Clauses may arrive between solve() calls (e.g. DPLL(T) blocking
  // clauses) while the trail still holds the last model; reset first.
  backtrack(0);

  // Normalize in place: drop duplicates and false literals, detect
  // tautologies and satisfied clauses.
  std::vector<Lit> &Clause = AddBuffer;
  Clause.assign(Lits, Lits + Size);
  std::sort(Clause.begin(), Clause.end(),
            [](Lit A, Lit B) { return A.index() < B.index(); });
  size_t Kept = 0;
  for (size_t I = 0; I < Clause.size(); ++I) {
    Lit L = Clause[I];
    if (I + 1 < Clause.size() && Clause[I + 1] == ~L)
      return true; // Tautology.
    if (I > 0 && Clause[I - 1] == L)
      continue;
    LBool V = value(L);
    if (V == LBool::True)
      return true; // Already satisfied at level 0.
    if (V == LBool::False)
      continue; // Falsified at level 0; drop.
    Clause[Kept++] = L;
  }

  if (Kept == 0) {
    Unsatisfiable = true;
    return false;
  }
  if (Kept == 1) {
    enqueue(Clause[0], -1);
    if (propagate() >= 0) {
      Unsatisfiable = true;
      return false;
    }
    return true;
  }
  watchClause(allocClause(Clause.data(), Kept, /*Learnt=*/false));
  return true;
}

void SatSolver::enqueue(Lit L, int32_t Reason) {
  assert(value(L) == LBool::Undef && "enqueue of assigned literal");
  Assigns[L.var() - 1] = L.negated() ? LBool::False : LBool::True;
  Levels[L.var() - 1] = decisionLevel();
  Reasons[L.var() - 1] = Reason;
  Trail.push_back(L);
}

int32_t SatSolver::propagate() {
  while (PropagationHead < Trail.size()) {
    Lit P = Trail[PropagationHead++];
    ++Propagations;
    // The walk addresses P's watchers by index: a push below may move the
    // pool. It never moves P's own list, which holds the watches of the
    // false literal ~P, while a new watch is never false.
    WatchList &List = Watches[P.index()];
    const size_t Begin = List.Begin;
    const uint32_t Size = List.Size;
    uint32_t Out = 0;
    for (uint32_t In = 0; In < Size; ++In) {
      Watcher W = WatchPool[Begin + In];
      if (value(W.Blocker) == LBool::True) {
        WatchPool[Begin + Out++] = W;
        continue;
      }
      const Clause &C = Clauses[W.ClauseIndex];
      Lit *Lits = lits(C);
      Lit FalseLit = ~P;
      // Put the false watched literal at position 1.
      if (Lits[0] == FalseLit)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == FalseLit && "watch bookkeeping broken");
      if (value(Lits[0]) == LBool::True) {
        WatchPool[Begin + Out++] = {W.ClauseIndex, Lits[0]};
        continue;
      }
      // Look for a replacement watch.
      bool FoundWatch = false;
      for (size_t K = 2; K < C.Size; ++K) {
        if (value(Lits[K]) != LBool::False) {
          std::swap(Lits[1], Lits[K]);
          pushWatch((~Lits[1]).index(), {W.ClauseIndex, Lits[0]});
          FoundWatch = true;
          break;
        }
      }
      if (FoundWatch)
        continue;
      // Clause is unit or conflicting.
      WatchPool[Begin + Out++] = W;
      if (value(Lits[0]) == LBool::False) {
        // Conflict: restore remaining watchers and report.
        for (uint32_t K = In + 1; K < Size; ++K)
          WatchPool[Begin + Out++] = WatchPool[Begin + K];
        List.Size = Out;
        return static_cast<int32_t>(W.ClauseIndex);
      }
      enqueue(Lits[0], static_cast<int32_t>(W.ClauseIndex));
    }
    List.Size = Out;
  }
  return -1;
}

void SatSolver::bumpVariable(unsigned Var) {
  Activities[Var - 1] += ActivityIncrement;
  if (Activities[Var - 1] > 1e100) {
    for (double &A : Activities)
      A *= 1e-100;
    ActivityIncrement *= 1e-100;
    // Activities rescaled uniformly: heap order is unchanged.
  }
  if (HeapPosition[Var - 1] >= 0)
    heapPercolateUp(static_cast<size_t>(HeapPosition[Var - 1]));
}

void SatSolver::decayActivities() { ActivityIncrement *= 1.0 / 0.95; }

void SatSolver::analyze(int32_t ConflictIndex, std::vector<Lit> &Learnt,
                        int &BacktrackLevel) {
  Learnt.clear();
  Learnt.push_back(Lit()); // Placeholder for the asserting literal.
  int Counter = 0;
  Lit P;
  bool PValid = false;
  size_t TrailIndex = Trail.size();

  int32_t Reason = ConflictIndex;
  do {
    assert(Reason >= 0 && "no reason during conflict analysis");
    const Clause &C = Clauses[Reason];
    const Lit *Lits = lits(C);
    for (size_t I = PValid ? 1 : 0; I < C.Size; ++I) {
      Lit Q = Lits[I];
      unsigned Var = Q.var();
      if (Seen[Var - 1] || Levels[Var - 1] == 0)
        continue;
      Seen[Var - 1] = true;
      bumpVariable(Var);
      if (Levels[Var - 1] >= decisionLevel())
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Select the next literal to resolve on.
    while (!Seen[Trail[TrailIndex - 1].var() - 1])
      --TrailIndex;
    --TrailIndex;
    P = Trail[TrailIndex];
    PValid = true;
    Reason = Reasons[P.var() - 1];
    Seen[P.var() - 1] = false;
    --Counter;
  } while (Counter > 0);
  Learnt[0] = ~P;

  // Find the backtrack level (second highest level in the clause).
  BacktrackLevel = 0;
  size_t MaxIndex = 1;
  for (size_t I = 1; I < Learnt.size(); ++I) {
    int Level = Levels[Learnt[I].var() - 1];
    if (Level > BacktrackLevel) {
      BacktrackLevel = Level;
      MaxIndex = I;
    }
  }
  if (Learnt.size() > 1)
    std::swap(Learnt[1], Learnt[MaxIndex]);
  for (size_t I = 1; I < Learnt.size(); ++I)
    Seen[Learnt[I].var() - 1] = false;
}

/// MiniSat's final-conflict analysis: \p Assumption was found false while
/// injecting assumptions, so the clause database refutes some subset of
/// them. Walk reason chains backwards from the falsified assumption's
/// variable; every decision reached is an assumption (only assumptions
/// are decided at levels 1..n during injection) and joins the core.
void SatSolver::analyzeFinal(Lit Assumption) {
  FailedAssumptions.clear();
  FailedAssumptions.push_back(Assumption);
  unsigned AssumptionVar = Assumption.var();
  // Falsified at level 0: the database alone implies its negation, so
  // the singleton core is already exact.
  if (decisionLevel() == 0 || Levels[AssumptionVar - 1] == 0)
    return;
  Seen[AssumptionVar - 1] = true;
  for (size_t I = Trail.size(); I-- > TrailLimits[0];) {
    unsigned Var = Trail[I].var();
    if (!Seen[Var - 1])
      continue;
    Seen[Var - 1] = false;
    int32_t Reason = Reasons[Var - 1];
    if (Reason < 0) {
      // An assumption decision, in exactly the polarity it was passed.
      FailedAssumptions.push_back(Trail[I]);
      continue;
    }
    const Clause &C = Clauses[Reason];
    const Lit *Lits = lits(C);
    for (size_t K = 1; K < C.Size; ++K) {
      unsigned Antecedent = Lits[K].var();
      if (Levels[Antecedent - 1] > 0)
        Seen[Antecedent - 1] = true;
    }
  }
}

void SatSolver::backtrack(int Level) {
  if (decisionLevel() <= Level)
    return;
  size_t Limit = TrailLimits[Level];
  for (size_t I = Trail.size(); I-- > Limit;) {
    unsigned Var = Trail[I].var();
    SavedPhases[Var - 1] = Assigns[Var - 1] == LBool::True;
    Assigns[Var - 1] = LBool::Undef;
    Reasons[Var - 1] = -1;
    heapInsert(Var);
  }
  Trail.resize(Limit);
  TrailLimits.resize(Level);
  PropagationHead = Trail.size();
}

Lit SatSolver::pickDecision() {
  while (!Heap.empty()) {
    unsigned Var = heapExtractTop();
    if (Assigns[Var - 1] == LBool::Undef)
      return Lit(Var, !SavedPhases[Var - 1]);
  }
  return Lit();
}

void SatSolver::reduceLearnts() {
  // Collect learnt clauses that are not currently reasons.
  std::vector<uint32_t> Candidates;
  for (uint32_t I = 0; I < Clauses.size(); ++I) {
    const Clause &C = Clauses[I];
    if (!C.Learnt || C.Size <= 2)
      continue;
    unsigned HeadVar = lits(C)[0].var();
    if (Reasons[HeadVar - 1] == static_cast<int32_t>(I) &&
        Assigns[HeadVar - 1] != LBool::Undef)
      continue; // Locked.
    Candidates.push_back(I);
  }
  std::sort(Candidates.begin(), Candidates.end(),
            [this](uint32_t A, uint32_t B) {
              return Clauses[A].Activity < Clauses[B].Activity;
            });
  size_t Remove = Candidates.size() / 2;
  for (size_t I = 0; I < Remove; ++I) {
    Clauses[Candidates[I]].Size = 0;
    FreeClauseSlots.push_back(Candidates[I]);
  }
  LearntCount -= Remove;
  // Compact the literal pool in clause order (reused slots sit out of pool
  // order, so this copies rather than sliding in place) and rebuild all
  // watch lists. The watch pool is laid out afresh with every list at its
  // old capacity, which drops the garbage of moved lists; a list only
  // loses watchers here, so the rebuild moves none.
  std::vector<Lit> Compacted;
  Compacted.reserve(LitPool.size());
  size_t WatchPoolSize = 0;
  for (WatchList &List : Watches) {
    List.Begin = WatchPoolSize;
    List.Size = 0;
    WatchPoolSize += List.Capacity;
  }
  WatchPool.resize(WatchPoolSize);
  for (uint32_t I = 0; I < Clauses.size(); ++I) {
    Clause &C = Clauses[I];
    if (C.Size < 2)
      continue;
    const Lit *Lits = lits(C);
    C.Begin = Compacted.size();
    Compacted.insert(Compacted.end(), Lits, Lits + C.Size);
  }
  LitPool.swap(Compacted);
  for (uint32_t I = 0; I < Clauses.size(); ++I)
    if (Clauses[I].Size >= 2)
      watchClause(I);
}

/// Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
static uint64_t luby(uint64_t I) {
  uint64_t Size = 1, Seq = 0;
  while (Size < I + 1) {
    ++Seq;
    Size = 2 * Size + 1;
  }
  while (Size - 1 != I) {
    Size = (Size - 1) / 2;
    --Seq;
    I = I % Size;
  }
  return uint64_t(1) << Seq;
}

SatStatus SatSolver::solve(const SatBudget &Budget,
                           const std::vector<Lit> &Assumptions) {
  // An empty failed-assumption set under Unsat means the database itself
  // is unsatisfiable; analyzeFinal overwrites it when assumptions are to
  // blame.
  FailedAssumptions.clear();
  if (Unsatisfiable)
    return SatStatus::Unsat;
  backtrack(0);
  if (propagate() >= 0) {
    Unsatisfiable = true;
    return SatStatus::Unsat;
  }

  uint64_t ConflictsAtStart = Conflicts;
  uint64_t PropagationsAtStart = Propagations;
  std::vector<Lit> &Learnt = LearntBuffer;
  uint64_t RestartNumber = 0;
  // Cancellation is polled every StepMask+1 conflicts-or-decisions: one
  // relaxed atomic load per batch keeps the hot loop overhead below 1%.
  constexpr uint64_t StepMask = 63;
  uint64_t Steps = 0;

  for (;;) {
    uint64_t RestartLimit = 100 * luby(RestartNumber++);
    uint64_t RestartConflicts = 0;

    for (;;) {
      int32_t Conflict = propagate();
      if (Conflict >= 0) {
        ++Conflicts;
        ++RestartConflicts;
        if (decisionLevel() == 0) {
          // Level-0 assignments derive from the clauses alone (assumptions
          // sit at levels >= 1), so this refutation is global and sticky.
          Unsatisfiable = true;
          return SatStatus::Unsat;
        }
        int BacktrackLevel = 0;
        analyze(Conflict, Learnt, BacktrackLevel);
        backtrack(BacktrackLevel);
        if (Learnt.size() == 1) {
          backtrack(0);
          if (value(Learnt[0]) == LBool::Undef)
            enqueue(Learnt[0], -1);
          else if (value(Learnt[0]) == LBool::False) {
            // A learnt unit contradicted at level 0: global unsat, as
            // learnt clauses are implied by the database alone.
            Unsatisfiable = true;
            return SatStatus::Unsat;
          }
        } else {
          uint32_t Index =
              allocClause(Learnt.data(), Learnt.size(), /*Learnt=*/true);
          Clauses[Index].Activity = ActivityIncrement;
          watchClause(Index);
          enqueue(Learnt[0], static_cast<int32_t>(Index));
        }
        decayActivities();
        if (Conflicts - ConflictsAtStart >= Budget.MaxConflicts ||
            Propagations - PropagationsAtStart >= Budget.MaxPropagations ||
            ((++Steps & StepMask) == 0 && Budget.Cancel &&
             Budget.Cancel->shouldStop())) {
          backtrack(0);
          return SatStatus::Unknown;
        }
        if (RestartConflicts >= RestartLimit) {
          backtrack(0);
          break; // Restart.
        }
        continue;
      }

      // No conflict: first satisfy assumptions, then decide.
      if (decisionLevel() < static_cast<int>(Assumptions.size())) {
        Lit Assumption = Assumptions[decisionLevel()];
        LBool V = value(Assumption);
        if (V == LBool::False) {
          analyzeFinal(Assumption);
          return SatStatus::Unsat;
        }
        TrailLimits.push_back(Trail.size());
        if (V == LBool::Undef)
          enqueue(Assumption, -1);
        continue;
      }
      // Sat-leaning instances can run long decision streaks with few
      // conflicts; poll cancellation on this side of the loop too.
      if ((++Steps & StepMask) == 0 && Budget.Cancel &&
          Budget.Cancel->shouldStop()) {
        backtrack(0);
        return SatStatus::Unknown;
      }
      Lit Decision = pickDecision();
      if (!Decision.var())
        return SatStatus::Sat;
      ++Decisions;
      TrailLimits.push_back(Trail.size());
      enqueue(Decision, -1);
    }

    // Periodically shed inactive learnt clauses.
    if (LearntCount > 2000 + Clauses.size() / 2)
      reduceLearnts();
  }
}
