//===- solver/Sat.cpp - CDCL SAT solver -----------------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Sat.h"

#include <algorithm>
#include <cassert>
#include <queue>
#include <sanitizer/asan_interface.h>

using namespace staub;

/// Room a watch list gets on its first push.
static constexpr uint32_t MinWatchCapacity = 4;

/// The longest clause addLits normalizes in a stack array.
static constexpr size_t MaxShortClause = 8;

/// The most buffer capacity a dying solver parks. A larger set is freed, so
/// one huge query does not pin its memory for the rest of its thread's life.
static constexpr size_t MaxParkedBytes = size_t(64) << 20;

std::optional<SatSolver::Buffers> &SatSolver::parked() {
  thread_local std::optional<Buffers> Parked;
  return Parked;
}

size_t SatSolver::Buffers::capacityBytes() {
  size_t Bytes = 0;
  forEach([&Bytes](auto &V) { Bytes += V.capacity() * sizeof(V[0]); });
  return Bytes;
}

void SatSolver::Buffers::setPoisoned(bool Poisoned) {
  forEach([Poisoned](auto &V) {
    if (Poisoned)
      ASAN_POISON_MEMORY_REGION(V.data(), V.capacity() * sizeof(V[0]));
    else
      ASAN_UNPOISON_MEMORY_REGION(V.data(), V.capacity() * sizeof(V[0]));
  });
}

SatSolver::SatSolver() {
  std::optional<Buffers> &Parked = parked();
  if (!Parked)
    return;
  Parked->setPoisoned(false);
  Buf = std::move(*Parked);
  Parked.reset();
}

SatSolver::~SatSolver() {
  std::optional<Buffers> &Parked = parked();
  if (Parked || Buf.capacityBytes() > MaxParkedBytes)
    return;
  Buf.forEach([](auto &V) { V.clear(); });
  Buf.setPoisoned(true);
  Parked.emplace(std::move(Buf));
}

unsigned SatSolver::newVar(bool InitialPhase) {
  ++VarCount;
  Buf.Assigns.push_back(LBool::Undef);
  Buf.Levels.push_back(0);
  Buf.Reasons.push_back(-1);
  Buf.Activities.push_back(0.0);
  Buf.SavedPhases.push_back(InitialPhase);
  Buf.Seen.push_back(false);
  Buf.HeapPosition.push_back(-1);
  Buf.Watches.resize(2 * (VarCount + 1));
  heapInsert(VarCount);
  return VarCount;
}

void SatSolver::heapPercolateUp(size_t Index) {
  unsigned Var = Buf.Heap[Index];
  while (Index > 0) {
    size_t Parent = (Index - 1) / 2;
    if (!heapLess(Var, Buf.Heap[Parent]))
      break;
    Buf.Heap[Index] = Buf.Heap[Parent];
    Buf.HeapPosition[Buf.Heap[Index] - 1] = static_cast<int>(Index);
    Index = Parent;
  }
  Buf.Heap[Index] = Var;
  Buf.HeapPosition[Var - 1] = static_cast<int>(Index);
}

void SatSolver::heapPercolateDown(size_t Index) {
  unsigned Var = Buf.Heap[Index];
  size_t Size = Buf.Heap.size();
  for (;;) {
    size_t Left = 2 * Index + 1;
    if (Left >= Size)
      break;
    size_t Child = Left;
    if (Left + 1 < Size && heapLess(Buf.Heap[Left + 1], Buf.Heap[Left]))
      Child = Left + 1;
    if (!heapLess(Buf.Heap[Child], Var))
      break;
    Buf.Heap[Index] = Buf.Heap[Child];
    Buf.HeapPosition[Buf.Heap[Index] - 1] = static_cast<int>(Index);
    Index = Child;
  }
  Buf.Heap[Index] = Var;
  Buf.HeapPosition[Var - 1] = static_cast<int>(Index);
}

void SatSolver::heapInsert(unsigned Var) {
  if (Buf.HeapPosition[Var - 1] >= 0)
    return;
  Buf.Heap.push_back(Var);
  Buf.HeapPosition[Var - 1] = static_cast<int>(Buf.Heap.size() - 1);
  heapPercolateUp(Buf.Heap.size() - 1);
}

unsigned SatSolver::heapExtractTop() {
  unsigned Top = Buf.Heap[0];
  Buf.HeapPosition[Top - 1] = -1;
  unsigned Last = Buf.Heap.back();
  Buf.Heap.pop_back();
  if (!Buf.Heap.empty()) {
    Buf.Heap[0] = Last;
    Buf.HeapPosition[Last - 1] = 0;
    heapPercolateDown(0);
  }
  return Top;
}

LBool SatSolver::value(Lit L) const {
  LBool V = Buf.Assigns[L.var() - 1];
  if (V == LBool::Undef)
    return LBool::Undef;
  bool IsTrue = (V == LBool::True) != L.negated();
  return IsTrue ? LBool::True : LBool::False;
}

bool SatSolver::phase(Lit L) const {
  unsigned Var = L.var();
  LBool V = Buf.Assigns[Var - 1];
  bool VarPhase = V != LBool::Undef && Buf.Levels[Var - 1] == 0
                      ? V == LBool::True
                      : Buf.SavedPhases[Var - 1];
  return VarPhase != L.negated();
}

bool SatSolver::modelValue(unsigned Var) const {
  return Buf.Assigns[Var - 1] == LBool::True;
}

/// Appends \p Lits to the pool as a clause, reusing the most recently
/// freed slot first.
uint32_t SatSolver::allocClause(const Lit *Lits, size_t Size, bool Learnt) {
  Clause C;
  C.Begin = Buf.LitPool.size();
  C.Size = static_cast<uint32_t>(Size);
  C.Learnt = Learnt;
  Buf.LitPool.insert(Buf.LitPool.end(), Lits, Lits + Size);
  if (Learnt)
    ++LearntCount;
  if (Buf.FreeClauseSlots.empty()) {
    Buf.Clauses.push_back(C);
    return static_cast<uint32_t>(Buf.Clauses.size() - 1);
  }
  uint32_t Index = Buf.FreeClauseSlots.back();
  Buf.FreeClauseSlots.pop_back();
  Buf.Clauses[Index] = C;
  return Index;
}

void SatSolver::pushWatch(unsigned LitIndex, Watcher W) {
  WatchList &List = Buf.Watches[LitIndex];
  if (List.Size == List.Capacity) {
    size_t Begin = Buf.WatchPool.size();
    List.Capacity = std::max(2 * List.Capacity, MinWatchCapacity);
    Buf.WatchPool.resize(Begin + List.Capacity);
    std::copy_n(Buf.WatchPool.begin() + List.Begin, List.Size,
                Buf.WatchPool.begin() + Begin);
    List.Begin = Begin;
  }
  Buf.WatchPool[List.Begin + List.Size++] = W;
}

void SatSolver::watchClause(uint32_t Index) {
  const Clause &C = Buf.Clauses[Index];
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
  if (decisionLevel() > 0)
    backtrack(0);

  // Normalize a copy sorted by literal index: drop duplicates and false
  // literals, detect tautologies and satisfied clauses. A short clause (a
  // blasted gate's are 2 to 4 literals) is sorted by insertion in a stack
  // array; only a long one goes through AddBuffer.
  Lit Short[MaxShortClause];
  Lit *Clause = Short;
  if (Size <= MaxShortClause) {
    for (size_t I = 0; I < Size; ++I) {
      size_t J = I;
      for (; J > 0 && Lits[I].index() < Clause[J - 1].index(); --J)
        Clause[J] = Clause[J - 1];
      Clause[J] = Lits[I];
    }
  } else {
    Buf.AddBuffer.assign(Lits, Lits + Size);
    std::sort(Buf.AddBuffer.begin(), Buf.AddBuffer.end(),
              [](Lit A, Lit B) { return A.index() < B.index(); });
    Clause = Buf.AddBuffer.data();
  }
  size_t Kept = 0;
  for (size_t I = 0; I < Size; ++I) {
    Lit L = Clause[I];
    if (I + 1 < Size && Clause[I + 1] == ~L)
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
  watchClause(allocClause(Clause, Kept, /*Learnt=*/false));
  return true;
}

void SatSolver::enqueue(Lit L, int32_t Reason) {
  assert(value(L) == LBool::Undef && "enqueue of assigned literal");
  Buf.Assigns[L.var() - 1] = L.negated() ? LBool::False : LBool::True;
  Buf.Levels[L.var() - 1] = decisionLevel();
  Buf.Reasons[L.var() - 1] = Reason;
  Buf.Trail.push_back(L);
}

int32_t SatSolver::propagate() {
  while (PropagationHead < Buf.Trail.size()) {
    Lit P = Buf.Trail[PropagationHead++];
    ++Propagations;
    // The walk addresses P's watchers by index: a push below may move the
    // pool. It never moves P's own list, which holds the watches of the
    // false literal ~P, while a new watch is never false.
    WatchList &List = Buf.Watches[P.index()];
    const size_t Begin = List.Begin;
    const uint32_t Size = List.Size;
    uint32_t Out = 0;
    for (uint32_t In = 0; In < Size; ++In) {
      Watcher W = Buf.WatchPool[Begin + In];
      if (value(W.Blocker) == LBool::True) {
        Buf.WatchPool[Begin + Out++] = W;
        continue;
      }
      const Clause &C = Buf.Clauses[W.ClauseIndex];
      Lit *Lits = lits(C);
      Lit FalseLit = ~P;
      // Put the false watched literal at position 1.
      if (Lits[0] == FalseLit)
        std::swap(Lits[0], Lits[1]);
      assert(Lits[1] == FalseLit && "watch bookkeeping broken");
      if (value(Lits[0]) == LBool::True) {
        Buf.WatchPool[Begin + Out++] = {W.ClauseIndex, Lits[0]};
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
      Buf.WatchPool[Begin + Out++] = W;
      if (value(Lits[0]) == LBool::False) {
        // Conflict: restore remaining watchers and report.
        for (uint32_t K = In + 1; K < Size; ++K)
          Buf.WatchPool[Begin + Out++] = Buf.WatchPool[Begin + K];
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
  Buf.Activities[Var - 1] += ActivityIncrement;
  if (Buf.Activities[Var - 1] > 1e100) {
    for (double &A : Buf.Activities)
      A *= 1e-100;
    ActivityIncrement *= 1e-100;
    // Activities rescaled uniformly: heap order is unchanged.
  }
  if (Buf.HeapPosition[Var - 1] >= 0)
    heapPercolateUp(static_cast<size_t>(Buf.HeapPosition[Var - 1]));
}

void SatSolver::decayActivities() { ActivityIncrement *= 1.0 / 0.95; }

void SatSolver::analyze(int32_t ConflictIndex, std::vector<Lit> &Learnt,
                        int &BacktrackLevel) {
  Learnt.clear();
  Learnt.push_back(Lit()); // Placeholder for the asserting literal.
  int Counter = 0;
  Lit P;
  bool PValid = false;
  size_t TrailIndex = Buf.Trail.size();

  int32_t Reason = ConflictIndex;
  do {
    assert(Reason >= 0 && "no reason during conflict analysis");
    const Clause &C = Buf.Clauses[Reason];
    const Lit *Lits = lits(C);
    for (size_t I = PValid ? 1 : 0; I < C.Size; ++I) {
      Lit Q = Lits[I];
      unsigned Var = Q.var();
      if (Buf.Seen[Var - 1] || Buf.Levels[Var - 1] == 0)
        continue;
      Buf.Seen[Var - 1] = true;
      bumpVariable(Var);
      if (Buf.Levels[Var - 1] >= decisionLevel())
        ++Counter;
      else
        Learnt.push_back(Q);
    }
    // Select the next literal to resolve on.
    while (!Buf.Seen[Buf.Trail[TrailIndex - 1].var() - 1])
      --TrailIndex;
    --TrailIndex;
    P = Buf.Trail[TrailIndex];
    PValid = true;
    Reason = Buf.Reasons[P.var() - 1];
    Buf.Seen[P.var() - 1] = false;
    --Counter;
  } while (Counter > 0);
  Learnt[0] = ~P;

  // Find the backtrack level (second highest level in the clause).
  BacktrackLevel = 0;
  size_t MaxIndex = 1;
  for (size_t I = 1; I < Learnt.size(); ++I) {
    int Level = Buf.Levels[Learnt[I].var() - 1];
    if (Level > BacktrackLevel) {
      BacktrackLevel = Level;
      MaxIndex = I;
    }
  }
  if (Learnt.size() > 1)
    std::swap(Learnt[1], Learnt[MaxIndex]);
  for (size_t I = 1; I < Learnt.size(); ++I)
    Buf.Seen[Learnt[I].var() - 1] = false;
}

/// MiniSat's final-conflict analysis: \p Assumption was found false while
/// injecting assumptions, so the clause database refutes some subset of
/// them. Walk reason chains backwards from the falsified assumption's
/// variable; every decision reached is an assumption (only assumptions
/// are decided at levels 1..n during injection) and joins the core.
void SatSolver::analyzeFinal(Lit Assumption) {
  Buf.FailedAssumptions.clear();
  Buf.FailedAssumptions.push_back(Assumption);
  unsigned AssumptionVar = Assumption.var();
  // Falsified at level 0: the database alone implies its negation, so
  // the singleton core is already exact.
  if (decisionLevel() == 0 || Buf.Levels[AssumptionVar - 1] == 0)
    return;
  Buf.Seen[AssumptionVar - 1] = true;
  for (size_t I = Buf.Trail.size(); I-- > Buf.TrailLimits[0];) {
    unsigned Var = Buf.Trail[I].var();
    if (!Buf.Seen[Var - 1])
      continue;
    Buf.Seen[Var - 1] = false;
    int32_t Reason = Buf.Reasons[Var - 1];
    if (Reason < 0) {
      // An assumption decision, in exactly the polarity it was passed.
      Buf.FailedAssumptions.push_back(Buf.Trail[I]);
      continue;
    }
    const Clause &C = Buf.Clauses[Reason];
    const Lit *Lits = lits(C);
    for (size_t K = 1; K < C.Size; ++K) {
      unsigned Antecedent = Lits[K].var();
      if (Buf.Levels[Antecedent - 1] > 0)
        Buf.Seen[Antecedent - 1] = true;
    }
  }
}

void SatSolver::backtrack(int Level) {
  if (decisionLevel() <= Level)
    return;
  size_t Limit = Buf.TrailLimits[Level];
  for (size_t I = Buf.Trail.size(); I-- > Limit;) {
    unsigned Var = Buf.Trail[I].var();
    Buf.SavedPhases[Var - 1] = Buf.Assigns[Var - 1] == LBool::True;
    Buf.Assigns[Var - 1] = LBool::Undef;
    Buf.Reasons[Var - 1] = -1;
    heapInsert(Var);
  }
  Buf.Trail.resize(Limit);
  Buf.TrailLimits.resize(Level);
  PropagationHead = Buf.Trail.size();
}

Lit SatSolver::pickDecision() {
  while (!Buf.Heap.empty()) {
    unsigned Var = heapExtractTop();
    if (Buf.Assigns[Var - 1] == LBool::Undef)
      return Lit(Var, !Buf.SavedPhases[Var - 1]);
  }
  return Lit();
}

void SatSolver::reduceLearnts() {
  // Collect learnt clauses that are not currently reasons.
  std::vector<uint32_t> Candidates;
  for (uint32_t I = 0; I < Buf.Clauses.size(); ++I) {
    const Clause &C = Buf.Clauses[I];
    if (!C.Learnt || C.Size <= 2)
      continue;
    unsigned HeadVar = lits(C)[0].var();
    if (Buf.Reasons[HeadVar - 1] == static_cast<int32_t>(I) &&
        Buf.Assigns[HeadVar - 1] != LBool::Undef)
      continue; // Locked.
    Candidates.push_back(I);
  }
  std::sort(Candidates.begin(), Candidates.end(),
            [this](uint32_t A, uint32_t B) {
              return Buf.Clauses[A].Activity < Buf.Clauses[B].Activity;
            });
  size_t Remove = Candidates.size() / 2;
  for (size_t I = 0; I < Remove; ++I) {
    Buf.Clauses[Candidates[I]].Size = 0;
    Buf.FreeClauseSlots.push_back(Candidates[I]);
  }
  LearntCount -= Remove;
  // Compact the literal pool in clause order (reused slots sit out of pool
  // order, so this copies rather than sliding in place) and rebuild all
  // watch lists. The watch pool is laid out afresh with every list at its
  // old capacity, which drops the garbage of moved lists; a list only
  // loses watchers here, so the rebuild moves none.
  std::vector<Lit> Compacted;
  Compacted.reserve(Buf.LitPool.size());
  size_t WatchPoolSize = 0;
  for (WatchList &List : Buf.Watches) {
    List.Begin = WatchPoolSize;
    List.Size = 0;
    WatchPoolSize += List.Capacity;
  }
  Buf.WatchPool.resize(WatchPoolSize);
  for (uint32_t I = 0; I < Buf.Clauses.size(); ++I) {
    Clause &C = Buf.Clauses[I];
    if (C.Size < 2)
      continue;
    const Lit *Lits = lits(C);
    C.Begin = Compacted.size();
    Compacted.insert(Compacted.end(), Lits, Lits + C.Size);
  }
  Buf.LitPool.swap(Compacted);
  for (uint32_t I = 0; I < Buf.Clauses.size(); ++I)
    if (Buf.Clauses[I].Size >= 2)
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
  Buf.FailedAssumptions.clear();
  if (Unsatisfiable)
    return SatStatus::Unsat;
  backtrack(0);
  if (propagate() >= 0) {
    Unsatisfiable = true;
    return SatStatus::Unsat;
  }

  uint64_t ConflictsAtStart = Conflicts;
  uint64_t PropagationsAtStart = Propagations;
  std::vector<Lit> &Learnt = Buf.LearntBuffer;
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
          Buf.Clauses[Index].Activity = ActivityIncrement;
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
        Buf.TrailLimits.push_back(Buf.Trail.size());
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
      Buf.TrailLimits.push_back(Buf.Trail.size());
      enqueue(Decision, -1);
    }

    // Periodically shed inactive learnt clauses.
    if (LearntCount > 2000 + Buf.Clauses.size() / 2)
      reduceLearnts();
  }
}
