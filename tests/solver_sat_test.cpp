//===- tests/solver_sat_test.cpp - CDCL SAT solver tests ------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Sat.h"

#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>

using namespace staub;

namespace {

Lit pos(unsigned V) { return Lit(V, false); }
Lit neg(unsigned V) { return Lit(V, true); }

TEST(SatTest, TrivialSat) {
  SatSolver S;
  unsigned A = S.newVar();
  S.addUnit(pos(A));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(A));
}

TEST(SatTest, TrivialUnsat) {
  SatSolver S;
  unsigned A = S.newVar();
  S.addUnit(pos(A));
  EXPECT_FALSE(S.addUnit(neg(A)));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

TEST(SatTest, TautologyAndDuplicates) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  EXPECT_TRUE(S.addClause({pos(A), neg(A), pos(B)})); // Tautology dropped.
  EXPECT_TRUE(S.addClause({pos(B), pos(B), pos(B)})); // Collapses to unit.
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatTest, UnitPropagationChain) {
  SatSolver S;
  std::vector<unsigned> V;
  for (int I = 0; I < 20; ++I)
    V.push_back(S.newVar());
  // v0 and (v_i -> v_{i+1}) forces all true.
  S.addUnit(pos(V[0]));
  for (int I = 0; I + 1 < 20; ++I)
    S.addBinary(neg(V[I]), pos(V[I + 1]));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  for (int I = 0; I < 20; ++I)
    EXPECT_TRUE(S.modelValue(V[I]));
}

TEST(SatTest, RequiresConflictAnalysis) {
  // XOR-like structure that needs real search.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar(), C = S.newVar();
  // a xor b xor c = 1 (odd parity), encoded as CNF.
  S.addTernary(pos(A), pos(B), pos(C));
  S.addTernary(pos(A), neg(B), neg(C));
  S.addTernary(neg(A), pos(B), neg(C));
  S.addTernary(neg(A), neg(B), pos(C));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  int Parity = S.modelValue(A) + S.modelValue(B) + S.modelValue(C);
  EXPECT_EQ(Parity % 2, 1);
}

/// Pigeonhole PHP(n+1, n): unsatisfiable and exercises clause learning.
SatStatus pigeonhole(unsigned Holes, uint64_t MaxConflicts = UINT64_MAX) {
  SatSolver S;
  unsigned Pigeons = Holes + 1;
  // Var p*Holes + h + 1: pigeon p in hole h.
  std::vector<std::vector<unsigned>> Var(Pigeons,
                                         std::vector<unsigned>(Holes));
  for (unsigned P = 0; P < Pigeons; ++P)
    for (unsigned H = 0; H < Holes; ++H)
      Var[P][H] = S.newVar();
  for (unsigned P = 0; P < Pigeons; ++P) {
    std::vector<Lit> AtLeastOne;
    for (unsigned H = 0; H < Holes; ++H)
      AtLeastOne.push_back(pos(Var[P][H]));
    S.addClause(AtLeastOne);
  }
  for (unsigned H = 0; H < Holes; ++H)
    for (unsigned P1 = 0; P1 < Pigeons; ++P1)
      for (unsigned P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addBinary(neg(Var[P1][H]), neg(Var[P2][H]));
  SatBudget Budget;
  Budget.MaxConflicts = MaxConflicts;
  return S.solve(Budget);
}

TEST(SatTest, PigeonholeUnsat) {
  EXPECT_EQ(pigeonhole(4), SatStatus::Unsat);
  EXPECT_EQ(pigeonhole(6), SatStatus::Unsat);
}

TEST(SatTest, BudgetExhaustionReturnsUnknown) {
  // PHP(9,8) is hard enough that two conflicts are not enough.
  EXPECT_EQ(pigeonhole(8, /*MaxConflicts=*/2), SatStatus::Unknown);
}

TEST(SatTest, GraphColoringSat) {
  // 3-color a 5-cycle (possible) — classic small CSP.
  SatSolver S;
  const unsigned N = 5, K = 3;
  unsigned Var[N][K];
  for (unsigned V = 0; V < N; ++V)
    for (unsigned C = 0; C < K; ++C)
      Var[V][C] = S.newVar();
  for (unsigned V = 0; V < N; ++V) {
    S.addTernary(pos(Var[V][0]), pos(Var[V][1]), pos(Var[V][2]));
    for (unsigned C1 = 0; C1 < K; ++C1)
      for (unsigned C2 = C1 + 1; C2 < K; ++C2)
        S.addBinary(neg(Var[V][C1]), neg(Var[V][C2]));
  }
  for (unsigned V = 0; V < N; ++V)
    for (unsigned C = 0; C < K; ++C)
      S.addBinary(neg(Var[V][C]), neg(Var[(V + 1) % N][C]));
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  // Validate the coloring.
  for (unsigned V = 0; V < N; ++V) {
    int Color = -1;
    for (unsigned C = 0; C < K; ++C)
      if (S.modelValue(Var[V][C]))
        Color = static_cast<int>(C);
    ASSERT_GE(Color, 0);
    int NextColor = -1;
    for (unsigned C = 0; C < K; ++C)
      if (S.modelValue(Var[(V + 1) % N][C]))
        NextColor = static_cast<int>(C);
    EXPECT_NE(Color, NextColor);
  }
}

TEST(SatTest, AssumptionsGuideAndRestrict) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addBinary(pos(A), pos(B)); // a or b.
  // Assuming ~a forces b.
  EXPECT_EQ(S.solve({}, {neg(A)}), SatStatus::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
  // Contradictory assumptions are unsat without poisoning the solver.
  EXPECT_EQ(S.solve({}, {pos(A), neg(A)}), SatStatus::Unsat);
  EXPECT_EQ(S.solve(), SatStatus::Sat); // Still sat without assumptions.
  // Assumption conflicting with a learned/unit fact.
  S.addUnit(neg(B));
  EXPECT_EQ(S.solve({}, {neg(A)}), SatStatus::Unsat);
  EXPECT_EQ(S.solve({}, {pos(A)}), SatStatus::Sat);
}

TEST(SatTest, IncrementalClauseAddition) {
  // DPLL(T)-style usage: solve, block the model, repeat. Enumerates all
  // four models of two free variables.
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar();
  S.addBinary(pos(A), pos(A)); // Touch the solver; a is free via (a or a)?
  // Actually make both free: tautology-free no-op clauses are dropped, so
  // just solve directly.
  int Models = 0;
  while (S.solve() == SatStatus::Sat && Models < 8) {
    ++Models;
    std::vector<Lit> Block;
    Block.push_back(S.modelValue(A) ? neg(A) : pos(A));
    Block.push_back(S.modelValue(B) ? neg(B) : pos(B));
    if (!S.addClause(Block))
      break;
  }
  // (a or a) == unit a, so a is pinned true: exactly 2 models.
  EXPECT_EQ(Models, 2);
}

/// Brute-force satisfiability for cross-checking random instances.
bool bruteForce(unsigned NumVars,
                const std::vector<std::vector<int>> &Clauses) {
  for (uint32_t Mask = 0; Mask < (1u << NumVars); ++Mask) {
    bool All = true;
    for (const auto &Clause : Clauses) {
      bool Any = false;
      for (int L : Clause) {
        unsigned V = static_cast<unsigned>(L > 0 ? L : -L) - 1;
        bool Val = (Mask >> V) & 1;
        if ((L > 0) == Val) {
          Any = true;
          break;
        }
      }
      if (!Any) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

/// Seeded random 3-CNF in DIMACS literals. Clauses may repeat a variable,
/// so duplicates and tautologies reach addClause too.
std::vector<std::vector<int>> random3Cnf(uint64_t Seed, unsigned NumVars,
                                         unsigned NumClauses) {
  SplitMix64 Rng(Seed);
  std::vector<std::vector<int>> Clauses;
  for (unsigned I = 0; I < NumClauses; ++I) {
    std::vector<int> Clause;
    for (int J = 0; J < 3; ++J) {
      int V = static_cast<int>(Rng.below(NumVars)) + 1;
      Clause.push_back(Rng.chance(1, 2) ? V : -V);
    }
    Clauses.push_back(Clause);
  }
  return Clauses;
}

/// Loads \p Clauses into \p S; false when a clause already makes the
/// formula unsatisfiable at level 0.
bool loadCnf(SatSolver &S, unsigned NumVars,
             const std::vector<std::vector<int>> &Clauses) {
  for (unsigned V = 0; V < NumVars; ++V)
    S.newVar();
  bool Consistent = true;
  for (const auto &Clause : Clauses) {
    std::vector<Lit> Lits;
    for (int L : Clause)
      Lits.push_back(Lit::fromDimacs(L));
    if (!S.addClause(Lits))
      Consistent = false;
  }
  return Consistent;
}

class RandomCnfTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomCnfTest, AgreesWithBruteForce) {
  const unsigned NumVars = 10;
  const unsigned NumClauses = 42; // Near the 3-SAT phase transition.
  std::vector<std::vector<int>> Clauses =
      random3Cnf(GetParam(), NumVars, NumClauses);
  SatSolver S;
  bool TriviallyUnsat = !loadCnf(S, NumVars, Clauses);
  bool Expected = bruteForce(NumVars, Clauses);
  SatStatus Got = TriviallyUnsat ? SatStatus::Unsat : S.solve();
  EXPECT_EQ(Got, Expected ? SatStatus::Sat : SatStatus::Unsat);
  if (Got == SatStatus::Sat) {
    // The reported model must actually satisfy every clause.
    for (const auto &Clause : Clauses) {
      bool Any = false;
      for (int L : Clause) {
        unsigned V = static_cast<unsigned>(L > 0 ? L : -L);
        if ((L > 0) == S.modelValue(V))
          Any = true;
      }
      EXPECT_TRUE(Any);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnfTest,
                         ::testing::Range(uint64_t(1), uint64_t(41)));

/// One seeded random 3-CNF solve with its exact search statistics.
struct PinnedSearch {
  uint64_t Seed;
  unsigned NumVars, NumClauses;
  SatStatus Status;
  uint64_t Conflicts, Propagations, Decisions;
  size_t Learnts;
};

void expectPinnedSearch(const PinnedSearch &Pin) {
  SCOPED_TRACE("seed " + std::to_string(Pin.Seed));
  SatSolver S;
  ASSERT_TRUE(loadCnf(S, Pin.NumVars,
                      random3Cnf(Pin.Seed, Pin.NumVars, Pin.NumClauses)));
  EXPECT_EQ(S.solve(), Pin.Status);
  EXPECT_EQ(S.numConflicts(), Pin.Conflicts);
  EXPECT_EQ(S.numPropagations(), Pin.Propagations);
  EXPECT_EQ(S.numDecisions(), Pin.Decisions);
  EXPECT_EQ(S.numLearnts(), Pin.Learnts);
}

// The CDCL search is deterministic: clause storage, watch order, literal
// order and free-slot reuse all feed it. These counts are the reference
// search; a change to how clauses are stored must reproduce them exactly.
TEST(SatTest, PinnedSearchOnRandom3Cnf) {
  const PinnedSearch Pins[] = {
      {1, 150, 640, SatStatus::Unsat, 1735, 52643, 2106, 1727},
      {2, 150, 640, SatStatus::Sat, 1053, 33869, 1307, 1053},
      {3, 150, 640, SatStatus::Unsat, 1499, 46570, 1838, 1490},
      {4, 150, 640, SatStatus::Sat, 270, 8586, 388, 270},
  };
  for (const PinnedSearch &Pin : Pins)
    expectPinnedSearch(Pin);
}

// Long enough (over 10,000 conflicts) that reduceLearnts sheds half the
// learnt clauses four times, so freed slots are reused and the watch lists
// are rebuilt mid-search.
TEST(SatTest, PinnedSearchThroughLearntReduction) {
  expectPinnedSearch(
      {3, 200, 860, SatStatus::Unsat, 14761, 547248, 17886, 3451});
}

// A dying solver parks its buffers for the next solver on its thread
// (solver/Sat.h); only capacities differ, so the search must not. After a
// large solve leaves big buffers parked, the PinnedSearch* instances give
// their pinned counts on recycled buffers, and again on fresh ones: a
// second solver alive alongside takes whatever is parked.
TEST(SatTest, RecycledStorageSearchesAsFresh) {
  const PinnedSearch Pins[] = {
      {1, 150, 640, SatStatus::Unsat, 1735, 52643, 2106, 1727},
      {2, 150, 640, SatStatus::Sat, 1053, 33869, 1307, 1053},
      {3, 150, 640, SatStatus::Unsat, 1499, 46570, 1838, 1490},
      {4, 150, 640, SatStatus::Sat, 270, 8586, 388, 270},
      {3, 200, 860, SatStatus::Unsat, 14761, 547248, 17886, 3451},
  };
  {
    SatSolver Large;
    ASSERT_TRUE(loadCnf(Large, 2000, random3Cnf(5, 2000, 8000)));
    SatBudget Budget;
    Budget.MaxConflicts = 2000;
    Large.solve(Budget);
  }
  for (const PinnedSearch &Pin : Pins)
    expectPinnedSearch(Pin);
  for (const PinnedSearch &Pin : Pins) {
    SatSolver Alive;
    expectPinnedSearch(Pin);
  }
}

/// True when the model of \p S satisfies every clause of \p Clauses.
bool modelSatisfies(const SatSolver &S,
                    const std::vector<std::vector<int>> &Clauses) {
  return std::all_of(Clauses.begin(), Clauses.end(), [&](const auto &Clause) {
    return std::any_of(Clause.begin(), Clause.end(), [&](int L) {
      return (L > 0) == S.modelValue(static_cast<unsigned>(L > 0 ? L : -L));
    });
  });
}

// A push onto a full watch list moves that list to the end of the watch
// pool, which can reallocate the pool while propagation walks another
// literal's list. Here x1 false sets off a chain of implications x3, x4,
// ... x13 false, and 64 copies of one long clause follow it: each link
// moves all 64 watchers onto a list that must grow to hold them, so the
// pool outgrows its capacity mid-walk several times. Random clauses added
// afterwards make the answer one the search has to find. Each seed runs
// on a fresh thread: a solver on buffers parked by an earlier one
// (solver/Sat.h) would start with room enough and never reallocate.
TEST(SatTest, WatchListsMoveWhilePropagating) {
  const unsigned NumVars = 14;
  std::vector<std::vector<int>> Chain(64, std::vector<int>(NumVars));
  for (std::vector<int> &Long : Chain)
    std::iota(Long.begin(), Long.end(), 1);
  Chain.push_back({1, -3});
  for (int V = 3; V + 1 < static_cast<int>(NumVars); ++V)
    Chain.push_back({V, -(V + 1)});
  std::vector<std::vector<int>> X1False = Chain;
  X1False.push_back({-1});

  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::thread([&, Seed] {
      SCOPED_TRACE("seed " + std::to_string(Seed));
      SatSolver S;
      ASSERT_TRUE(loadCnf(S, NumVars, Chain));
      ASSERT_EQ(S.solve({}, {Lit::fromDimacs(-1)}), SatStatus::Sat);
      EXPECT_TRUE(modelSatisfies(S, X1False));

      std::vector<std::vector<int>> All = Chain;
      for (const std::vector<int> &Clause : random3Cnf(Seed, NumVars, 28)) {
        All.push_back(Clause);
        std::vector<Lit> Lits;
        for (int L : Clause)
          Lits.push_back(Lit::fromDimacs(L));
        S.addClause(Lits);
      }
      SatStatus Got = S.solve();
      EXPECT_EQ(Got, bruteForce(NumVars, All) ? SatStatus::Sat
                                              : SatStatus::Unsat);
      if (Got == SatStatus::Sat) {
        EXPECT_TRUE(modelSatisfies(S, All));
      }
    }).join();
  }
}

// Every entry point normalizes the same way: duplicates collapse,
// tautologies and clauses satisfied at level 0 are dropped, literals false
// at level 0 are removed, and what is left as a unit propagates at once.
TEST(SatTest, NormalizationThroughEveryEntryPoint) {
  SatSolver S;
  unsigned A = S.newVar(), B = S.newVar(), C = S.newVar(), D = S.newVar(),
           E = S.newVar(), F = S.newVar();

  EXPECT_TRUE(S.addUnit(pos(A)));
  EXPECT_EQ(S.value(pos(A)), LBool::True);
  EXPECT_TRUE(S.addUnit(pos(A))) << "already true at level 0";

  // Tautologies, through each arity.
  EXPECT_TRUE(S.addBinary(pos(B), neg(B)));
  EXPECT_TRUE(S.addTernary(pos(C), neg(B), pos(B)));
  EXPECT_TRUE(S.addClause({pos(D), neg(C), pos(E), pos(C)}));
  // Satisfied at level 0.
  EXPECT_TRUE(S.addBinary(neg(B), pos(A)));
  EXPECT_TRUE(S.addTernary(pos(A), neg(C), neg(D)));
  EXPECT_TRUE(S.addClause({neg(E), pos(A), neg(F)}));
  for (unsigned V : {B, C, D, E, F})
    EXPECT_EQ(S.value(pos(V)), LBool::Undef) << "var " << V;

  // Duplicates collapse to a unit, which propagates immediately.
  EXPECT_TRUE(S.addBinary(pos(B), pos(B)));
  EXPECT_EQ(S.value(pos(B)), LBool::True);
  // A false literal is dropped, leaving a unit.
  EXPECT_TRUE(S.addTernary(neg(A), pos(C), neg(B)));
  EXPECT_EQ(S.value(pos(C)), LBool::True);
  EXPECT_TRUE(S.addClause({neg(C), neg(A), neg(D), neg(D)}));
  EXPECT_EQ(S.value(pos(D)), LBool::False);
  // False literals and duplicates around two survivors: a real clause.
  EXPECT_TRUE(S.addClause({pos(E), neg(A), pos(F), pos(E), pos(D)}));
  EXPECT_EQ(S.value(pos(E)), LBool::Undef);
  EXPECT_EQ(S.solve({}, {neg(E)}), SatStatus::Sat);
  EXPECT_TRUE(S.modelValue(F));
  EXPECT_EQ(S.solve({}, {neg(E), neg(F)}), SatStatus::Unsat);

  // Every literal false at level 0: the formula is unsatisfiable, and
  // stays so through every entry point.
  EXPECT_FALSE(S.addTernary(neg(A), neg(B), neg(C)));
  EXPECT_FALSE(S.addUnit(pos(E)));
  EXPECT_FALSE(S.addBinary(pos(E), pos(F)));
  EXPECT_FALSE(S.addClause({pos(E), neg(F)}));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

/// Seeded clauses of 1 to 12 random literals, in no order: mostly 3-CNF,
/// with a few units on distinct variables (so later clauses hold literals
/// true or false at level 0), some binaries, some clauses longer than
/// addLits' stack buffer, and a repeated literal or a complementary pair
/// in some clauses.
std::vector<std::vector<int>> mixedIntakeCnf(uint64_t Seed, unsigned NumVars,
                                             unsigned NumClauses) {
  SplitMix64 Rng(Seed);
  std::vector<std::vector<int>> Clauses;
  int NextUnitVar = 1;
  for (unsigned I = 0; I < NumClauses; ++I) {
    uint64_t Shape = Rng.below(160);
    if (Shape == 0) {
      Clauses.push_back({Rng.chance(1, 2) ? NextUnitVar : -NextUnitVar});
      ++NextUnitVar;
      continue;
    }
    unsigned Size = Shape < 5 ? 2 : Shape < 136 ? 3 : 4 + Rng.below(9);
    std::vector<int> Clause;
    for (unsigned J = 0; J < Size; ++J) {
      int V = static_cast<int>(Rng.below(NumVars)) + 1;
      Clause.push_back(Rng.chance(1, 2) ? V : -V);
    }
    if (Rng.chance(1, 6))
      Clause.push_back(Clause[Rng.below(Size)]);
    if (Rng.chance(1, 12))
      Clause.insert(Clause.begin() + Rng.below(Size),
                    -Clause[Rng.below(Size)]);
    Clauses.push_back(Clause);
  }
  return Clauses;
}

// Clause intake normalizes short clauses in a stack array and long ones in
// a heap buffer. Either way it must store the clauses, literal order and
// watches the search saw before, so this search is pinned like the
// PinnedSearch* ones: the first 500 clauses solve sat, and the other 440
// arrive while that model is still on the trail and make the formula
// unsat.
TEST(SatTest, MixedIntakeSearchIsPinned) {
  const unsigned NumVars = 200, Split = 500;
  std::vector<std::vector<int>> Clauses = mixedIntakeCnf(2, NumVars, 940);
  std::vector<std::vector<int>> First(Clauses.begin(),
                                      Clauses.begin() + Split);
  SatSolver S;
  ASSERT_TRUE(loadCnf(S, NumVars, First));
  EXPECT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_EQ(S.numConflicts(), 0u);
  EXPECT_EQ(S.numPropagations(), 200u);
  EXPECT_EQ(S.numDecisions(), 96u);
  for (size_t I = Split; I < Clauses.size(); ++I) {
    std::vector<Lit> Lits;
    for (int L : Clauses[I])
      Lits.push_back(Lit::fromDimacs(L));
    ASSERT_TRUE(S.addClause(Lits)) << "clause " << I;
  }
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
  EXPECT_EQ(S.numConflicts(), 662u);
  EXPECT_EQ(S.numPropagations(), 27055u);
  EXPECT_EQ(S.numDecisions(), 910u);
  EXPECT_EQ(S.numLearnts(), 653u);
}

// With no clauses the first descent decides every variable in its initial
// phase, without a conflict; a variable given none starts false.
TEST(SatTest, InitialPhaseDecidesFirst) {
  SatSolver S;
  const bool Phases[] = {true, false, true, true, false, true};
  for (bool Phase : Phases)
    S.newVar(Phase);
  unsigned Unset = S.newVar();
  for (unsigned V = 1; V <= std::size(Phases); ++V) {
    EXPECT_EQ(S.phase(pos(V)), Phases[V - 1]);
    EXPECT_EQ(S.phase(neg(V)), !Phases[V - 1]);
  }
  ASSERT_EQ(S.solve(), SatStatus::Sat);
  EXPECT_EQ(S.numConflicts(), 0u);
  for (unsigned V = 1; V <= std::size(Phases); ++V)
    EXPECT_EQ(S.modelValue(V), Phases[V - 1]) << "var " << V;
  EXPECT_FALSE(S.modelValue(Unset));

  // A variable fixed at level 0 reads as its value, whatever its phase.
  SatSolver Fixed;
  unsigned A = Fixed.newVar(true);
  Fixed.addUnit(neg(A));
  EXPECT_FALSE(Fixed.phase(pos(A)));
  EXPECT_TRUE(Fixed.phase(neg(A)));
}

TEST(SatTest, EmptyClauseIsUnsat) {
  SatSolver S;
  S.newVar();
  EXPECT_FALSE(S.addClause(std::vector<Lit>{}));
  EXPECT_EQ(S.solve(), SatStatus::Unsat);
}

#if defined(__SANITIZE_ADDRESS__)
// Under ASan a parked buffer is poisoned, so a read through a pointer into
// a dead solver is still reported, as it was when its buffers were freed.
TEST(SatTest, ParkedBufferUseIsReportedUnderAsan) {
  const Lit *Stale = nullptr;
  {
    SatSolver S;
    unsigned A = S.newVar();
    S.addUnit(pos(A));
    ASSERT_EQ(S.solve({}, {neg(A)}), SatStatus::Unsat);
    Stale = S.failedAssumptions().data();
  }
  EXPECT_DEATH(std::printf("%u\n", Stale->var()), "use-after-poison");
}
#endif

} // namespace
