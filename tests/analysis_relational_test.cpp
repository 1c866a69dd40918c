//===- tests/analysis_relational_test.cpp - Relational domains ------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Units for the relational abstract-domain layer (analysis/Dbm.h,
/// analysis/Zone.h, analysis/Octagon.h): Floyd-Warshall closure and its
/// negative-cycle unsat certificate, provenance threading, the
/// bad-closure injection's triangle-consistency signature, widening
/// termination, zone fact harvesting and transitive projections,
/// shortest-path potentials, the octagon's signed-variable encoding with
/// integer tightening, and the shared relational overflow oracle.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dbm.h"
#include "analysis/Octagon.h"
#include "analysis/Zone.h"
#include "smtlib/Term.h"

#include <gtest/gtest.h>

using namespace staub;
using namespace staub::analysis;

namespace {

Rational Q(int64_t V) { return Rational(BigInt(V)); }

//===--------------------------------------------------------------------===//
// DBM core.
//===--------------------------------------------------------------------===//

TEST(DbmTest, CloseComputesShortestPaths) {
  Dbm D(3);
  D.tighten(0, 1, Q(3), {0});
  D.tighten(1, 2, Q(-1), {1});
  ASSERT_TRUE(D.close());
  EXPECT_TRUE(D.consistent());
  EXPECT_TRUE(D.triangleConsistent());
  ASSERT_TRUE(D.at(0, 2).has_value());
  EXPECT_EQ(*D.at(0, 2), Q(2));
  // The relaxed edge unions the provenance of both legs.
  std::set<unsigned> Expected = {0, 1};
  EXPECT_EQ(D.sourcesAt(0, 2), Expected);
}

TEST(DbmTest, TightenKeepsTighterBoundAndUnionsEqualProvenance) {
  Dbm D(2);
  D.tighten(0, 1, Q(5), {0});
  D.tighten(0, 1, Q(7), {1}); // Looser: ignored entirely.
  ASSERT_TRUE(D.at(0, 1).has_value());
  EXPECT_EQ(*D.at(0, 1), Q(5));
  EXPECT_EQ(D.sourcesAt(0, 1), std::set<unsigned>{0});
  D.tighten(0, 1, Q(5), {2}); // Equally tight: provenance unions.
  std::set<unsigned> Both = {0, 2};
  EXPECT_EQ(D.sourcesAt(0, 1), Both);
}

TEST(DbmTest, NegativeCycleIsInconsistentAndNamesSources) {
  Dbm D(3);
  D.tighten(1, 2, Q(-3), {4});
  D.tighten(2, 1, Q(2), {7});
  EXPECT_FALSE(D.close());
  EXPECT_FALSE(D.consistent());
  std::set<unsigned> Cycle = D.negativeCycleSources();
  EXPECT_TRUE(Cycle.count(4));
  EXPECT_TRUE(Cycle.count(7));
}

TEST(DbmTest, InjectedSkipLastPivotLeavesTriangleInconsistency) {
  // The chain 1 -> 2 -> 3 -> 0 only reaches D(1, 0) by relaxing through
  // pivot 3; skipping it (the bad-closure mutant) leaves
  // D(1, 0) = inf > D(1, 3) + D(3, 0) — exactly what
  // triangleConsistent() exists to catch. An honest closure of the same
  // constraints passes.
  auto Build = [] {
    Dbm D(4);
    D.tighten(1, 2, Q(0), {0});
    D.tighten(2, 3, Q(0), {1});
    D.tighten(3, 0, Q(3), {2});
    D.tighten(0, 1, Q(0), {3});
    return D;
  };
  Dbm Bad = Build();
  ASSERT_TRUE(Bad.close(/*InjectSkipLastPivot=*/true));
  EXPECT_TRUE(Bad.consistent());
  EXPECT_FALSE(Bad.triangleConsistent());

  Dbm Good = Build();
  ASSERT_TRUE(Good.close());
  EXPECT_TRUE(Good.triangleConsistent());
  ASSERT_TRUE(Good.at(1, 0).has_value());
  EXPECT_EQ(*Good.at(1, 0), Q(3));
}

TEST(DbmTest, WideningDropsExceededBoundsAndReachesFixpoint) {
  Dbm A(2);
  A.tighten(0, 1, Q(5), {0});
  A.tighten(1, 0, Q(0), {0});
  ASSERT_TRUE(A.close());

  // B respects the (1,0) bound but exceeds the (0,1) bound: widening
  // keeps the former and drops the latter to unbounded.
  Dbm B(2);
  B.tighten(0, 1, Q(6), {1});
  B.tighten(1, 0, Q(0), {1});
  ASSERT_TRUE(B.close());
  Dbm W = Dbm::widen(A, B);
  EXPECT_FALSE(W.at(0, 1).has_value());
  ASSERT_TRUE(W.at(1, 0).has_value());
  EXPECT_EQ(*W.at(1, 0), Q(0));

  // Widening only ever drops bounds, so iterating against ever-looser
  // states reaches a fixpoint: the second application changes nothing.
  Dbm C(2);
  C.tighten(0, 1, Q(100), {2});
  C.tighten(1, 0, Q(0), {2});
  ASSERT_TRUE(C.close());
  Dbm W2 = Dbm::widen(W, C);
  for (unsigned I = 0; I < 2; ++I)
    for (unsigned J = 0; J < 2; ++J)
      EXPECT_EQ(W2.at(I, J).has_value(), W.at(I, J).has_value());
}

//===--------------------------------------------------------------------===//
// Zone domain.
//===--------------------------------------------------------------------===//

TEST(ZoneTest, HarvestRecognizesDiffBoundAndVarVarAtoms) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  unsigned Count = 0;
  Count += harvestZoneFacts(
      M,
      M.mkCompare(Kind::Le, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(5))),
      0, Z);
  Count += harvestZoneFacts(
      M, M.mkCompare(Kind::Lt, X, M.mkIntConst(BigInt(10))), 1, Z);
  Count += harvestZoneFacts(
      M, M.mkCompare(Kind::Ge, Y, M.mkIntConst(BigInt(0))), 2, Z);
  EXPECT_EQ(Count, 3u);
  EXPECT_TRUE(Z.hasBinaryConstraints());
  ASSERT_TRUE(Z.close());
  // Strict Int comparison tightened by one.
  Interval IX = Z.varInterval(X.id());
  ASSERT_TRUE(IX.Hi.has_value());
  EXPECT_EQ(*IX.Hi, Q(9));
  Interval IY = Z.varInterval(Y.id());
  ASSERT_TRUE(IY.Lo.has_value());
  EXPECT_EQ(*IY.Lo, Q(0));
}

TEST(ZoneTest, ChainProjectsTransitiveBoundsWithProvenance) {
  // x <= y <= z <= 3 with x >= 0: closure bounds every variable to
  // [0, 3] even though no single atom says so.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Term Z3 = M.mkVariable("z", Sort::integer());
  Zone Z;
  harvestZoneFacts(M, M.mkCompare(Kind::Le, X, Y), 0, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Y, Z3), 1, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Z3, M.mkIntConst(BigInt(3))), 2,
                   Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Ge, X, M.mkIntConst(BigInt(0))), 3,
                   Z);
  ASSERT_TRUE(Z.close());
  for (Term V : {X, Y, Z3}) {
    Interval I = Z.varInterval(V.id());
    ASSERT_TRUE(I.Lo.has_value() && I.Hi.has_value());
    EXPECT_EQ(*I.Lo, Q(0));
    EXPECT_EQ(*I.Hi, Q(3));
  }
  // x's upper bound came through the whole chain.
  std::set<unsigned> Src = Z.varIntervalSources(X.id());
  for (unsigned Root : {0u, 1u, 2u, 3u})
    EXPECT_TRUE(Src.count(Root)) << "missing root " << Root;
}

TEST(ZoneTest, NegativeCycleCertificateNamesAssertions) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  harvestZoneFacts(
      M,
      M.mkCompare(Kind::Le, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(-1))),
      0, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Y, X), 1, Z);
  EXPECT_FALSE(Z.close());
  EXPECT_FALSE(Z.consistent());
  std::set<unsigned> Cycle = Z.negativeCycleSources();
  EXPECT_TRUE(Cycle.count(0));
  EXPECT_TRUE(Cycle.count(1));
  // Inconsistent zones project bottom.
  EXPECT_TRUE(Z.varInterval(X.id()).Empty);
}

TEST(ZoneTest, PotentialSatisfiesEveryRecordedConstraint) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  harvestZoneFacts(
      M,
      M.mkCompare(Kind::Le, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(-2))),
      0, Z);
  harvestZoneFacts(M, M.mkCompare(Kind::Le, Y, M.mkIntConst(BigInt(5))), 1,
                   Z);
  ASSERT_TRUE(Z.close());
  std::optional<Rational> PX = Z.potential(X.id());
  std::optional<Rational> PY = Z.potential(Y.id());
  ASSERT_TRUE(PX && PY);
  EXPECT_TRUE(*PX - *PY <= Q(-2));
  EXPECT_TRUE(*PY <= Q(5));
}

TEST(ZoneTest, BinaryConstraintDetectionIgnoresBounds) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Zone Z;
  harvestZoneFacts(M, M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(7))), 0,
                   Z);
  Z.constrainVar(Y.id(), Interval::range(Q(0), Q(4)), {1});
  EXPECT_FALSE(Z.hasBinaryConstraints());
  harvestZoneFacts(M, M.mkCompare(Kind::Le, X, Y), 2, Z);
  EXPECT_TRUE(Z.hasBinaryConstraints());
}

TEST(ZoneTest, EmptySeedRangeIsContradiction) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Zone Z;
  Z.addVariable(X.id());
  Z.constrainVar(X.id(), Interval::bottom(), {3});
  EXPECT_FALSE(Z.close());
  EXPECT_TRUE(Z.negativeCycleSources().count(3));
}

//===--------------------------------------------------------------------===//
// Octagon domain.
//===--------------------------------------------------------------------===//

RelFact fact(uint32_t X, int SX, uint32_t Y, int SY, int64_t C) {
  RelFact F;
  F.X = X;
  F.SX = SX;
  F.Y = Y;
  F.SY = SY;
  F.C = Q(C);
  return F;
}

TEST(OctagonTest, SignedEncodingRoundTripsPairBounds) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id());
  Oct.addVariable(Y.id());
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 5)));  // x + y <= 5
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), -1, 1))); // x - y <= 1
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, 0, 0, 0)));      // -x <= 0
  ASSERT_TRUE(Oct.close());
  ASSERT_TRUE(Oct.consistent());
  auto Sum = Oct.pairUpper(X.id(), 1, Y.id(), 1);
  ASSERT_TRUE(Sum.has_value());
  EXPECT_EQ(*Sum, Q(5));
  auto Diff = Oct.pairUpper(X.id(), 1, Y.id(), -1);
  ASSERT_TRUE(Diff.has_value());
  EXPECT_EQ(*Diff, Q(1));
  // Strengthening: (x+y) + (x-y) <= 6 gives 2x <= 6, so x in [0, 3].
  Interval IX = Oct.varInterval(X.id());
  ASSERT_TRUE(IX.Lo.has_value() && IX.Hi.has_value());
  EXPECT_EQ(*IX.Lo, Q(0));
  EXPECT_EQ(*IX.Hi, Q(3));
}

TEST(OctagonTest, IntegerTighteningRoundsOddUnaryBoundsDown) {
  // x + y <= 5 and x - y <= 0 give 2x <= 5; over Int the unary bound
  // tightens to x <= 2.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id());
  Oct.addVariable(Y.id());
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 5)));
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), -1, 0)));
  ASSERT_TRUE(Oct.close());
  Interval IX = Oct.varInterval(X.id());
  ASSERT_TRUE(IX.Hi.has_value());
  EXPECT_EQ(*IX.Hi, Q(2));
}

TEST(OctagonTest, ContradictoryFactsAreInconsistent) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id());
  Oct.addVariable(Y.id());
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 0)));   // x + y <= 0
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, Y.id(), -1, -1))); // -x - y <= -1
  EXPECT_FALSE(Oct.close());
  EXPECT_FALSE(Oct.consistent());
}

TEST(OctagonTest, FactsReferencingUnregisteredVariablesAreIgnored) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id());
  EXPECT_FALSE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 5)));
  EXPECT_TRUE(Oct.addFact(fact(X.id(), 1, 0, 0, 7)));
}

TEST(OctagonTest, HarvestRecognizesSumDiffNegAndVarAtoms) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  std::vector<Term> Assertions = {
      M.mkCompare(Kind::Le, M.mkAdd(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(7))),
      M.mkCompare(Kind::Lt, M.mkSub(std::vector<Term>{X, Y}),
                  M.mkIntConst(BigInt(4))),
      M.mkCompare(Kind::Ge, M.mkNeg(X), M.mkIntConst(BigInt(-9))),
      M.mkCompare(Kind::Le, X, Y),
      M.mkCompare(Kind::Le, X, M.mkIntConst(BigInt(4)))};
  std::vector<RelFact> Facts = harvestRelationalFacts(M, Assertions);
  ASSERT_GE(Facts.size(), 5u);

  // The sum fact reads through an overflow-capable Add and remembers it.
  const RelFact &Sum = Facts[0];
  EXPECT_EQ(Sum.SX, 1);
  EXPECT_EQ(Sum.SY, 1);
  EXPECT_EQ(Sum.C, Q(7));
  EXPECT_TRUE(Sum.HasSource);
  EXPECT_EQ(Sum.SourceOp, Kind::Add);

  // Strict Int comparison tightened by one on the Sub fact.
  const RelFact &Diff = Facts[1];
  EXPECT_EQ(Diff.SX, 1);
  EXPECT_EQ(Diff.SY, -1);
  EXPECT_EQ(Diff.C, Q(3));
  EXPECT_TRUE(Diff.HasSource);
  EXPECT_EQ(Diff.SourceOp, Kind::Sub);

  // -x >= -9 is the unary fact x <= 9 through a Neg.
  const RelFact &NegF = Facts[2];
  EXPECT_EQ(NegF.SY, 0);
  EXPECT_TRUE(NegF.HasSource);
  EXPECT_EQ(NegF.SourceOp, Kind::Neg);

  // Plain var-var and var-const atoms carry no source operation.
  EXPECT_FALSE(Facts[3].HasSource);
  EXPECT_FALSE(Facts[4].HasSource);
}

TEST(OctagonTest, GuardKeyNormalizesCommutativeOperands) {
  EXPECT_EQ(makeGuardKey(Kind::BvSAddO, 9, 3), makeGuardKey(Kind::BvSAddO, 3, 9));
  EXPECT_NE(makeGuardKey(Kind::BvSSubO, 9, 3), makeGuardKey(Kind::BvSSubO, 3, 9));
}

TEST(OctagonTest, RelationalOverflowOracleUsesPairBounds) {
  // |x - y| <= 3 makes an 8-bit subtraction unguardable even though the
  // per-variable projections are unbounded — exactly the refinement the
  // interval-only oracle cannot make.
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id());
  Oct.addVariable(Y.id());
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), -1, 3)));
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, Y.id(), 1, 3)));
  ASSERT_TRUE(Oct.close());
  EXPECT_TRUE(relationalOverflowImpossible(M, Kind::BvSSubO, X, Y,
                                           Interval::top(), Interval::top(),
                                           8, Oct));
  // No pair bound on the sum: x + y can still exceed the width range.
  EXPECT_FALSE(relationalOverflowImpossible(M, Kind::BvSAddO, X, Y,
                                            Interval::top(), Interval::top(),
                                            8, Oct));
}

TEST(OctagonTest, InconsistentOctagonDischargesEveryGuard) {
  TermManager M;
  Term X = M.mkVariable("x", Sort::integer());
  Term Y = M.mkVariable("y", Sort::integer());
  Octagon Oct;
  Oct.addVariable(X.id());
  Oct.addVariable(Y.id());
  ASSERT_TRUE(Oct.addFact(fact(X.id(), 1, Y.id(), 1, 0)));
  ASSERT_TRUE(Oct.addFact(fact(X.id(), -1, Y.id(), -1, -1)));
  ASSERT_FALSE(Oct.close());
  EXPECT_TRUE(relationalOverflowImpossible(M, Kind::BvSMulO, X, Y,
                                           Interval::top(), Interval::top(),
                                           8, Oct));
}

} // namespace
