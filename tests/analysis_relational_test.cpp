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
/// bad-closure injection's triangle-consistency signature, the
/// fixed-point kernel and every Rational fallback against a test-local
/// Rational reference, zone fact harvesting and transitive projections,
/// shortest-path potentials, the octagon's signed-variable encoding with
/// integer tightening, and the shared relational overflow oracle.
///
//===----------------------------------------------------------------------===//

#include "analysis/Dbm.h"
#include "analysis/Octagon.h"
#include "analysis/Zone.h"
#include "smtlib/Term.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

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

//===--------------------------------------------------------------------===//
// The fixed-point kernel against a Rational reference.
//===--------------------------------------------------------------------===//

/// A test-local Rational closure with provenance, written apart from
/// Dbm: Floyd-Warshall and the octagon's two-round strong closure over
/// std::optional<Rational>. The kernel, and its fallback, must agree with
/// it entry for entry.
class ReferenceDbm {
public:
  explicit ReferenceDbm(unsigned N) : N(N), W(N * N), Src(N * N) {
    for (unsigned I = 0; I < N; ++I)
      W[I * N + I] = Q(0);
  }

  void tighten(unsigned I, unsigned J, const Rational &C,
               const std::set<unsigned> &S = {}) {
    std::optional<Rational> &E = W[I * N + J];
    if (!E || C < *E) {
      E = C;
      Src[I * N + J] = S;
    } else if (C == *E) {
      Src[I * N + J].insert(S.begin(), S.end());
    }
    if (I == J && C < Q(0))
      Consistent = false;
  }

  void close(bool SkipLastPivot = false) {
    for (unsigned K = 0; K < N; ++K) {
      if (SkipLastPivot && K + 1 == N)
        continue;
      for (unsigned I = 0; I < N; ++I)
        for (unsigned J = 0; J < N; ++J) {
          // D(I,K) is re-read per column: a negative D(K,K) moves it.
          const std::optional<Rational> &IK = W[I * N + K];
          const std::optional<Rational> &KJ = W[K * N + J];
          if (!IK || !KJ)
            continue;
          Rational Via = *IK + *KJ;
          std::optional<Rational> &IJ = W[I * N + J];
          if (!IJ || Via < *IJ) {
            std::set<unsigned> Union = Src[I * N + K];
            Union.insert(Src[K * N + J].begin(), Src[K * N + J].end());
            IJ = Via;
            Src[I * N + J] = std::move(Union);
          }
        }
    }
    for (unsigned I = 0; I < N; ++I)
      if (W[I * N + I]->isNegative())
        Consistent = false;
  }

  void strongClose() {
    close();
    for (unsigned Round = 0; Round < 2 && Consistent; ++Round) {
      for (unsigned I = 0; I < N; ++I)
        for (unsigned J = 0; J < N; ++J) {
          const std::optional<Rational> &A = W[I * N + (I ^ 1u)];
          const std::optional<Rational> &B = W[(J ^ 1u) * N + J];
          if (J != I && A && B)
            tighten(I, J, (*A + *B) / Q(2));
        }
      for (unsigned I = 0; I < N; ++I)
        if (const std::optional<Rational> &A = W[I * N + (I ^ 1u)])
          tighten(I, I ^ 1u, Rational((*A / Q(2)).floor()) * Q(2));
      close();
    }
  }

  const std::optional<Rational> &at(unsigned I, unsigned J) const {
    return W[I * N + J];
  }
  const std::set<unsigned> &sourcesAt(unsigned I, unsigned J) const {
    return Src[I * N + J];
  }
  bool consistent() const { return Consistent; }

  std::set<unsigned> negativeCycleSources() const {
    std::set<unsigned> Out;
    for (unsigned I = 0; I < N; ++I)
      if (W[I * N + I]->isNegative())
        Out.insert(Src[I * N + I].begin(), Src[I * N + I].end());
    return Out;
  }

  bool triangleConsistent() const {
    for (unsigned K = 0; K < N; ++K)
      for (unsigned I = 0; I < N; ++I)
        for (unsigned J = 0; J < N; ++J) {
          const std::optional<Rational> &IK = at(I, K), &KJ = at(K, J);
          if (IK && KJ && (!at(I, J) || *IK + *KJ < *at(I, J)))
            return false;
        }
    return true;
  }

private:
  unsigned N;
  std::vector<std::optional<Rational>> W;
  std::vector<std::set<unsigned>> Src;
  bool Consistent = true;
};

std::string show(const std::optional<Rational> &W) {
  return W ? W->toString() : "absent";
}

/// Every observable of \p D equals the reference's. Provenance is
/// compared too: an untracked matrix and a reference fed no sources are
/// both empty.
testing::AssertionResult agrees(const Dbm &D, const ReferenceDbm &R) {
  if (D.consistent() != R.consistent())
    return testing::AssertionFailure() << "consistent() differs";
  for (unsigned I = 0; I < D.size(); ++I)
    for (unsigned J = 0; J < D.size(); ++J) {
      if (D.at(I, J) != R.at(I, J))
        return testing::AssertionFailure()
               << "D(" << I << "," << J << ") = " << show(D.at(I, J))
               << ", reference " << show(R.at(I, J));
      if (D.sourcesAt(I, J) != R.sourcesAt(I, J))
        return testing::AssertionFailure()
               << "provenance of D(" << I << "," << J << ") differs";
    }
  if (D.negativeCycleSources() != R.negativeCycleSources())
    return testing::AssertionFailure() << "negativeCycleSources() differs";
  if (D.triangleConsistent() != R.triangleConsistent())
    return testing::AssertionFailure() << "triangleConsistent() differs";
  return testing::AssertionSuccess();
}

TEST(DbmTest, KernelMatchesRationalReferenceOnRandomZones) {
  SplitMix64 Rng(42);
  unsigned Consistent = 0, Cycles = 0, Mutants = 0;
  for (unsigned Round = 0; Round < 400; ++Round) {
    unsigned N = 1 + unsigned(Rng.below(10));
    bool Skip = Rng.chance(1, 4), Real = Rng.chance(1, 4);
    Dbm D(N);
    ReferenceDbm R(N);
    unsigned Edges = unsigned(Rng.below(3 * N + 1));
    for (unsigned E = 0; E < Edges; ++E) {
      unsigned I = unsigned(Rng.below(N)), J = unsigned(Rng.below(N));
      // A quarter of the zones are Real, with denominators up to 6.
      Rational C = Real ? Rational(BigInt(Rng.range(-30, 120)),
                                   BigInt(int64_t(1 + Rng.below(6))))
                        : Q(Rng.range(-5, 20));
      std::set<unsigned> S = {unsigned(Rng.below(12))};
      D.tighten(I, J, C, S);
      R.tighten(I, J, C, S);
      if (Rng.chance(1, 4)) {
        // An equally tight re-record unions provenance.
        std::set<unsigned> More = {unsigned(Rng.below(12))};
        D.tighten(I, J, C, More);
        R.tighten(I, J, C, More);
      }
    }
    D.close(Skip);
    R.close(Skip);
    ASSERT_TRUE(D.fixedPoint()) << "round " << Round;
    ASSERT_TRUE(agrees(D, R)) << "round " << Round;
    Consistent += R.consistent();
    Cycles += !R.consistent();
    Mutants += R.consistent() && !R.triangleConsistent();
  }
  // The sweep covers closed zones, negative cycles, and the mutant's
  // under-closure.
  EXPECT_GT(Consistent, 40u) << Consistent;
  EXPECT_GT(Cycles, 40u) << Cycles;
  EXPECT_GT(Mutants, 5u) << Mutants;
}

TEST(OctagonTest, KernelMatchesRationalReferenceOnRandomOctagons) {
  SplitMix64 Rng(1009);
  unsigned Kernel = 0, Fallback = 0, Halves = 0, Inconsistent = 0;
  for (unsigned Round = 0; Round < 400; ++Round) {
    unsigned Vars = 2 + unsigned(Rng.below(7));
    unsigned Width = 4 + unsigned(Rng.below(61));
    unsigned N = 2 * Vars;
    Dbm D(N, /*TrackSources=*/false);
    ReferenceDbm R(N);
    auto Record = [&](unsigned I, unsigned J, const Rational &C) {
      D.tighten(I, J, C);
      R.tighten(I, J, C);
    };
    // Every variable ranges over the signed width, doubled on its pair.
    Rational Half(BigInt::pow2(Width - 1));
    for (unsigned K = 0; K < Vars; ++K) {
      Record(2 * K, 2 * K + 1, (Half - Q(1)) * Q(2));
      Record(2 * K + 1, 2 * K, Half * Q(2));
    }
    int64_t Spread = int64_t(1) << std::min(Width - 1, 3u);
    unsigned Facts = unsigned(Rng.below(4 * Vars + 1));
    for (unsigned F = 0; F < Facts; ++F) {
      unsigned NX = unsigned(Rng.below(N));
      if (Rng.chance(1, 2)) {
        // An odd doubled unary bound: strengthening halves it.
        Record(NX, NX ^ 1u, Q(2 * Rng.range(-Spread, Spread) + 1));
        continue;
      }
      // +-x +-y <= C with its coherent dual edge.
      unsigned NY = unsigned(Rng.below(N));
      Rational C = Q(Rng.range(-Spread, Spread));
      Record(NX, NY, C);
      Record(NY ^ 1u, NX ^ 1u, C);
    }
    D.strongClose();
    R.strongClose();
    ASSERT_TRUE(agrees(D, R)) << "round " << Round << ", width " << Width;
    (D.fixedPoint() ? Kernel : Fallback) += 1;
    Inconsistent += !R.consistent();
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J)
        Halves += R.at(I, J) && !R.at(I, J)->isInteger();
  }
  // Narrow widths stay in the kernel, the widest fall back. Tightened
  // consistent octagons end on integers; strengthened halves survive
  // where a later pass stops on a contradiction.
  EXPECT_GT(Kernel, 200u) << Kernel;
  EXPECT_GT(Fallback, 20u) << Fallback;
  EXPECT_GT(Halves, 0u) << Halves;
  EXPECT_GT(Inconsistent, 0u) << Inconsistent;
}

TEST(OctagonTest, Width64OctagonTakesTheRationalFallback) {
  // x in [-2^63, 2^63 - 1] doubles to 2^64 on the pair: past admission.
  Dbm D(4, /*TrackSources=*/false);
  ReferenceDbm R(4);
  Rational Half(BigInt::pow2(63));
  for (unsigned K = 0; K < 2; ++K) {
    for (auto [I, J, C] : {std::tuple{2 * K, 2 * K + 1, (Half - Q(1)) * Q(2)},
                           std::tuple{2 * K + 1, 2 * K, Half * Q(2)}}) {
      D.tighten(I, J, C);
      R.tighten(I, J, C);
    }
  }
  // x + y <= 5 and x - y <= 0, with their duals: 2x <= 5 rounds to 4.
  for (auto [I, J, C] : {std::tuple{0u, 3u, 5}, std::tuple{2u, 1u, 5},
                         std::tuple{0u, 2u, 0}, std::tuple{3u, 1u, 0}}) {
    D.tighten(I, J, Q(C));
    R.tighten(I, J, Q(C));
  }
  ASSERT_TRUE(D.strongClose());
  R.strongClose();
  EXPECT_FALSE(D.fixedPoint());
  EXPECT_TRUE(agrees(D, R));
  EXPECT_EQ(*D.at(0, 1), Q(4));
}

TEST(DbmTest, HugeConstantsAndDenominatorsTakeTheRationalFallback) {
  // A 2^70 bound cannot be a fixed-point weight; neither can a unit of
  // 2^-62, whose inputs would need a Scale past the admission bound.
  for (const Rational &Big :
       {Rational(BigInt::pow2(70)),
        Rational(BigInt(1), BigInt::pow2(62))}) {
    Dbm D(3);
    ReferenceDbm R(3);
    for (auto [I, J, C, S] : {std::tuple{0u, 1u, Big, 0u},
                              std::tuple{1u, 2u, Q(-3), 1u},
                              std::tuple{2u, 0u, Q(5), 2u}}) {
      D.tighten(I, J, C, {S});
      R.tighten(I, J, C, {S});
    }
    EXPECT_TRUE(D.close());
    R.close();
    EXPECT_FALSE(D.fixedPoint());
    EXPECT_TRUE(agrees(D, R));
  }
}

TEST(DbmTest, RealThirdsAndSeventhsStayInTheKernel) {
  // Denominators 3 and 7 put the zone on a unit of 1/21.
  Dbm D(3);
  ReferenceDbm R(3);
  for (auto [I, J, C, S] :
       {std::tuple{1u, 0u, Rational(BigInt(1), BigInt(3)), 0u},
        std::tuple{2u, 1u, Rational(BigInt(1), BigInt(7)), 1u},
        std::tuple{0u, 2u, Rational(BigInt(-2), BigInt(7)), 2u}}) {
    D.tighten(I, J, C, {S});
    R.tighten(I, J, C, {S});
  }
  ASSERT_TRUE(D.close());
  R.close();
  EXPECT_TRUE(D.fixedPoint());
  EXPECT_TRUE(agrees(D, R));
  EXPECT_EQ(*D.at(2, 0), Rational(BigInt(10), BigInt(21)));
  EXPECT_EQ(D.sourcesAt(2, 0), (std::set<unsigned>{0, 1}));
}

TEST(DbmTest, OverflowingNegativeCycleRestartsInRationals) {
  // A 40-node path whose every edge runs both ways at a weight that
  // passes admission: each pivot meets a negative cycle, and relaxing
  // through the negative diagonals compounds until a sum leaves int64_t.
  // The restart from the inputs must give the Rational loop's result,
  // provenance included.
  const unsigned N = 40;
  Rational Weight = Q(-(((int64_t(1) << 61) - 1) / N));
  Dbm D(N);
  ReferenceDbm R(N);
  for (unsigned I = 0; I + 1 < N; ++I)
    for (auto [From, To, Src] :
         {std::tuple{I, I + 1, I}, std::tuple{I + 1, I, N + I}}) {
      D.tighten(From, To, Weight, {Src});
      R.tighten(From, To, Weight, {Src});
    }
  EXPECT_FALSE(D.close());
  R.close();
  EXPECT_FALSE(D.fixedPoint());
  EXPECT_TRUE(agrees(D, R));
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
