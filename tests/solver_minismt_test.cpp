//===- tests/solver_minismt_test.cpp - MiniSMT end-to-end tests -----------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "solver/Solver.h"

#include "smtlib/Parser.h"
#include "solver/BitBlaster.h"
#include "support/Random.h"

#include <gtest/gtest.h>

using namespace staub;

namespace {

/// Parses and solves a script with MiniSMT; checks any Sat model against
/// the original assertions with the exact evaluator.
SolveStatus solveText(const char *Text, double Timeout = 10.0) {
  TermManager M;
  auto R = parseSmtLib(M, Text);
  EXPECT_TRUE(R.Ok) << R.Error;
  if (!R.Ok)
    return SolveStatus::Unknown;
  auto Solver = createMiniSmtSolver();
  SolverOptions Options;
  Options.TimeoutSeconds = Timeout;
  SolveResult Result = Solver->solve(M, R.Parsed.Assertions, Options);
  if (Result.Status == SolveStatus::Sat) {
    EXPECT_TRUE(evaluatesToTrue(M, R.Parsed.conjoined(M), Result.TheModel))
        << "model failed verification for:\n"
        << Text;
  }
  return Result.Status;
}

//===--------------------------------------------------------------------===//
// Bitvector path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtBvTest, SimpleSat) {
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 8))"
                      "(assert (= (bvadd x (_ bv1 8)) (_ bv0 8)))"),
            SolveStatus::Sat);
}

TEST(MiniSmtBvTest, SimpleUnsat) {
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 8))"
                      "(assert (bvult x (_ bv0 8)))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtBvTest, SumOfCubesBounded) {
  // The paper's Fig. 1b at width 12: must find x=7,y=8,z=0 (or another
  // non-overflowing solution).
  EXPECT_EQ(
      solveText("(declare-fun x () (_ BitVec 12))"
                "(declare-fun y () (_ BitVec 12))"
                "(declare-fun z () (_ BitVec 12))"
                "(assert (not (bvsmulo x x)))"
                "(assert (not (bvsmulo (bvmul x x) x)))"
                "(assert (not (bvsmulo y y)))"
                "(assert (not (bvsmulo (bvmul y y) y)))"
                "(assert (not (bvsmulo z z)))"
                "(assert (not (bvsmulo (bvmul z z) z)))"
                "(assert (not (bvsaddo (bvmul (bvmul x x) x) "
                "(bvmul (bvmul y y) y))))"
                "(assert (not (bvsaddo (bvadd (bvmul (bvmul x x) x) "
                "(bvmul (bvmul y y) y)) (bvmul (bvmul z z) z))))"
                "(assert (= (bvadd (bvmul (bvmul x x) x) "
                "(bvmul (bvmul y y) y) (bvmul (bvmul z z) z)) (_ bv855 12)))",
                30.0),
      SolveStatus::Sat);
}

TEST(MiniSmtBvTest, MulCommutes) {
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 6))"
                      "(declare-fun b () (_ BitVec 6))"
                      "(assert (distinct (bvmul a b) (bvmul b a)))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtBvTest, DivisionSemantics) {
  // udiv by zero is all-ones.
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 5))"
                      "(assert (distinct (bvudiv a (_ bv0 5)) (_ bv31 5)))"),
            SolveStatus::Unsat);
  // x = (x / y) * y + (x rem y) when y != 0.
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 5))"
                      "(declare-fun y () (_ BitVec 5))"
                      "(assert (distinct y (_ bv0 5)))"
                      "(assert (distinct x (bvadd (bvmul (bvudiv x y) y) "
                      "(bvurem x y))))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtBvTest, ShiftSemantics) {
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (distinct (bvshl a (_ bv1 8)) "
                      "(bvmul a (_ bv2 8))))"),
            SolveStatus::Unsat);
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (= (bvlshr a (_ bv2 8)) (_ bv63 8)))"),
            SolveStatus::Sat);
}

TEST(MiniSmtBvTest, OverflowPredicate) {
  // bvsmulo must hold exactly when the product exceeds the signed range.
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (bvsgt a (_ bv11 8)))"
                      "(assert (not (bvsmulo a a)))"),
            SolveStatus::Unsat); // 12*12=144 > 127 overflows.
  EXPECT_EQ(solveText("(declare-fun a () (_ BitVec 8))"
                      "(assert (bvsgt a (_ bv0 8)))"
                      "(assert (not (bvsmulo a a)))"),
            SolveStatus::Sat); // e.g. a=11.
}

TEST(MiniSmtBvTest, BooleanOnly) {
  EXPECT_EQ(solveText("(declare-fun p () Bool)(declare-fun q () Bool)"
                      "(assert (and (or p q) (not p)))"),
            SolveStatus::Sat);
  EXPECT_EQ(solveText("(declare-fun p () Bool)"
                      "(assert (and p (not p)))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtBvTest, ShiftWiderThan64Bits) {
  // Amount bits 64..69 only saturate the result; blasting them must not
  // shift a 64-bit word by 64 or more.
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 70))"
                      "(declare-fun s () (_ BitVec 70))"
                      "(assert (bvugt x (_ bv1000 70)))"
                      "(assert (= (bvlshr x s) (_ bv1 70)))"),
            SolveStatus::Sat);
  EXPECT_EQ(solveText("(declare-fun x () (_ BitVec 70))"
                      "(declare-fun s () (_ BitVec 70))"
                      "(assert (bvuge s (_ bv70 70)))"
                      "(assert (distinct (bvshl x s) (_ bv0 70)))"),
            SolveStatus::Unsat);
}

/// An overflow guard and the operation it covers.
struct GuardedOp {
  Kind Op;
  Kind Guard;
};
constexpr GuardedOp GuardedOps[] = {{Kind::BvAdd, Kind::BvSAddO},
                                    {Kind::BvSub, Kind::BvSSubO},
                                    {Kind::BvMul, Kind::BvSMulO}};

/// Blasts z = Op(x, y) and p = Guard(x, y) with x and y bound to \p A and
/// \p B, the guard before the operation when \p GuardFirst, and checks the
/// model against the exact evaluator.
void expectGuardMatchesEvaluator(GuardedOp G, unsigned Width, int64_t A,
                                 int64_t B, bool GuardFirst) {
  TermManager M;
  Sort S = Sort::bitVec(Width);
  Term X = M.mkVariable("x", S), Y = M.mkVariable("y", S);
  Term Z = M.mkVariable("z", S), P = M.mkVariable("p", Sort::boolean());
  const Term XY[] = {X, Y};
  Term OpEq = M.mkEq(Z, M.mkApp(G.Op, XY));
  Term GuardEq = M.mkEq(P, M.mkApp(G.Guard, XY));
  std::vector<Term> Assertions = {
      M.mkEq(X, M.mkBitVecConst(BitVecValue(Width, A))),
      M.mkEq(Y, M.mkBitVecConst(BitVecValue(Width, B))),
      GuardFirst ? GuardEq : OpEq, GuardFirst ? OpEq : GuardEq};
  SatSolver Sat;
  BitBlaster Blaster(M, Sat);
  for (Term Assertion : Assertions)
    Blaster.assertTrue(Assertion);
  ASSERT_EQ(Sat.solve(), SatStatus::Sat);
  Model Found = Blaster.extractModel({X, Y, Z, P});
  EXPECT_TRUE(evaluatesToTrue(M, M.mkAnd(Assertions), Found))
      << kindName(G.Guard) << "(" << A << ", " << B << ") at width "
      << Width << (GuardFirst ? ", guard first" : ", operation first")
      << ": p = " << Found.get(P)->toString()
      << ", z = " << Found.get(Z)->toString();
}

/// A random signed Width-bit value whose magnitude bit count (Width-1
/// minus its redundant sign bits) is uniform, so products land near the
/// overflow boundary as often as far from it.
int64_t randomSigned(SplitMix64 &Rng, unsigned Width) {
  unsigned Bits = static_cast<unsigned>(Rng.below(Width));
  uint64_t Magnitude = 0;
  if (Bits > 0)
    Magnitude = (Rng.next() & ((uint64_t(1) << (Bits - 1)) - 1)) |
                (uint64_t(1) << (Bits - 1));
  return static_cast<int64_t>(Rng.chance(1, 2) ? ~Magnitude : Magnitude);
}

TEST(MiniSmtBvTest, OverflowGuardsMatchExactSemantics) {
  // Every operand pair up to 6 bits, each guard blasted before and after
  // its operation. Operands are bound by equalities, not constants, so
  // the circuits do not fold away.
  for (unsigned Width = 1; Width <= 6; ++Width) {
    int64_t Lo = -(int64_t(1) << (Width - 1));
    int64_t Hi = (int64_t(1) << (Width - 1)) - 1;
    for (GuardedOp G : GuardedOps)
      for (int64_t A = Lo; A <= Hi; ++A)
        for (int64_t B = Lo; B <= Hi; ++B)
          for (bool GuardFirst : {false, true})
            expectGuardMatchesEvaluator(G, Width, A, B, GuardFirst);
  }
  // Wide widths: the signed extremes, both sides of 2^(W-1) as a product
  // of powers of two, and random pairs.
  SplitMix64 Rng(17);
  for (unsigned Width : {16u, 32u, 64u}) {
    int64_t Min = static_cast<int64_t>(~uint64_t(0) << (Width - 1));
    int64_t Max = ~Min;
    int64_t Half = int64_t(1) << (Width / 2);
    std::vector<std::pair<int64_t, int64_t>> Pairs = {
        {Min, -1},       {Min, 1},        {Max, Max},      {Max, -1},
        {Half, Half},    {Half / 2, Half}, {-Half / 2, Half}, {-Half, Half},
        {Half - 1, Half}, {Min, 0}};
    for (int I = 0; I < 40; ++I)
      Pairs.emplace_back(randomSigned(Rng, Width), randomSigned(Rng, Width));
    for (GuardedOp G : GuardedOps)
      for (auto [A, B] : Pairs)
        for (bool GuardFirst : {false, true})
          expectGuardMatchesEvaluator(G, Width, A, B, GuardFirst);
  }
}

TEST(MiniSmtBvTest, OverflowGuardsMatchWideningDefinition) {
  // Symbolic proofs: each guard disagrees with overflow of the widened
  // operation on no operand pair. bvsmulo is checked against the product
  // of the 2W-bit sign extensions, the others against (W+1)-bit ones.
  auto Solver = createMiniSmtSolver();
  SolverOptions Options;
  Options.TimeoutSeconds = 60;
  for (GuardedOp G : GuardedOps) {
    unsigned MaxWidth = G.Op == Kind::BvMul ? 8 : 16;
    for (unsigned Width = 1; Width <= MaxWidth; ++Width) {
      TermManager M;
      Sort S = Sort::bitVec(Width);
      Term X = M.mkVariable("x", S), Y = M.mkVariable("y", S);
      const Term XY[] = {X, Y};
      unsigned Extra = G.Op == Kind::BvMul ? Width : 1;
      const Term Wide[] = {M.mkBvSignExtend(Extra, X),
                           M.mkBvSignExtend(Extra, Y)};
      Term Exact = M.mkApp(G.Op, Wide);
      Term Fits = M.mkEq(
          Exact, M.mkBvSignExtend(Extra, M.mkBvExtract(Width - 1, 0, Exact)));
      std::vector<Term> Assertions = {
          M.mkEq(M.mkVariable("z", S), M.mkApp(G.Op, XY)),
          M.mkEq(M.mkApp(G.Guard, XY), Fits)};
      SolveResult R = Solver->solve(M, Assertions, Options);
      EXPECT_EQ(R.Status, SolveStatus::Unsat)
          << kindName(G.Guard) << " at width " << Width;
    }
  }
}

/// SAT variables after blasting \p Assertions in order.
unsigned blastedVars(TermManager &M, const std::vector<Term> &Assertions) {
  SatSolver Sat;
  BitBlaster Blaster(M, Sat);
  for (Term Assertion : Assertions)
    Blaster.assertTrue(Assertion);
  return Sat.numVars();
}

TEST(MiniSmtBvTest, GuardReusesGuardedCircuit) {
  // A guard reads the sum or product of the operation it guards, in
  // either blast order: bvsmulo adds 7W-7 variables and bvsaddo/bvssubo
  // three. A multiplier or adder of the guard's own would break both
  // limits.
  for (unsigned Width : {8u, 16u, 32u, 64u}) {
    for (GuardedOp G : GuardedOps) {
      TermManager M;
      Sort S = Sort::bitVec(Width);
      Term X = M.mkVariable("x", S), Y = M.mkVariable("y", S);
      const Term XY[] = {X, Y};
      Term OpEq = M.mkEq(M.mkVariable("z", S), M.mkApp(G.Op, XY));
      Term NoOverflow = M.mkNot(M.mkApp(G.Guard, XY));
      unsigned Alone = blastedVars(M, {OpEq});
      unsigned Limit = G.Op == Kind::BvMul ? 8 * Width : 4;
      EXPECT_LE(blastedVars(M, {OpEq, NoOverflow}), Alone + Limit)
          << kindName(G.Guard) << " after its operation, width " << Width;
      EXPECT_LE(blastedVars(M, {NoOverflow, OpEq}), Alone + Limit)
          << kindName(G.Guard) << " before its operation, width " << Width;
    }
  }
}

TEST(MiniSmtBvTest, AdderAndComparisonAreCompact) {
  // A full-adder bit is one XOR3 and one majority gate, and an unsigned
  // comparison is its borrow chain alone, one majority per bit. Each pair
  // of blasts differs in one circuit only: a second adder fed by the
  // first, or a second comparison. Five 2-input gates per adder bit, or a
  // full subtractor per comparison, would break both limits. A divider
  // row is one subtractor and one mux: its compare is the subtractor's
  // carry-out, and a separate borrow chain per row would add W^2.
  for (unsigned Width : {8u, 16u, 32u, 64u}) {
    TermManager M;
    Sort S = Sort::bitVec(Width);
    Term X = M.mkVariable("x", S), Y = M.mkVariable("y", S);
    Term Z = M.mkVariable("z", S);
    Term Sum = M.mkApp(Kind::BvAdd, std::vector<Term>{X, Y});
    Term SumPlusX = M.mkApp(Kind::BvAdd, std::vector<Term>{Sum, X});
    EXPECT_LE(blastedVars(M, {M.mkEq(Z, SumPlusX)}),
              blastedVars(M, {M.mkEq(Z, Sum)}) + 2 * Width + 2)
        << "bvadd at width " << Width;
    Term Less = M.mkApp(Kind::BvUlt, std::vector<Term>{X, Y});
    Term Greater = M.mkApp(Kind::BvUlt, std::vector<Term>{Y, X});
    EXPECT_LE(blastedVars(M, {Less, Greater}),
              blastedVars(M, {Less}) + Width + 2)
        << "bvult at width " << Width;
    Term Quotient = M.mkApp(Kind::BvUDiv, std::vector<Term>{X, Y});
    Term Xor = M.mkApp(Kind::BvXor, std::vector<Term>{X, Y});
    EXPECT_LE(blastedVars(M, {M.mkEq(Z, Quotient)}),
              blastedVars(M, {M.mkEq(Z, Xor)}) + 3 * Width * Width + Width)
        << "bvudiv at width " << Width;
  }
}

/// Blasts r = Op(x, y), or r = Op(x) for the unary bvneg, with x and y
/// bound to \p A and \p B by equalities and r free, and checks the model
/// against the exact evaluator.
void expectCircuitMatchesEvaluator(Kind Op, unsigned Width, int64_t A,
                                   int64_t B) {
  TermManager M;
  Sort S = Sort::bitVec(Width);
  Term X = M.mkVariable("x", S), Y = M.mkVariable("y", S);
  Term Circuit = Op == Kind::BvNeg
                     ? M.mkApp(Op, std::vector<Term>{X})
                     : M.mkApp(Op, std::vector<Term>{X, Y});
  Term R = M.mkVariable("r", M.sort(Circuit));
  std::vector<Term> Assertions = {
      M.mkEq(X, M.mkBitVecConst(BitVecValue(Width, A))),
      M.mkEq(Y, M.mkBitVecConst(BitVecValue(Width, B))), M.mkEq(R, Circuit)};
  SatSolver Sat;
  BitBlaster Blaster(M, Sat);
  for (Term Assertion : Assertions)
    Blaster.assertTrue(Assertion);
  ASSERT_EQ(Sat.solve(), SatStatus::Sat);
  Model Found = Blaster.extractModel({X, Y, R});
  EXPECT_TRUE(evaluatesToTrue(M, M.mkAnd(Assertions), Found))
      << kindName(Op) << "(" << A << ", " << B << ") at width " << Width
      << ": r = " << Found.get(R)->toString();
}

TEST(MiniSmtBvTest, AdderAndComparisonCircuitsMatchExactSemantics) {
  // Every circuit built on the full adder or the borrow chain, on every
  // operand pair up to 5 bits. Operands are bound by equalities, not
  // constants, so the circuits do not fold away.
  const Kind Ops[] = {Kind::BvAdd,  Kind::BvSub,  Kind::BvNeg,  Kind::BvMul,
                      Kind::BvUlt,  Kind::BvUle,  Kind::BvUgt,  Kind::BvUge,
                      Kind::BvSlt,  Kind::BvSle,  Kind::BvSgt,  Kind::BvSge,
                      Kind::BvUDiv, Kind::BvURem, Kind::BvSDiv, Kind::BvSRem};
  for (unsigned Width = 1; Width <= 5; ++Width)
    for (Kind Op : Ops)
      for (int64_t A = 0; A < (int64_t(1) << Width); ++A)
        for (int64_t B = 0; B < (int64_t(1) << Width); ++B)
          expectCircuitMatchesEvaluator(Op, Width, A, B);
}

TEST(MiniSmtBvTest, ComparisonsAreTheBorrowOfTheWidenedSubtraction) {
  // Symbolic proofs: x < y exactly when the (W+1)-bit subtraction of the
  // zero-extended (bvult) or sign-extended (bvslt) operands borrows, i.e.
  // sets bit W. The comparison's borrow chain and the subtractor's carry
  // chain are blasted separately.
  auto Solver = createMiniSmtSolver();
  SolverOptions Options;
  Options.TimeoutSeconds = 60;
  for (unsigned Width = 1; Width <= 12; ++Width) {
    for (bool Signed : {false, true}) {
      TermManager M;
      Sort S = Sort::bitVec(Width);
      Term X = M.mkVariable("x", S), Y = M.mkVariable("y", S);
      auto Widen = [&](Term T) {
        return Signed ? M.mkBvSignExtend(1, T) : M.mkBvZeroExtend(1, T);
      };
      Term Difference =
          M.mkApp(Kind::BvSub, std::vector<Term>{Widen(X), Widen(Y)});
      Term Borrow = M.mkEq(M.mkBvExtract(Width, Width, Difference),
                           M.mkBitVecConst(BitVecValue(1, int64_t(1))));
      Term Less =
          M.mkApp(Signed ? Kind::BvSlt : Kind::BvUlt, std::vector<Term>{X, Y});
      SolveResult R = Solver->solve(M, {M.mkNot(M.mkEq(Less, Borrow))}, Options);
      EXPECT_EQ(R.Status, SolveStatus::Unsat)
          << (Signed ? "bvslt" : "bvult") << " at width " << Width;
    }
  }
}

TEST(MiniSmtBvTest, FirstDescentEvaluatesTheCircuit) {
  // Every gate the blaster creates starts in its value under its inputs'
  // phases, and variable bits start false. With nothing asserted, the
  // first descent is then the circuits' evaluation at the all-zero input:
  // it meets no conflict. The gates are functions of the variable bits, so
  // with x = y = 0 every gate holds its value there; the roots are read
  // against the exact evaluator (a bitvector root through its equality
  // with the evaluator's value).
  for (unsigned Width : {4u, 8u, 16u}) {
    SCOPED_TRACE("width " + std::to_string(Width));
    TermManager M;
    Sort S = Sort::bitVec(Width);
    Term X = M.mkVariable("x", S), Y = M.mkVariable("y", S);
    const Term XY[] = {X, Y}, YX[] = {Y, X};
    std::vector<Term> Roots;
    for (Kind K : {Kind::BvAdd, Kind::BvSub, Kind::BvMul, Kind::BvUlt,
                   Kind::BvSlt, Kind::BvSMulO, Kind::BvUDiv})
      Roots.push_back(M.mkApp(K, XY));
    Roots.push_back(M.mkIte(M.mkApp(Kind::BvUlt, YX), M.mkApp(Kind::BvSub, YX),
                            M.mkApp(Kind::BvMul, YX)));
    Model Zero;
    Zero.set(X, Value(BitVecValue(Width)));
    Zero.set(Y, Value(BitVecValue(Width)));

    SatSolver Sat;
    BitBlaster Blaster(M, Sat);
    std::vector<std::pair<Term, Lit>> Reads;
    for (Term Root : Roots) {
      std::optional<Value> Expected = evaluate(M, Root, Zero);
      ASSERT_TRUE(Expected);
      Term Read = Expected->isBool()
                      ? (Expected->asBool() ? Root : M.mkNot(Root))
                      : M.mkEq(Root, M.mkBitVecConst(Expected->asBitVec()));
      Reads.emplace_back(Root, Blaster.encodeBool(Read));
    }
    ASSERT_EQ(Sat.solve(), SatStatus::Sat);
    EXPECT_EQ(Sat.numConflicts(), 0u);
    Model Found = Blaster.extractModel({X, Y});
    EXPECT_TRUE(Found.get(X)->asBitVec().isZero());
    EXPECT_TRUE(Found.get(Y)->asBitVec().isZero());
    for (auto [Root, L] : Reads)
      EXPECT_EQ(Sat.value(L), LBool::True) << kindName(M.kind(Root));
  }
}

//===--------------------------------------------------------------------===//
// Linear integer arithmetic path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtLiaTest, SimpleSystem) {
  EXPECT_EQ(solveText("(declare-fun x () Int)(declare-fun y () Int)"
                      "(assert (<= (+ x y) 10))"
                      "(assert (>= (- x y) 4))"
                      "(assert (> y 0))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLiaTest, InfeasibleSystem) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (> x 5))(assert (< x 3))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtLiaTest, RequiresIntegrality) {
  // 2x = 1 has a rational solution but no integer one.
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (= (* 2 x) 1))"),
            SolveStatus::Unsat);
  // Branch and bound: 3x + 3y = 7 likewise.
  EXPECT_EQ(solveText("(declare-fun x () Int)(declare-fun y () Int)"
                      "(assert (= (+ (* 3 x) (* 3 y)) 7))"
                      "(assert (>= x 0))(assert (>= y 0))"
                      "(assert (<= x 10))(assert (<= y 10))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtLiaTest, PaperFig4Example) {
  // a >= 15 and a - b < 0: sat (e.g. a=15, b=16).
  EXPECT_EQ(solveText("(declare-fun a () Int)(declare-fun b () Int)"
                      "(assert (>= a 15))"
                      "(assert (< (- a b) 0))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLiaTest, BooleanStructure) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (or (= x 3) (= x 5)))"
                      "(assert (not (= x 3)))"
                      "(assert (not (= x 5)))"),
            SolveStatus::Unsat);
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (or (= x 3) (= x 5)))"
                      "(assert (not (= x 3)))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLiaTest, StrictVsNonStrict) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (> x 4))(assert (< x 6))"),
            SolveStatus::Sat); // x = 5.
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (> x 4))(assert (< x 5))"),
            SolveStatus::Unsat);
}

//===--------------------------------------------------------------------===//
// Linear real arithmetic path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtLraTest, StrictGapIsSatOverReals) {
  // The integer-unsat gap 4 < x < 5 is sat over the reals.
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (> x 4.0))(assert (< x 5.0))"),
            SolveStatus::Sat);
}

TEST(MiniSmtLraTest, SystemWithFractions) {
  EXPECT_EQ(solveText("(declare-fun x () Real)(declare-fun y () Real)"
                      "(assert (= (+ x y) 1.5))"
                      "(assert (= (- x y) 0.25))"),
            SolveStatus::Sat);
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (< x 1.0))(assert (> x 1.0))"),
            SolveStatus::Unsat);
}

TEST(MiniSmtLraTest, ChainedConstraints) {
  EXPECT_EQ(solveText("(declare-fun a () Real)(declare-fun b () Real)"
                      "(declare-fun c () Real)"
                      "(assert (< a b))(assert (< b c))(assert (< c a))"),
            SolveStatus::Unsat);
}

//===--------------------------------------------------------------------===//
// Nonlinear (ICP) path.
//===--------------------------------------------------------------------===//

TEST(MiniSmtNiaTest, SmallSquares) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (= (* x x) 49))"),
            SolveStatus::Sat);
}

TEST(MiniSmtNiaTest, SquareIsNonNegative) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(assert (< (* x x) 0))"),
            SolveStatus::Unsat); // Proven on the unbounded box.
}

TEST(MiniSmtNiaTest, ModByPossiblyZeroDivisorIsNotUnsat) {
  // Sat with y = 0, where mod is unspecified; MiniSMT finds no checked
  // model for it, but must never refute it.
  EXPECT_NE(solveText("(declare-fun x () Int)(declare-fun y () Int)"
                      "(assert (= (mod x y) (- 5)))",
                      0.5),
            SolveStatus::Unsat);
}

TEST(MiniSmtNiaTest, SumOfCubesSmall) {
  // Small instance of the MathProblems family: x^3 + y^3 = 91 (3,4).
  EXPECT_EQ(solveText("(declare-fun x () Int)(declare-fun y () Int)"
                      "(assert (>= x 0))(assert (>= y 0))"
                      "(assert (<= x 16))(assert (<= y 16))"
                      "(assert (= (+ (* x x x) (* y y y)) 91))",
                      30.0),
            SolveStatus::Sat);
}

TEST(MiniSmtNraTest, SimpleQuadratic) {
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (> (* x x) 4.0))(assert (< x 10.0))"),
            SolveStatus::Sat);
  EXPECT_EQ(solveText("(declare-fun x () Real)"
                      "(assert (< (+ (* x x) 1.0) 0.0))"),
            SolveStatus::Unsat);
}

//===--------------------------------------------------------------------===//
// Dispatch edge cases.
//===--------------------------------------------------------------------===//

TEST(MiniSmtTest, MixedTheoriesUnknown) {
  EXPECT_EQ(solveText("(declare-fun x () Int)"
                      "(declare-fun v () (_ BitVec 4))"
                      "(assert (= x 1))(assert (= v (_ bv1 4)))"),
            SolveStatus::Unknown);
  // MiniSMT has no FP engine: FP input gives up at once, even when a = 0
  // would do.
  EXPECT_EQ(solveText("(declare-fun a () Float32)"
                      "(assert (fp.eq (fp.mul RNE a a) a))"),
            SolveStatus::Unknown);
}

TEST(MiniSmtTest, EmptyAssertionsAreSat) {
  TermManager M;
  auto Solver = createMiniSmtSolver();
  SolveResult R = Solver->solve(M, {}, {});
  EXPECT_EQ(R.Status, SolveStatus::Sat);
}

} // namespace
