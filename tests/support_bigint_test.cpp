//===- tests/support_bigint_test.cpp - BigInt unit tests ------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

using namespace staub;

namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.sign(), 0);
  EXPECT_EQ(Zero.toString(), "0");
  EXPECT_EQ(Zero.bitWidth(), 0u);
}

TEST(BigIntTest, Int64RoundTrip) {
  for (int64_t Value : {int64_t(0), int64_t(1), int64_t(-1), int64_t(42),
                        int64_t(-855), INT64_MAX, INT64_MIN}) {
    BigInt Big(Value);
    ASSERT_TRUE(Big.toInt64().has_value()) << Value;
    EXPECT_EQ(*Big.toInt64(), Value);
  }
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char *Text :
       {"0", "1", "-1", "855", "123456789012345678901234567890",
        "-987654321098765432109876543210"}) {
    auto Parsed = BigInt::fromString(Text);
    ASSERT_TRUE(Parsed.has_value()) << Text;
    EXPECT_EQ(Parsed->toString(), Text);
  }
}

TEST(BigIntTest, FromStringRejectsMalformed) {
  EXPECT_FALSE(BigInt::fromString("").has_value());
  EXPECT_FALSE(BigInt::fromString("-").has_value());
  EXPECT_FALSE(BigInt::fromString("12a").has_value());
  EXPECT_FALSE(BigInt::fromString("+5").has_value());
}

TEST(BigIntTest, AdditionSigns) {
  EXPECT_EQ((BigInt(5) + BigInt(7)).toString(), "12");
  EXPECT_EQ((BigInt(5) + BigInt(-7)).toString(), "-2");
  EXPECT_EQ((BigInt(-5) + BigInt(7)).toString(), "2");
  EXPECT_EQ((BigInt(-5) + BigInt(-7)).toString(), "-12");
  EXPECT_TRUE((BigInt(5) + BigInt(-5)).isZero());
}

TEST(BigIntTest, CarryPropagation) {
  BigInt AlmostCarry(int64_t(0xFFFFFFFF));
  EXPECT_EQ((AlmostCarry + BigInt(1)).toString(), "4294967296");
  BigInt Large = BigInt::pow2(96) - BigInt(1);
  EXPECT_EQ((Large + BigInt(1)), BigInt::pow2(96));
}

TEST(BigIntTest, MultiplicationLarge) {
  auto A = *BigInt::fromString("123456789123456789");
  auto B = *BigInt::fromString("987654321987654321");
  EXPECT_EQ((A * B).toString(), "121932631356500531347203169112635269");
  EXPECT_EQ((A * BigInt(0)).toString(), "0");
  EXPECT_EQ((A * BigInt(-1)).toString(), "-123456789123456789");
}

TEST(BigIntTest, DivTruncSemantics) {
  EXPECT_EQ(BigInt(7).divTrunc(BigInt(2)).toString(), "3");
  EXPECT_EQ(BigInt(-7).divTrunc(BigInt(2)).toString(), "-3");
  EXPECT_EQ(BigInt(7).divTrunc(BigInt(-2)).toString(), "-3");
  EXPECT_EQ(BigInt(-7).divTrunc(BigInt(-2)).toString(), "3");
  EXPECT_EQ(BigInt(7).remTrunc(BigInt(2)).toString(), "1");
  EXPECT_EQ(BigInt(-7).remTrunc(BigInt(2)).toString(), "-1");
  EXPECT_EQ(BigInt(7).remTrunc(BigInt(-2)).toString(), "1");
}

TEST(BigIntTest, EuclideanDivisionSemantics) {
  // SMT-LIB div/mod: remainder is always non-negative.
  EXPECT_EQ(BigInt(7).divEuclid(BigInt(2)).toString(), "3");
  EXPECT_EQ(BigInt(-7).divEuclid(BigInt(2)).toString(), "-4");
  EXPECT_EQ(BigInt(7).divEuclid(BigInt(-2)).toString(), "-3");
  EXPECT_EQ(BigInt(-7).divEuclid(BigInt(-2)).toString(), "4");
  EXPECT_EQ(BigInt(-7).modEuclid(BigInt(2)).toString(), "1");
  EXPECT_EQ(BigInt(-7).modEuclid(BigInt(-2)).toString(), "1");
  EXPECT_EQ(BigInt(7).modEuclid(BigInt(-2)).toString(), "1");
}

TEST(BigIntTest, DivModIdentityProperty) {
  // a == (a div b)*b + (a mod b) for both conventions.
  for (int64_t A = -50; A <= 50; ++A) {
    for (int64_t B : {int64_t(-7), int64_t(-2), int64_t(1), int64_t(3),
                      int64_t(13)}) {
      BigInt BigA(A), BigB(B);
      EXPECT_EQ(BigA.divTrunc(BigB) * BigB + BigA.remTrunc(BigB), BigA);
      EXPECT_EQ(BigA.divEuclid(BigB) * BigB + BigA.modEuclid(BigB), BigA);
      BigInt Mod = BigA.modEuclid(BigB);
      EXPECT_FALSE(Mod.isNegative());
      EXPECT_TRUE(Mod < BigB.abs());
    }
  }
}

TEST(BigIntTest, LargeDivision) {
  auto A = *BigInt::fromString("121932631356500531347203169112635269");
  auto B = *BigInt::fromString("987654321987654321");
  EXPECT_EQ(A.divTrunc(B).toString(), "123456789123456789");
  EXPECT_TRUE(A.remTrunc(B).isZero());
  auto C = A + BigInt(12345);
  EXPECT_EQ(C.divTrunc(B).toString(), "123456789123456789");
  EXPECT_EQ(C.remTrunc(B).toString(), "12345");
}

TEST(BigIntTest, BitWidth) {
  EXPECT_EQ(BigInt(1).bitWidth(), 1u);
  EXPECT_EQ(BigInt(2).bitWidth(), 2u);
  EXPECT_EQ(BigInt(255).bitWidth(), 8u);
  EXPECT_EQ(BigInt(256).bitWidth(), 9u);
  EXPECT_EQ(BigInt(-256).bitWidth(), 9u);
  EXPECT_EQ(BigInt::pow2(100).bitWidth(), 101u);
}

TEST(BigIntTest, MinSignedWidth) {
  EXPECT_EQ(BigInt(0).minSignedWidth(), 1u);
  EXPECT_EQ(BigInt(1).minSignedWidth(), 2u);
  EXPECT_EQ(BigInt(-1).minSignedWidth(), 1u);
  EXPECT_EQ(BigInt(127).minSignedWidth(), 8u);
  EXPECT_EQ(BigInt(128).minSignedWidth(), 9u);
  EXPECT_EQ(BigInt(-128).minSignedWidth(), 8u);
  EXPECT_EQ(BigInt(-129).minSignedWidth(), 9u);
  EXPECT_EQ(BigInt(855).minSignedWidth(), 11u);
}

TEST(BigIntTest, Shifts) {
  EXPECT_EQ(BigInt(1).shl(12).toString(), "4096");
  EXPECT_EQ(BigInt(-3).shl(4).toString(), "-48");
  EXPECT_EQ(BigInt(4096).ashr(12).toString(), "1");
  EXPECT_EQ(BigInt(4097).ashr(12).toString(), "1");
  // Arithmetic shift of negatives floors toward -inf.
  EXPECT_EQ(BigInt(-1).ashr(1).toString(), "-1");
  EXPECT_EQ(BigInt(-4097).ashr(12).toString(), "-2");
  EXPECT_EQ(BigInt(-4096).ashr(12).toString(), "-1");
  BigInt Wide = BigInt::pow2(130);
  EXPECT_EQ(Wide.ashr(130).toString(), "1");
  EXPECT_EQ(Wide.ashr(131).toString(), "0");
}

TEST(BigIntTest, Pow) {
  EXPECT_EQ(BigInt(7).pow(0).toString(), "1");
  EXPECT_EQ(BigInt(7).pow(3).toString(), "343");
  EXPECT_EQ(BigInt(-2).pow(5).toString(), "-32");
  EXPECT_EQ(BigInt(10).pow(20).toString(), "100000000000000000000");
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(12), BigInt(18)).toString(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt(-12), BigInt(18)).toString(), "6");
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)).toString(), "5");
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)).toString(), "1");
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_LT(BigInt(3), BigInt(5));
  EXPECT_LE(BigInt(5), BigInt(5));
  EXPECT_GT(BigInt::pow2(64), BigInt(INT64_MAX));
  EXPECT_FALSE(BigInt(3) < BigInt(3));
}

TEST(BigIntTest, TestBit) {
  BigInt Value(0b101101);
  EXPECT_TRUE(Value.testBit(0));
  EXPECT_FALSE(Value.testBit(1));
  EXPECT_TRUE(Value.testBit(2));
  EXPECT_TRUE(Value.testBit(3));
  EXPECT_FALSE(Value.testBit(4));
  EXPECT_TRUE(Value.testBit(5));
  EXPECT_FALSE(Value.testBit(100));
}

TEST(BigIntTest, SumOfCubesMotivatingExample) {
  // The paper's Fig. 1: 7^3 + 8^3 + 0^3 == 855.
  BigInt X(7), Y(8), Z(0);
  EXPECT_EQ(X.pow(3) + Y.pow(3) + Z.pow(3), BigInt(855));
}

// Property-style sweep: string round trip via arithmetic reconstruction.
class BigIntPropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(BigIntPropertyTest, NegationInvolution) {
  BigInt Value(GetParam());
  EXPECT_EQ(Value.negated().negated(), Value);
  EXPECT_EQ(Value + Value.negated(), BigInt(0));
}

TEST_P(BigIntPropertyTest, MulDivRoundTrip) {
  BigInt Value(GetParam());
  BigInt Scaled = Value * BigInt(1000003);
  EXPECT_EQ(Scaled.divTrunc(BigInt(1000003)), Value);
  EXPECT_TRUE(Scaled.remTrunc(BigInt(1000003)).isZero());
}

TEST_P(BigIntPropertyTest, StringRoundTrip) {
  BigInt Value(GetParam());
  auto Parsed = BigInt::fromString(Value.toString());
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(*Parsed, Value);
}

INSTANTIATE_TEST_SUITE_P(Sweep, BigIntPropertyTest,
                         ::testing::Values(0, 1, -1, 2, -2, 17, -943,
                                           1234567, -87654321, INT32_MAX,
                                           INT64_MAX / 3, INT64_MIN / 5));

//===--------------------------------------------------------------------===//
// Differential sweep against __int128 across the inline/heap boundary.
//===--------------------------------------------------------------------===//

using Int128 = __int128;

std::string toDecimal(Int128 V) {
  if (V == 0)
    return "0";
  bool Neg = V < 0;
  unsigned __int128 Mag = Neg ? -static_cast<unsigned __int128>(V)
                              : static_cast<unsigned __int128>(V);
  std::string Digits;
  for (; Mag != 0; Mag /= 10)
    Digits.push_back(static_cast<char>('0' + static_cast<int>(Mag % 10)));
  if (Neg)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

BigInt toBig(Int128 V) { return *BigInt::fromString(toDecimal(V)); }

/// Expects \p Actual to be exactly \p Expected, hash included.
void expectSame(const BigInt &Actual, Int128 Expected,
                const std::string &What) {
  BigInt Reference = toBig(Expected);
  EXPECT_EQ(Actual.toString(), toDecimal(Expected)) << What;
  EXPECT_EQ(Actual, Reference) << What;
  EXPECT_EQ(Actual.hash(), Reference.hash()) << What;
}

unsigned minSignedWidthOf(Int128 V) {
  for (unsigned W = 1;; ++W) {
    Int128 Half = Int128(1) << (W - 1);
    if (-Half <= V && V <= Half - 1)
      return W;
  }
}

Int128 gcdOf(Int128 A, Int128 B) {
  unsigned __int128 X = A < 0 ? -static_cast<unsigned __int128>(A) : A;
  unsigned __int128 Y = B < 0 ? -static_cast<unsigned __int128>(B) : B;
  while (Y != 0)
    X = std::exchange(Y, X % Y);
  return static_cast<Int128>(X);
}

/// The boundary values of the inline buffer plus seeded random values of
/// every magnitude up to 2^100.
std::vector<Int128> sweepValues() {
  const Int128 Two32 = Int128(1) << 32, Two63 = Int128(1) << 63,
               Two64 = Int128(1) << 64;
  std::vector<Int128> Values = {
      0,     1,      -1,        Two32 - 1, -(Two32 - 1), Two32, -Two32,
      Two63 - 1, -Two63, Two64, -Two64,    Two64 - 1,    Two64 + 1};
  SplitMix64 Rng(0xB16B00B5ull);
  for (int I = 0; I < 48; ++I) {
    unsigned Bits = static_cast<unsigned>(Rng.below(101));
    Int128 Mag = (static_cast<Int128>(Rng.next()) << 64 | Rng.next()) &
                 ((Int128(1) << Bits) - 1);
    Values.push_back(Rng.chance(1, 2) ? -Mag : Mag);
  }
  return Values;
}

TEST(BigIntTest, DifferentialSweepAgainstInt128) {
  const std::vector<Int128> Values = sweepValues();
  for (Int128 A : Values) {
    const BigInt BA = toBig(A);
    const std::string NameA = toDecimal(A);
    EXPECT_EQ(BigInt::fromString(BA.toString()), BA) << NameA;
    EXPECT_EQ(BA.minSignedWidth(), minSignedWidthOf(A)) << NameA;
    if (A >= INT64_MIN && A <= INT64_MAX) {
      ASSERT_TRUE(BA.toInt64().has_value()) << NameA;
      EXPECT_EQ(*BA.toInt64(), static_cast<int64_t>(A)) << NameA;
    } else {
      EXPECT_FALSE(BA.toInt64().has_value()) << NameA;
    }
    for (unsigned Amount : {1u, 5u, 31u, 32u, 33u, 63u, 64u, 70u}) {
      std::string What = NameA + " by " + std::to_string(Amount);
      if (minSignedWidthOf(A) + Amount < 127)
        expectSame(BA.shl(Amount), A * (Int128(1) << Amount), "shl " + What);
      expectSame(BA.ashr(Amount), A >> Amount, "ashr " + What);
    }
    for (Int128 B : Values) {
      const BigInt BB = toBig(B);
      const std::string Names = NameA + ", " + toDecimal(B);
      EXPECT_EQ(BA < BB, A < B) << "< " << Names;
      EXPECT_EQ(BA <= BB, A <= B) << "<= " << Names;
      EXPECT_EQ(BA == BB, A == B) << "== " << Names;
      Int128 R;
      if (!__builtin_add_overflow(A, B, &R))
        expectSame(BA + BB, R, "+ " + Names);
      if (!__builtin_sub_overflow(A, B, &R))
        expectSame(BA - BB, R, "- " + Names);
      if (!__builtin_mul_overflow(A, B, &R))
        expectSame(BA * BB, R, "* " + Names);
      expectSame(BigInt::gcd(BA, BB), gcdOf(A, B), "gcd " + Names);
      if (B == 0)
        continue;
      Int128 Q = A / B, Rem = A % B;
      expectSame(BA.divTrunc(BB), Q, "divTrunc " + Names);
      expectSame(BA.remTrunc(BB), Rem, "remTrunc " + Names);
      if (Rem < 0) {
        Rem += B < 0 ? -B : B;
        Q += B < 0 ? 1 : -1;
      }
      expectSame(BA.divEuclid(BB), Q, "divEuclid " + Names);
      expectSame(BA.modEuclid(BB), Rem, "modEuclid " + Names);
    }
  }
}

TEST(BigIntTest, ValuesShrinkingBelowTwoToThe64MatchDirectOnes) {
  BigInt Big = BigInt::pow2(70);
  BigInt Five = (Big + BigInt(5)) - Big;
  EXPECT_EQ(Five, BigInt(5));
  EXPECT_EQ(Five.hash(), BigInt(5).hash());
  EXPECT_EQ(Five.toInt64(), std::optional<int64_t>(5));
  EXPECT_EQ(Big.negated() + Big, BigInt(0));
  EXPECT_EQ((Big * BigInt(-3)).divTrunc(Big), BigInt(-3));
  EXPECT_EQ((Big * BigInt(-3)).divTrunc(Big).hash(), BigInt(-3).hash());
  EXPECT_EQ((Big + BigInt(9)).remTrunc(Big), BigInt(9));
  EXPECT_EQ(Big.ashr(10), BigInt::pow2(60));
  EXPECT_EQ(Big.ashr(10).hash(), BigInt(int64_t(1) << 60).hash());
  EXPECT_EQ(BigInt::pow2(64) - BigInt(1),
            *BigInt::fromString("18446744073709551615"));
}

TEST(BigIntTest, CopyMoveAndSelfAssignmentOfInlineAndHeapValues) {
  const BigInt Inline(-123456789);
  const BigInt Heap = BigInt::pow2(100) + BigInt(7);
  for (const BigInt *Source : {&Inline, &Heap}) {
    const BigInt &V = *Source;
    BigInt Copy(V);
    EXPECT_EQ(Copy, V);
    Copy += BigInt(1);
    EXPECT_NE(Copy, V) << "the copy must not share storage";

    // Copy-assign into an inline and into a heap target.
    for (BigInt Target : {BigInt(42), BigInt::pow2(200)}) {
      Target = V;
      EXPECT_EQ(Target, V);
      EXPECT_EQ(Target.hash(), V.hash());
    }

    BigInt Source2 = V;
    BigInt Stolen(std::move(Source2));
    EXPECT_EQ(Stolen, V);
    Source2 = BigInt(11); // A moved-from value stays assignable.
    EXPECT_EQ(Source2, BigInt(11));

    for (BigInt Target : {BigInt(42), BigInt::pow2(200)}) {
      BigInt Temp = V;
      Target = std::move(Temp);
      EXPECT_EQ(Target, V);
    }

    BigInt Self = V;
    BigInt &Alias = Self;
    Self = Alias;
    EXPECT_EQ(Self, V);
    Self = std::move(Alias);
    EXPECT_EQ(Self, V);
  }
}

} // namespace
