//===- tests/support_rational_test.cpp - Rational unit tests --------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace staub;

namespace {

TEST(RationalTest, NormalizationSignAndGcd) {
  Rational Value(BigInt(4), BigInt(-6));
  EXPECT_EQ(Value.numerator().toString(), "-2");
  EXPECT_EQ(Value.denominator().toString(), "3");
  Rational Zero(BigInt(0), BigInt(-17));
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.denominator().toString(), "1");
}

TEST(RationalTest, Arithmetic) {
  Rational Half(BigInt(1), BigInt(2));
  Rational Third(BigInt(1), BigInt(3));
  EXPECT_EQ((Half + Third).toString(), "5/6");
  EXPECT_EQ((Half - Third).toString(), "1/6");
  EXPECT_EQ((Half * Third).toString(), "1/6");
  EXPECT_EQ((Half / Third).toString(), "3/2");
  EXPECT_EQ((-Half).toString(), "-1/2");
}

TEST(RationalTest, Comparisons) {
  Rational Half(BigInt(1), BigInt(2));
  Rational TwoFifths(BigInt(2), BigInt(5));
  EXPECT_LT(TwoFifths, Half);
  EXPECT_LE(Half, Half);
  EXPECT_GT(Half, TwoFifths);
  EXPECT_LT(Rational(-3), TwoFifths);
}

TEST(RationalTest, FloorCeil) {
  Rational SevenHalves(BigInt(7), BigInt(2));
  EXPECT_EQ(SevenHalves.floor().toString(), "3");
  EXPECT_EQ(SevenHalves.ceil().toString(), "4");
  Rational NegSevenHalves(BigInt(-7), BigInt(2));
  EXPECT_EQ(NegSevenHalves.floor().toString(), "-4");
  EXPECT_EQ(NegSevenHalves.ceil().toString(), "-3");
  Rational Five(5);
  EXPECT_EQ(Five.floor().toString(), "5");
  EXPECT_EQ(Five.ceil().toString(), "5");
}

TEST(RationalTest, FromStringDecimal) {
  auto Parsed = Rational::fromString("-4.625");
  ASSERT_TRUE(Parsed.has_value());
  EXPECT_EQ(Parsed->toString(), "-37/8");
  auto Int = Rational::fromString("855");
  ASSERT_TRUE(Int.has_value());
  EXPECT_TRUE(Int->isInteger());
  auto Frac = Rational::fromString("1/3");
  ASSERT_TRUE(Frac.has_value());
  EXPECT_EQ(Frac->toString(), "1/3");
  EXPECT_FALSE(Rational::fromString("").has_value());
  EXPECT_FALSE(Rational::fromString("1.").has_value());
  EXPECT_FALSE(Rational::fromString("1/0").has_value());
  EXPECT_FALSE(Rational::fromString("a.b").has_value());
}

TEST(RationalTest, BinaryPrecision) {
  // dig(c) from the paper Sec. 4.2: minimal d with 2^d * c integral.
  EXPECT_EQ(Rational(5).binaryPrecision(), 0u);
  EXPECT_EQ(Rational(BigInt(1), BigInt(2)).binaryPrecision(), 1u);
  EXPECT_EQ(Rational(BigInt(3), BigInt(8)).binaryPrecision(), 3u);
  EXPECT_EQ(Rational(BigInt(-37), BigInt(8)).binaryPrecision(), 3u);
  // 1/3 has no terminating binary expansion -> "infinite" precision.
  EXPECT_FALSE(Rational(BigInt(1), BigInt(3)).binaryPrecision().has_value());
  EXPECT_FALSE(Rational(BigInt(1), BigInt(10)).binaryPrecision().has_value());
}

TEST(RationalTest, SmtLibRendering) {
  EXPECT_EQ(Rational(3).toSmtLib(), "3.0");
  EXPECT_EQ(Rational(-3).toSmtLib(), "(- 3.0)");
  EXPECT_EQ(Rational(BigInt(1), BigInt(4)).toSmtLib(), "(/ 1.0 4.0)");
  EXPECT_EQ(Rational(BigInt(-1), BigInt(4)).toSmtLib(), "(/ (- 1.0) 4.0)");
}

TEST(RationalTest, InverseAndAbs) {
  Rational Value(BigInt(-3), BigInt(7));
  EXPECT_EQ(Value.inverse().toString(), "-7/3");
  EXPECT_EQ(Value.abs().toString(), "3/7");
  EXPECT_EQ((Value * Value.inverse()).toString(), "1");
}

TEST(RationalTest, ToDouble) {
  EXPECT_DOUBLE_EQ(Rational(BigInt(1), BigInt(2)).toDouble(), 0.5);
  EXPECT_DOUBLE_EQ(Rational(-3).toDouble(), -3.0);
  EXPECT_NEAR(Rational(BigInt(1), BigInt(3)).toDouble(), 1.0 / 3.0, 1e-12);
}

struct RationalFieldCase {
  int64_t NumA, DenA, NumB, DenB;
};

class RationalFieldTest : public ::testing::TestWithParam<RationalFieldCase> {};

TEST_P(RationalFieldTest, FieldAxioms) {
  const auto &Case = GetParam();
  Rational A(BigInt(Case.NumA), BigInt(Case.DenA));
  Rational B(BigInt(Case.NumB), BigInt(Case.DenB));
  EXPECT_EQ(A + B, B + A);
  EXPECT_EQ(A * B, B * A);
  EXPECT_EQ(A + Rational(0), A);
  EXPECT_EQ(A * Rational(1), A);
  EXPECT_EQ((A - B) + B, A);
  if (!B.isZero()) {
    EXPECT_EQ((A / B) * B, A);
  }
  EXPECT_EQ(A * (B + Rational(1)), A * B + A);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RationalFieldTest,
    ::testing::Values(RationalFieldCase{1, 2, 1, 3},
                      RationalFieldCase{-7, 4, 5, 6},
                      RationalFieldCase{0, 1, -9, 13},
                      RationalFieldCase{1000000, 7, -3, 1000003},
                      RationalFieldCase{-1, 1, -1, 1},
                      RationalFieldCase{123456789, 987654321, -5, 8}));

TEST(RationalTest, IntegerFastPathsMatchCrossMultiplication) {
  const std::vector<Rational> Values = {
      Rational(0),  Rational(1),  Rational(-1),
      Rational(7),  Rational(-7), Rational(BigInt::pow2(70)),
      Rational(BigInt::pow2(70).negated()),
      Rational(BigInt(-3), BigInt(7)), Rational(BigInt(2), BigInt(7)),
      Rational(BigInt(5), BigInt(-6))};
  for (const Rational &A : Values)
    for (const Rational &B : Values) {
      const BigInt &AN = A.numerator(), &AD = A.denominator();
      const BigInt &BN = B.numerator(), &BD = B.denominator();
      std::string Names = A.toString() + ", " + B.toString();
      EXPECT_EQ(A + B, Rational(AN * BD + BN * AD, AD * BD)) << Names;
      EXPECT_EQ(A - B, Rational(AN * BD - BN * AD, AD * BD)) << Names;
      EXPECT_EQ(A < B, AN * BD < BN * AD) << Names;
      EXPECT_EQ(A <= B, AN * BD <= BN * AD) << Names;
    }
}

} // namespace
