//===- support/Rational.cpp - Exact rational arithmetic -------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <cassert>

using namespace staub;

Rational::Rational(BigInt Numerator, BigInt Denominator)
    : Num(std::move(Numerator)), Den(std::move(Denominator)) {
  assert(!Den.isZero() && "rational with zero denominator");
  normalize();
}

void Rational::normalize() {
  if (Den.isNegative()) {
    Num = Num.negated();
    Den = Den.negated();
  }
  if (Num.isZero()) {
    Den = BigInt(1);
    return;
  }
  BigInt Gcd = BigInt::gcd(Num, Den);
  if (!Gcd.isOne()) {
    Num = Num.divTrunc(Gcd);
    Den = Den.divTrunc(Gcd);
  }
}

std::optional<Rational> Rational::fromString(std::string_view Text) {
  if (Text.empty())
    return std::nullopt;
  // "p/q" form.
  size_t Slash = Text.find('/');
  if (Slash != std::string_view::npos) {
    auto Num = BigInt::fromString(Text.substr(0, Slash));
    auto Den = BigInt::fromString(Text.substr(Slash + 1));
    if (!Num || !Den || Den->isZero())
      return std::nullopt;
    return Rational(*Num, *Den);
  }
  // Decimal form "d.d" or plain integer.
  size_t Dot = Text.find('.');
  if (Dot == std::string_view::npos) {
    auto Value = BigInt::fromString(Text);
    if (!Value)
      return std::nullopt;
    return Rational(*Value);
  }
  std::string_view IntPart = Text.substr(0, Dot);
  std::string_view FracPart = Text.substr(Dot + 1);
  if (FracPart.empty())
    return std::nullopt;
  bool Neg = !IntPart.empty() && IntPart[0] == '-';
  if (IntPart.empty() || (Neg && IntPart.size() == 1))
    return std::nullopt;
  auto Whole = BigInt::fromString(IntPart);
  auto Frac = BigInt::fromString(FracPart);
  if (!Whole || !Frac || Frac->isNegative())
    return std::nullopt;
  BigInt Scale = BigInt(10).pow(static_cast<unsigned>(FracPart.size()));
  BigInt Numerator = Whole->abs() * Scale + *Frac;
  if (Neg)
    Numerator = Numerator.negated();
  return Rational(Numerator, Scale);
}

Rational Rational::abs() const {
  Rational Result = *this;
  Result.Num = Result.Num.abs();
  return Result;
}

Rational Rational::negated() const {
  Rational Result = *this;
  Result.Num = Result.Num.negated();
  return Result;
}

Rational Rational::inverse() const {
  assert(!isZero() && "inverse of zero");
  return Rational(Den, Num);
}

Rational Rational::operator+(const Rational &RHS) const {
  if (isInteger() && RHS.isInteger())
    return Rational(Num + RHS.Num);
  return Rational(Num * RHS.Den + RHS.Num * Den, Den * RHS.Den);
}

Rational Rational::operator-(const Rational &RHS) const {
  if (isInteger() && RHS.isInteger())
    return Rational(Num - RHS.Num);
  return Rational(Num * RHS.Den - RHS.Num * Den, Den * RHS.Den);
}

Rational Rational::operator*(const Rational &RHS) const {
  return Rational(Num * RHS.Num, Den * RHS.Den);
}

Rational Rational::operator/(const Rational &RHS) const {
  assert(!RHS.isZero() && "rational division by zero");
  return Rational(Num * RHS.Den, Den * RHS.Num);
}

bool Rational::operator<(const Rational &RHS) const {
  if (Den == RHS.Den)
    return Num < RHS.Num;
  return Num * RHS.Den < RHS.Num * Den;
}

bool Rational::operator<=(const Rational &RHS) const {
  if (Den == RHS.Den)
    return Num <= RHS.Num;
  return Num * RHS.Den <= RHS.Num * Den;
}

BigInt Rational::floor() const { return Num.divEuclid(Den); }

BigInt Rational::ceil() const {
  return Num.negated().divEuclid(Den).negated();
}

std::optional<unsigned> Rational::binaryPrecision() const {
  // Den is normalized and positive. The binary expansion terminates iff
  // Den is a power of two; the needed precision is log2(Den).
  BigInt D = Den;
  unsigned Precision = 0;
  while (!D.isOne()) {
    if (D.testBit(0))
      return std::nullopt;
    D = D.ashr(1);
    ++Precision;
  }
  return Precision;
}

std::string Rational::toString() const {
  if (isInteger())
    return Num.toString();
  return Num.toString() + "/" + Den.toString();
}

std::string Rational::toSmtLib() const {
  if (isInteger()) {
    if (Num.isNegative())
      return "(- " + Num.abs().toString() + ".0)";
    return Num.toString() + ".0";
  }
  std::string NumText = Num.isNegative()
                            ? "(- " + Num.abs().toString() + ".0)"
                            : Num.toString() + ".0";
  return "(/ " + NumText + " " + Den.toString() + ".0)";
}

double Rational::toDouble() const {
  auto NumSmall = Num.toInt64();
  auto DenSmall = Den.toInt64();
  if (NumSmall && DenSmall)
    return static_cast<double>(*NumSmall) / static_cast<double>(*DenSmall);
  // Scale down both parts; adequate for reporting.
  BigInt N = Num.abs(), D = Den;
  while (N.bitWidth() > 52 || D.bitWidth() > 52) {
    N = N.ashr(1);
    D = D.ashr(1);
    if (D.isZero())
      return Num.isNegative() ? -1e308 : 1e308;
  }
  double Result = static_cast<double>(N.toInt64().value_or(0)) /
                  static_cast<double>(D.toInt64().value_or(1));
  return Num.isNegative() ? -Result : Result;
}
