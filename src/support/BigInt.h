//===- support/BigInt.h - Arbitrary-precision integers ----------*- C++ -*-===//
//
// Part of the STAUB reproduction. Sign-magnitude arbitrary-precision
// integers used to model SMT-LIB's unbounded Int sort exactly.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision signed integer arithmetic. Values are stored as a
/// sign flag plus little-endian 32-bit limbs. Magnitudes below 2^64 (at
/// most two limbs) live in an inline buffer and never touch the heap;
/// `+`, `-`, `*`, `<` and division on them run on machine words and fall
/// back to the limb algorithms when a result outgrows a word. The class
/// provides both truncated division (C semantics) and Euclidean division
/// (SMT-LIB `div`/`mod` semantics, where the remainder is non-negative).
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SUPPORT_BIGINT_H
#define STAUB_SUPPORT_BIGINT_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace staub {

/// Arbitrary-precision signed integer.
class BigInt {
public:
  /// Constructs zero.
  BigInt() : Small{0, 0} {}

  /// Constructs from a machine integer.
  BigInt(int64_t Value) : Negative(Value < 0) {
    // Avoid UB on INT64_MIN by negating in unsigned arithmetic.
    setWord(Negative ? ~static_cast<uint64_t>(Value) + 1
                     : static_cast<uint64_t>(Value));
  }

  BigInt(const BigInt &Other) : Size(Other.Size), Negative(Other.Negative) {
    if (Other.onHeap())
      copyHeapLimbs(Other);
    else
      copyInlineLimbs(Other);
  }

  BigInt(BigInt &&Other) noexcept
      : Size(Other.Size), Capacity(Other.Capacity), Negative(Other.Negative) {
    if (onHeap())
      Large = Other.Large;
    else
      copyInlineLimbs(Other);
    Other.reset();
  }

  BigInt &operator=(const BigInt &Other);

  BigInt &operator=(BigInt &&Other) noexcept {
    if (this != &Other) {
      release();
      Size = Other.Size;
      Capacity = Other.Capacity;
      Negative = Other.Negative;
      if (onHeap())
        Large = Other.Large;
      else
        copyInlineLimbs(Other);
      Other.reset();
    }
    return *this;
  }

  ~BigInt() { release(); }

  /// Parses a decimal string with an optional leading '-'. Returns
  /// std::nullopt on malformed input.
  static std::optional<BigInt> fromString(std::string_view Text);

  /// Returns 2^Exp.
  static BigInt pow2(unsigned Exp);

  /// Returns true if the value is zero.
  bool isZero() const { return Size == 0; }

  /// Returns true if the value is strictly negative.
  bool isNegative() const { return Negative; }

  /// Returns true if the value is one.
  bool isOne() const { return !Negative && Size == 1 && Small[0] == 1; }

  /// Returns -1, 0, or 1 according to the sign of the value.
  int sign() const { return isZero() ? 0 : (Negative ? -1 : 1); }

  /// Returns the absolute value.
  BigInt abs() const;

  /// Returns the negation.
  BigInt negated() const;

  /// Returns the number of bits in the magnitude (0 for zero). This is the
  /// position of the highest set bit plus one.
  unsigned bitWidth() const;

  /// Returns the minimal two's-complement width that can represent this
  /// value, i.e. the smallest w with -2^(w-1) <= v <= 2^(w-1)-1. Zero needs
  /// width 1.
  unsigned minSignedWidth() const;

  /// Returns true if bit \p Index of the magnitude is set.
  bool testBit(unsigned Index) const;

  /// Returns the value as int64_t if it fits.
  std::optional<int64_t> toInt64() const;

  /// Returns the decimal string representation.
  std::string toString() const;

  BigInt operator+(const BigInt &RHS) const;
  BigInt operator-(const BigInt &RHS) const;
  BigInt operator*(const BigInt &RHS) const;
  BigInt operator-() const { return negated(); }

  BigInt &operator+=(const BigInt &RHS);
  BigInt &operator-=(const BigInt &RHS);
  BigInt &operator*=(const BigInt &RHS);

  /// Truncated division (rounds toward zero), like C's `/`. \p RHS must be
  /// nonzero.
  BigInt divTrunc(const BigInt &RHS) const;

  /// Truncated remainder, like C's `%`; satisfies
  /// `a == a.divTrunc(b)*b + a.remTrunc(b)`. \p RHS must be nonzero.
  BigInt remTrunc(const BigInt &RHS) const;

  /// Euclidean division per SMT-LIB Ints: the unique q with
  /// `a == q*b + r` and `0 <= r < |b|`. \p RHS must be nonzero.
  BigInt divEuclid(const BigInt &RHS) const;

  /// Euclidean remainder per SMT-LIB Ints; always in `[0, |b|)`.
  BigInt modEuclid(const BigInt &RHS) const;

  /// Left shift by \p Amount bits.
  BigInt shl(unsigned Amount) const;

  /// Arithmetic right shift by \p Amount bits (floor division by 2^Amount).
  BigInt ashr(unsigned Amount) const;

  /// Raises the value to the power \p Exp.
  BigInt pow(unsigned Exp) const;

  /// Greatest common divisor of the magnitudes; result is non-negative.
  static BigInt gcd(const BigInt &A, const BigInt &B);

  bool operator==(const BigInt &RHS) const;
  bool operator!=(const BigInt &RHS) const { return !(*this == RHS); }
  bool operator<(const BigInt &RHS) const;
  bool operator<=(const BigInt &RHS) const;
  bool operator>(const BigInt &RHS) const { return RHS < *this; }
  bool operator>=(const BigInt &RHS) const { return RHS <= *this; }

  /// Hashes the value (for use in unordered containers).
  size_t hash() const;

private:
  /// Limbs held inline: every magnitude below 2^64.
  static constexpr uint32_t InlineLimbs = 2;

  /// Little-endian 32-bit limbs of the magnitude; no trailing zero limbs,
  /// so zero has none. A magnitude of at most InlineLimbs limbs lives in
  /// Small, whose unused limbs are zero; a longer one lives in the heap
  /// array Large of Capacity limbs. Capacity is 0 exactly when the limbs
  /// are inline.
  union {
    uint32_t Small[InlineLimbs];
    uint32_t *Large;
  };
  uint32_t Size = 0;
  uint32_t Capacity = 0;
  bool Negative = false;

  bool onHeap() const { return Capacity != 0; }
  const uint32_t *limbs() const { return onHeap() ? Large : Small; }
  uint32_t *limbs() { return onHeap() ? Large : Small; }

  /// The magnitude of an inline value as one machine word.
  uint64_t word() const { return Small[0] | uint64_t(Small[1]) << 32; }
  /// Sets the inline magnitude (the sign is left alone).
  void setWord(uint64_t Magnitude) {
    Small[0] = static_cast<uint32_t>(Magnitude);
    Small[1] = static_cast<uint32_t>(Magnitude >> 32);
    Size = Small[1] ? 2 : (Small[0] ? 1 : 0);
  }
  static BigInt fromWord(uint64_t Magnitude, bool Negative);

  void copyInlineLimbs(const BigInt &Other) {
    Small[0] = Other.Small[0];
    Small[1] = Other.Small[1];
  }
  /// Gives this (empty-capacity) value a heap copy of Other's limbs.
  void copyHeapLimbs(const BigInt &Other);
  void release() {
    if (onHeap())
      delete[] Large;
    Capacity = 0;
  }
  /// Leaves a moved-from value as an inline zero.
  void reset() {
    Small[0] = Small[1] = 0;
    Size = Capacity = 0;
    Negative = false;
  }
  /// Extends the magnitude to \p NewSize limbs (>= size), keeping the
  /// current limbs and zeroing the new ones; goes to the heap past the
  /// inline buffer.
  void grow(uint32_t NewSize);
  /// Drops trailing zero limbs, moves a magnitude that fits back inline,
  /// and clears the sign of zero.
  void trim();

  /// a + b, where \p BNegative stands in for b's sign (flipped for a - b).
  static BigInt add(const BigInt &A, const BigInt &B, bool BNegative);
  static int compareMagnitude(const BigInt &A, const BigInt &B);
  /// Sets \p Quotient and \p Remainder, two fresh zeros, to |A| / |B| and
  /// |A| mod |B|.
  static void divModMagnitude(const BigInt &A, const BigInt &B,
                              BigInt &Quotient, BigInt &Remainder);
};

} // namespace staub

#endif // STAUB_SUPPORT_BIGINT_H
