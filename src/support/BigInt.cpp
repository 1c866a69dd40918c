//===- support/BigInt.cpp - Arbitrary-precision integers ------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

using namespace staub;

static_assert(sizeof(BigInt) <= 32, "BigInt must stay within 32 bytes");

namespace {

/// Compares two magnitudes given as little-endian limbs without trailing
/// zero limbs.
int compareLimbs(const uint32_t *A, uint32_t ASize, const uint32_t *B,
                 uint32_t BSize) {
  if (ASize != BSize)
    return ASize < BSize ? -1 : 1;
  for (uint32_t I = ASize; I-- > 0;)
    if (A[I] != B[I])
      return A[I] < B[I] ? -1 : 1;
  return 0;
}

/// Out[0, ASize) = A - B. Requires A >= B as magnitudes; Out may alias A.
void subLimbs(const uint32_t *A, uint32_t ASize, const uint32_t *B,
              uint32_t BSize, uint32_t *Out) {
  int64_t Borrow = 0;
  for (uint32_t I = 0; I < ASize; ++I) {
    int64_t Diff = static_cast<int64_t>(A[I]) -
                   (I < BSize ? static_cast<int64_t>(B[I]) : 0) - Borrow;
    Borrow = Diff < 0 ? 1 : 0;
    if (Diff < 0)
      Diff += int64_t(1) << 32;
    Out[I] = static_cast<uint32_t>(Diff);
  }
  assert(Borrow == 0 && "magnitude subtraction underflow");
}

} // namespace

BigInt &BigInt::operator=(const BigInt &Other) {
  if (this == &Other)
    return *this;
  if (!Other.onHeap()) {
    release();
    copyInlineLimbs(Other);
  } else if (Capacity >= Other.Size) {
    std::copy_n(Other.Large, Other.Size, Large);
  } else {
    release();
    copyHeapLimbs(Other);
  }
  Size = Other.Size;
  Negative = Other.Negative;
  return *this;
}

void BigInt::copyHeapLimbs(const BigInt &Other) {
  Large = new uint32_t[Other.Size];
  Capacity = Other.Size;
  std::copy_n(Other.Large, Other.Size, Large);
}

BigInt BigInt::fromWord(uint64_t Magnitude, bool Negative) {
  BigInt Result;
  Result.setWord(Magnitude);
  Result.Negative = Negative && Magnitude != 0;
  return Result;
}

void BigInt::grow(uint32_t NewSize) {
  assert(NewSize >= Size && "grow() cannot shrink");
  if (NewSize > InlineLimbs && NewSize > Capacity) {
    uint32_t *Fresh = new uint32_t[NewSize];
    std::copy_n(limbs(), Size, Fresh);
    release();
    Large = Fresh;
    Capacity = NewSize;
  }
  std::fill(limbs() + Size, limbs() + NewSize, 0u);
  Size = NewSize;
}

void BigInt::trim() {
  const uint32_t *Data = limbs();
  while (Size != 0 && Data[Size - 1] == 0)
    --Size;
  if (onHeap() && Size <= InlineLimbs) {
    uint32_t *Heap = Large;
    Small[0] = Size > 0 ? Heap[0] : 0;
    Small[1] = Size > 1 ? Heap[1] : 0;
    delete[] Heap;
    Capacity = 0;
  }
  if (Size == 0)
    Negative = false;
}

std::optional<BigInt> BigInt::fromString(std::string_view Text) {
  if (Text.empty())
    return std::nullopt;
  bool Neg = false;
  size_t Pos = 0;
  if (Text[0] == '-') {
    Neg = true;
    Pos = 1;
    if (Text.size() == 1)
      return std::nullopt;
  }
  BigInt Result;
  const BigInt Ten(10);
  for (; Pos < Text.size(); ++Pos) {
    char C = Text[Pos];
    if (C < '0' || C > '9')
      return std::nullopt;
    Result = Result * Ten + BigInt(C - '0');
  }
  if (Neg)
    Result = Result.negated();
  return Result;
}

BigInt BigInt::pow2(unsigned Exp) {
  BigInt Result;
  Result.grow(Exp / 32 + 1);
  Result.limbs()[Exp / 32] = 1u << (Exp % 32);
  return Result;
}

BigInt BigInt::abs() const {
  BigInt Result = *this;
  Result.Negative = false;
  return Result;
}

BigInt BigInt::negated() const {
  BigInt Result = *this;
  if (!Result.isZero())
    Result.Negative = !Result.Negative;
  return Result;
}

unsigned BigInt::bitWidth() const {
  if (Size == 0)
    return 0;
  return (Size - 1) * 32 + std::bit_width(limbs()[Size - 1]);
}

unsigned BigInt::minSignedWidth() const {
  if (isZero())
    return 1;
  if (!Negative)
    return bitWidth() + 1;
  // -2^(w-1) fits in width w; any other negative value v needs
  // bitWidth(|v|) + 1 bits.
  // Check whether the magnitude is an exact power of two.
  const uint32_t *Data = limbs();
  bool PowerOfTwo = std::has_single_bit(Data[Size - 1]) &&
                    std::all_of(Data, Data + Size - 1,
                                [](uint32_t Limb) { return Limb == 0; });
  return PowerOfTwo ? bitWidth() : bitWidth() + 1;
}

bool BigInt::testBit(unsigned Index) const {
  size_t Limb = Index / 32;
  if (Limb >= Size)
    return false;
  return (limbs()[Limb] >> (Index % 32)) & 1;
}

std::optional<int64_t> BigInt::toInt64() const {
  if (Size > InlineLimbs)
    return std::nullopt;
  uint64_t Magnitude = word();
  if (Negative) {
    if (Magnitude > static_cast<uint64_t>(INT64_MAX) + 1)
      return std::nullopt;
    return static_cast<int64_t>(~Magnitude + 1);
  }
  if (Magnitude > static_cast<uint64_t>(INT64_MAX))
    return std::nullopt;
  return static_cast<int64_t>(Magnitude);
}

std::string BigInt::toString() const {
  if (isZero())
    return "0";
  // Repeated short division by 10^9.
  std::vector<uint32_t> Work(limbs(), limbs() + Size);
  std::string Digits;
  const uint32_t Base = 1000000000u;
  while (!Work.empty()) {
    uint64_t Remainder = 0;
    for (size_t I = Work.size(); I-- > 0;) {
      uint64_t Current = (Remainder << 32) | Work[I];
      Work[I] = static_cast<uint32_t>(Current / Base);
      Remainder = Current % Base;
    }
    while (!Work.empty() && Work.back() == 0)
      Work.pop_back();
    for (int I = 0; I < 9; ++I) {
      Digits.push_back(static_cast<char>('0' + Remainder % 10));
      Remainder /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Negative)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

int BigInt::compareMagnitude(const BigInt &A, const BigInt &B) {
  return compareLimbs(A.limbs(), A.Size, B.limbs(), B.Size);
}

BigInt BigInt::add(const BigInt &A, const BigInt &B, bool BNegative) {
  if (A.Size <= InlineLimbs && B.Size <= InlineLimbs) {
    uint64_t X = A.word(), Y = B.word();
    if (A.Negative != BNegative)
      return X >= Y ? fromWord(X - Y, A.Negative) : fromWord(Y - X, BNegative);
    uint64_t Sum;
    if (!__builtin_add_overflow(X, Y, &Sum))
      return fromWord(Sum, A.Negative);
  }
  BigInt Result;
  if (A.Negative == BNegative) {
    const BigInt &Long = A.Size >= B.Size ? A : B;
    const BigInt &Short = A.Size >= B.Size ? B : A;
    Result.grow(Long.Size + 1);
    const uint32_t *L = Long.limbs(), *S = Short.limbs();
    uint32_t *Out = Result.limbs();
    uint64_t Carry = 0;
    for (uint32_t I = 0; I < Long.Size; ++I) {
      uint64_t Sum = Carry + L[I] + (I < Short.Size ? S[I] : 0);
      Out[I] = static_cast<uint32_t>(Sum);
      Carry = Sum >> 32;
    }
    Out[Long.Size] = static_cast<uint32_t>(Carry);
    Result.Negative = A.Negative;
  } else {
    int Cmp = compareMagnitude(A, B);
    if (Cmp == 0)
      return BigInt();
    const BigInt &Larger = Cmp > 0 ? A : B;
    const BigInt &Smaller = Cmp > 0 ? B : A;
    Result.grow(Larger.Size);
    subLimbs(Larger.limbs(), Larger.Size, Smaller.limbs(), Smaller.Size,
             Result.limbs());
    Result.Negative = Cmp > 0 ? A.Negative : BNegative;
  }
  Result.trim();
  return Result;
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  return add(*this, RHS, RHS.Negative);
}

BigInt BigInt::operator-(const BigInt &RHS) const {
  return add(*this, RHS, !RHS.Negative);
}

BigInt BigInt::operator*(const BigInt &RHS) const {
  bool Neg = Negative != RHS.Negative;
  if (Size <= InlineLimbs && RHS.Size <= InlineLimbs) {
    uint64_t Product;
    if (!__builtin_mul_overflow(word(), RHS.word(), &Product))
      return fromWord(Product, Neg);
  }
  BigInt Result;
  if (isZero() || RHS.isZero())
    return Result;
  Result.grow(Size + RHS.Size);
  const uint32_t *A = limbs(), *B = RHS.limbs();
  uint32_t *Out = Result.limbs();
  for (uint32_t I = 0; I < Size; ++I) {
    uint64_t Carry = 0;
    for (uint32_t J = 0; J < RHS.Size; ++J) {
      uint64_t Current =
          static_cast<uint64_t>(A[I]) * B[J] + Out[I + J] + Carry;
      Out[I + J] = static_cast<uint32_t>(Current);
      Carry = Current >> 32;
    }
    Out[I + RHS.Size] = static_cast<uint32_t>(Carry);
  }
  Result.Negative = Neg;
  Result.trim();
  return Result;
}

BigInt &BigInt::operator+=(const BigInt &RHS) { return *this = *this + RHS; }
BigInt &BigInt::operator-=(const BigInt &RHS) { return *this = *this - RHS; }
BigInt &BigInt::operator*=(const BigInt &RHS) { return *this = *this * RHS; }

void BigInt::divModMagnitude(const BigInt &A, const BigInt &B,
                             BigInt &Quotient, BigInt &Remainder) {
  assert(!B.isZero() && "division by zero magnitude");
  if (A.Size <= InlineLimbs && B.Size <= InlineLimbs) {
    Quotient.setWord(A.word() / B.word());
    Remainder.setWord(A.word() % B.word());
    return;
  }
  if (compareMagnitude(A, B) < 0) {
    Remainder = A.abs();
    return;
  }
  const uint32_t *Dividend = A.limbs();
  // Fast path: single-limb divisor.
  if (B.Size == 1) {
    uint64_t Divisor = B.Small[0];
    Quotient.grow(A.Size);
    uint32_t *Q = Quotient.limbs();
    uint64_t Rem = 0;
    for (uint32_t I = A.Size; I-- > 0;) {
      uint64_t Current = (Rem << 32) | Dividend[I];
      Q[I] = static_cast<uint32_t>(Current / Divisor);
      Rem = Current % Divisor;
    }
    Quotient.trim();
    Remainder.setWord(Rem);
    return;
  }

  // Binary long division over the magnitude bits. The running remainder
  // stays below 2|B|, so B.Size + 1 limbs hold it; RSize tracks its
  // significant limbs.
  unsigned Bits = A.bitWidth();
  Quotient.grow((Bits + 31) / 32);
  Remainder.grow(B.Size + 1);
  uint32_t *Q = Quotient.limbs();
  uint32_t *R = Remainder.limbs();
  const uint32_t *Divisor = B.limbs();
  uint32_t RSize = 0;
  for (unsigned I = Bits; I-- > 0;) {
    // R = (R << 1) | bit(I).
    uint32_t Carry = (Dividend[I / 32] >> (I % 32)) & 1;
    for (uint32_t K = 0; K < RSize; ++K) {
      uint32_t NewCarry = R[K] >> 31;
      R[K] = (R[K] << 1) | Carry;
      Carry = NewCarry;
    }
    if (Carry)
      R[RSize++] = Carry;
    if (compareLimbs(R, RSize, Divisor, B.Size) >= 0) {
      subLimbs(R, RSize, Divisor, B.Size, R);
      while (RSize != 0 && R[RSize - 1] == 0)
        --RSize;
      Q[I / 32] |= 1u << (I % 32);
    }
  }
  Quotient.trim();
  Remainder.trim();
}

BigInt BigInt::divTrunc(const BigInt &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  BigInt Quotient, Remainder;
  divModMagnitude(*this, RHS, Quotient, Remainder);
  Quotient.Negative = !Quotient.isZero() && (Negative != RHS.Negative);
  return Quotient;
}

BigInt BigInt::remTrunc(const BigInt &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  BigInt Quotient, Remainder;
  divModMagnitude(*this, RHS, Quotient, Remainder);
  Remainder.Negative = !Remainder.isZero() && Negative;
  return Remainder;
}

BigInt BigInt::divEuclid(const BigInt &RHS) const {
  assert(!RHS.isZero() && "division by zero");
  BigInt Quotient, Remainder;
  divModMagnitude(*this, RHS, Quotient, Remainder);
  Quotient.Negative = !Quotient.isZero() && (Negative != RHS.Negative);
  // A negative truncated remainder moves the quotient one step so that
  // the Euclidean remainder is non-negative.
  if (Negative && !Remainder.isZero())
    Quotient = RHS.isNegative() ? Quotient + BigInt(1) : Quotient - BigInt(1);
  return Quotient;
}

BigInt BigInt::modEuclid(const BigInt &RHS) const {
  BigInt Remainder = remTrunc(RHS);
  if (Remainder.isNegative())
    Remainder += RHS.abs();
  return Remainder;
}

BigInt BigInt::shl(unsigned Amount) const {
  if (isZero() || Amount == 0)
    return *this;
  unsigned LimbShift = Amount / 32;
  unsigned BitShift = Amount % 32;
  BigInt Result;
  Result.grow((bitWidth() + Amount + 31) / 32);
  const uint32_t *Data = limbs();
  uint32_t *Out = Result.limbs();
  uint32_t Carry = 0;
  for (uint32_t I = 0; I < Size; ++I) {
    Out[LimbShift + I] = (Data[I] << BitShift) | Carry;
    Carry = BitShift ? Data[I] >> (32 - BitShift) : 0;
  }
  if (Carry)
    Out[LimbShift + Size] = Carry;
  Result.Negative = Negative;
  return Result;
}

BigInt BigInt::ashr(unsigned Amount) const {
  if (isZero() || Amount == 0)
    return *this;
  // Floor semantics: for negatives, round toward -inf.
  unsigned LimbShift = Amount / 32;
  unsigned BitShift = Amount % 32;
  const uint32_t *Data = limbs();
  bool LostBits = std::any_of(Data, Data + std::min<uint32_t>(LimbShift, Size),
                              [](uint32_t Limb) { return Limb != 0; });
  BigInt Result;
  if (LimbShift < Size) {
    uint32_t Kept = Size - LimbShift;
    Result.grow(Kept);
    uint32_t *Out = Result.limbs();
    if (BitShift && (Data[LimbShift] & ((1u << BitShift) - 1)))
      LostBits = true;
    for (uint32_t I = 0; I < Kept; ++I) {
      uint32_t Low = Data[LimbShift + I];
      uint32_t High = I + 1 < Kept ? Data[LimbShift + I + 1] : 0;
      Out[I] = BitShift ? (Low >> BitShift) | (High << (32 - BitShift)) : Low;
    }
    Result.trim();
  }
  if (Negative) {
    Result.Negative = !Result.isZero();
    if (LostBits)
      Result -= BigInt(1);
  }
  return Result;
}

BigInt BigInt::pow(unsigned Exp) const {
  BigInt Result(1);
  BigInt Base = *this;
  while (Exp) {
    if (Exp & 1)
      Result *= Base;
    Base *= Base;
    Exp >>= 1;
  }
  return Result;
}

BigInt BigInt::gcd(const BigInt &A, const BigInt &B) {
  BigInt X = A.abs(), Y = B.abs();
  while (!Y.isZero()) {
    BigInt R = X.remTrunc(Y);
    X = std::move(Y);
    Y = std::move(R);
  }
  return X;
}

bool BigInt::operator==(const BigInt &RHS) const {
  return Negative == RHS.Negative && Size == RHS.Size &&
         std::equal(limbs(), limbs() + Size, RHS.limbs());
}

bool BigInt::operator<(const BigInt &RHS) const {
  if (Negative != RHS.Negative)
    return Negative;
  if (Size <= InlineLimbs && RHS.Size <= InlineLimbs)
    return Negative ? RHS.word() < word() : word() < RHS.word();
  int Cmp = compareMagnitude(*this, RHS);
  return Negative ? Cmp > 0 : Cmp < 0;
}

bool BigInt::operator<=(const BigInt &RHS) const { return !(RHS < *this); }

size_t BigInt::hash() const {
  size_t Hash = Negative ? 0x9e3779b97f4a7c15ull : 0;
  const uint32_t *Data = limbs();
  for (uint32_t I = 0; I < Size; ++I)
    Hash = Hash * 1099511628211ull ^ Data[I];
  return Hash;
}
