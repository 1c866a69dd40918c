//===- analysis/Dbm.cpp - Difference-bound matrix core --------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dbm.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

using namespace staub;
using namespace staub::analysis;

namespace {

/// The fixed-point weight of an absent bound.
constexpr int64_t Absent = std::numeric_limits<int64_t>::max();

/// Admission: N * max|scaled input| must stay below 2^61.
constexpr __int128 AdmissionLimit = __int128(1) << 61;

/// A + B, or false when the sum leaves int64_t or lands on Absent.
bool addChecked(int64_t A, int64_t B, int64_t &Sum) {
  return !__builtin_add_overflow(A, B, &Sum) && Sum != Absent;
}

} // namespace

Dbm::Dbm(unsigned NumNodes, bool TrackSources)
    : N(NumNodes), TrackSources(TrackSources),
      Exact(size_t(NumNodes) * NumNodes) {
  if (TrackSources)
    Sources.resize(size_t(N) * N);
  for (unsigned I = 0; I < N; ++I)
    Exact[size_t(I) * N + I] = Rational(0);
}

void Dbm::tighten(unsigned I, unsigned J, const Rational &C,
                  const std::set<unsigned> &Srcs) {
  assert(!fixedPoint() && "bounds are recorded before closure");
  size_t Idx = size_t(I) * N + J;
  std::optional<Rational> &W = Exact[Idx];
  if (!W || C < *W) {
    W = C;
    if (TrackSources)
      Sources[Idx] = Srcs;
  } else if (C == *W && TrackSources) {
    Sources[Idx].insert(Srcs.begin(), Srcs.end());
  }
  if (I == J && C < Rational(0))
    Consistent = false;
}

std::optional<Rational> Dbm::at(unsigned I, unsigned J) const {
  size_t Idx = size_t(I) * N + J;
  if (!fixedPoint())
    return Exact[Idx];
  if (Fixed[Idx] == Absent)
    return std::nullopt;
  return Rational(BigInt(Fixed[Idx]), BigInt(Scale));
}

const std::set<unsigned> &Dbm::sourcesAt(unsigned I, unsigned J) const {
  static const std::set<unsigned> None;
  return TrackSources ? Sources[size_t(I) * N + J] : None;
}

bool Dbm::close(bool InjectSkipLastPivot) {
  if (enterFixed(/*Octagonal=*/false)) {
    // The kernel rewrites provenance in place; keep the recorded sets so
    // an overflow can restart from the inputs.
    std::vector<std::pair<size_t, std::set<unsigned>>> Recorded;
    for (size_t Idx = 0; Idx < Sources.size(); ++Idx)
      if (!Sources[Idx].empty())
        Recorded.emplace_back(Idx, Sources[Idx]);
    if (floydWarshallFixed(InjectSkipLastPivot)) {
      Exact = {};
      markNegativeCycles();
      return Consistent;
    }
    Scale = 0;
    for (std::set<unsigned> &S : Sources)
      S.clear();
    for (auto &[Idx, S] : Recorded)
      Sources[Idx] = std::move(S);
  }
  floydWarshallExact(InjectSkipLastPivot);
  markNegativeCycles();
  return Consistent;
}

bool Dbm::strongClose() {
  assert(N % 2 == 0 && !TrackSources && "octagon matrices pair their nodes");
  if (enterFixed(/*Octagonal=*/true)) {
    if (strongCloseFixed()) {
      Exact = {};
      return Consistent;
    }
    Scale = 0;
  }
  floydWarshallExact(false);
  markNegativeCycles();
  for (unsigned Round = 0; Round < 2 && Consistent; ++Round) {
    strengthenExact();
    floydWarshallExact(false);
    markNegativeCycles();
  }
  return Consistent;
}

bool Dbm::enterFixed(bool Octagonal) {
  int64_t Unit = Octagonal ? 4 : 1;
  if (!Octagonal)
    for (const std::optional<Rational> &W : Exact) {
      if (!W || W->isInteger())
        continue;
      std::optional<int64_t> Den = W->denominator().toInt64();
      if (!Den)
        return false;
      __int128 Lcm = __int128(Unit / std::gcd(Unit, *Den)) * *Den;
      if (Lcm >= AdmissionLimit)
        return false;
      Unit = int64_t(Lcm);
    }
  Fixed.assign(Exact.size(), Absent);
  for (size_t Idx = 0; Idx < Exact.size(); ++Idx) {
    const std::optional<Rational> &W = Exact[Idx];
    if (!W)
      continue;
    std::optional<int64_t> Num = W->numerator().toInt64();
    std::optional<int64_t> Den = W->denominator().toInt64();
    if (!Num || !Den || (Octagonal && *Den != 1))
      return false;
    __int128 Scaled = __int128(*Num) * (Unit / *Den);
    __int128 Magnitude = Scaled < 0 ? -Scaled : Scaled;
    if (Magnitude >= AdmissionLimit || Magnitude * N >= AdmissionLimit)
      return false;
    Fixed[Idx] = int64_t(Scaled);
  }
  Scale = Unit;
  return true;
}

bool Dbm::floydWarshallFixed(bool InjectSkipLastPivot) {
  for (unsigned K = 0; K < N; ++K) {
    if (InjectSkipLastPivot && K + 1 == N)
      continue;
    const int64_t *RowK = &Fixed[size_t(K) * N];
    for (unsigned I = 0; I < N; ++I) {
      int64_t *RowI = &Fixed[size_t(I) * N];
      int64_t WIK = RowI[K];
      if (WIK == Absent)
        continue;
      for (unsigned J = 0; J < N; ++J) {
        int64_t WKJ = RowK[J];
        if (WKJ == Absent)
          continue;
        int64_t Via;
        if (!addChecked(WIK, WKJ, Via))
          return false;
        if (Via < RowI[J]) {
          RowI[J] = Via;
          // D(I,K) moves only through a negative D(K,K); the rest of the
          // row then relaxes through its new value, as in the Rational
          // loop.
          if (J == K)
            WIK = Via;
          if (TrackSources)
            relaxSources(I, K, J);
        }
      }
    }
  }
  return true;
}

bool Dbm::strengthenFixed() {
  for (unsigned I = 0; I < N; ++I) {
    int64_t WI = Fixed[size_t(I) * N + (I ^ 1u)];
    if (WI == Absent)
      continue;
    int64_t *RowI = &Fixed[size_t(I) * N];
    for (unsigned J = 0; J < N; ++J) {
      int64_t WJ = Fixed[size_t(J ^ 1u) * N + J];
      if (J == I || WJ == Absent)
        continue;
      int64_t Sum;
      if (!addChecked(WI, WJ, Sum))
        return false;
      // Integral inputs in quarter units: the first round halves
      // multiples of 4, the second multiples of 2.
      assert(Sum % 2 == 0 && "strengthening left the quarter grid");
      RowI[J] = std::min(RowI[J], Sum / 2);
    }
  }
  // D(+x, -x) = 2*sup(x) must be an even integer for integral x: round
  // down to a multiple of 2*Scale units.
  for (unsigned Node = 0; Node < N; ++Node) {
    int64_t &W = Fixed[size_t(Node) * N + (Node ^ 1u)];
    if (W == Absent)
      continue;
    int64_t Excess = W % (2 * Scale);
    if (Excess < 0)
      Excess += 2 * Scale;
    if (__builtin_sub_overflow(W, Excess, &W))
      return false;
  }
  return true;
}

bool Dbm::strongCloseFixed() {
  // Consistent falls only after a completed pass, and the rounds stop
  // once it has, so an overflow leaves the recorded flag for the
  // fallback.
  if (!floydWarshallFixed(false))
    return false;
  markNegativeCycles();
  for (unsigned Round = 0; Round < 2 && Consistent; ++Round) {
    if (!strengthenFixed() || !floydWarshallFixed(false))
      return false;
    markNegativeCycles();
  }
  return true;
}

void Dbm::floydWarshallExact(bool InjectSkipLastPivot) {
  for (unsigned K = 0; K < N; ++K) {
    if (InjectSkipLastPivot && K + 1 == N)
      continue;
    for (unsigned I = 0; I < N; ++I) {
      const std::optional<Rational> &WIK = Exact[size_t(I) * N + K];
      if (!WIK)
        continue;
      for (unsigned J = 0; J < N; ++J) {
        const std::optional<Rational> &WKJ = Exact[size_t(K) * N + J];
        if (!WKJ)
          continue;
        Rational Via = *WIK + *WKJ;
        std::optional<Rational> &WIJ = Exact[size_t(I) * N + J];
        if (!WIJ || Via < *WIJ) {
          WIJ = std::move(Via);
          if (TrackSources)
            relaxSources(I, K, J);
        }
      }
    }
  }
}

void Dbm::strengthenExact() {
  for (unsigned I = 0; I < N; ++I) {
    const std::optional<Rational> &WI = Exact[size_t(I) * N + (I ^ 1u)];
    if (!WI)
      continue;
    for (unsigned J = 0; J < N; ++J) {
      const std::optional<Rational> &WJ = Exact[size_t(J ^ 1u) * N + J];
      if (J == I || !WJ)
        continue;
      tighten(I, J, (*WI + *WJ) / Rational(2));
    }
  }
  for (unsigned Node = 0; Node < N; ++Node) {
    const std::optional<Rational> &W = Exact[size_t(Node) * N + (Node ^ 1u)];
    if (!W)
      continue;
    Rational Even = Rational((*W / Rational(2)).floor()) * Rational(2);
    if (Even < *W)
      tighten(Node, Node ^ 1u, Even);
  }
}

void Dbm::relaxSources(unsigned I, unsigned K, unsigned J) {
  std::set<unsigned> Union = Sources[size_t(I) * N + K];
  const std::set<unsigned> &Tail = Sources[size_t(K) * N + J];
  Union.insert(Tail.begin(), Tail.end());
  Sources[size_t(I) * N + J] = std::move(Union);
}

bool Dbm::negativeDiagonal(unsigned I) const {
  size_t Idx = size_t(I) * N + I;
  if (fixedPoint())
    return Fixed[Idx] < 0;
  return Exact[Idx] && Exact[Idx]->isNegative();
}

void Dbm::markNegativeCycles() {
  for (unsigned I = 0; I < N; ++I)
    if (negativeDiagonal(I))
      Consistent = false;
}

std::set<unsigned> Dbm::negativeCycleSources() const {
  std::set<unsigned> Out;
  if (!TrackSources)
    return Out;
  for (unsigned I = 0; I < N; ++I)
    if (negativeDiagonal(I)) {
      const std::set<unsigned> &Srcs = Sources[size_t(I) * N + I];
      Out.insert(Srcs.begin(), Srcs.end());
    }
  return Out;
}

bool Dbm::triangleConsistent() const {
  for (unsigned K = 0; K < N; ++K)
    for (unsigned I = 0; I < N; ++I)
      for (unsigned J = 0; J < N; ++J) {
        size_t IK = size_t(I) * N + K, KJ = size_t(K) * N + J,
               IJ = size_t(I) * N + J;
        if (fixedPoint()) {
          if (Fixed[IK] == Absent || Fixed[KJ] == Absent)
            continue;
          if (Fixed[IJ] == Absent ||
              __int128(Fixed[IK]) + Fixed[KJ] < Fixed[IJ])
            return false;
          continue;
        }
        if (!Exact[IK] || !Exact[KJ])
          continue;
        if (!Exact[IJ] || *Exact[IK] + *Exact[KJ] < *Exact[IJ])
          return false;
      }
  return true;
}
