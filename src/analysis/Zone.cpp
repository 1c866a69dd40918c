//===- analysis/Zone.cpp - Zone (difference-bound) domain -----------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Zone.h"

using namespace staub;
using namespace staub::analysis;

unsigned Zone::addVariable(uint32_t VarId) {
  auto [It, Inserted] = VarNode.try_emplace(VarId, unsigned(Vars.size()));
  if (Inserted)
    Vars.push_back(VarId);
  return It->second + 1;
}

bool Zone::hasBinaryConstraints() const {
  for (const PendingEdge &E : Edges)
    if (E.I != 0 && E.J != 0)
      return true;
  return false;
}

void Zone::addDiff(uint32_t X, uint32_t Y, const Rational &C, unsigned Root) {
  unsigned NX = addVariable(X);
  unsigned NY = addVariable(Y);
  Edges.push_back({NX, NY, C, Root});
}

void Zone::addUpper(uint32_t X, const Rational &C, unsigned Root) {
  Edges.push_back({addVariable(X), 0, C, Root});
}

void Zone::addLower(uint32_t X, const Rational &C, unsigned Root) {
  Edges.push_back({0, addVariable(X), -C, Root});
}

void Zone::constrainVar(uint32_t X, const Interval &R,
                        const std::set<unsigned> &Sources) {
  if (R.isTop())
    return;
  addVariable(X);
  Seeds.push_back({X, R, Sources});
}

bool Zone::close(bool InjectBadClosure) {
  Matrix.emplace(numVariables() + 1);
  for (const PendingEdge &E : Edges)
    Matrix->tighten(E.I, E.J, E.C, {E.Root});
  for (const PendingRange &S : Seeds) {
    unsigned NX = node(S.Var);
    if (S.R.Empty) {
      // An already-empty seed range is a contradiction the caller
      // established; encode it as 0 <= x <= -1.
      Matrix->tighten(NX, 0, Rational(-1), S.Sources);
      Matrix->tighten(0, NX, Rational(0), S.Sources);
      continue;
    }
    if (S.R.Hi)
      Matrix->tighten(NX, 0, *S.R.Hi, S.Sources);
    if (S.R.Lo)
      Matrix->tighten(0, NX, -*S.R.Lo, S.Sources);
  }
  return Matrix->close(InjectBadClosure);
}

bool Zone::consistent() const { return !Matrix || Matrix->consistent(); }

bool Zone::triangleConsistent() const {
  return !Matrix || Matrix->triangleConsistent();
}

std::set<unsigned> Zone::negativeCycleSources() const {
  return Matrix ? Matrix->negativeCycleSources() : std::set<unsigned>{};
}

Interval Zone::varInterval(uint32_t X) const {
  if (!Matrix || !hasVariable(X))
    return Interval::top();
  if (!Matrix->consistent())
    return Interval::bottom();
  unsigned NX = node(X);
  Interval Out;
  Out.Hi = Matrix->at(NX, 0);
  if (std::optional<Rational> Lo = Matrix->at(0, NX))
    Out.Lo = -*Lo;
  if (Out.Lo && Out.Hi && *Out.Hi < *Out.Lo)
    return Interval::bottom();
  return Out;
}

std::set<unsigned> Zone::varIntervalSources(uint32_t X) const {
  std::set<unsigned> Out;
  if (!Matrix || !hasVariable(X))
    return Out;
  unsigned NX = node(X);
  const std::set<unsigned> &Up = Matrix->sourcesAt(NX, 0);
  const std::set<unsigned> &Down = Matrix->sourcesAt(0, NX);
  Out.insert(Up.begin(), Up.end());
  Out.insert(Down.begin(), Down.end());
  return Out;
}

std::optional<Rational> Zone::potential(uint32_t X) const {
  if (!Matrix || !hasVariable(X) || !Matrix->consistent())
    return std::nullopt;
  // Shortest outgoing distance dist(i) = min(0, min_k D(i,k)): by the
  // triangle inequality of the closed matrix, dist(i) - dist(j) <=
  // D(i,j) for every edge, so v_i = dist(i) - dist(0) satisfies every
  // zone constraint with the zero node pinned at 0.
  auto Dist = [&](unsigned I) {
    Rational D(0);
    for (unsigned K = 0; K < Matrix->size(); ++K)
      if (std::optional<Rational> W = Matrix->at(I, K); W && *W < D)
        D = std::move(*W);
    return D;
  };
  return Dist(node(X)) - Dist(0);
}

//===----------------------------------------------------------------------===//
// Fact harvesting.
//===----------------------------------------------------------------------===//

namespace {

bool isZoneVar(const TermManager &M, Term T) {
  if (M.kind(T) != Kind::Variable)
    return false;
  Sort S = M.sort(T);
  return S.isInt() || S.isReal();
}

/// Matches a two-operand variable difference `(- x y)`.
std::optional<std::pair<uint32_t, uint32_t>> diffOf(const TermManager &M,
                                                    Term T) {
  if (M.kind(T) != Kind::Sub || M.numChildren(T) != 2)
    return std::nullopt;
  Term X = M.child(T, 0), Y = M.child(T, 1);
  if (!isZoneVar(M, X) || !isZoneVar(M, Y) || X == Y)
    return std::nullopt;
  return std::make_pair(X.id(), Y.id());
}

/// Records facts of one normalized atom `L <= R` (or `L < R`).
unsigned harvestZoneLess(const TermManager &M, Zone &Z, Term L, Term R,
                         bool Strict, unsigned Root) {
  auto CL = numericConstOf(M, L);
  auto CR = numericConstOf(M, R);
  bool IntSorted = M.sort(L).isInt();
  // Strict over Int tightens by one; over Real the closed bound is a
  // sound overapproximation (so a zero-weight cycle with a strict edge
  // is missed, never misreported).
  Rational Adjust = Strict && IntSorted ? Rational(1) : Rational(0);

  if (auto D = diffOf(M, L); D && CR) {
    Z.addDiff(D->first, D->second, *CR - Adjust, Root);
    return 1;
  }
  if (CL) {
    if (auto D = diffOf(M, R)) {
      // c <= x - y  ==  y - x <= -c.
      Z.addDiff(D->second, D->first, -*CL - Adjust, Root);
      return 1;
    }
    if (isZoneVar(M, R)) {
      Z.addLower(R.id(), *CL + Adjust, Root);
      return 1;
    }
    return 0;
  }
  if (isZoneVar(M, L)) {
    if (CR) {
      Z.addUpper(L.id(), *CR - Adjust, Root);
      return 1;
    }
    if (isZoneVar(M, R) && M.sort(L) == M.sort(R)) {
      Z.addDiff(L.id(), R.id(), -Adjust, Root);
      return 1;
    }
  }
  return 0;
}

} // namespace

unsigned analysis::harvestZoneFacts(const TermManager &Manager, Term Formula,
                                    unsigned Root, Zone &Z) {
  switch (Manager.kind(Formula)) {
  case Kind::And: {
    unsigned Count = 0;
    for (Term Child : Manager.children(Formula))
      Count += harvestZoneFacts(Manager, Child, Root, Z);
    return Count;
  }
  case Kind::Le:
    return harvestZoneLess(Manager, Z, Manager.child(Formula, 0),
                           Manager.child(Formula, 1), /*Strict=*/false, Root);
  case Kind::Lt:
    return harvestZoneLess(Manager, Z, Manager.child(Formula, 0),
                           Manager.child(Formula, 1), /*Strict=*/true, Root);
  case Kind::Ge:
    return harvestZoneLess(Manager, Z, Manager.child(Formula, 1),
                           Manager.child(Formula, 0), /*Strict=*/false, Root);
  case Kind::Gt:
    return harvestZoneLess(Manager, Z, Manager.child(Formula, 1),
                           Manager.child(Formula, 0), /*Strict=*/true, Root);
  case Kind::Eq: {
    if (Manager.numChildren(Formula) != 2 ||
        Manager.sort(Manager.child(Formula, 0)).isBool())
      return 0;
    Term A = Manager.child(Formula, 0), B = Manager.child(Formula, 1);
    unsigned Count =
        harvestZoneLess(Manager, Z, A, B, /*Strict=*/false, Root);
    Count += harvestZoneLess(Manager, Z, B, A, /*Strict=*/false, Root);
    return Count;
  }
  default:
    return 0;
  }
}
