//===- analysis/Lint.cpp - Static soundness checks ------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"

#include "analysis/Interval.h"
#include "smtlib/Printer.h"

#include <map>
#include <optional>
#include <sstream>

using namespace staub;
using namespace staub::analysis;

namespace {

//===----------------------------------------------------------------------===//
// Well-sortedness
//===----------------------------------------------------------------------===//

bool allChildrenSorted(const TermManager &M, Term T, Sort S) {
  for (Term C : M.children(T))
    if (M.sort(C) != S)
      return false;
  return true;
}

bool allChildrenSameSort(const TermManager &M, Term T, SortKind K) {
  unsigned N = M.numChildren(T);
  if (N == 0)
    return true;
  Sort First = M.sort(M.child(T, 0));
  if (First.kind() != K)
    return false;
  for (unsigned I = 1; I < N; ++I)
    if (M.sort(M.child(T, I)) != First)
      return false;
  return true;
}

/// Returns a failure description when \p T violates the sorting rules of
/// its kind, std::nullopt when well-sorted. One finding per node.
std::optional<std::string> checkNodeSorts(const TermManager &M, Term T) {
  Kind K = M.kind(T);
  Sort S = M.sort(T);
  unsigned N = M.numChildren(T);
  auto Fail = [&](const char *What) -> std::optional<std::string> {
    return std::string(What) + " in " + printTerm(M, T);
  };

  switch (K) {
  case Kind::ConstBool:
    if (!S.isBool())
      return Fail("boolean constant with non-Bool sort");
    return std::nullopt;
  case Kind::ConstInt:
    if (!S.isInt())
      return Fail("integer constant with non-Int sort");
    return std::nullopt;
  case Kind::ConstReal:
    if (!S.isReal())
      return Fail("real constant with non-Real sort");
    return std::nullopt;
  case Kind::ConstBitVec:
    if (!S.isBitVec() || M.bitVecValue(T).width() != S.bitVecWidth())
      return Fail("bitvector constant payload width disagrees with sort");
    return std::nullopt;
  case Kind::ConstFp:
    // The PR 2 bug class: an FP literal whose packed payload was built for
    // a different (eb, sb) than its sort claims.
    if (!S.isFloatingPoint() || M.fpValue(T).format() != S.fpFormat())
      return Fail("floating-point constant payload format disagrees with "
                  "sort");
    return std::nullopt;
  case Kind::Variable:
    return std::nullopt;

  case Kind::Not:
    if (!S.isBool() || N != 1 || !allChildrenSorted(M, T, Sort::boolean()))
      return Fail("ill-sorted negation");
    return std::nullopt;
  case Kind::And:
  case Kind::Or:
  case Kind::Xor:
    if (!S.isBool() || N < 2 || !allChildrenSorted(M, T, Sort::boolean()))
      return Fail("ill-sorted boolean connective");
    return std::nullopt;
  case Kind::Implies:
    if (!S.isBool() || N != 2 || !allChildrenSorted(M, T, Sort::boolean()))
      return Fail("ill-sorted implication");
    return std::nullopt;
  case Kind::Ite:
    if (N != 3 || !M.sort(M.child(T, 0)).isBool() ||
        M.sort(M.child(T, 1)) != S || M.sort(M.child(T, 2)) != S)
      return Fail("ill-sorted ite");
    return std::nullopt;
  case Kind::Eq:
  case Kind::Distinct: {
    if (!S.isBool() || N < 2)
      return Fail("ill-sorted equality");
    Sort First = M.sort(M.child(T, 0));
    for (unsigned I = 1; I < N; ++I)
      if (M.sort(M.child(T, I)) != First)
        return Fail("equality over differently sorted operands");
    return std::nullopt;
  }

  case Kind::Neg:
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
    if (!(S.isInt() || S.isReal()) || N < 1 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted arithmetic operator");
    return std::nullopt;
  case Kind::IntDiv:
  case Kind::IntMod:
    if (!S.isInt() || N != 2 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted integer division");
    return std::nullopt;
  case Kind::IntAbs:
    if (!S.isInt() || N != 1 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted abs");
    return std::nullopt;
  case Kind::RealDiv:
    if (!S.isReal() || N != 2 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted real division");
    return std::nullopt;
  case Kind::Le:
  case Kind::Lt:
  case Kind::Ge:
  case Kind::Gt: {
    if (!S.isBool() || N != 2)
      return Fail("ill-sorted comparison");
    Sort First = M.sort(M.child(T, 0));
    if (!(First.isInt() || First.isReal()) || M.sort(M.child(T, 1)) != First)
      return Fail("comparison over non-numeric or mixed operands");
    return std::nullopt;
  }

  case Kind::BvNeg:
  case Kind::BvNot:
    if (!S.isBitVec() || N != 1 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted unary bitvector operator");
    return std::nullopt;
  case Kind::BvAdd:
  case Kind::BvSub:
  case Kind::BvMul:
  case Kind::BvAnd:
  case Kind::BvOr:
  case Kind::BvXor:
    if (!S.isBitVec() || N < 2 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted bitvector operator");
    return std::nullopt;
  case Kind::BvSDiv:
  case Kind::BvSRem:
  case Kind::BvUDiv:
  case Kind::BvURem:
  case Kind::BvShl:
  case Kind::BvLshr:
  case Kind::BvAshr:
    if (!S.isBitVec() || N != 2 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted bitvector operator");
    return std::nullopt;
  case Kind::BvUle:
  case Kind::BvUlt:
  case Kind::BvUge:
  case Kind::BvUgt:
  case Kind::BvSle:
  case Kind::BvSlt:
  case Kind::BvSge:
  case Kind::BvSgt:
    if (!S.isBool() || N != 2 || !allChildrenSameSort(M, T, SortKind::BitVec))
      return Fail("ill-sorted bitvector comparison");
    return std::nullopt;
  case Kind::BvNegO:
    if (!S.isBool() || N != 1 || !allChildrenSameSort(M, T, SortKind::BitVec))
      return Fail("ill-sorted overflow predicate");
    return std::nullopt;
  case Kind::BvSAddO:
  case Kind::BvSSubO:
  case Kind::BvSMulO:
  case Kind::BvSDivO:
    if (!S.isBool() || N != 2 || !allChildrenSameSort(M, T, SortKind::BitVec))
      return Fail("ill-sorted overflow predicate");
    return std::nullopt;
  case Kind::BvConcat: {
    if (!S.isBitVec() || N < 2)
      return Fail("ill-sorted concat");
    unsigned Sum = 0;
    for (Term C : M.children(T)) {
      if (!M.sort(C).isBitVec())
        return Fail("concat over non-bitvector operand");
      Sum += M.sort(C).bitVecWidth();
    }
    if (Sum != S.bitVecWidth())
      return Fail("concat width disagrees with operand widths");
    return std::nullopt;
  }
  case Kind::BvExtract: {
    if (!S.isBitVec() || N != 1 || !M.sort(M.child(T, 0)).isBitVec())
      return Fail("ill-sorted extract");
    unsigned High = M.paramA(T);
    unsigned Low = M.paramB(T);
    unsigned ChildW = M.sort(M.child(T, 0)).bitVecWidth();
    if (High < Low || High >= ChildW || S.bitVecWidth() != High - Low + 1)
      return Fail("extract bounds disagree with sorts");
    return std::nullopt;
  }
  case Kind::BvZeroExtend:
  case Kind::BvSignExtend: {
    if (!S.isBitVec() || N != 1 || !M.sort(M.child(T, 0)).isBitVec())
      return Fail("ill-sorted extension");
    unsigned ChildW = M.sort(M.child(T, 0)).bitVecWidth();
    if (S.bitVecWidth() != ChildW + M.paramA(T))
      return Fail("extension width disagrees with sorts");
    return std::nullopt;
  }

  case Kind::FpNeg:
  case Kind::FpAbs:
    if (!S.isFloatingPoint() || N != 1 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted unary FP operator");
    return std::nullopt;
  case Kind::FpAdd:
  case Kind::FpSub:
  case Kind::FpMul:
  case Kind::FpDiv:
    if (!S.isFloatingPoint() || N != 2 || !allChildrenSorted(M, T, S))
      return Fail("ill-sorted FP operator");
    return std::nullopt;
  case Kind::FpLeq:
  case Kind::FpLt:
  case Kind::FpGeq:
  case Kind::FpGt:
  case Kind::FpEq:
    if (!S.isBool() || N != 2 ||
        !allChildrenSameSort(M, T, SortKind::FloatingPoint))
      return Fail("ill-sorted FP comparison");
    return std::nullopt;
  case Kind::FpIsNaN:
  case Kind::FpIsInf:
  case Kind::FpIsZero:
    if (!S.isBool() || N != 1 ||
        !allChildrenSameSort(M, T, SortKind::FloatingPoint))
      return Fail("ill-sorted FP classifier");
    return std::nullopt;
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Guard discipline
//===----------------------------------------------------------------------===//

/// The overflow predicate guarding the bitvector operation \p OpKind;
/// nullopt for kinds that need no guard.
std::optional<Kind> overflowPredicateFor(Kind OpKind) {
  switch (OpKind) {
  case Kind::BvNeg:
    return Kind::BvNegO;
  case Kind::BvAdd:
    return Kind::BvSAddO;
  case Kind::BvSub:
    return Kind::BvSSubO;
  case Kind::BvMul:
    return Kind::BvSMulO;
  case Kind::BvSDiv:
    return Kind::BvSDivO;
  default:
    return std::nullopt;
  }
}

struct GuardInfo {
  Term Predicate; ///< The inner overflow-predicate application.
  bool Matched = false;
};

/// Collects `(not (bvXop ...))` guards from \p Root, descending through
/// top-level conjunctions (guards conjoined rather than asserted
/// separately are equally valid).
void collectGuards(const TermManager &M, Term Root,
                   std::map<GuardKey, GuardInfo> &Guards) {
  if (M.kind(Root) == Kind::And) {
    for (Term C : M.childrenCopy(Root))
      collectGuards(M, C, Guards);
    return;
  }
  if (M.kind(Root) != Kind::Not)
    return;
  Term Pred = M.child(Root, 0);
  Kind PK = M.kind(Pred);
  if (PK != Kind::BvNegO && PK != Kind::BvSAddO && PK != Kind::BvSSubO &&
      PK != Kind::BvSMulO && PK != Kind::BvSDivO)
    return;
  uint32_t A = M.child(Pred, 0).id();
  uint32_t B = M.numChildren(Pred) > 1 ? M.child(Pred, 1).id() : UINT32_MAX;
  Guards.emplace(makeGuardKey(PK, A, B), GuardInfo{Pred});
}

//===----------------------------------------------------------------------===//
// The linter
//===----------------------------------------------------------------------===//

class Linter {
public:
  Linter(const TermManager &M, const std::vector<Term> &Assertions,
         const LintOptions &Options)
      : M(M), Assertions(Assertions), Options(Options) {}

  LintReport run() {
    collectNodes();
    checkSorts();
    checkGuardDiscipline();
    return std::move(Report);
  }

  void checkMapTotality(const std::vector<Term> &OriginalAssertions,
                        const std::unordered_map<uint32_t, Term> &VariableMap) {
    std::vector<char> SeenVar;
    for (Term Root : OriginalAssertions) {
      for (Term V : M.collectVariables(Root)) {
        if (V.id() < SeenVar.size() && SeenVar[V.id()])
          continue;
        if (SeenVar.size() <= V.id())
          SeenVar.resize(V.id() + 1, 0);
        SeenVar[V.id()] = 1;
        if (!M.sort(V).isUnbounded())
          continue;
        auto Hit = VariableMap.find(V.id());
        if (Hit == VariableMap.end() || !Hit->second.isValid()) {
          error("map-totality",
                "unbounded variable " + M.variableName(V) +
                    " has no bounded image; phi^-1 cannot be total",
                V);
          continue;
        }
        if (!M.sort(Hit->second).isBounded())
          error("map-totality",
                "variable " + M.variableName(V) +
                    " maps to a term of unbounded sort " +
                    M.sort(Hit->second).toString(),
                V);
      }
    }
  }

private:
  void error(std::string Check, std::string Detail, Term Offender) {
    Report.Findings.push_back({LintSeverity::Error, std::move(Check),
                               std::move(Detail), Offender});
  }
  void warn(std::string Check, std::string Detail, Term Offender) {
    Report.Findings.push_back({LintSeverity::Warning, std::move(Check),
                               std::move(Detail), Offender});
  }

  void collectNodes() {
    std::vector<char> Seen(M.numTerms(), 0);
    std::vector<Term> Stack;
    for (Term Root : Assertions) {
      if (!M.sort(Root).isBool())
        error("non-boolean-assertion",
              "assertion of sort " + M.sort(Root).toString() + ": " +
                  printTerm(M, Root),
              Root);
      Stack.push_back(Root);
    }
    while (!Stack.empty()) {
      Term T = Stack.back();
      Stack.pop_back();
      if (Seen[T.id()])
        continue;
      Seen[T.id()] = 1;
      AllNodes.push_back(T);
      for (Term C : M.children(T))
        Stack.push_back(C);
    }
  }

  void checkSorts() {
    for (Term T : AllNodes)
      if (auto Detail = checkNodeSorts(M, T))
        error("sort-mismatch", *Detail, T);
  }

  void checkGuardDiscipline() {
    std::map<GuardKey, GuardInfo> Guards;
    for (Term Root : Assertions)
      collectGuards(M, Root, Guards);

    // The engine runs with the same options on both sides of the
    // translation (see Interval.h); BV nodes are clamped by their sort.
    IntervalSummary Intervals = analyzeIntervals(M, Assertions, {});

    for (Term T : AllNodes) {
      auto Predicate = overflowPredicateFor(M.kind(T));
      if (!Predicate || !M.sort(T).isBitVec())
        continue;
      unsigned W = M.sort(T).bitVecWidth();
      unsigned N = M.numChildren(T);

      if (N <= 2) {
        uint32_t A = M.child(T, 0).id();
        uint32_t B = N > 1 ? M.child(T, 1).id() : UINT32_MAX;
        auto Hit = Guards.find(makeGuardKey(*Predicate, A, B));
        const Interval &IA = Intervals.of(M.child(T, 0));
        const Interval &IB =
            N > 1 ? Intervals.of(M.child(T, 1)) : Interval::top();
        bool Proven = overflowImpossible(*Predicate, IA, IB, W);
        if (Hit != Guards.end()) {
          Hit->second.Matched = true;
          if (Proven)
            warn("redundant-guard",
                 "guard provably never fires: " +
                     printTerm(M, Hit->second.Predicate),
                 Hit->second.Predicate);
        } else if (!Proven && Options.RequireGuards) {
          error("unguarded-overflow",
                std::string(kindName(M.kind(T))) +
                    " is neither guarded nor provably overflow-free: " +
                    printTerm(M, T) + " with operand intervals " +
                    IA.toString() + ", " + IB.toString(),
                T);
        }
        continue;
      }

      // N-ary op (never produced by the translator, which expands to
      // guarded binary steps): provable only if every left-assoc fold
      // step is, mirroring the interval engine's foldSteps.
      bool Proven = true;
      Interval Acc = Intervals.of(M.child(T, 0));
      for (unsigned I = 1; I < N && Proven; ++I) {
        const Interval &Ci = Intervals.of(M.child(T, I));
        Proven = overflowImpossible(*Predicate, Acc, Ci, W);
        Kind K = M.kind(T);
        Interval Step = K == Kind::BvAdd   ? addI(Acc, Ci)
                        : K == Kind::BvSub ? subI(Acc, Ci)
                                           : mulI(Acc, Ci);
        Acc = meet(Step,
                   Interval::range(widthRangeLo(W), widthRangeHi(W)));
      }
      if (!Proven && Options.RequireGuards)
        error("unguarded-overflow",
              std::string(kindName(M.kind(T))) +
                  " (n-ary) has an unprovable fold step: " + printTerm(M, T),
              T);
    }

    for (auto &[Key, Info] : Guards) {
      if (!Info.Matched)
        warn("orphan-guard",
             "guard references no " +
                 std::string(kindName(M.kind(Info.Predicate))) +
                 "-guarded operation: " + printTerm(M, Info.Predicate),
             Info.Predicate);
      // With point operands the oracle is exact: when it cannot rule the
      // overflow out, the guard fires in every model. IB is the last
      // operand: A again for the unary BvNegO, whose B the oracle ignores.
      Term A = M.child(Info.Predicate, 0);
      const Interval &IA = Intervals.of(A);
      const Interval &IB = Intervals.of(
          M.child(Info.Predicate, M.numChildren(Info.Predicate) - 1));
      if (IA.isPoint() && IB.isPoint() &&
          !overflowImpossible(M.kind(Info.Predicate), IA, IB,
                              M.sort(A).bitVecWidth()))
        warn("contradictory-guard",
             "guard provably always fires, making the constraint "
             "vacuously unsat: " +
                 printTerm(M, Info.Predicate),
             Info.Predicate);
    }
  }

  const TermManager &M;
  const std::vector<Term> &Assertions;
  LintOptions Options;
  std::vector<Term> AllNodes;
  LintReport Report;
};

} // namespace

GuardKey analysis::makeGuardKey(Kind Predicate, uint32_t A, uint32_t B) {
  bool Commutative = Predicate == Kind::BvSAddO || Predicate == Kind::BvSMulO;
  if (Commutative && B != UINT32_MAX && A > B)
    std::swap(A, B);
  return {static_cast<uint8_t>(Predicate), A, B};
}

bool LintReport::clean() const { return errorCount() == 0; }

unsigned LintReport::errorCount() const {
  unsigned Count = 0;
  for (const LintFinding &F : Findings)
    if (F.Severity == LintSeverity::Error)
      ++Count;
  return Count;
}

std::string LintReport::toString() const {
  std::ostringstream OS;
  for (const LintFinding &F : Findings)
    OS << (F.Severity == LintSeverity::Error ? "error" : "warning") << " ["
       << F.Check << "]: " << F.Detail << "\n";
  return OS.str();
}

LintReport analysis::lintBounded(const TermManager &Manager,
                                 const std::vector<Term> &Assertions,
                                 const LintOptions &Options) {
  return Linter(Manager, Assertions, Options).run();
}

LintReport analysis::lintTranslation(
    const TermManager &Manager, const std::vector<Term> &OriginalAssertions,
    const std::vector<Term> &BoundedAssertions,
    const std::unordered_map<uint32_t, Term> &VariableMap,
    const LintOptions &Options) {
  Linter L(Manager, BoundedAssertions, Options);
  L.checkMapTotality(OriginalAssertions, VariableMap);
  return L.run();
}
