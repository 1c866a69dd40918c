//===- staub/Transform.cpp - Unbounded-to-bounded translation -------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "staub/Transform.h"

#include "analysis/Interval.h"
#include "staub/Config.h"

#include <algorithm>
#include <cassert>
#include <optional>

using namespace staub;
using analysis::Interval;

namespace {

/// Shared plumbing for both translators: memoized DAG rewrite with a
/// failure flag and a guard-collection side channel.
class Translator {
public:
  Translator(TermManager &Manager) : Manager(Manager) {}
  virtual ~Translator() = default;

  TransformResult run(const std::vector<Term> &Assertions) {
    TransformResult Result;
    for (Term Assertion : Assertions) {
      Term Translated = translate(Assertion);
      if (!Failed.empty()) {
        Result.FailReason = Failed;
        return Result;
      }
      Result.Assertions.push_back(Translated);
    }
    // Guards go after the translated assertions (order is irrelevant for
    // satisfiability; this matches the paper's presentation in Fig. 1b).
    Result.TranslatedCount = Result.Assertions.size();
    Result.Assertions.insert(Result.Assertions.end(), Guards.begin(),
                             Guards.end());
    Result.VariableMap = VariableMap;
    Result.GuardsEmitted = GuardsEmitted;
    Result.GuardsElided = GuardsElided;
    Result.Ok = true;
    return Result;
  }

protected:
  TermManager &Manager;
  std::unordered_map<uint32_t, Term> Cache;
  std::unordered_map<uint32_t, Term> VariableMap;
  std::vector<Term> Guards;
  std::string Failed;
  unsigned GuardsEmitted = 0;
  unsigned GuardsElided = 0;

  Term fail(const std::string &Reason) {
    if (Failed.empty())
      Failed = Reason;
    return Term();
  }

  Term translate(Term T) {
    if (!Failed.empty())
      return Term();
    auto Found = Cache.find(T.id());
    if (Found != Cache.end())
      return Found->second;
    Term Result = translateNode(T);
    if (!Failed.empty())
      return Term();
    Cache.emplace(T.id(), Result);
    return Result;
  }

  virtual Term translateNode(Term T) = 0;
};

/// Int -> BitVec translator with overflow guards, which also rebuilds a
/// bitvector constraint at a narrower width (Sec. 6.4): the two are the
/// same rewrite with constants read as signed values. Every
/// add/sub/mul/neg is guarded by its overflow predicate over the same
/// ordered operands as the operation itself, which lets the bit-blaster
/// encode the pair once (DESIGN.md). With non-null \p Intervals (the
/// Int-side assertions analyzed with every Int node clamped to the signed
/// range of the width — the guarded-or-proven invariant makes that clamp
/// a fact in any model that survives the remaining guards), each guard
/// whose operand intervals prove no overflow is dropped before solving.
class GuardedBv : public Translator {
public:
  GuardedBv(TermManager &Manager, unsigned Width, std::string VarPrefix,
            const analysis::IntervalSummary *Intervals)
      : Translator(Manager), Width(Width), VarPrefix(std::move(VarPrefix)),
        Intervals(Intervals) {}

private:
  unsigned Width;
  std::string VarPrefix;
  const analysis::IntervalSummary *Intervals;

  /// The Int-side interval of \p OriginalTerm (top when elision is off).
  Interval iv(Term OriginalTerm) const {
    return Intervals ? Intervals->of(OriginalTerm) : Interval::top();
  }

  /// Adds the guard `not P(Args)`, unless the operand intervals prove the
  /// predicate cannot fire (\p B is ignored for the unary BvNegO). The
  /// provability test is the exact one staub-lint replays on the bounded
  /// side, so every kept guard is one lint cannot discharge either.
  void guard(Kind Predicate, std::vector<Term> Args, const Interval &A,
             const Interval &B = Interval::top()) {
    if (Intervals && analysis::overflowImpossible(Predicate, A, B, Width)) {
      ++GuardsElided;
      return;
    }
    ++GuardsEmitted;
    Guards.push_back(Manager.mkNot(Manager.mkApp(Predicate, Args)));
  }

  /// Folds an n-ary op pairwise, guarding each step. The accumulator's
  /// interval is folded alongside, each step clamped to the width range,
  /// mirroring analysis/Interval.cpp's transfer for the n-ary node so
  /// that per-step elision matches what lint can re-prove.
  Term foldGuarded(Kind BvKind, Kind GuardKind, const std::vector<Term> &Args,
                   const std::vector<Term> &OrigArgs) {
    Term Acc = Args[0];
    Interval AccIv = iv(OrigArgs[0]);
    for (size_t I = 1; I < Args.size(); ++I) {
      Interval CiIv = iv(OrigArgs[I]);
      guard(GuardKind, {Acc, Args[I]}, AccIv, CiIv);
      Acc = Manager.mkApp(BvKind, std::vector<Term>{Acc, Args[I]});
      if (Intervals) {
        Interval Step = GuardKind == Kind::BvSAddO ? addI(AccIv, CiIv)
                        : GuardKind == Kind::BvSSubO
                            ? subI(AccIv, CiIv)
                            : mulI(AccIv, CiIv);
        AccIv = meet(Step, Interval::range(analysis::widthRangeLo(Width),
                                           analysis::widthRangeHi(Width)));
      }
    }
    return Acc;
  }

  Term constant(const BigInt &V) {
    if (V.minSignedWidth() > Width)
      return fail("constant " + V.toString() + " does not fit width " +
                  std::to_string(Width));
    return Manager.mkBitVecConst(BitVecValue(Width, V));
  }

  Term translateNode(Term T) override {
    Kind K = Manager.kind(T);
    switch (K) {
    case Kind::ConstBool:
      return T;
    case Kind::ConstInt:
      return constant(Manager.intValue(T));
    case Kind::ConstBitVec:
      return constant(Manager.bitVecValue(T).toSigned());
    case Kind::Variable:
      if (Manager.sort(T).isBool())
        return T;
      if (Manager.sort(T).isInt() || Manager.sort(T).isBitVec()) {
        // The width is part of the name so the same constraint can be
        // transformed at several widths within one manager.
        Term Mapped = Manager.mkVariable(VarPrefix + std::to_string(Width) +
                                             "!" + Manager.variableName(T),
                                         Sort::bitVec(Width));
        VariableMap.emplace(T.id(), Mapped);
        return Mapped;
      }
      return fail("unsupported variable sort " +
                  Manager.sort(T).toString());
    default:
      break;
    }

    // A copy: creating terms below may reallocate the child spans.
    std::vector<Term> Orig = Manager.childrenCopy(T);
    std::vector<Term> Children;
    for (Term Child : Orig) {
      Term Translated = translate(Child);
      if (!Failed.empty())
        return Term();
      Children.push_back(Translated);
    }

    switch (K) {
    // Boolean structure is preserved, and so are the comparisons of a
    // narrowed bitvector constraint: the unsigned ones are not preserved
    // by signed narrowing (wide -1 is a huge unsigned value), which the
    // verification step always catches.
    case Kind::Not:
    case Kind::And:
    case Kind::Or:
    case Kind::Xor:
    case Kind::Implies:
    case Kind::Eq:
    case Kind::Distinct:
    case Kind::Ite:
    case Kind::BvUle:
    case Kind::BvUlt:
    case Kind::BvUge:
    case Kind::BvUgt:
    case Kind::BvSle:
    case Kind::BvSlt:
    case Kind::BvSge:
    case Kind::BvSgt:
      return Manager.mkApp(K, Children);

    case Kind::Neg:
    case Kind::BvNeg:
      guard(Kind::BvNegO, {Children[0]}, iv(Orig[0]));
      return Manager.mkApp(Kind::BvNeg, Children);
    case Kind::IntAbs:
      // No bvabs in SMT-LIB: ite(x <s 0, -x, x), guarding the negation.
      guard(Kind::BvNegO, {Children[0]}, iv(Orig[0]));
      return Manager.mkIte(
          Manager.mkApp(Kind::BvSlt,
                        std::vector<Term>{Children[0],
                                          Manager.mkBitVecConst(
                                              BitVecValue(Width, 0))}),
          Manager.mkApp(Kind::BvNeg, std::vector<Term>{Children[0]}),
          Children[0]);
    case Kind::Add:
    case Kind::BvAdd:
      return foldGuarded(Kind::BvAdd, Kind::BvSAddO, Children, Orig);
    case Kind::Sub:
    case Kind::BvSub:
      return foldGuarded(Kind::BvSub, Kind::BvSSubO, Children, Orig);
    case Kind::Mul:
    case Kind::BvMul:
      return foldGuarded(Kind::BvMul, Kind::BvSMulO, Children, Orig);
    case Kind::IntDiv:
      // Semantic difference: SMT-LIB Int div is Euclidean, bvsdiv
      // truncates. Verification catches disagreements (Sec. 4.4 case 3).
      guard(Kind::BvSDivO, {Children[0], Children[1]}, iv(Orig[0]),
            iv(Orig[1]));
      return Manager.mkApp(Kind::BvSDiv, Children);
    case Kind::IntMod:
      return Manager.mkApp(Kind::BvSRem, Children);
    case Kind::Le:
      return Manager.mkApp(Kind::BvSle, Children);
    case Kind::Lt:
      return Manager.mkApp(Kind::BvSlt, Children);
    case Kind::Ge:
      return Manager.mkApp(Kind::BvSge, Children);
    case Kind::Gt:
      return Manager.mkApp(Kind::BvSgt, Children);
    default:
      return fail(std::string("unsupported operator in integer constraint: ") +
                  std::string(kindName(K)));
    }
  }
};

/// Real -> FloatingPoint translator. Rounding cannot be guarded; the
/// verification step (Sec. 4.4) filters models that rely on it.
class RealToFp : public Translator {
public:
  RealToFp(TermManager &Manager, FpFormat Format)
      : Translator(Manager), Format(Format) {}

private:
  FpFormat Format;

  Term translateNode(Term T) override {
    Kind K = Manager.kind(T);
    switch (K) {
    case Kind::ConstBool:
      return T;
    case Kind::ConstInt: // Coerced integer literal in a real context.
      return Manager.mkFpConst(
          SoftFloat::fromRational(Format, Rational(Manager.intValue(T))));
    case Kind::ConstReal: {
      SoftFloat V = SoftFloat::fromRational(Format, Manager.realValue(T));
      if (!V.isFinite())
        return fail("constant " + Manager.realValue(T).toString() +
                    " overflows format");
      // A constant that rounds inexactly is itself a semantic difference;
      // translation proceeds and verification decides (Def. 4.2).
      return Manager.mkFpConst(V);
    }
    case Kind::Variable:
      if (Manager.sort(T).isBool())
        return T;
      if (Manager.sort(T).isReal()) {
        Term Mapped = Manager.mkVariable(
            "staub.fp" + std::to_string(Format.ExponentBits) + "." +
                std::to_string(Format.SignificandBits) + "!" +
                Manager.variableName(T),
            Sort::floatingPoint(Format));
        VariableMap.emplace(T.id(), Mapped);
        return Mapped;
      }
      return fail("unsupported variable sort " +
                  Manager.sort(T).toString());
    default:
      break;
    }

    std::vector<Term> Children;
    for (Term Child : Manager.childrenCopy(T)) {
      Term Translated = translate(Child);
      if (!Failed.empty())
        return Term();
      Children.push_back(Translated);
    }

    auto Fold = [&](Kind FpKind) {
      Term Acc = Children[0];
      for (size_t I = 1; I < Children.size(); ++I)
        Acc = Manager.mkApp(FpKind, std::vector<Term>{Acc, Children[I]});
      return Acc;
    };

    switch (K) {
    case Kind::Not:
    case Kind::And:
    case Kind::Or:
    case Kind::Xor:
    case Kind::Implies:
    case Kind::Ite:
      return Manager.mkApp(K, Children);
    case Kind::Eq:
      // `=` on reals maps to fp.eq (IEEE equality): phi is injective on
      // finite values, and NaN/signed-zero cases are semantic
      // differences that verification rejects.
      return Manager.mkApp(Kind::FpEq, Children);
    case Kind::Distinct:
      return Manager.mkNot(Manager.mkApp(Kind::FpEq, Children));
    case Kind::Neg:
      return Manager.mkApp(Kind::FpNeg, Children);
    case Kind::Add:
      return Fold(Kind::FpAdd);
    case Kind::Sub:
      return Fold(Kind::FpSub);
    case Kind::Mul:
      return Fold(Kind::FpMul);
    case Kind::RealDiv:
      return Fold(Kind::FpDiv);
    case Kind::Le:
      return Manager.mkApp(Kind::FpLeq, Children);
    case Kind::Lt:
      return Manager.mkApp(Kind::FpLt, Children);
    case Kind::Ge:
      return Manager.mkApp(Kind::FpGeq, Children);
    case Kind::Gt:
      return Manager.mkApp(Kind::FpGt, Children);
    default:
      return fail(std::string("unsupported operator in real constraint: ") +
                  std::string(kindName(K)));
    }
  }
};

} // namespace

TransformResult staub::transformIntToBv(TermManager &Manager,
                                        const std::vector<Term> &Assertions,
                                        unsigned Width,
                                        const TransformOptions &Options) {
  assert(Width >= 1 && "bitvector width must be positive");
  std::optional<analysis::IntervalSummary> Intervals;
  if (Options.ElideGuards) {
    analysis::IntervalOptions IOpts;
    IOpts.ClampAllWidth = Width;
    Intervals = analysis::analyzeIntervals(Manager, Assertions, IOpts);
  }
  GuardedBv Translator(Manager, Width, "staub.bv",
                       Intervals ? &*Intervals : nullptr);
  TransformResult Result = Translator.run(Assertions);
  Result.Width = Width;
  return Result;
}

TransformResult staub::narrowBitVectors(TermManager &Manager,
                                        const std::vector<Term> &Assertions,
                                        unsigned Width) {
  GuardedBv Translator(Manager, Width, "wr", nullptr);
  TransformResult Result = Translator.run(Assertions);
  Result.Width = Width;
  return Result;
}

TransformResult staub::transformRealToFp(TermManager &Manager,
                                         const std::vector<Term> &Assertions,
                                         FpFormat Format) {
  RealToFp Translator(Manager, Format);
  TransformResult Result = Translator.run(Assertions);
  Result.Format = Format;
  return Result;
}

FpFormat staub::chooseFpFormat(unsigned MagnitudeBits, unsigned PrecisionBits,
                               bool RoundUpToStandard) {
  // Need emax = 2^(eb-1)-1 >= MagnitudeBits (values up to 2^m). Smallest
  // eb satisfying that, floored at 3 so tiny constraints stay IEEE-like.
  unsigned Eb = 3;
  while (((1u << (Eb - 1)) - 1) < MagnitudeBits + 1 &&
         Eb < config::MaxExponentBits)
    ++Eb;
  unsigned Sb = std::max(PrecisionBits + 1, 4u);
  if (Sb > config::MaxSignificandBits)
    Sb = config::MaxSignificandBits;
  if (!RoundUpToStandard)
    return {Eb, Sb};
  for (FpFormat Standard : {FpFormat::float16(), FpFormat::float32(),
                            FpFormat::float64(), FpFormat::float128()})
    if (Standard.ExponentBits >= Eb && Standard.SignificandBits >= Sb)
      return Standard;
  return FpFormat::float128();
}

bool staub::convertModelBack(const TermManager &Manager,
                             const TransformResult &Transform,
                             const Model &Bounded, Model &Unbounded) {
  for (const auto &[OriginalId, MappedVar] : Transform.VariableMap) {
    const Value *V = Bounded.get(MappedVar);
    if (!V)
      return false; // Incomplete bounded model.
    Term Original(OriginalId);
    if (V->isBitVec()) {
      Sort OriginalSort = Manager.sort(Original);
      Unbounded.set(Original,
                    OriginalSort.isBitVec()
                        ? Value(V->asBitVec().sext(OriginalSort.bitVecWidth()))
                        : Value(V->asBitVec().toSigned()));
      continue;
    }
    if (V->isFp()) {
      const SoftFloat &F = V->asFp();
      if (!F.isFinite())
        return false; // NaN/oo have no preimage (Sec. 4.1 footnote).
      // phi^-1(-0) = 0.
      Unbounded.set(Original, Value(F.toRational()));
      continue;
    }
    return false;
  }
  // Boolean variables pass through unchanged.
  for (const auto &[VarId, V] : Bounded) {
    Term Var(VarId);
    if (Manager.kind(Var) == Kind::Variable && Manager.sort(Var).isBool())
      Unbounded.set(Var, V);
  }
  return true;
}
