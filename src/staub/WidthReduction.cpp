//===- staub/WidthReduction.cpp - BV width reduction ----------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "staub/WidthReduction.h"

#include "staub/Staub.h"
#include "support/Timer.h"

using namespace staub;

namespace {

/// Scans the constraint: checks the supported fragment, finds the uniform
/// width, and the widest constant (under the signed reading, which the
/// narrow rebuild preserves by sign extension).
struct FragmentScan {
  bool Supported = true;
  std::string Reason;
  unsigned Width = 0;
  unsigned LargestConstWidth = 1;
};

FragmentScan scanFragment(const TermManager &Manager,
                          const std::vector<Term> &Assertions) {
  FragmentScan Scan;
  std::vector<Term> Stack(Assertions.begin(), Assertions.end());
  std::vector<bool> Seen(Manager.numTerms(), false);
  while (!Stack.empty() && Scan.Supported) {
    Term T = Stack.back();
    Stack.pop_back();
    if (Seen[T.id()])
      continue;
    Seen[T.id()] = true;
    Sort S = Manager.sort(T);
    if (S.isBitVec()) {
      if (Scan.Width == 0)
        Scan.Width = S.bitVecWidth();
      else if (Scan.Width != S.bitVecWidth()) {
        Scan.Supported = false;
        Scan.Reason = "mixed bitvector widths";
        break;
      }
    }
    switch (Manager.kind(T)) {
    case Kind::ConstBitVec:
      Scan.LargestConstWidth =
          std::max(Scan.LargestConstWidth,
                   Manager.bitVecValue(T).toSigned().minSignedWidth());
      break;
    case Kind::ConstBool:
    case Kind::Variable:
    case Kind::Not:
    case Kind::And:
    case Kind::Or:
    case Kind::Xor:
    case Kind::Implies:
    case Kind::Ite:
    case Kind::Eq:
    case Kind::Distinct:
    case Kind::BvNeg:
    case Kind::BvAdd:
    case Kind::BvSub:
    case Kind::BvMul:
    case Kind::BvUle:
    case Kind::BvUlt:
    case Kind::BvUge:
    case Kind::BvUgt:
    case Kind::BvSle:
    case Kind::BvSlt:
    case Kind::BvSge:
    case Kind::BvSgt:
      break;
    default:
      Scan.Supported = false;
      Scan.Reason = std::string("unsupported operator ") +
                    std::string(kindName(Manager.kind(T)));
      break;
    }
    for (Term Child : Manager.children(T))
      Stack.push_back(Child);
  }
  if (Scan.Width == 0) {
    Scan.Supported = false;
    Scan.Reason = "no bitvector content";
  }
  return Scan;
}

} // namespace

WidthReductionResult
staub::reduceBvWidths(TermManager &Manager,
                      const std::vector<Term> &Assertions) {
  WidthReductionResult Result;
  FragmentScan Scan = scanFragment(Manager, Assertions);
  if (!Scan.Supported) {
    Result.FailReason = Scan.Reason;
    return Result;
  }
  // Candidate narrow width: assumption policy (largest constant + 1),
  // same as the unbounded pipeline.
  unsigned Narrow = Scan.LargestConstWidth + 1;
  if (Narrow >= Scan.Width) {
    Result.FailReason = "no width saved";
    return Result;
  }
  return {narrowBitVectors(Manager, Assertions, Narrow), Scan.Width, Narrow};
}

SolveResult staub::runWidthReduction(TermManager &Manager,
                                     const std::vector<Term> &Assertions,
                                     SolverBackend &Backend,
                                     const SolverOptions &Options) {
  WallTimer Timer;
  SolveResult Out;
  WidthReductionResult Narrowed = reduceBvWidths(Manager, Assertions);
  if (!Narrowed.Ok) {
    Out.TimeSeconds = Timer.elapsedSeconds();
    return Out; // Unknown: caller reverts.
  }
  SolveResult NarrowResult =
      Backend.solve(Manager, Narrowed.Assertions, Options);
  if (NarrowResult.Status != SolveStatus::Sat) {
    // Underapproximation: narrow-unsat proves nothing about the wide
    // constraint.
    Out.TimeSeconds = Timer.elapsedSeconds();
    return Out;
  }
  // convertModelBack sign-extends the narrow model to the wide width.
  if (std::optional<Model> Verified = verifyBoundedModel(
          Manager, Assertions, Narrowed, NarrowResult.TheModel)) {
    Out.Status = SolveStatus::Sat;
    Out.TheModel = std::move(*Verified);
  }
  Out.TimeSeconds = Timer.elapsedSeconds();
  return Out;
}
