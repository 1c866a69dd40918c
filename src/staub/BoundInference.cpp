//===- staub/BoundInference.cpp - AI-based bound inference ----------------===//
//
// Part of the STAUB reproduction.
//
// A thin adapter over the generic dataflow framework: the Fig. 5 transfer
// functions live in analysis/Widths.cpp as DagAnalysis domains, and this
// file only computes the paper's assumption values and wires in interval
// refinement. When the assertions carry harvestable range facts
// (`0 <= x`, `x < 100`, ...), per-node intervals tighten the inferred
// widths below what the largest-constant assumption alone gives; with no
// facts the classic transfer runs unrefined, so constraints without range
// atoms infer the exact widths of the original abstract interpretation.
//
//===----------------------------------------------------------------------===//

#include "staub/BoundInference.h"

#include "analysis/Dataflow.h"
#include "analysis/Interval.h"
#include "analysis/Widths.h"

#include <algorithm>
#include <climits>
#include <vector>

using namespace staub;

namespace {

unsigned capped(unsigned Value, unsigned Cap) { return std::min(Value, Cap); }

/// Width of the largest integer constant in the DAG (the basis for the
/// paper's assumption value x).
unsigned largestIntConstWidth(const TermManager &Manager,
                              const std::vector<Term> &Assertions) {
  unsigned Largest = 1;
  std::vector<Term> Stack(Assertions.begin(), Assertions.end());
  std::vector<bool> Seen(Manager.numTerms(), false);
  while (!Stack.empty()) {
    Term T = Stack.back();
    Stack.pop_back();
    if (Seen[T.id()])
      continue;
    Seen[T.id()] = true;
    if (Manager.kind(T) == Kind::ConstInt)
      Largest = std::max(Largest, Manager.intValue(T).minSignedWidth());
    for (Term Child : Manager.children(T))
      Stack.push_back(Child);
  }
  return Largest;
}

} // namespace

unsigned staub::inferIntAssumption(
    const TermManager &Manager, const std::vector<Term> &Assertions,
    unsigned WidthCap,
    const std::unordered_map<uint32_t, analysis::Interval> *ContractedRanges) {
  unsigned ConstWidth = largestIntConstWidth(Manager, Assertions);
  unsigned Assumption = capped(ConstWidth + 1, WidthCap);

  // Presolve-contracted ranges can push the assumption *below* the classic
  // heuristic: when every Int variable has a finite contracted interval,
  // variables need only the width of their ranges (constants still have to
  // be representable, hence the max with the constant width without +1).
  if (ContractedRanges) {
    unsigned VarWidth = 1;
    bool AllFinite = true;
    for (Term Assertion : Assertions) {
      for (Term V : Manager.collectVariables(Assertion)) {
        if (!Manager.sort(V).isInt())
          continue;
        auto It = ContractedRanges->find(V.id());
        unsigned W = It == ContractedRanges->end()
                         ? UINT_MAX
                         : analysis::widthOfInterval(It->second);
        if (W == UINT_MAX) {
          AllFinite = false;
          break;
        }
        VarWidth = std::max(VarWidth, W);
      }
      if (!AllFinite)
        break;
    }
    if (AllFinite)
      Assumption = std::min(
          Assumption, capped(std::max(ConstWidth, VarWidth), WidthCap));
  }
  return Assumption;
}

IntBounds staub::inferIntBounds(
    const TermManager &Manager, const std::vector<Term> &Assertions,
    unsigned WidthCap,
    const std::unordered_map<uint32_t, analysis::Interval> *ContractedRanges) {
  IntBounds Out;
  Out.VariableAssumption =
      inferIntAssumption(Manager, Assertions, WidthCap, ContractedRanges);

  // Refinement intervals: variables clamped to the assumption range,
  // var-const facts only (variable-variable propagation belongs to the
  // elision/lint engine; here it would silently change the paper's
  // arithmetic on examples like Fig. 4).
  analysis::IntervalOptions IOpts;
  IOpts.ClampVarsWidth = Out.VariableAssumption;
  IOpts.UseVarVarFacts = false;
  analysis::IntervalSummary Intervals =
      analysis::analyzeIntervals(Manager, Assertions, IOpts);

  analysis::IntWidthOptions WOpts;
  WOpts.Assumption = Out.VariableAssumption;
  WOpts.Cap = WidthCap;
  WOpts.Refine = Intervals.hasFacts() ? &Intervals : nullptr;
  analysis::DagAnalysis<analysis::IntWidthDomain> Interp(
      Manager, analysis::IntWidthDomain(Manager, WOpts));

  unsigned Root = 1;
  for (Term Assertion : Assertions)
    Root = std::max(Root, Interp.get(Assertion));
  Out.RootWidth = std::max(Root, Out.VariableAssumption);
  return Out;
}

RealBounds staub::inferRealBounds(const TermManager &Manager,
                                  const std::vector<Term> &Assertions,
                                  unsigned MagnitudeCap,
                                  unsigned PrecisionCap) {
  // Assumption from the largest constant (magnitude and precision).
  analysis::MagPrec ConstMax{1, 0};
  {
    std::vector<Term> Stack(Assertions.begin(), Assertions.end());
    std::vector<bool> Seen(Manager.numTerms(), false);
    while (!Stack.empty()) {
      Term T = Stack.back();
      Stack.pop_back();
      if (Seen[T.id()])
        continue;
      Seen[T.id()] = true;
      if (Manager.kind(T) == Kind::ConstReal) {
        const Rational &V = Manager.realValue(T);
        ConstMax.Magnitude =
            std::max(ConstMax.Magnitude, V.abs().ceil().minSignedWidth());
        auto Dig = V.binaryPrecision();
        ConstMax.Precision =
            std::max(ConstMax.Precision, Dig ? *Dig : PrecisionCap);
      } else if (Manager.kind(T) == Kind::ConstInt) {
        ConstMax.Magnitude =
            std::max(ConstMax.Magnitude, Manager.intValue(T).minSignedWidth());
      }
      for (Term Child : Manager.children(T))
        Stack.push_back(Child);
    }
  }

  RealBounds Out;
  Out.MagnitudeAssumption = std::min(ConstMax.Magnitude + 1, MagnitudeCap);
  // Precision assumption: at least a handful of fractional bits so real
  // variables are not forced integral; the largest constant's precision
  // otherwise.
  Out.PrecisionAssumption =
      std::min(std::max(ConstMax.Precision, 4u) + 1, PrecisionCap);

  analysis::IntervalOptions IOpts;
  IOpts.ClampRealVarsMagnitude = Out.MagnitudeAssumption;
  IOpts.UseVarVarFacts = false;
  analysis::IntervalSummary Intervals =
      analysis::analyzeIntervals(Manager, Assertions, IOpts);

  analysis::RealWidthOptions WOpts;
  WOpts.Assumption = {Out.MagnitudeAssumption, Out.PrecisionAssumption};
  WOpts.MagnitudeCap = MagnitudeCap;
  WOpts.PrecisionCap = PrecisionCap;
  WOpts.Refine = Intervals.hasFacts() ? &Intervals : nullptr;
  analysis::DagAnalysis<analysis::RealWidthDomain> Interp(
      Manager, analysis::RealWidthDomain(Manager, WOpts));

  analysis::MagPrec Root{1, 0};
  for (Term Assertion : Assertions) {
    analysis::MagPrec V = Interp.get(Assertion);
    Root.Magnitude = std::max(Root.Magnitude, V.Magnitude);
    Root.Precision = std::max(Root.Precision, V.Precision);
  }
  Out.RootMagnitude = std::max(Root.Magnitude, Out.MagnitudeAssumption);
  Out.RootPrecision = std::max(Root.Precision, Out.PrecisionAssumption);
  return Out;
}
