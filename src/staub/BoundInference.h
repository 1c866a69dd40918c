//===- staub/BoundInference.h - AI-based bound inference --------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's bound inference (Sec. 4.2): an abstract interpretation over
/// the constraint DAG whose abstract domain is bit widths for integers and
/// (magnitude, precision) pairs for reals. Constants abstract to their own
/// width; variables take the assumption value `x` (the width of the
/// largest constant plus one, Sec. 4.2 "Soundness and Implications");
/// each operator applies the transfer functions of Fig. 5. Division's
/// precision is bounded per the paper's modified semantics
/// ((m1+m2, p1+p2)) to avoid infinite precision.
///
/// The analysis is a single memoized DAG walk, so it runs in time linear
/// in the constraint size (Sec. 6.1). The transfer functions themselves
/// live in analysis/Widths.h as clients of the generic dataflow
/// framework; this interface additionally wires in interval refinement,
/// tightening inferred widths from asserted range facts (docs/ANALYSIS.md).
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_STAUB_BOUNDINFERENCE_H
#define STAUB_STAUB_BOUNDINFERENCE_H

#include "analysis/Interval.h"
#include "smtlib/Term.h"
#include "staub/Config.h"

#include <unordered_map>
#include <vector>

namespace staub {

/// Result of integer bound inference.
struct IntBounds {
  unsigned VariableAssumption = 0; ///< The paper's `x`.
  unsigned RootWidth = 0;          ///< [[S]]: width sufficient for all
                                   ///< intermediates under the assumption.
};

/// Result of real bound inference: the (magnitude, precision) pair.
struct RealBounds {
  unsigned MagnitudeAssumption = 0;
  unsigned PrecisionAssumption = 0;
  unsigned RootMagnitude = 0;
  unsigned RootPrecision = 0;
};

/// Integer abstract interpretation over the conjunction of \p Assertions.
/// \p WidthCap clamps the abstract values so pathological constraints
/// cannot demand absurd widths (the transformation would then be guarded
/// by overflow predicates anyway).
///
/// \p ContractedRanges (variable id -> presolve-contracted interval) lets
/// the assumption drop *below* the classic largest-constant-plus-one
/// heuristic: when every Int variable has a finite contracted range, the
/// assumption is max(width of the ranges, width of the largest constant)
/// — constants must still be representable, but variables no longer get
/// a spare bit they provably cannot use.
IntBounds inferIntBounds(
    const TermManager &Manager, const std::vector<Term> &Assertions,
    unsigned WidthCap = config::DefaultWidthCap,
    const std::unordered_map<uint32_t, analysis::Interval> *ContractedRanges =
        nullptr);

/// Real abstract interpretation. The default caps are the ones the
/// pipeline passes.
RealBounds
inferRealBounds(const TermManager &Manager,
                const std::vector<Term> &Assertions,
                unsigned MagnitudeCap = config::DefaultWidthCap,
                unsigned PrecisionCap = config::RealPrecisionCap);

} // namespace staub

#endif // STAUB_STAUB_BOUNDINFERENCE_H
