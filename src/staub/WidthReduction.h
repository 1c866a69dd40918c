//===- staub/WidthReduction.h - BV width reduction --------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implementation of the paper's Sec. 6.4 extension idea: apply the bound
/// inference strategy to constraints that are *already* bounded, shrinking
/// wide bitvector constraints to a narrower width (in the spirit of Jonáš
/// & Strejček's bit-width reductions, which the paper cites as evidence
/// the idea can pay off). The same underapproximate-then-verify discipline
/// applies, through the pipeline's own guarded translator
/// (narrowBitVectors) and model check (verifyBoundedModel): the narrow
/// constraint's model is sign-extended back and checked against the
/// original with the exact evaluator; unsat narrow results revert.
///
/// Supported fragment: uniform-width arithmetic/comparison constraints
/// (bvadd/bvsub/bvmul/bvneg, signed and unsigned comparisons, =/distinct,
/// boolean structure). Shifts, extracts, concatenations, and divisions
/// make widths semantically load-bearing and cause a clean bail-out.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_STAUB_WIDTHREDUCTION_H
#define STAUB_STAUB_WIDTHREDUCTION_H

#include "solver/Solver.h"
#include "staub/Transform.h"

namespace staub {

/// Result of rebuilding a constraint at a narrower width: the narrow
/// translation (VariableMap maps each original variable to its narrow
/// one) plus both widths.
struct WidthReductionResult : TransformResult {
  unsigned OriginalWidth = 0;
  unsigned ReducedWidth = 0;
};

/// Infers a candidate reduced width for a uniform-width QF_BV constraint
/// using the integer abstract semantics (Fig. 5a) over the constants, and
/// rebuilds the constraint at that width with overflow guards. Fails (Ok
/// = false) when the fragment is unsupported or no width is saved.
WidthReductionResult reduceBvWidths(TermManager &Manager,
                                    const std::vector<Term> &Assertions);

/// End-to-end narrow-solve-verify lane, mirroring runStaub: returns Sat
/// with a verified model of the ORIGINAL wide constraint, or Unknown
/// (caller reverts to the wide constraint).
SolveResult runWidthReduction(TermManager &Manager,
                              const std::vector<Term> &Assertions,
                              SolverBackend &Backend,
                              const SolverOptions &Options);

} // namespace staub

#endif // STAUB_STAUB_WIDTHREDUCTION_H
