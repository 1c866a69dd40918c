//===- staub/Transform.h - Unbounded-to-bounded translation -----*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint transformation of Sec. 4.3: given inferred bounds, maps
/// an Int constraint to bitvectors of the chosen width (inserting
/// overflow-guard assertions per operation, via the SMT-LIB overflow
/// predicates) or a Real constraint to floating point of a chosen format
/// (where rounding differences cannot be guarded and are left to the
/// verification step). Also provides phi^-1: converting a bounded model
/// back to the unbounded theory so it can be checked against the original
/// constraint (Sec. 4.4).
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_STAUB_TRANSFORM_H
#define STAUB_STAUB_TRANSFORM_H

#include "smtlib/Term.h"
#include "theory/Evaluator.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace staub {

/// Options controlling the Int -> BV translation.
struct TransformOptions {
  /// Statically discharge overflow guards the interval analysis
  /// (analysis/Interval.h) proves cannot fire at the chosen width, and
  /// drop them before solving. Elision and staub-lint share one
  /// provability predicate, so lint accepts elided output by
  /// construction.
  bool ElideGuards = true;
  /// Additionally discharge guards via the relational (octagon) domain:
  /// facts like `x - y <= c` harvested from the original assertions prove
  /// guards the per-variable interval projections cannot (e.g. the
  /// subtraction under a correlated difference bound). Sequential
  /// elide-and-revalidate keeps the final state exactly reproducible by
  /// staub-lint's one-pass fact-validity rule. Requires ElideGuards.
  bool Relational = true;
  /// Allow the escalation driver to retry this translation at larger
  /// widths when a bounded-unsat core blames only the overflow guards
  /// (incremental width-escalation ladder). Off reproduces the paper's
  /// revert-on-unsat behaviour exactly.
  bool Escalate = true;
};

/// Result of translating a constraint into a bounded theory.
struct TransformResult {
  bool Ok = false;
  std::string FailReason;
  /// Translated assertions, including the inserted overflow guards.
  std::vector<Term> Assertions;
  /// How many leading entries of Assertions are translations of the
  /// input assertions; the remainder are overflow guards. The escalation
  /// driver splits on this to put guards behind selector literals.
  size_t TranslatedCount = 0;
  /// Original variable -> bounded variable.
  std::unordered_map<uint32_t, Term> VariableMap;
  /// Chosen width (Int case) or format (Real case).
  unsigned Width = 0;
  FpFormat Format{0, 0};
  /// Overflow guards kept in Assertions vs. statically discharged.
  unsigned GuardsEmitted = 0;
  unsigned GuardsElided = 0;
  /// Relational facts (octagon atoms) harvested from the original
  /// assertions during the relational elision pass.
  unsigned ZoneFactsHarvested = 0;
  /// Guards discharged by the relational pass specifically (a subset of
  /// GuardsElided: classic interval elision could not prove these).
  unsigned RelationalGuardsElided = 0;
};

/// Translates Int assertions to bitvectors of width \p Width. Fails when
/// a constant does not fit the width or an unsupported operator occurs.
TransformResult transformIntToBv(TermManager &Manager,
                                 const std::vector<Term> &Assertions,
                                 unsigned Width,
                                 const TransformOptions &Options = {});

/// Translates Real assertions to floating point with the given format.
TransformResult transformRealToFp(TermManager &Manager,
                                  const std::vector<Term> &Assertions,
                                  FpFormat Format);

/// Chooses the smallest floating-point format covering magnitude
/// \p MagnitudeBits and precision \p PrecisionBits, optionally rounded up
/// to the standard 16/32/64/128-bit formats (needed when chaining with
/// SLOT, Sec. 5.3).
FpFormat chooseFpFormat(unsigned MagnitudeBits, unsigned PrecisionBits,
                        bool RoundUpToStandard = false);

/// phi^-1: maps a bounded model back to the unbounded theory. Returns
/// false when a value has no preimage (NaN or infinities, Sec. 4.1
/// footnote) — a semantic difference by construction.
bool convertModelBack(const TermManager &Manager,
                      const TransformResult &Transform, const Model &Bounded,
                      Model &Unbounded);

} // namespace staub

#endif // STAUB_STAUB_TRANSFORM_H
