//===- analysis/Lint.h - Static soundness checks ----------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// staub-lint: static verification of translated (bounded) output,
/// without solving. Checks, per the translation contract of Sec. 4.3:
///
///  * guard discipline — every overflow-capable bitvector operation
///    (bvneg, bvadd, bvsub, bvmul, bvsdiv; bvsrem is exempt by the
///    translator's contract since remainders cannot overflow) either has
///    a matching `(not (bvXop ...))` guard assertion or is statically
///    proven overflow-free by the interval engine. Because guard elision
///    uses the *same* engine and the same overflowImpossible() predicate,
///    any guard the translator kept is unprovable, so output mutated with
///    --inject=drop-guards always trips this check;
///  * well-sortedness of the whole DAG — operator/operand sort agreement,
///    bitvector constant widths, and FP constant payload formats agreeing
///    with their sorts (the exact bug class PR 2's fuzzer caught
///    dynamically);
///  * guard sanity — guards referencing no existing operation (orphans)
///    and guards that provably never fire (overflowImpossible() holds) or
///    always fire (it fails on point operand intervals, where it is
///    exact) are reported as warnings;
///  * phi^-1 totality — every unbounded variable of the original
///    constraint has a bounded image in the variable map.
///
/// Errors are soundness-contract violations; warnings are suspicious but
/// legal. `clean()` considers errors only.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_ANALYSIS_LINT_H
#define STAUB_ANALYSIS_LINT_H

#include "smtlib/Term.h"

#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

namespace staub::analysis {

enum class LintSeverity { Error, Warning };

/// One lint diagnostic.
struct LintFinding {
  LintSeverity Severity = LintSeverity::Error;
  /// Stable check identifier: "unguarded-overflow", "sort-mismatch",
  /// "non-boolean-assertion", "map-totality", "orphan-guard",
  /// "contradictory-guard", "redundant-guard".
  std::string Check;
  std::string Detail;
  Term Offender; ///< May be invalid for non-structural findings.
};

struct LintReport {
  std::vector<LintFinding> Findings;

  /// True when no *errors* were found (warnings allowed).
  bool clean() const;
  unsigned errorCount() const;
  /// Multi-line human-readable rendering ("" when empty).
  std::string toString() const;
};

struct LintOptions {
  /// Enforce guard discipline. On for translator output; off for foreign
  /// bounded scripts, which carry no guard contract.
  bool RequireGuards = true;
};

/// Key identifying a guard: predicate kind plus operand term ids
/// (normalized for the commutative BvSAddO/BvSMulO; B is UINT32_MAX for
/// the unary BvNegO).
using GuardKey = std::tuple<uint8_t, uint32_t, uint32_t>;

GuardKey makeGuardKey(Kind Predicate, uint32_t A, uint32_t B);

/// Lints a bounded assertion set structurally (well-sortedness, guard
/// discipline and guard sanity per \p Options).
LintReport lintBounded(const TermManager &Manager,
                       const std::vector<Term> &Assertions,
                       const LintOptions &Options = {});

/// Lints a completed translation: everything lintBounded() checks, plus
/// phi^-1 totality of \p VariableMap against the unbounded variables of
/// \p OriginalAssertions.
LintReport
lintTranslation(const TermManager &Manager,
                const std::vector<Term> &OriginalAssertions,
                const std::vector<Term> &BoundedAssertions,
                const std::unordered_map<uint32_t, Term> &VariableMap,
                const LintOptions &Options = {});

} // namespace staub::analysis

#endif // STAUB_ANALYSIS_LINT_H
