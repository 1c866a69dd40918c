//===- solver/BitBlaster.h - QF_BV to CNF encoding --------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Eager bit-blasting of quantifier-free bitvector terms (plus the boolean
/// skeleton) into CNF for the CDCL core, including the signed-overflow
/// predicates STAUB emits as translation guards. Encodings are the
/// standard circuits: ripple-carry adders, shift-and-add multipliers,
/// restoring dividers, barrel shifters, and mux trees. Encoded nodes are
/// memoized over the term DAG.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SOLVER_BITBLASTER_H
#define STAUB_SOLVER_BITBLASTER_H

#include "smtlib/Term.h"
#include "solver/Sat.h"
#include "theory/Evaluator.h"

#include <unordered_map>
#include <vector>

namespace staub {

/// Encodes terms into an attached SatSolver.
class BitBlaster {
public:
  BitBlaster(const TermManager &Manager, SatSolver &Solver);

  /// Asserts a Bool term at the top level.
  void assertTrue(Term T);

  /// Encodes a Bool term and returns its literal.
  Lit encodeBool(Term T);

  /// After a Sat result, reads back values for \p Variables (Bool or
  /// BitVec variables that occur in encoded terms).
  Model extractModel(const std::vector<Term> &Variables) const;

  /// Memo hits in encodeBool/encodeBv: subterms whose CNF was reused
  /// instead of re-blasted. Across escalation steps this counts the
  /// encoding work the incremental session saved.
  uint64_t cacheHits() const { return CacheHits; }

private:
  const TermManager &Manager;
  SatSolver &Solver;
  Lit TrueLit;
  uint64_t CacheHits = 0;

  std::unordered_map<uint32_t, Lit> BoolCache;
  std::unordered_map<uint32_t, std::vector<Lit>> BvCache;

  Lit falseLit() const { return ~TrueLit; }
  Lit fresh();
  Lit constant(bool Value) { return Value ? TrueLit : falseLit(); }

  // Gate constructors (each may introduce a fresh output literal).
  Lit mkAnd(Lit A, Lit B);
  Lit mkOr(Lit A, Lit B);
  Lit mkXor(Lit A, Lit B);
  Lit mkIte(Lit Cond, Lit Then, Lit Else);
  Lit mkAndMany(const std::vector<Lit> &Inputs);
  Lit mkOrMany(const std::vector<Lit> &Inputs);

  // Word-level helpers over LSB-first literal vectors.
  using Word = std::vector<Lit>;
  Word encodeBv(Term T);
  Word addWords(const Word &A, const Word &B, Lit CarryIn, Lit *CarryOut);
  Word negWord(const Word &A);
  Word mulWords(const Word &A, const Word &B);
  Word udivWords(const Word &A, const Word &B, Word *Remainder);
  Word shiftWord(const Word &A, const Word &Amount, Kind ShiftKind);
  Word muxWord(Lit Cond, const Word &Then, const Word &Else);
  Lit equalWords(const Word &A, const Word &B);
  Lit ultWords(const Word &A, const Word &B); ///< A < B unsigned.
  Lit sltWords(const Word &A, const Word &B); ///< A < B signed.
  Lit isZero(const Word &A);
  Word sextWord(const Word &A, unsigned NewWidth);
  Word zextWord(const Word &A, unsigned NewWidth);
};

} // namespace staub

#endif // STAUB_SOLVER_BITBLASTER_H
