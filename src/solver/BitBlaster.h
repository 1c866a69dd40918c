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
/// Adders and comparisons are built from two 3-input gates:
/// - A full-adder bit is one XOR3 gate (the sum, 8 clauses) and one
///   majority gate (the carry, 6 clauses): 2 SAT variables and 14 clauses,
///   where five 2-input gates took 5 variables and 17 clauses.
/// - `ultWords` (A < B unsigned) is the borrow chain of A - B alone, one
///   majority gate per bit: 1 variable and 6 clauses, with no difference
///   bit built. `bvule`/`bvuge`/`bvugt`, the signed comparisons and the
///   dividers' compare all use it.
/// A constant or repeated gate input folds through the 2-input gates: a
/// carry-in of 0 leaves an AND, a carry-in of 1 an OR.
///
/// The overflow guards add O(1) or O(W) gates to the operation they guard:
/// - `bvsaddo`/`bvssubo` are an O(1) sign test on the sum: the operands'
///   effective signs agree (the subtrahend's is flipped) and the sum's
///   sign differs from them.
/// - `bvsmulo` is the O(W) test of Gök, Schulte and Balzola ("Efficient
///   integer multiplication overflow detection circuits", ARITH 2001).
///   With k(x) the number of x's magnitude bits (W-1 minus its redundant
///   sign bits), a*b overflows when k(a)+k(b) >= W+1, and otherwise iff
///   bits W and W-1 of the (W+1)-bit product differ. Bit W is column W's
///   partial products XOR every multiplier row's carry out of column W-1.
///
/// Reuse invariant: a guard and the operation it guards share the ordered
/// operand pair (`Transform.cpp::foldGuarded` and `WidthReduction.cpp`
/// emit them so). The sum or product, and the multiplier's row carries,
/// are blasted once per (operation, operands) key, by whichever of the two
/// is encoded first; the other reads them back.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_SOLVER_BITBLASTER_H
#define STAUB_SOLVER_BITBLASTER_H

#include "smtlib/Term.h"
#include "solver/Sat.h"
#include "theory/Evaluator.h"

#include <map>
#include <tuple>
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
  /// instead of re-blasted.
  uint64_t cacheHits() const { return CacheHits; }

private:
  // Word-level values are LSB-first literal vectors.
  using Word = std::vector<Lit>;

  /// A binary bvadd, bvsub or bvmul as its overflow guard needs it.
  struct GuardedCircuit {
    Word Result;
    Word RowCarries; ///< bvmul only: each row's carry out of column W-1.
  };

  const TermManager &Manager;
  SatSolver &Solver;
  Lit TrueLit;
  uint64_t CacheHits = 0;

  std::unordered_map<uint32_t, Lit> BoolCache;
  std::unordered_map<uint32_t, Word> BvCache;
  /// Keyed on (operation kind, first operand id, second operand id).
  std::map<std::tuple<Kind, uint32_t, uint32_t>, GuardedCircuit> GuardedCache;

  Lit falseLit() const { return ~TrueLit; }
  Lit fresh();
  Lit constant(bool Value) { return Value ? TrueLit : falseLit(); }

  // Gate constructors (each may introduce a fresh output literal).
  Lit mkAnd(Lit A, Lit B);
  Lit mkOr(Lit A, Lit B);
  Lit mkXor(Lit A, Lit B);
  Lit mkXor3(Lit A, Lit B, Lit C);
  Lit mkMaj(Lit A, Lit B, Lit C); ///< At least two of A, B, C.
  Lit mkIte(Lit Cond, Lit Then, Lit Else);
  Lit mkAndMany(const std::vector<Lit> &Inputs);
  Lit mkOrMany(const std::vector<Lit> &Inputs);

  Word encodeBv(Term T);
  /// The circuit of \p OpKind over the operand terms (\p TA, \p TB) with
  /// encodings \p A and \p B, blasted on first use.
  const GuardedCircuit &guardedCircuit(Kind OpKind, Term TA, Term TB,
                                       const Word &A, const Word &B);
  /// A + B, A - B or A * B for \p OpKind BvAdd, BvSub or BvMul.
  Word arithWords(Kind OpKind, const Word &A, const Word &B,
                  Word *RowCarries);
  Word addWords(const Word &A, const Word &B, Lit CarryIn, Lit *CarryOut);
  Word notWord(const Word &A);
  Word negWord(const Word &A);
  Word mulWords(const Word &A, const Word &B, Word *RowCarries);
  Word udivWords(const Word &A, const Word &B, Word *Remainder);
  Word shiftWord(const Word &A, const Word &Amount, Kind ShiftKind);
  Word muxWord(Lit Cond, const Word &Then, const Word &Else);
  Lit equalWords(const Word &A, const Word &B);
  Lit ultWords(const Word &A, const Word &B); ///< A < B unsigned.
  Lit sltWords(const Word &A, const Word &B); ///< A < B signed.
  Lit isZero(const Word &A);
  /// bvsmulo(A, B), given \p Product, the multiplier of A and B.
  Lit mulOverflow(const Word &A, const Word &B, const GuardedCircuit &Product);
  Word sextWord(const Word &A, unsigned NewWidth);
  Word zextWord(const Word &A, unsigned NewWidth);
};

} // namespace staub

#endif // STAUB_SOLVER_BITBLASTER_H
