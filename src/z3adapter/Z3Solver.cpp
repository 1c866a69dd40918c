//===- z3adapter/Z3Solver.cpp - Z3 backend --------------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "z3adapter/Z3Solver.h"

#include "support/Timer.h"

#include <z3.h>

#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <unordered_map>

using namespace staub;

namespace {

/// RAII Z3 context with reference-counted ASTs disabled (we use the
/// default scoped lifetime: everything dies with the context).
class Z3Context {
public:
  explicit Z3Context(unsigned TimeoutMs = 0) {
    Z3_config Config = Z3_mk_config();
    // Context-level timeout: more reliable than the per-solver parameter
    // for some tactics; the watchdog in solve() is the backstop.
    if (TimeoutMs)
      Z3_set_param_value(Config, "timeout",
                         std::to_string(TimeoutMs).c_str());
    Context = Z3_mk_context(Config);
    Z3_del_config(Config);
    // Errors must not longjmp/abort; record and continue.
    Z3_set_error_handler(Context, [](Z3_context, Z3_error_code) {});
  }
  ~Z3Context() { Z3_del_context(Context); }
  Z3Context(const Z3Context &) = delete;
  Z3Context &operator=(const Z3Context &) = delete;

  operator Z3_context() const { return Context; }

  bool hasError() const {
    return Z3_get_error_code(Context) != Z3_OK;
  }

private:
  Z3_context Context;
};

/// Converts our term DAG into Z3 ASTs (memoized).
class TermToZ3 {
public:
  TermToZ3(const TermManager &Manager, Z3_context Ctx)
      : Manager(Manager), Ctx(Ctx) {}

  Z3_ast convert(Term T);
  Z3_sort convertSort(Sort S);

private:
  const TermManager &Manager;
  Z3_context Ctx;
  std::unordered_map<uint32_t, Z3_ast> Cache;

  Z3_ast mkRne() { return Z3_mk_fpa_round_nearest_ties_to_even(Ctx); }
  Z3_ast fold(Z3_ast (*Fn)(Z3_context, Z3_ast, Z3_ast),
              const std::vector<Z3_ast> &Args) {
    Z3_ast Acc = Args[0];
    for (size_t I = 1; I < Args.size(); ++I)
      Acc = Fn(Ctx, Acc, Args[I]);
    return Acc;
  }
};

Z3_sort TermToZ3::convertSort(Sort S) {
  switch (S.kind()) {
  case SortKind::Bool:
    return Z3_mk_bool_sort(Ctx);
  case SortKind::Int:
    return Z3_mk_int_sort(Ctx);
  case SortKind::Real:
    return Z3_mk_real_sort(Ctx);
  case SortKind::BitVec:
    return Z3_mk_bv_sort(Ctx, S.bitVecWidth());
  case SortKind::FloatingPoint: {
    FpFormat Format = S.fpFormat();
    return Z3_mk_fpa_sort(Ctx, Format.ExponentBits, Format.SignificandBits);
  }
  }
  return Z3_mk_bool_sort(Ctx);
}

Z3_ast TermToZ3::convert(Term T) {
  auto Found = Cache.find(T.id());
  if (Found != Cache.end())
    return Found->second;

  Kind K = Manager.kind(T);
  std::vector<Z3_ast> Args;
  for (Term Child : Manager.children(T))
    Args.push_back(convert(Child));

  Z3_ast Result = nullptr;
  switch (K) {
  case Kind::ConstBool:
    Result = Manager.boolValue(T) ? Z3_mk_true(Ctx) : Z3_mk_false(Ctx);
    break;
  case Kind::ConstInt:
    Result = Z3_mk_numeral(Ctx, Manager.intValue(T).toString().c_str(),
                           Z3_mk_int_sort(Ctx));
    break;
  case Kind::ConstReal: {
    const Rational &V = Manager.realValue(T);
    Z3_sort RealSort = Z3_mk_real_sort(Ctx);
    Z3_ast Num =
        Z3_mk_numeral(Ctx, V.numerator().toString().c_str(), RealSort);
    if (V.isInteger()) {
      Result = Num;
      break;
    }
    Z3_ast Den =
        Z3_mk_numeral(Ctx, V.denominator().toString().c_str(), RealSort);
    Result = Z3_mk_div(Ctx, Num, Den);
    break;
  }
  case Kind::ConstBitVec: {
    const BitVecValue &V = Manager.bitVecValue(T);
    Result = Z3_mk_numeral(Ctx, V.toUnsigned().toString().c_str(),
                           Z3_mk_bv_sort(Ctx, V.width()));
    break;
  }
  case Kind::ConstFp: {
    const SoftFloat &V = Manager.fpValue(T);
    BitVecValue Bits = V.toBits();
    Z3_ast BvAst = Z3_mk_numeral(Ctx, Bits.toUnsigned().toString().c_str(),
                                 Z3_mk_bv_sort(Ctx, Bits.width()));
    Result = Z3_mk_fpa_to_fp_bv(Ctx, BvAst,
                                convertSort(Sort::floatingPoint(V.format())));
    break;
  }
  case Kind::Variable: {
    Z3_symbol Symbol =
        Z3_mk_string_symbol(Ctx, Manager.variableName(T).c_str());
    Result = Z3_mk_const(Ctx, Symbol, convertSort(Manager.sort(T)));
    break;
  }
  case Kind::Not:
    Result = Z3_mk_not(Ctx, Args[0]);
    break;
  case Kind::And:
    Result = Z3_mk_and(Ctx, static_cast<unsigned>(Args.size()), Args.data());
    break;
  case Kind::Or:
    Result = Z3_mk_or(Ctx, static_cast<unsigned>(Args.size()), Args.data());
    break;
  case Kind::Xor:
    Result = Z3_mk_xor(Ctx, Args[0], Args[1]);
    break;
  case Kind::Implies:
    Result = Z3_mk_implies(Ctx, Args[0], Args[1]);
    break;
  case Kind::Ite:
    Result = Z3_mk_ite(Ctx, Args[0], Args[1], Args[2]);
    break;
  case Kind::Eq:
    Result = Z3_mk_eq(Ctx, Args[0], Args[1]);
    break;
  case Kind::Distinct:
    Result =
        Z3_mk_distinct(Ctx, static_cast<unsigned>(Args.size()), Args.data());
    break;
  case Kind::Neg:
    Result = Z3_mk_unary_minus(Ctx, Args[0]);
    break;
  case Kind::Add:
    Result = Z3_mk_add(Ctx, static_cast<unsigned>(Args.size()), Args.data());
    break;
  case Kind::Sub:
    Result = Z3_mk_sub(Ctx, static_cast<unsigned>(Args.size()), Args.data());
    break;
  case Kind::Mul:
    Result = Z3_mk_mul(Ctx, static_cast<unsigned>(Args.size()), Args.data());
    break;
  case Kind::IntDiv:
    Result = Z3_mk_div(Ctx, Args[0], Args[1]);
    break;
  case Kind::IntMod:
    Result = Z3_mk_mod(Ctx, Args[0], Args[1]);
    break;
  case Kind::IntAbs: {
    // No Z3 C API for abs: encode ite(x >= 0, x, -x).
    Z3_ast Zero = Z3_mk_numeral(Ctx, "0", Z3_mk_int_sort(Ctx));
    Z3_ast NonNeg = Z3_mk_ge(Ctx, Args[0], Zero);
    Result = Z3_mk_ite(Ctx, NonNeg, Args[0], Z3_mk_unary_minus(Ctx, Args[0]));
    break;
  }
  case Kind::RealDiv:
    Result = Z3_mk_div(Ctx, Args[0], Args[1]);
    break;
  case Kind::Le:
    Result = Z3_mk_le(Ctx, Args[0], Args[1]);
    break;
  case Kind::Lt:
    Result = Z3_mk_lt(Ctx, Args[0], Args[1]);
    break;
  case Kind::Ge:
    Result = Z3_mk_ge(Ctx, Args[0], Args[1]);
    break;
  case Kind::Gt:
    Result = Z3_mk_gt(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvNeg:
    Result = Z3_mk_bvneg(Ctx, Args[0]);
    break;
  case Kind::BvNot:
    Result = Z3_mk_bvnot(Ctx, Args[0]);
    break;
  case Kind::BvAdd:
    Result = fold(Z3_mk_bvadd, Args);
    break;
  case Kind::BvSub:
    Result = fold(Z3_mk_bvsub, Args);
    break;
  case Kind::BvMul:
    Result = fold(Z3_mk_bvmul, Args);
    break;
  case Kind::BvAnd:
    Result = fold(Z3_mk_bvand, Args);
    break;
  case Kind::BvOr:
    Result = fold(Z3_mk_bvor, Args);
    break;
  case Kind::BvXor:
    Result = fold(Z3_mk_bvxor, Args);
    break;
  case Kind::BvSDiv:
    Result = Z3_mk_bvsdiv(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvSRem:
    Result = Z3_mk_bvsrem(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvUDiv:
    Result = Z3_mk_bvudiv(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvURem:
    Result = Z3_mk_bvurem(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvShl:
    Result = Z3_mk_bvshl(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvLshr:
    Result = Z3_mk_bvlshr(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvAshr:
    Result = Z3_mk_bvashr(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvUle:
    Result = Z3_mk_bvule(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvUlt:
    Result = Z3_mk_bvult(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvUge:
    Result = Z3_mk_bvuge(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvUgt:
    Result = Z3_mk_bvugt(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvSle:
    Result = Z3_mk_bvsle(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvSlt:
    Result = Z3_mk_bvslt(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvSge:
    Result = Z3_mk_bvsge(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvSgt:
    Result = Z3_mk_bvsgt(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvConcat:
    Result = Z3_mk_concat(Ctx, Args[0], Args[1]);
    break;
  case Kind::BvExtract:
    Result = Z3_mk_extract(Ctx, Manager.paramA(T), Manager.paramB(T), Args[0]);
    break;
  case Kind::BvZeroExtend:
    Result = Z3_mk_zero_ext(Ctx, Manager.paramA(T), Args[0]);
    break;
  case Kind::BvSignExtend:
    Result = Z3_mk_sign_ext(Ctx, Manager.paramA(T), Args[0]);
    break;
  case Kind::BvNegO:
    Result = Z3_mk_not(Ctx, Z3_mk_bvneg_no_overflow(Ctx, Args[0]));
    break;
  case Kind::BvSAddO: {
    Z3_ast NoOver = Z3_mk_bvadd_no_overflow(Ctx, Args[0], Args[1], true);
    Z3_ast NoUnder = Z3_mk_bvadd_no_underflow(Ctx, Args[0], Args[1]);
    Z3_ast Both[2] = {NoOver, NoUnder};
    Result = Z3_mk_not(Ctx, Z3_mk_and(Ctx, 2, Both));
    break;
  }
  case Kind::BvSSubO: {
    Z3_ast NoOver = Z3_mk_bvsub_no_overflow(Ctx, Args[0], Args[1]);
    Z3_ast NoUnder = Z3_mk_bvsub_no_underflow(Ctx, Args[0], Args[1], true);
    Z3_ast Both[2] = {NoOver, NoUnder};
    Result = Z3_mk_not(Ctx, Z3_mk_and(Ctx, 2, Both));
    break;
  }
  case Kind::BvSMulO: {
    // Z3_mk_bvmul_no_overflow is WRONG in this Z3 build (4.8.12): an
    // exhaustive 6-bit sweep showed 2033/4096 incorrect verdicts (every
    // other helper was exact), and a satisfiable guarded constraint was
    // decided unsat through it. Encode the predicate explicitly by
    // widening to 2w: the product fits iff sign-extending its low w bits
    // reproduces the exact 2w-bit product. Underflow is covered by the
    // same equation, so the (correct) native no_underflow is not needed.
    unsigned Width = Manager.sort(Manager.child(T, 0)).bitVecWidth();
    Z3_ast A = Z3_mk_sign_ext(Ctx, Width, Args[0]);
    Z3_ast B = Z3_mk_sign_ext(Ctx, Width, Args[1]);
    Z3_ast Exact = Z3_mk_bvmul(Ctx, A, B);
    Z3_ast Low = Z3_mk_extract(Ctx, Width - 1, 0, Exact);
    Result = Z3_mk_not(Ctx, Z3_mk_eq(Ctx, Z3_mk_sign_ext(Ctx, Width, Low),
                                     Exact));
    break;
  }
  case Kind::BvSDivO:
    Result = Z3_mk_not(Ctx, Z3_mk_bvsdiv_no_overflow(Ctx, Args[0], Args[1]));
    break;
  case Kind::FpNeg:
    Result = Z3_mk_fpa_neg(Ctx, Args[0]);
    break;
  case Kind::FpAbs:
    Result = Z3_mk_fpa_abs(Ctx, Args[0]);
    break;
  case Kind::FpAdd:
    Result = Z3_mk_fpa_add(Ctx, mkRne(), Args[0], Args[1]);
    break;
  case Kind::FpSub:
    Result = Z3_mk_fpa_sub(Ctx, mkRne(), Args[0], Args[1]);
    break;
  case Kind::FpMul:
    Result = Z3_mk_fpa_mul(Ctx, mkRne(), Args[0], Args[1]);
    break;
  case Kind::FpDiv:
    Result = Z3_mk_fpa_div(Ctx, mkRne(), Args[0], Args[1]);
    break;
  case Kind::FpLeq:
    Result = Z3_mk_fpa_leq(Ctx, Args[0], Args[1]);
    break;
  case Kind::FpLt:
    Result = Z3_mk_fpa_lt(Ctx, Args[0], Args[1]);
    break;
  case Kind::FpGeq:
    Result = Z3_mk_fpa_geq(Ctx, Args[0], Args[1]);
    break;
  case Kind::FpGt:
    Result = Z3_mk_fpa_gt(Ctx, Args[0], Args[1]);
    break;
  case Kind::FpEq:
    Result = Z3_mk_fpa_eq(Ctx, Args[0], Args[1]);
    break;
  case Kind::FpIsNaN:
    Result = Z3_mk_fpa_is_nan(Ctx, Args[0]);
    break;
  case Kind::FpIsInf:
    Result = Z3_mk_fpa_is_infinite(Ctx, Args[0]);
    break;
  case Kind::FpIsZero:
    Result = Z3_mk_fpa_is_zero(Ctx, Args[0]);
    break;
  }
  assert(Result && "unhandled kind in Z3 conversion");
  Cache.emplace(T.id(), Result);
  return Result;
}

/// Reads a model value for \p Var back into our Value representation.
/// Returns false when the value cannot be represented (e.g. algebraic
/// irrationals from NRA models).
bool readModelValue(Z3_context Ctx, Z3_model Model, Z3_ast VarAst, Sort S,
                    Value &Out) {
  Z3_ast ValueAst = nullptr;
  if (!Z3_model_eval(Ctx, Model, VarAst, /*model_completion=*/true,
                     &ValueAst))
    return false;

  switch (S.kind()) {
  case SortKind::Bool: {
    Z3_lbool B = Z3_get_bool_value(Ctx, ValueAst);
    if (B == Z3_L_UNDEF)
      return false;
    Out = Value(B == Z3_L_TRUE);
    return true;
  }
  case SortKind::Int: {
    if (Z3_get_ast_kind(Ctx, ValueAst) != Z3_NUMERAL_AST)
      return false;
    auto Parsed = BigInt::fromString(Z3_get_numeral_string(Ctx, ValueAst));
    if (!Parsed)
      return false;
    Out = Value(*Parsed);
    return true;
  }
  case SortKind::Real: {
    if (Z3_get_ast_kind(Ctx, ValueAst) != Z3_NUMERAL_AST)
      return false;
    auto Parsed = Rational::fromString(Z3_get_numeral_string(Ctx, ValueAst));
    if (!Parsed)
      return false;
    Out = Value(*Parsed);
    return true;
  }
  case SortKind::BitVec: {
    if (Z3_get_ast_kind(Ctx, ValueAst) != Z3_NUMERAL_AST)
      return false;
    auto Parsed = BigInt::fromString(Z3_get_numeral_string(Ctx, ValueAst));
    if (!Parsed)
      return false;
    Out = Value(BitVecValue(S.bitVecWidth(), *Parsed));
    return true;
  }
  case SortKind::FloatingPoint: {
    FpFormat Format = S.fpFormat();
    // NaN has no defined IEEE pattern via to_ieee_bv; detect it first.
    if (Z3_fpa_is_numeral_nan(Ctx, ValueAst)) {
      Out = Value(SoftFloat::nan(Format));
      return true;
    }
    Z3_ast IeeeBv = Z3_mk_fpa_to_ieee_bv(Ctx, ValueAst);
    Z3_ast Simplified = Z3_simplify(Ctx, IeeeBv);
    if (Z3_get_ast_kind(Ctx, Simplified) != Z3_NUMERAL_AST)
      return false;
    auto Parsed = BigInt::fromString(Z3_get_numeral_string(Ctx, Simplified));
    if (!Parsed)
      return false;
    Out = Value(SoftFloat::fromBits(
        Format, BitVecValue(Format.totalBits(), *Parsed)));
    return true;
  }
  }
  return false;
}

class Z3SolverBackend : public SolverBackend {
public:
  SolveResult solve(TermManager &Manager, const std::vector<Term> &Assertions,
                    const SolverOptions &Options) override {
    WallTimer Timer;
    SolveResult Result;
    // Clamped: past UINT_MAX ms (49.7 days) the cast would be undefined.
    unsigned TimeoutMs = static_cast<unsigned>(
        std::min(std::max(1.0, Options.TimeoutSeconds * 1000.0),
                 double(std::numeric_limits<unsigned>::max())));
    Z3Context Ctx(TimeoutMs);
    Z3_solver Solver = Z3_mk_solver(Ctx);
    Z3_solver_inc_ref(Ctx, Solver);

    Z3_params Params = Z3_mk_params(Ctx);
    Z3_params_inc_ref(Ctx, Params);
    Z3_params_set_uint(Ctx, Params,
                       Z3_mk_string_symbol(Ctx, "timeout"), TimeoutMs);
    Z3_solver_set_params(Ctx, Solver, Params);

    TermToZ3 Converter(Manager, Ctx);
    for (Term Assertion : Assertions)
      Z3_solver_assert(Ctx, Solver, Converter.convert(Assertion));

    if (Ctx.hasError()) {
      Z3_params_dec_ref(Ctx, Params);
      Z3_solver_dec_ref(Ctx, Solver);
      Result.TimeSeconds = Timer.elapsedSeconds();
      return Result; // Unknown.
    }

    // Watchdog: some tactics in this Z3 build ignore the soft timeout;
    // interrupt the solver once the deadline passes or the caller's
    // cancellation token fires.
    std::atomic<bool> CheckDone{false};
    std::thread Watchdog([&] {
      double Deadline = Options.TimeoutSeconds;
      WallTimer WatchTimer;
      while (!CheckDone.load(std::memory_order_acquire)) {
        if (WatchTimer.elapsedSeconds() > Deadline + 0.05 ||
            stopRequested(Options.Cancel)) {
          Z3_solver_interrupt(Ctx, Solver);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });

    Z3_lbool Status = Z3_solver_check(Ctx, Solver);
    CheckDone.store(true, std::memory_order_release);
    Watchdog.join();
    if (Status == Z3_L_TRUE) {
      Result.Status = SolveStatus::Sat;
      Z3_model Model = Z3_solver_get_model(Ctx, Solver);
      Z3_model_inc_ref(Ctx, Model);
      Term Conjunction = Manager.mkAnd(Assertions);
      for (Term Var : Manager.collectVariables(Conjunction)) {
        Value V;
        if (readModelValue(Ctx, Model, Converter.convert(Var),
                           Manager.sort(Var), V))
          Result.TheModel.set(Var, V);
      }
      Z3_model_dec_ref(Ctx, Model);
    } else if (Status == Z3_L_FALSE) {
      Result.Status = SolveStatus::Unsat;
    }

    Z3_params_dec_ref(Ctx, Params);
    Z3_solver_dec_ref(Ctx, Solver);
    Result.TimeSeconds = Timer.elapsedSeconds();
    return Result;
  }

  std::string_view name() const override { return "z3"; }
};

} // namespace

std::unique_ptr<SolverBackend> staub::createZ3Solver() {
  return std::make_unique<Z3SolverBackend>();
}

std::string staub::z3VersionString() {
  unsigned Major, Minor, Build, Revision;
  Z3_get_version(&Major, &Minor, &Build, &Revision);
  return std::to_string(Major) + "." + std::to_string(Minor) + "." +
         std::to_string(Build);
}
