//===- smtlib/Parser.cpp - SMT-LIB parser ---------------------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//

#include "smtlib/Parser.h"

#include "smtlib/Lexer.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

using namespace staub;

namespace {

/// Maps operator spellings to kinds. Covers the paper's fragment: core,
/// integer/real arithmetic, bitvectors with overflow predicates, and
/// floating point.
const std::unordered_map<std::string_view, Kind> &operatorTable() {
  static const std::unordered_map<std::string_view, Kind> Table = {
      {"not", Kind::Not},
      {"and", Kind::And},
      {"or", Kind::Or},
      {"xor", Kind::Xor},
      {"=>", Kind::Implies},
      {"ite", Kind::Ite},
      {"=", Kind::Eq},
      {"distinct", Kind::Distinct},
      {"+", Kind::Add},
      {"-", Kind::Sub}, // mkSub handles the unary case as negation.
      {"*", Kind::Mul},
      {"div", Kind::IntDiv},
      {"mod", Kind::IntMod},
      {"abs", Kind::IntAbs},
      {"/", Kind::RealDiv},
      {"<=", Kind::Le},
      {"<", Kind::Lt},
      {">=", Kind::Ge},
      {">", Kind::Gt},
      {"bvneg", Kind::BvNeg},
      {"bvadd", Kind::BvAdd},
      {"bvsub", Kind::BvSub},
      {"bvmul", Kind::BvMul},
      {"bvsdiv", Kind::BvSDiv},
      {"bvsrem", Kind::BvSRem},
      {"bvudiv", Kind::BvUDiv},
      {"bvurem", Kind::BvURem},
      {"bvand", Kind::BvAnd},
      {"bvor", Kind::BvOr},
      {"bvxor", Kind::BvXor},
      {"bvnot", Kind::BvNot},
      {"bvshl", Kind::BvShl},
      {"bvlshr", Kind::BvLshr},
      {"bvashr", Kind::BvAshr},
      {"bvule", Kind::BvUle},
      {"bvult", Kind::BvUlt},
      {"bvuge", Kind::BvUge},
      {"bvugt", Kind::BvUgt},
      {"bvsle", Kind::BvSle},
      {"bvslt", Kind::BvSlt},
      {"bvsge", Kind::BvSge},
      {"bvsgt", Kind::BvSgt},
      {"concat", Kind::BvConcat},
      {"bvnego", Kind::BvNegO},
      {"bvsaddo", Kind::BvSAddO},
      {"bvssubo", Kind::BvSSubO},
      {"bvsmulo", Kind::BvSMulO},
      {"bvsdivo", Kind::BvSDivO},
      {"fp.neg", Kind::FpNeg},
      {"fp.abs", Kind::FpAbs},
      {"fp.add", Kind::FpAdd},
      {"fp.sub", Kind::FpSub},
      {"fp.mul", Kind::FpMul},
      {"fp.div", Kind::FpDiv},
      {"fp.leq", Kind::FpLeq},
      {"fp.lt", Kind::FpLt},
      {"fp.geq", Kind::FpGeq},
      {"fp.gt", Kind::FpGt},
      {"fp.eq", Kind::FpEq},
      {"fp.isNaN", Kind::FpIsNaN},
      {"fp.isInfinite", Kind::FpIsInf},
      {"fp.isZero", Kind::FpIsZero},
  };
  return Table;
}

/// True for the FP operators whose first SMT-LIB argument is a rounding
/// mode (we support RNE only).
bool takesRoundingMode(Kind K) {
  switch (K) {
  case Kind::FpAdd:
  case Kind::FpSub:
  case Kind::FpMul:
  case Kind::FpDiv:
    return true;
  default:
    return false;
  }
}

class ParserImpl {
public:
  ParserImpl(TermManager &Manager, std::string_view Input)
      : Manager(Manager), Lex(Input) {}

  ParseResult run();

private:
  TermManager &Manager;
  Lexer Lex;
  std::string Error;
  Script Result;
  /// Scoped bindings from `let` and zero-ary `define-fun`.
  std::unordered_map<std::string, std::vector<Term>> Bindings;

  bool ok() const { return Error.empty(); }
  Term fail(const std::string &Message, size_t Line) {
    if (Error.empty())
      Error = "line " + std::to_string(Line) + ": " + Message;
    return Term();
  }

  bool expect(TokenKind Kind, const char *What);
  void skipBalanced();

  bool parseCommand(); ///< Returns false at end of input.
  std::optional<Sort> parseSort();
  Term parseTerm();
  Term parseParenTerm(size_t Line);
  Term parseIndexedLeaf(size_t Line);
  Term applyOperator(const std::string &Name, size_t Line);
  std::optional<BitVecValue> parseBitVecLiteralToken(const Token &Tok);
  void coerceIntConstantsToReal(std::vector<Term> &Args);
};

bool ParserImpl::expect(TokenKind Kind, const char *What) {
  Token Tok = Lex.next();
  if (Tok.Kind != Kind) {
    fail(std::string("expected ") + What + ", found '" + Tok.Text + "'",
         Tok.Line);
    return false;
  }
  return true;
}

void ParserImpl::skipBalanced() {
  int Depth = 1;
  while (Depth > 0) {
    Token Tok = Lex.next();
    if (Tok.Kind == TokenKind::EndOfInput || Tok.Kind == TokenKind::Error) {
      fail("unbalanced parentheses", Tok.Line);
      return;
    }
    if (Tok.Kind == TokenKind::LParen)
      ++Depth;
    else if (Tok.Kind == TokenKind::RParen)
      --Depth;
  }
}

std::optional<Sort> ParserImpl::parseSort() {
  Token Tok = Lex.next();
  if (Tok.Kind == TokenKind::Symbol) {
    if (Tok.Text == "Bool")
      return Sort::boolean();
    if (Tok.Text == "Int")
      return Sort::integer();
    if (Tok.Text == "Real")
      return Sort::real();
    if (Tok.Text == "Float16")
      return Sort::floatingPoint(FpFormat::float16());
    if (Tok.Text == "Float32")
      return Sort::floatingPoint(FpFormat::float32());
    if (Tok.Text == "Float64")
      return Sort::floatingPoint(FpFormat::float64());
    if (Tok.Text == "Float128")
      return Sort::floatingPoint(FpFormat::float128());
    fail("unknown sort '" + Tok.Text + "'", Tok.Line);
    return std::nullopt;
  }
  if (Tok.Kind != TokenKind::LParen) {
    fail("expected a sort", Tok.Line);
    return std::nullopt;
  }
  Token Underscore = Lex.next();
  if (Underscore.Kind != TokenKind::Symbol || Underscore.Text != "_") {
    fail("expected '_' in parameterized sort", Underscore.Line);
    return std::nullopt;
  }
  Token Name = Lex.next();
  if (Name.Kind != TokenKind::Symbol) {
    fail("expected sort constructor name", Name.Line);
    return std::nullopt;
  }
  if (Name.Text == "BitVec") {
    Token Width = Lex.next();
    if (Width.Kind != TokenKind::Numeral) {
      fail("expected bitvector width", Width.Line);
      return std::nullopt;
    }
    if (!expect(TokenKind::RParen, "')'"))
      return std::nullopt;
    unsigned W = static_cast<unsigned>(std::stoul(Width.Text));
    if (W == 0) {
      fail("bitvector width must be positive", Width.Line);
      return std::nullopt;
    }
    return Sort::bitVec(W);
  }
  if (Name.Text == "FloatingPoint") {
    Token Eb = Lex.next();
    Token Sb = Lex.next();
    if (Eb.Kind != TokenKind::Numeral || Sb.Kind != TokenKind::Numeral) {
      fail("expected floating-point widths", Name.Line);
      return std::nullopt;
    }
    if (!expect(TokenKind::RParen, "')'"))
      return std::nullopt;
    unsigned EbVal = static_cast<unsigned>(std::stoul(Eb.Text));
    unsigned SbVal = static_cast<unsigned>(std::stoul(Sb.Text));
    if (EbVal < 2 || SbVal < 2) {
      fail("floating-point widths must be at least 2", Name.Line);
      return std::nullopt;
    }
    return Sort::floatingPoint({EbVal, SbVal});
  }
  fail("unknown parameterized sort '" + Name.Text + "'", Name.Line);
  return std::nullopt;
}

std::optional<BitVecValue>
ParserImpl::parseBitVecLiteralToken(const Token &Tok) {
  if (Tok.Kind == TokenKind::Binary) {
    BigInt Value;
    for (char C : Tok.Text)
      Value = Value.shl(1) + BigInt(C == '1' ? 1 : 0);
    return BitVecValue(static_cast<unsigned>(Tok.Text.size()), Value);
  }
  if (Tok.Kind == TokenKind::Hex) {
    BigInt Value;
    for (char C : Tok.Text) {
      int Digit = C <= '9' ? C - '0'
                           : (C <= 'F' ? C - 'A' + 10 : C - 'a' + 10);
      Value = Value.shl(4) + BigInt(Digit);
    }
    return BitVecValue(static_cast<unsigned>(Tok.Text.size() * 4), Value);
  }
  return std::nullopt;
}

void ParserImpl::coerceIntConstantsToReal(std::vector<Term> &Args) {
  bool AnyReal = false;
  for (Term Arg : Args)
    if (Arg.isValid() && Manager.sort(Arg).isReal())
      AnyReal = true;
  if (!AnyReal)
    return;
  for (Term &Arg : Args)
    if (Arg.isValid() && Manager.kind(Arg) == Kind::ConstInt)
      Arg = Manager.mkRealConst(Rational(Manager.intValue(Arg)));
}

Term ParserImpl::parseIndexedLeaf(size_t Line) {
  // Already consumed "( _". Handles (_ bvN w) and FP specials.
  Token Name = Lex.next();
  if (Name.Kind != TokenKind::Symbol)
    return fail("expected indexed identifier", Name.Line);
  if (Name.Text.size() > 2 && Name.Text.compare(0, 2, "bv") == 0) {
    auto Value = BigInt::fromString(Name.Text.substr(2));
    if (!Value)
      return fail("malformed bitvector literal '" + Name.Text + "'",
                  Name.Line);
    Token Width = Lex.next();
    if (Width.Kind != TokenKind::Numeral)
      return fail("expected bitvector width", Width.Line);
    if (!expect(TokenKind::RParen, "')'"))
      return Term();
    unsigned W = static_cast<unsigned>(std::stoul(Width.Text));
    if (W == 0)
      return fail("bitvector width must be positive", Width.Line);
    return Manager.mkBitVecConst(BitVecValue(W, *Value));
  }
  if (Name.Text == "+oo" || Name.Text == "-oo" || Name.Text == "NaN" ||
      Name.Text == "+zero" || Name.Text == "-zero") {
    Token Eb = Lex.next();
    Token Sb = Lex.next();
    if (Eb.Kind != TokenKind::Numeral || Sb.Kind != TokenKind::Numeral)
      return fail("expected floating-point widths", Name.Line);
    if (!expect(TokenKind::RParen, "')'"))
      return Term();
    FpFormat Format{static_cast<unsigned>(std::stoul(Eb.Text)),
                    static_cast<unsigned>(std::stoul(Sb.Text))};
    if (Name.Text == "NaN")
      return Manager.mkFpConst(SoftFloat::nan(Format));
    if (Name.Text == "+oo")
      return Manager.mkFpConst(SoftFloat::infinity(Format, false));
    if (Name.Text == "-oo")
      return Manager.mkFpConst(SoftFloat::infinity(Format, true));
    return Manager.mkFpConst(SoftFloat::zero(Format, Name.Text == "-zero"));
  }
  return fail("unsupported indexed identifier '" + Name.Text + "'", Line);
}

Term ParserImpl::applyOperator(const std::string &Name, size_t Line) {
  auto It = operatorTable().find(Name);
  if (It == operatorTable().end())
    return fail("unknown operator '" + Name + "'", Line);
  Kind K = It->second;

  if (takesRoundingMode(K)) {
    Token Mode = Lex.next();
    if (Mode.Kind != TokenKind::Symbol ||
        (Mode.Text != "RNE" && Mode.Text != "roundNearestTiesToEven"))
      return fail("only the RNE rounding mode is supported; found '" +
                      Mode.Text + "'",
                  Mode.Line);
  }

  std::vector<Term> Args;
  while (ok() && Lex.peek().Kind != TokenKind::RParen) {
    if (Lex.peek().Kind == TokenKind::EndOfInput)
      return fail("unexpected end of input in application", Line);
    Term Arg = parseTerm();
    if (!ok())
      return Term();
    Args.push_back(Arg);
  }
  Lex.next(); // Consume ')'.
  if (Args.empty())
    return fail("operator '" + Name + "' applied to no arguments", Line);

  // Numerals used in Real positions denote reals (SMT-LIB coercion).
  switch (K) {
  case Kind::Add:
  case Kind::Sub:
  case Kind::Mul:
  case Kind::Neg:
  case Kind::RealDiv:
  case Kind::Le:
  case Kind::Lt:
  case Kind::Ge:
  case Kind::Gt:
  case Kind::Eq:
  case Kind::Distinct:
  case Kind::Ite:
    coerceIntConstantsToReal(Args);
    break;
  default:
    break;
  }
  // `/` applied to Int operands in LIA-style scripts is still RealDiv; the
  // operands must be coerced.
  if (K == Kind::RealDiv)
    for (Term &Arg : Args)
      if (Manager.kind(Arg) == Kind::ConstInt)
        Arg = Manager.mkRealConst(Rational(Manager.intValue(Arg)));

  // Fold constant literals the printer spells as applications, so that
  // parse(print(t)) re-interns the same constants: `(- 5)` is the literal
  // -5, and `(/ 1.0 3.0)` is the rational 1/3.
  if (K == Kind::Sub && Args.size() == 1) {
    if (Manager.kind(Args[0]) == Kind::ConstInt)
      return Manager.mkIntConst(-Manager.intValue(Args[0]));
    if (Manager.kind(Args[0]) == Kind::ConstReal)
      return Manager.mkRealConst(-Manager.realValue(Args[0]));
  }
  if (K == Kind::RealDiv && Args.size() == 2 &&
      Manager.kind(Args[0]) == Kind::ConstReal &&
      Manager.kind(Args[1]) == Kind::ConstReal &&
      !Manager.realValue(Args[1]).isZero())
    return Manager.mkRealConst(Manager.realValue(Args[0]) /
                               Manager.realValue(Args[1]));

  // Light sort validation with a proper diagnostic (the manager asserts).
  auto SortsMatch = [&](bool Condition, const char *Message) -> bool {
    if (!Condition)
      fail(std::string("sort error in '") + Name + "': " + Message, Line);
    return Condition;
  };
  switch (K) {
  case Kind::Eq:
  case Kind::Distinct:
    for (size_t I = 1; I < Args.size(); ++I)
      if (!SortsMatch(Manager.sort(Args[I]) == Manager.sort(Args[0]),
                      "operand sorts differ"))
        return Term();
    break;
  case Kind::Ite:
    if (!SortsMatch(Args.size() == 3, "ite takes three operands") ||
        !SortsMatch(Manager.sort(Args[0]).isBool(), "condition must be Bool") ||
        !SortsMatch(Manager.sort(Args[1]) == Manager.sort(Args[2]),
                    "branch sorts differ"))
      return Term();
    break;
  case Kind::BvConcat:
    break; // Operand widths legitimately differ.
  case Kind::BvAdd:
  case Kind::BvSub:
  case Kind::BvMul:
  case Kind::BvAnd:
  case Kind::BvOr:
  case Kind::BvXor:
    // The manager keeps these n-ary; consumers fold from the first pair.
    if (!SortsMatch(Args.size() >= 2, "takes at least two operands"))
      return Term();
    [[fallthrough]];
  default:
    for (size_t I = 1; I < Args.size(); ++I)
      if (!SortsMatch(Manager.sort(Args[I]) == Manager.sort(Args[0]),
                      "operand sorts differ"))
        return Term();
    break;
  }
  return Manager.mkApp(K, Args);
}

Term ParserImpl::parseParenTerm(size_t Line) {
  // Already consumed '('.
  const Token &Head = Lex.peek();
  if (Head.Kind == TokenKind::LParen) {
    // ((_ extract hi lo) t) style applications.
    Lex.next();
    Token Underscore = Lex.next();
    if (Underscore.Kind != TokenKind::Symbol || Underscore.Text != "_")
      return fail("expected indexed operator", Underscore.Line);
    Token Name = Lex.next();
    if (Name.Kind != TokenKind::Symbol)
      return fail("expected indexed operator name", Name.Line);
    std::vector<unsigned> Indices;
    while (Lex.peek().Kind == TokenKind::Numeral)
      Indices.push_back(static_cast<unsigned>(std::stoul(Lex.next().Text)));
    if (!expect(TokenKind::RParen, "')' after indexed operator"))
      return Term();
    Term Operand = parseTerm();
    if (!ok())
      return Term();
    if (!expect(TokenKind::RParen, "')' after indexed application"))
      return Term();
    Term Ops[] = {Operand};
    if (Name.Text == "extract" && Indices.size() == 2)
      return Manager.mkApp(Kind::BvExtract, Ops, Indices[0], Indices[1]);
    if (Name.Text == "zero_extend" && Indices.size() == 1)
      return Manager.mkApp(Kind::BvZeroExtend, Ops, Indices[0]);
    if (Name.Text == "sign_extend" && Indices.size() == 1)
      return Manager.mkApp(Kind::BvSignExtend, Ops, Indices[0]);
    return fail("unsupported indexed operator '" + Name.Text + "'",
                Name.Line);
  }

  Token Head2 = Lex.next();
  if (Head2.Kind != TokenKind::Symbol)
    return fail("expected operator symbol, found '" + Head2.Text + "'",
                Head2.Line);

  if (Head2.Text == "_")
    return parseIndexedLeaf(Line);

  if (Head2.Text == "fp") {
    // (fp sign exponent significand) literal from three BV literals.
    Token SignTok = Lex.next();
    Token ExpTok = Lex.next();
    Token ManTok = Lex.next();
    auto Sign = parseBitVecLiteralToken(SignTok);
    auto Exp = parseBitVecLiteralToken(ExpTok);
    auto Man = parseBitVecLiteralToken(ManTok);
    if (!Sign || !Exp || !Man || Sign->width() != 1)
      return fail("malformed fp literal", SignTok.Line);
    if (!expect(TokenKind::RParen, "')'"))
      return Term();
    BitVecValue Packed = Sign->concat(*Exp).concat(*Man);
    FpFormat Format{Exp->width(), Man->width() + 1};
    return Manager.mkFpConst(SoftFloat::fromBits(Format, Packed));
  }

  if (Head2.Text == "!") {
    // Annotation: (! term :attr value ...). Attributes like :named are
    // metadata; the term passes through.
    Term Annotated = parseTerm();
    if (!ok())
      return Term();
    while (ok() && Lex.peek().Kind != TokenKind::RParen) {
      Token Attr = Lex.next();
      if (Attr.Kind == TokenKind::EndOfInput)
        return fail("unexpected end of input in annotation", Attr.Line);
      if (Attr.Kind == TokenKind::LParen)
        skipBalanced();
    }
    Lex.next(); // Consume ')'.
    return Annotated;
  }

  if (Head2.Text == "let") {
    if (!expect(TokenKind::LParen, "'(' starting let bindings"))
      return Term();
    std::vector<std::string> Bound;
    // Bindings are simultaneous: evaluate all right-hand sides in the
    // outer scope before installing any of them.
    std::vector<std::pair<std::string, Term>> NewBindings;
    while (ok() && Lex.peek().Kind == TokenKind::LParen) {
      Lex.next();
      Token Name = Lex.next();
      if (Name.Kind != TokenKind::Symbol)
        return fail("expected let-bound symbol", Name.Line);
      Term Value = parseTerm();
      if (!ok())
        return Term();
      if (!expect(TokenKind::RParen, "')' after let binding"))
        return Term();
      NewBindings.emplace_back(Name.Text, Value);
    }
    if (!expect(TokenKind::RParen, "')' after let bindings"))
      return Term();
    for (auto &[Name, Value] : NewBindings) {
      Bindings[Name].push_back(Value);
      Bound.push_back(Name);
    }
    Term Body = parseTerm();
    for (const std::string &Name : Bound)
      Bindings[Name].pop_back();
    if (!ok())
      return Term();
    if (!expect(TokenKind::RParen, "')' closing let"))
      return Term();
    return Body;
  }

  return applyOperator(Head2.Text, Head2.Line);
}

Term ParserImpl::parseTerm() {
  Token Tok = Lex.next();
  switch (Tok.Kind) {
  case TokenKind::Numeral: {
    auto Value = BigInt::fromString(Tok.Text);
    if (!Value)
      return fail("malformed numeral", Tok.Line);
    return Manager.mkIntConst(*Value);
  }
  case TokenKind::Decimal: {
    auto Value = Rational::fromString(Tok.Text);
    if (!Value)
      return fail("malformed decimal", Tok.Line);
    return Manager.mkRealConst(*Value);
  }
  case TokenKind::Binary:
  case TokenKind::Hex: {
    auto Value = parseBitVecLiteralToken(Tok);
    if (!Value)
      return fail("malformed bitvector literal", Tok.Line);
    return Manager.mkBitVecConst(*Value);
  }
  case TokenKind::Symbol: {
    if (Tok.Text == "true")
      return Manager.mkTrue();
    if (Tok.Text == "false")
      return Manager.mkFalse();
    auto Bound = Bindings.find(Tok.Text);
    if (Bound != Bindings.end() && !Bound->second.empty())
      return Bound->second.back();
    Term Var = Manager.lookupVariable(Tok.Text);
    if (Var.isValid())
      return Var;
    return fail("use of undeclared symbol '" + Tok.Text + "'", Tok.Line);
  }
  case TokenKind::LParen:
    return parseParenTerm(Tok.Line);
  default:
    return fail("unexpected token '" + Tok.Text + "' in term", Tok.Line);
  }
}

bool ParserImpl::parseCommand() {
  Token Tok = Lex.next();
  if (Tok.Kind == TokenKind::EndOfInput)
    return false;
  if (Tok.Kind != TokenKind::LParen) {
    fail("expected '(' starting a command", Tok.Line);
    return false;
  }
  Token Name = Lex.next();
  if (Name.Kind != TokenKind::Symbol) {
    fail("expected command name", Name.Line);
    return false;
  }
  const std::string &Cmd = Name.Text;
  if (Cmd == "set-logic") {
    Token Logic = Lex.next();
    if (Logic.Kind != TokenKind::Symbol) {
      fail("expected logic name", Logic.Line);
      return false;
    }
    Result.Logic = Logic.Text;
    return expect(TokenKind::RParen, "')'");
  }
  if (Cmd == "set-info" || Cmd == "set-option" || Cmd == "get-info" ||
      Cmd == "get-model" || Cmd == "exit" || Cmd == "get-unsat-core") {
    skipBalanced();
    return ok();
  }
  if (Cmd == "declare-fun" || Cmd == "declare-const") {
    Token VarName = Lex.next();
    if (VarName.Kind != TokenKind::Symbol) {
      fail("expected variable name", VarName.Line);
      return false;
    }
    if (Cmd == "declare-fun") {
      if (!expect(TokenKind::LParen, "'(' for argument sorts"))
        return false;
      if (Lex.peek().Kind != TokenKind::RParen) {
        fail("uninterpreted functions with arguments are not supported",
             VarName.Line);
        return false;
      }
      Lex.next();
    }
    auto VarSort = parseSort();
    if (!VarSort)
      return false;
    if (!expect(TokenKind::RParen, "')'"))
      return false;
    if (Manager.lookupVariable(VarName.Text).isValid()) {
      fail("redeclaration of '" + VarName.Text + "'", VarName.Line);
      return false;
    }
    Result.Variables.push_back(Manager.mkVariable(VarName.Text, *VarSort));
    return true;
  }
  if (Cmd == "define-fun") {
    Token FunName = Lex.next();
    if (FunName.Kind != TokenKind::Symbol) {
      fail("expected function name", FunName.Line);
      return false;
    }
    if (!expect(TokenKind::LParen, "'(' for argument list"))
      return false;
    if (Lex.peek().Kind != TokenKind::RParen) {
      fail("define-fun with arguments is not supported", FunName.Line);
      return false;
    }
    Lex.next();
    auto FunSort = parseSort();
    if (!FunSort)
      return false;
    Term Body = parseTerm();
    if (!ok())
      return false;
    if (Manager.sort(Body) != *FunSort) {
      fail("define-fun body sort mismatch", FunName.Line);
      return false;
    }
    if (!expect(TokenKind::RParen, "')'"))
      return false;
    Bindings[FunName.Text].push_back(Body);
    return true;
  }
  if (Cmd == "assert") {
    Term Assertion = parseTerm();
    if (!ok())
      return false;
    if (!Manager.sort(Assertion).isBool()) {
      fail("asserted term is not Bool", Name.Line);
      return false;
    }
    Result.Assertions.push_back(Assertion);
    return expect(TokenKind::RParen, "')'");
  }
  if (Cmd == "check-sat") {
    Result.HasCheckSat = true;
    return expect(TokenKind::RParen, "')'");
  }
  fail("unsupported command '" + Cmd + "'", Name.Line);
  return false;
}

ParseResult ParserImpl::run() {
  while (ok() && Lex.peek().Kind != TokenKind::EndOfInput)
    if (!parseCommand())
      break;
  ParseResult Outcome;
  Outcome.Ok = ok();
  Outcome.Error = Error;
  Outcome.Parsed = std::move(Result);
  return Outcome;
}

} // namespace

ParseResult staub::parseSmtLib(TermManager &Manager, std::string_view Input) {
  return ParserImpl(Manager, Input).run();
}

ParseResult staub::parseSmtLibFile(TermManager &Manager,
                                   const std::string &Path) {
  std::ifstream Stream(Path);
  if (!Stream) {
    ParseResult Outcome;
    Outcome.Error = "cannot open file '" + Path + "'";
    return Outcome;
  }
  std::ostringstream Buffer;
  Buffer << Stream.rdbuf();
  return parseSmtLib(Manager, Buffer.str());
}
