//===- bench/bench_rq2_slot.cpp - E8: RQ2 SLOT chaining -------------------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the RQ2 analysis (Sec. 5.3): STAUB's translation unlocks
/// bounded-theory optimization. For each nonlinear-integer constraint we
/// translate to bitvectors, then solve the bounded constraint with and
/// without the SLOT pass, reporting the node reduction achieved by the
/// optimizer and the additional solving speedup. Also exercises SLOT on a
/// deliberately redundant bitvector corpus to show the per-pass effect.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "slot/Slot.h"
#include "staub/Staub.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "z3adapter/Z3Solver.h"

#include <cstdio>

using namespace staub;

int main(int Argc, char **Argv) {
  const double Timeout = benchTimeoutSeconds();
  std::printf("=== E8 (RQ2 / Sec. 5.3): SLOT on STAUB's bounded output ===\n");
  // --jobs is accepted for driver uniformity; this analysis chains
  // transform -> SLOT -> solve on one shared term manager and runs
  // sequentially.
  if (benchJobs(Argc, Argv) > 1)
    std::printf("(note: SLOT analysis is sequential; --jobs ignored)\n");
  auto Backend = createZ3ProcessSolver();

  TermManager M;
  BenchConfig Config = benchConfig();
  auto Suite = generateSuite(M, BenchLogic::QF_NIA, Config);

  std::vector<double> PlainTimes, SlotTimes;
  uint64_t NodesBefore = 0, NodesAfter = 0, Rewrites = 0;
  unsigned Translated = 0;
  for (const GeneratedConstraint &C : Suite) {
    TransformResult T = translateAsParsed(M, C.Assertions, {});
    if (!T.Ok)
      continue;
    ++Translated;

    SolverOptions Solve;
    Solve.TimeoutSeconds = Timeout;
    SolveResult Plain = Backend->solve(M, T.Assertions, Solve);
    SlotStats Stats;
    auto Optimized = slotOptimize(M, T.Assertions, &Stats);
    SolveResult WithSlot = Backend->solve(M, Optimized, Solve);

    // SLOT is semantics-preserving: statuses must agree when both decide.
    if (Plain.Status != SolveStatus::Unknown &&
        WithSlot.Status != SolveStatus::Unknown &&
        Plain.Status != WithSlot.Status) {
      std::printf("DISAGREEMENT on %s: %s vs %s\n", C.Name.c_str(),
                  std::string(toString(Plain.Status)).c_str(),
                  std::string(toString(WithSlot.Status)).c_str());
      return 1;
    }
    double PlainTime = Plain.Status == SolveStatus::Unknown
                           ? Timeout
                           : std::max(Plain.TimeSeconds, 1e-5);
    double SlotTime = WithSlot.Status == SolveStatus::Unknown
                          ? Timeout
                          : std::max(WithSlot.TimeSeconds, 1e-5);
    PlainTimes.push_back(PlainTime);
    SlotTimes.push_back(SlotTime);
    NodesBefore += Stats.NodesBefore;
    NodesAfter += Stats.NodesAfter;
    Rewrites += Stats.ConstantFolds + Stats.AlgebraicRewrites +
                Stats.Canonicalizations;
  }

  std::printf("translated constraints: %u / %zu\n", Translated, Suite.size());
  std::printf("SLOT node reduction: %llu -> %llu (%.1f%%), %llu rewrites\n",
              static_cast<unsigned long long>(NodesBefore),
              static_cast<unsigned long long>(NodesAfter),
              NodesBefore ? 100.0 * (NodesBefore - NodesAfter) / NodesBefore
                          : 0.0,
              static_cast<unsigned long long>(Rewrites));
  std::printf("bounded solve geomean: plain %.4fs, with SLOT %.4fs "
              "(speedup %.3fx)\n",
              geometricMean(PlainTimes), geometricMean(SlotTimes),
              geometricMean(PlainTimes) /
                  std::max(geometricMean(SlotTimes), 1e-9));

  // Part 2: a redundant-by-construction corpus shows the optimizer's
  // effect in isolation. Solved with MiniSMT: its eager bit-blaster has
  // no preprocessing of its own, so redundant nodes inflate the CNF
  // directly and SLOT plays the role Z3's internal simplifier plays for
  // Z3 — which is exactly the "unlocks existing optimizations" story.
  std::printf("\n--- redundant bitvector corpus (minismt) ---\n");
  auto Inproc = createMiniSmtSolver();
  TermManager M2;
  SplitMix64 Rng(benchSeed());
  std::vector<double> RPlain, RSlot;
  uint64_t RNodesBefore = 0, RNodesAfter = 0;
  const double CorpusTimeout = std::max(Timeout, 5.0);
  for (int I = 0; I < 10; ++I) {
    // Factoring at 28 bits, wrapped in removable redundancy: identity
    // chains around both operands and duplicated assertions.
    const unsigned W = 24;
    Sort S = Sort::bitVec(W);
    Term X = M2.mkVariable("rx" + std::to_string(I), S);
    Term Y = M2.mkVariable("ry" + std::to_string(I), S);
    Term Zero = M2.mkBitVecConst(BitVecValue(W, 0));
    Term One = M2.mkBitVecConst(BitVecValue(W, 1));
    auto Obfuscate = [&](Term V) {
      // ((V + 0) * 1) ^ 0, nested a few times.
      Term Out = V;
      for (int K = 0; K < 3; ++K)
        Out = M2.mkApp(
            Kind::BvXor,
            std::vector<Term>{
                M2.mkApp(Kind::BvMul,
                         std::vector<Term>{
                             M2.mkApp(Kind::BvAdd,
                                      std::vector<Term>{Out, Zero}),
                             One}),
                Zero});
      return Out;
    };
    int64_t P = 1009 + static_cast<int64_t>(Rng.below(400));
    int64_t Q = 2003 + static_cast<int64_t>(Rng.below(400));
    Term Product = M2.mkBitVecConst(BitVecValue(W, P * Q));
    // Constant chain that folds to the product.
    Term ConstChain = Product;
    for (int K = 0; K < 5; ++K) {
      Term Noise = M2.mkBitVecConst(
          BitVecValue(W, static_cast<int64_t>(Rng.below(99))));
      ConstChain = M2.mkApp(
          Kind::BvSub,
          std::vector<Term>{
              M2.mkApp(Kind::BvAdd, std::vector<Term>{ConstChain, Noise}),
              Noise});
    }
    std::vector<Term> Assertions = {
        M2.mkEq(M2.mkApp(Kind::BvMul,
                         std::vector<Term>{Obfuscate(X), Obfuscate(Y)}),
                ConstChain),
        M2.mkApp(Kind::BvUgt,
                 std::vector<Term>{Obfuscate(X), One}),
        M2.mkApp(Kind::BvUle, std::vector<Term>{Obfuscate(X), Y}),
        // Redundant duplicates and tautologies.
        M2.mkApp(Kind::BvUgt, std::vector<Term>{X, One}),
        M2.mkApp(Kind::BvUle, std::vector<Term>{Y, Y}),
    };
    SolverOptions Solve;
    Solve.TimeoutSeconds = CorpusTimeout;
    SolveResult Plain = Inproc->solve(M2, Assertions, Solve);
    SlotStats Stats;
    auto Optimized = slotOptimize(M2, Assertions, &Stats);
    SolveResult WithSlot = Inproc->solve(M2, Optimized, Solve);
    RNodesBefore += Stats.NodesBefore;
    RNodesAfter += Stats.NodesAfter;
    RPlain.push_back(Plain.Status == SolveStatus::Unknown
                         ? CorpusTimeout
                         : std::max(Plain.TimeSeconds, 1e-5));
    RSlot.push_back(WithSlot.Status == SolveStatus::Unknown
                        ? CorpusTimeout
                        : std::max(WithSlot.TimeSeconds, 1e-5));
  }
  std::printf("redundant corpus nodes: %llu -> %llu (%.1f%% removed)\n",
              static_cast<unsigned long long>(RNodesBefore),
              static_cast<unsigned long long>(RNodesAfter),
              RNodesBefore
                  ? 100.0 * (RNodesBefore - RNodesAfter) / RNodesBefore
                  : 0.0);
  std::printf("redundant corpus geomean: plain %.5fs, SLOT %.5fs "
              "(speedup %.3fx)\n\n",
              geometricMean(RPlain), geometricMean(RSlot),
              geometricMean(RPlain) / std::max(geometricMean(RSlot), 1e-9));
  return 0;
}
