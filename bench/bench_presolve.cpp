//===- bench/bench_presolve.cpp - Presolver static-decision rates ---------===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the interval-contraction presolver (analysis/Presolve.h) on
/// two axes:
///
///  1. Static decisions: on the dedicated statically-decidable suite
///     (benchgen generateStaticSuite, ~2/3 decidable families), the
///     fraction of instances the presolver settles with zero solver
///     calls. The acceptance floor is 30%.
///
///  2. Width tightening: on the planted-sat QF_LIA suite, the mean
///     inferred Int width with the presolver's contracted ranges feeding
///     bound inference vs. --no-presolve, plus the total bits saved.
///
///  3. Relational deltas: on the correlated suite (benchgen
///     generateCorrelatedSuite — difference cycles, chains, and band
///     systems whose facts only the zone/octagon layer can use), the
///     presolve-decided rate, guard-elision count, and mean inferred
///     width of the full relational pipeline vs. --no-relational. The
///     acceptance gate (exit code) requires the relational column to
///     strictly win all three while agreeing with intervals-only on
///     every decisive verdict.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "benchgen/Harness.h"

#include <cstdio>

using namespace staub;

namespace {

double meanChosenWidth(const std::vector<EvalRecord> &Records) {
  unsigned long Sum = 0, N = 0;
  for (const EvalRecord &R : Records)
    if (R.Staub.ChosenWidth) {
      Sum += R.Staub.ChosenWidth;
      ++N;
    }
  return N ? double(Sum) / double(N) : 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  const double Timeout = benchTimeoutSeconds();
  const unsigned Jobs = benchJobs(Argc, Argv);
  const std::string JsonPath = benchJsonPath(Argc, Argv);
  std::printf("=== presolver: static decisions and width tightening ===\n");
  std::printf("timeout %.2fs, %u instances per suite, seed %llu, jobs %u\n\n",
              Timeout, benchCount(),
              static_cast<unsigned long long>(benchSeed()), Jobs);

  auto Backend = createMiniSmtSolver();
  JsonObject Out;
  Out.add("bench", "presolve")
      .add("timeout_seconds", Timeout)
      .add("count_per_suite", benchCount())
      .add("seed", benchSeed());

  // Axis 1: static-decision rate on the dedicated suite.
  {
    TermManager M;
    auto Suite = generateStaticSuite(M, benchConfig());
    auto Records =
        evaluateSuite(M, Suite, *Backend, Timeout, {EvalConfig()}, Jobs)[0];
    EvalSummary S = summarize(Records, Timeout);
    double Rate = S.Count ? 100.0 * double(S.PresolveDecided) / S.Count : 0.0;
    std::printf("static suite: %u/%u decided by presolve alone (%.0f%%), "
                "%u conjuncts dropped\n",
                S.PresolveDecided, S.Count, Rate,
                S.PresolveAssertionsDropped);
    std::printf("  acceptance floor 30%%: %s\n\n",
                Rate >= 30.0 ? "PASS" : "FAIL");
    JsonObject Axis;
    Axis.add("decided", S.PresolveDecided)
        .add("total", S.Count)
        .add("rate_percent", Rate)
        .add("conjuncts_dropped", S.PresolveAssertionsDropped);
    Out.addRaw("static_suite", Axis.str());
  }

  // Axis 2: inferred-width drop on the planted-sat linear suite.
  {
    std::vector<EvalConfig> Configs(2);
    Configs[0].Label = "no-presolve";
    Configs[0].Staub.Presolve = false;
    Configs[1].Label = "presolve";

    TermManager M;
    BenchConfig Cfg = benchConfig();
    Cfg.SatPercent = 100; // Boxed planted-sat rows: ranges to contract.
    auto Suite = generateSuite(M, BenchLogic::QF_LIA, Cfg);
    auto All = evaluateSuite(M, Suite, *Backend, Timeout, Configs, Jobs);
    EvalSummary Pre = summarize(All[1], Timeout);
    double W0 = meanChosenWidth(All[0]);
    double W1 = meanChosenWidth(All[1]);
    std::printf("QF_LIA sat suite: mean Int width %.2f (no presolve) -> "
                "%.2f (presolve), %u bits saved total, %u decided "
                "statically\n",
                W0, W1, Pre.PresolveWidthBitsSaved, Pre.PresolveDecided);
    std::printf("  width no worse: %s\n", W1 <= W0 ? "PASS" : "FAIL");
    JsonObject Axis;
    Axis.add("mean_width_no_presolve", W0)
        .add("mean_width_presolve", W1)
        .add("width_bits_saved", Pre.PresolveWidthBitsSaved)
        .add("decided_statically", Pre.PresolveDecided);
    Out.addRaw("lia_width_tightening", Axis.str());
  }

  // Axis 3: relational (zone/octagon) vs intervals-only on the
  // correlated suite.
  bool RelationalPass = true;
  {
    std::vector<EvalConfig> Configs(2);
    Configs[0].Label = "intervals-only";
    Configs[0].Staub.Relational = false;
    Configs[1].Label = "relational";

    TermManager M;
    auto Suite = generateCorrelatedSuite(M, benchConfig());
    auto All = evaluateSuite(M, Suite, *Backend, Timeout, Configs, Jobs);
    const std::vector<EvalRecord> &NoRel = All[0];
    const std::vector<EvalRecord> &Rel = All[1];

    unsigned DecidedNoRel = 0, DecidedRel = 0;
    unsigned ElidedNoRel = 0, ElidedRel = 0, RelOnly = 0, ZoneFacts = 0;
    // Width means only over instances both configs actually translated
    // (a presolve-decided case has no width at all).
    unsigned long WSumNoRel = 0, WSumRel = 0;
    unsigned Paired = 0;
    bool Agree = true;
    for (size_t I = 0; I < Rel.size(); ++I) {
      DecidedNoRel += NoRel[I].presolveDecided();
      DecidedRel += Rel[I].presolveDecided();
      ElidedNoRel += NoRel[I].Staub.GuardsElided;
      ElidedRel += Rel[I].Staub.GuardsElided;
      RelOnly += Rel[I].Staub.RelationalGuardsElided;
      ZoneFacts += Rel[I].Staub.ZoneFactsHarvested;
      if (NoRel[I].Staub.ChosenWidth && Rel[I].Staub.ChosenWidth) {
        WSumNoRel += NoRel[I].Staub.ChosenWidth;
        WSumRel += Rel[I].Staub.ChosenWidth;
        ++Paired;
      }
      if (NoRel[I].verified() && Rel[I].verified() &&
          (NoRel[I].Staub.Path == StaubPath::PresolvedUnsat) !=
              (Rel[I].Staub.Path == StaubPath::PresolvedUnsat))
        Agree = false;
    }
    double WNoRel = Paired ? double(WSumNoRel) / Paired : 0.0;
    double WRel = Paired ? double(WSumRel) / Paired : 0.0;
    std::printf("correlated suite: presolve-decided %u/%zu relational vs "
                "%u/%zu intervals-only; guards elided %u vs %u "
                "(%u relational-only); mean width %.2f vs %.2f over %u "
                "paired instances; %u zone facts\n",
                DecidedRel, Rel.size(), DecidedNoRel, NoRel.size(),
                ElidedRel, ElidedNoRel, RelOnly, WRel, WNoRel, Paired,
                ZoneFacts);
    RelationalPass = DecidedRel > DecidedNoRel && ElidedRel > ElidedNoRel &&
                     Paired > 0 && WRel < WNoRel && Agree;
    std::printf("  relational strictly beats intervals-only (decided, "
                "elision, width) and verdicts agree: %s\n\n",
                RelationalPass ? "PASS" : "FAIL");
    JsonObject Axis;
    Axis.add("decided_relational", DecidedRel)
        .add("decided_intervals", DecidedNoRel)
        .add("guards_elided_relational", ElidedRel)
        .add("guards_elided_intervals", ElidedNoRel)
        .add("relational_only_elisions", RelOnly)
        .add("mean_width_relational", WRel)
        .add("mean_width_intervals", WNoRel)
        .add("paired_width_instances", Paired)
        .add("zone_facts", ZoneFacts)
        .add("verdicts_agree", Agree)
        .add("pass", RelationalPass);
    Out.addRaw("correlated_suite", Axis.str());
  }

  if (!JsonPath.empty() && writeJsonFile(JsonPath, Out.str()))
    std::printf("wrote %s\n", JsonPath.c_str());
  return RelationalPass ? 0 : 1;
}
