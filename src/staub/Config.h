//===- staub/Config.h - Shared pipeline constants ---------------*- C++ -*-===//
//
// Part of the STAUB reproduction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The magic caps of the pipeline, in one place. Bound inference, the
/// portfolio driver, the fuzz oracles and the benches all clamp abstract
/// widths / magnitudes / precisions with the same defaults; keeping them
/// here means a cap change propagates everywhere consistently.
///
//===----------------------------------------------------------------------===//

#ifndef STAUB_STAUB_CONFIG_H
#define STAUB_STAUB_CONFIG_H

namespace staub::config {

/// Default cap on inferred bitvector widths (Sec. 4.2): pathological
/// constraints cannot demand absurd widths; overflow guards plus
/// verification cover the truncation.
inline constexpr unsigned DefaultWidthCap = 64;

/// Width added per escalation step when a bounded-unsat core blames only
/// the overflow guards (Sec. 4.4 extension; UppSAT-style refinement).
/// Small steps keep each retry cheap: a step costs about one bounded
/// solve of its width.
inline constexpr unsigned EscalationStepBits = 4;

/// Largest significand the FP format chooser will select: quad precision
/// (1 hidden + 112 stored fraction bits).
inline constexpr unsigned MaxSignificandBits = 113;

/// Largest exponent field the FP format chooser will select (quad).
inline constexpr unsigned MaxExponentBits = 15;

/// Precision cap handed to real bound inference by the pipeline driver
/// before format choice: quad's 112 stored fraction bits.
inline constexpr unsigned RealPrecisionCap = 112;

/// Precision assigned to constants with non-terminating binary
/// expansions (e.g. 0.1): "large", so they drive the format up and the
/// rounding shows up as a semantic difference during verification.
inline constexpr unsigned NonTerminatingPrecision = 128;

/// Cap on presolve forward/backward contraction rounds. Contraction is
/// monotone but rational endpoints need not reach a fixpoint in finite
/// time (Zeno-style ever-tighter bounds); stopping early only leaves
/// intervals wider, which is always sound.
inline constexpr unsigned PresolveMaxRounds = 16;

} // namespace staub::config

#endif // STAUB_STAUB_CONFIG_H
