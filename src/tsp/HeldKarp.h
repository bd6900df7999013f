//===- tsp/HeldKarp.h - Held-Karp 1-tree lower bound ------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The Held-Karp lower bound on symmetric TSP tour length (Held & Karp
/// 1970/1971, the paper's references [6, 7]), computed by Lagrangian
/// ascent over 1-trees with a subgradient step schedule. The paper uses
/// this bound — via the same DTSP-to-STSP transformation used for
/// solving — to prove that its tours, and hence its branch alignments,
/// are within 0.3% of optimal on average.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_HELDKARP_H
#define BALIGN_TSP_HELDKARP_H

#include "tsp/Instance.h"
#include "tsp/Transform.h"

namespace balign {

/// Tuning for the subgradient ascent.
struct HeldKarpOptions {
  /// Total subgradient iterations; 0 selects an instance-size-scaled
  /// default (clamped to [2000, 30000]). Branch-alignment instances
  /// usually converge to the tour value well before the cap thanks to
  /// the relative-gap early stop.
  unsigned Iterations = 0;

  /// Initial step-size multiplier (the classical alpha, halved on
  /// stagnation).
  double InitialAlpha = 2.0;

  /// Stop once the bound is within this fraction of the incumbent tour
  /// (the bound cannot exceed it anyway). heldKarpBoundDirected converts
  /// this to an absolute tolerance on the *directed* cost scale before
  /// invoking the symmetric ascent (whose own upper bound is shifted by
  /// the huge pair-lock offset and useless for relative comparisons).
  double RelativeGapStop = 1e-4;

  /// Absolute early-stop tolerance in cost units; 0 disables. Set
  /// automatically by heldKarpBoundDirected from RelativeGapStop.
  double AbsoluteGapStop = 0.0;
};

/// Computes the Held-Karp lower bound for the symmetric instance
/// \p Sym. \p UpperBound must be the cost of some feasible tour (used
/// only to scale subgradient steps). The returned value never exceeds
/// the optimal tour cost.
double heldKarpBoundSymmetric(const SymmetricTsp &Sym, int64_t UpperBound,
                              const HeldKarpOptions &Options = {});

/// Instances with fewer cities have one forced tour, priced directly;
/// the bound never transforms them.
inline constexpr size_t MinTransformedBoundCities = 3;

/// Held-Karp bound for a directed instance: bounds its pair-locked
/// symmetric instance \p Transform and maps the result back to directed
/// scale. \p Transform must be transformToSymmetric(Dtsp) when Dtsp has
/// at least MinTransformedBoundCities cities; smaller instances ignore
/// it, and it may be null there. \p UpperBound is the cost of some
/// feasible *directed* tour.
double heldKarpBoundDirected(const DirectedTsp &Dtsp,
                             const SymmetricTransform *Transform,
                             int64_t UpperBound,
                             const HeldKarpOptions &Options = {});

/// The same bound, building the transform when the bound needs one.
double heldKarpBoundDirected(const DirectedTsp &Dtsp, int64_t UpperBound,
                             const HeldKarpOptions &Options = {});

} // namespace balign

#endif // BALIGN_TSP_HELDKARP_H
