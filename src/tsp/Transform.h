//===- tsp/Transform.h - DTSP to STSP 2-city transformation ---------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The standard NP-completeness transformation from the directed to the
/// symmetric TSP that the paper's appendix uses: "Our DTSP to STSP
/// transformation replaces each city by a pair of cities, with the edge
/// between them locked into the tour."
///
/// City i of the directed instance becomes an *in* city (index i) and an
/// *out* city (index i + N). Distances:
///   d(i_in,  i_out) = -LockBonus    (the locked pair edge)
///   d(i_out, j_in ) = c(i, j)       for i != j (a real directed arc)
///   everything else = +Forbidden    (never profitable)
///
/// Any finite-cost symmetric tour alternates in/out and therefore encodes
/// a directed tour; its symmetric cost equals the directed cost minus
/// N * LockBonus, which the conversion helpers account for.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_TRANSFORM_H
#define BALIGN_TSP_TRANSFORM_H

#include "tsp/Instance.h"

#include <memory>

namespace balign {

/// A directed instance together with its symmetric transformation.
struct SymmetricTransform {
  SymmetricTsp Sym;

  /// Number of cities in the original directed instance.
  size_t DirectedN = 0;

  /// Magnitude of the locked pair-edge bonus; also the forbidden-edge
  /// cost. Chosen larger than the total absolute cost of the directed
  /// instance so no finite improvement ever breaks a pair.
  int64_t LockBonus = 0;

  /// Expands a directed tour into the corresponding symmetric tour
  /// (i -> i_in, i_out), written into \p Symmetric.
  void toSymmetricTour(const std::vector<City> &Directed,
                       std::vector<City> &Symmetric) const;
  std::vector<City> toSymmetricTour(const std::vector<City> &Directed) const {
    std::vector<City> Symmetric;
    toSymmetricTour(Directed, Symmetric);
    return Symmetric;
  }

  /// Collapses an alternating symmetric tour back into a directed tour,
  /// written into \p Directed; it starts at city 0. Asserts the tour is
  /// alternating (every pair edge present).
  void toDirectedTour(const std::vector<City> &Symmetric,
                      std::vector<City> &Directed) const;
  std::vector<City> toDirectedTour(const std::vector<City> &Symmetric) const {
    std::vector<City> Directed;
    toDirectedTour(Symmetric, Directed);
    return Directed;
  }

  /// Converts a symmetric tour cost into the directed tour cost.
  int64_t toDirectedCost(int64_t SymCost) const {
    return SymCost + static_cast<int64_t>(DirectedN) * LockBonus;
  }

  /// True if the symmetric edge (A, B) is a locked pair edge.
  bool isPairEdge(City A, City B) const {
    size_t N = DirectedN;
    return A % N == B % N && A != B;
  }
};

/// Builds the symmetric transformation of \p Dtsp.
SymmetricTransform transformToSymmetric(const DirectedTsp &Dtsp);

/// The symmetric transformation of \p Dtsp when it has at least
/// \p MinCities cities, else null: the solver enumerates, and Held-Karp
/// prices, smaller instances directly (MinTransformedSolveCities,
/// MinTransformedBoundCities), so building one there would only add a
/// tsp.transform fault-site hit.
std::unique_ptr<SymmetricTransform> transformIfAtLeast(const DirectedTsp &Dtsp,
                                                       size_t MinCities);

} // namespace balign

#endif // BALIGN_TSP_TRANSFORM_H
