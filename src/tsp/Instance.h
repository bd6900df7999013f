//===- tsp/Instance.h - Directed and symmetric TSP instances --------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Instance types for the traveling salesman solvers. The alignment layer
/// produces *directed* instances (edge cost = penalty cycles if city B
/// succeeds city A in the layout); the solvers follow the paper and work
/// on a *symmetric* transformation (see Transform.h). Costs are int64
/// penalty-cycle counts; "forbidden" structure in the symmetric
/// transformation is encoded with large finite values so every tour has a
/// well-defined cost.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_INSTANCE_H
#define BALIGN_TSP_INSTANCE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace balign {

/// City index within a TSP instance.
using City = uint32_t;

/// Sentinel for "no city".
inline constexpr City InvalidCity = ~static_cast<City>(0);

/// A complete directed TSP instance over N cities (asymmetric costs).
/// Tours are cyclic permutations; the alignment layer adds a dummy city
/// so that minimum-cost *walks* (the paper's layouts) become minimum-cost
/// tours.
class DirectedTsp {
public:
  DirectedTsp() = default;

  /// Creates an instance with all costs zero.
  explicit DirectedTsp(size_t NumCities)
      : N(NumCities), Costs(NumCities * NumCities, 0) {}

  size_t numCities() const { return N; }

  int64_t cost(City From, City To) const {
    assert(From < N && To < N && "city out of range");
    return Costs[From * N + To];
  }

  void setCost(City From, City To, int64_t Cost) {
    assert(From < N && To < N && "city out of range");
    Costs[From * N + To] = Cost;
  }

  /// Cost of the cyclic tour visiting \p Tour in order (including the
  /// closing edge back to Tour.front()).
  int64_t tourCost(const std::vector<City> &Tour) const;

  /// Cost of the open walk visiting \p Walk in order (no closing edge).
  int64_t walkCost(const std::vector<City> &Walk) const;

  /// Sum of |cost| over all off-diagonal entries; used to size the
  /// big-M constants of the symmetric transformation.
  int64_t totalAbsCost() const;

private:
  size_t N = 0;
  std::vector<int64_t> Costs;
};

/// A symmetric TSP instance over N cities, stored as a full matrix for
/// O(1) lookups during local search.
class SymmetricTsp {
public:
  SymmetricTsp() = default;

  explicit SymmetricTsp(size_t NumCities)
      : N(NumCities), Dists(NumCities * NumCities, 0) {}

  size_t numCities() const { return N; }

  int64_t dist(City A, City B) const {
    assert(A < N && B < N && "city out of range");
    return Dists[A * N + B];
  }

  /// Row \p A of the distance matrix: row(A)[B] == dist(A, B) ==
  /// dist(B, A). Lets hot loops that fix one endpoint index directly.
  const int64_t *row(City A) const {
    assert(A < N && "city out of range");
    return Dists.data() + A * N;
  }

  /// Sets both (A,B) and (B,A).
  void setDist(City A, City B, int64_t Dist) {
    assert(A < N && B < N && "city out of range");
    Dists[A * N + B] = Dist;
    Dists[B * N + A] = Dist;
  }

  /// Cost of the cyclic tour visiting \p Tour in order.
  int64_t tourCost(const std::vector<City> &Tour) const;

private:
  size_t N = 0;
  std::vector<int64_t> Dists;
};

/// Returns true if \p Tour is a permutation of 0..N-1.
bool isValidTour(const std::vector<City> &Tour, size_t N);

} // namespace balign

#endif // BALIGN_TSP_INSTANCE_H
