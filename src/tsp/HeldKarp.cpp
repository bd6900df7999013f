//===- tsp/HeldKarp.cpp -------------------------------------------------------===//

#include "tsp/HeldKarp.h"

#include "trace/Scope.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

using namespace balign;

namespace {

/// One minimum 1-tree computation under node potentials Pi.
struct OneTree {
  double Cost = 0.0;              ///< Total reweighted tree cost.
  std::vector<unsigned> Degree;   ///< Degree of every city in the 1-tree.
};

} // namespace

/// Builds the minimum 1-tree: an MST over cities 1..N-1 (Prim) plus the
/// two cheapest edges incident to city 0, all under weights
/// w(i,j) = d(i,j) + Pi[i] + Pi[j].
static OneTree minimumOneTree(const SymmetricTsp &Sym,
                              const std::vector<double> &Pi) {
  size_t N = Sym.numCities();
  assert(N >= 3 && "1-tree needs at least three cities");
  OneTree Tree;
  Tree.Degree.assign(N, 0);

  auto Weight = [&](City A, City B) {
    return static_cast<double>(Sym.dist(A, B)) + Pi[A] + Pi[B];
  };

  // Prim over cities 1..N-1.
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Best(N, Inf);
  std::vector<City> Parent(N, InvalidCity);
  std::vector<bool> InTree(N, false);
  Best[1] = 0.0;
  for (size_t Added = 1; Added != N; ++Added) {
    City Next = InvalidCity;
    double NextWeight = Inf;
    for (City C = 1; C != N; ++C) {
      if (InTree[C] || Best[C] >= NextWeight)
        continue;
      Next = C;
      NextWeight = Best[C];
    }
    assert(Next != InvalidCity && "graph is complete; Prim cannot stall");
    InTree[Next] = true;
    if (Parent[Next] != InvalidCity) {
      Tree.Cost += Weight(Next, Parent[Next]);
      ++Tree.Degree[Next];
      ++Tree.Degree[Parent[Next]];
    }
    for (City C = 1; C != N; ++C) {
      if (InTree[C])
        continue;
      double W = Weight(Next, C);
      if (W < Best[C]) {
        Best[C] = W;
        Parent[C] = Next;
      }
    }
  }

  // Attach city 0 with its two cheapest edges.
  double First = Inf, Second = Inf;
  City FirstCity = InvalidCity, SecondCity = InvalidCity;
  for (City C = 1; C != N; ++C) {
    double W = Weight(0, C);
    if (W < First) {
      Second = First;
      SecondCity = FirstCity;
      First = W;
      FirstCity = C;
    } else if (W < Second) {
      Second = W;
      SecondCity = C;
    }
  }
  Tree.Cost += First + Second;
  Tree.Degree[0] += 2;
  ++Tree.Degree[FirstCity];
  ++Tree.Degree[SecondCity];
  return Tree;
}

double balign::heldKarpBoundSymmetric(const SymmetricTsp &Sym,
                                      int64_t UpperBound,
                                      const HeldKarpOptions &Options) {
  size_t N = Sym.numCities();
  if (N < 3) {
    // Degenerate tours: cost is fixed.
    if (N == 2)
      return static_cast<double>(2 * Sym.dist(0, 1));
    return 0.0;
  }

  unsigned Iterations = Options.Iterations;
  if (Iterations == 0)
    Iterations =
        std::clamp<unsigned>(static_cast<unsigned>(200 * N), 2000, 30000);

  std::vector<double> Pi(N, 0.0);
  double Alpha = Options.InitialAlpha;
  double BestBound = -std::numeric_limits<double>::infinity();
  unsigned SinceImprove = 0;
  // Plateaus on the pair-locked transformed instances routinely last
  // hundreds of iterations; halve the step only on long stagnation.
  const unsigned StagnationWindow = std::max(50u, Iterations / 25);

  // Subgradient iterations run, published once per bound like the
  // solver's per-run counters (a deterministic work measure: DESIGN.md
  // section 12).
  uint64_t Ran = 0;
  for (unsigned Iter = 0; Iter != Iterations; ++Iter) {
    ++Ran;
    OneTree Tree = minimumOneTree(Sym, Pi);
    double PiSum = 0.0;
    for (double P : Pi)
      PiSum += P;
    double Bound = Tree.Cost - 2.0 * PiSum;
    if (Bound > BestBound) {
      BestBound = Bound;
      SinceImprove = 0;
    } else if (++SinceImprove >= StagnationWindow) {
      Alpha *= 0.5;
      SinceImprove = 0;
      if (Alpha < 1e-9)
        break;
    }

    double Norm = 0.0;
    for (unsigned D : Tree.Degree) {
      double G = static_cast<double>(D) - 2.0;
      Norm += G * G;
    }
    if (Norm == 0.0)
      break; // The 1-tree is a tour: the bound is exact.

    double Gap = static_cast<double>(UpperBound) - Bound;
    double BestGap = static_cast<double>(UpperBound) - BestBound;
    if (Gap <= 0.0 || (Options.AbsoluteGapStop > 0.0 &&
                       BestGap <= Options.AbsoluteGapStop))
      break; // Bound (nearly) met the incumbent; stop early.
    double Step = Alpha * Gap / Norm;
    for (City C = 0; C != N; ++C)
      Pi[C] += Step * (static_cast<double>(Tree.Degree[C]) - 2.0);
  }
  scopeCounterAdd("bounds.hk.iterations", Ran);
  // The bound is valid at every iteration; return the best seen (never
  // above the incumbent tour, which is feasible).
  return std::min(BestBound, static_cast<double>(UpperBound));
}

double balign::heldKarpBoundDirected(const DirectedTsp &Dtsp,
                                     const SymmetricTransform *Transform,
                                     int64_t UpperBound,
                                     const HeldKarpOptions &Options) {
  size_t N = Dtsp.numCities();
  if (N < MinTransformedBoundCities) {
    // 1-city tours cost 0; 2-city tours are forced.
    if (N == 2)
      return static_cast<double>(Dtsp.cost(0, 1) + Dtsp.cost(1, 0));
    return 0.0;
  }
  assert(Transform && Transform->DirectedN == N &&
         "bound needs the transform of this instance");
  int64_t Offset = static_cast<int64_t>(N) * Transform->LockBonus;
  HeldKarpOptions SymOptions = Options;
  if (SymOptions.AbsoluteGapStop == 0.0)
    SymOptions.AbsoluteGapStop =
        Options.RelativeGapStop *
        std::max(1.0, std::fabs(static_cast<double>(UpperBound)));
  double SymBound = heldKarpBoundSymmetric(Transform->Sym,
                                           UpperBound - Offset, SymOptions);
  return SymBound + static_cast<double>(Offset);
}

double balign::heldKarpBoundDirected(const DirectedTsp &Dtsp,
                                     int64_t UpperBound,
                                     const HeldKarpOptions &Options) {
  return heldKarpBoundDirected(
      Dtsp, transformIfAtLeast(Dtsp, MinTransformedBoundCities).get(),
      UpperBound, Options);
}
