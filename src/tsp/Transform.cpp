//===- tsp/Transform.cpp ---------------------------------------------------===//

#include "tsp/Transform.h"

#include "robust/FaultInjector.h"
#include "trace/Scope.h"

#include <algorithm>
#include <cassert>

using namespace balign;

SymmetricTransform balign::transformToSymmetric(const DirectedTsp &Dtsp) {
  ScopedSpan Span("tsp.transform", SpanCat::Solver);
  // balign-shield fault site: stands in for any failure while building
  // the O(N^2) symmetric instance (e.g. allocation failure on a
  // pathological procedure).
  FaultInjector::instance().throwIfFault(FaultSite::TspTransform);
  size_t N = Dtsp.numCities();
  assert(N >= 2 && "transformation needs at least two cities");
  SymmetricTransform Result;
  Result.DirectedN = N;
  Result.LockBonus = Dtsp.totalAbsCost() + 1;
  Result.Sym = SymmetricTsp(2 * N);

  int64_t Forbidden = Result.LockBonus;
  for (City A = 0; A != 2 * N; ++A)
    for (City B = A + 1; B != 2 * N; ++B)
      Result.Sym.setDist(A, B, Forbidden);
  for (City I = 0; I != N; ++I)
    Result.Sym.setDist(I, I + N, -Result.LockBonus);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        Result.Sym.setDist(I + N, J, Dtsp.cost(I, J));
  return Result;
}

std::unique_ptr<SymmetricTransform>
balign::transformIfAtLeast(const DirectedTsp &Dtsp, size_t MinCities) {
  if (Dtsp.numCities() < MinCities)
    return nullptr;
  return std::make_unique<SymmetricTransform>(transformToSymmetric(Dtsp));
}

void SymmetricTransform::toSymmetricTour(const std::vector<City> &Directed,
                                         std::vector<City> &Symmetric) const {
  assert(isValidTour(Directed, DirectedN) && "invalid directed tour");
  Symmetric.clear();
  Symmetric.reserve(2 * Directed.size());
  for (City I : Directed) {
    Symmetric.push_back(I);                                // i_in
    Symmetric.push_back(I + static_cast<City>(DirectedN)); // i_out
  }
}

void SymmetricTransform::toDirectedTour(const std::vector<City> &Symmetric,
                                        std::vector<City> &Directed) const {
  assert(isValidTour(Symmetric, 2 * DirectedN) && "invalid symmetric tour");
  size_t N = DirectedN;
  size_t Size = Symmetric.size();
  Directed.clear();
  Directed.reserve(N);

  // Walk the cycle in the direction where each in-city is immediately
  // followed by its own out-city; probe the orientation at city 0.
  auto positionOf = [&](City C) {
    return static_cast<size_t>(
        std::find(Symmetric.begin(), Symmetric.end(), C) - Symmetric.begin());
  };
  size_t InPos = positionOf(0);
  size_t OutPos = positionOf(static_cast<City>(N)); // City 0's out twin.
  size_t Dir;
  if ((InPos + 1) % Size == OutPos) {
    Dir = 1;
  } else {
    assert((OutPos + 1) % Size == InPos &&
           "symmetric tour does not keep the pair edge of city 0");
    Dir = Size - 1; // Step backwards modulo Size.
  }
  size_t P = InPos;
  for (size_t Step = 0; Step != N; ++Step) {
    City InCity = Symmetric[P];
    assert(InCity < N && "expected an in-city at this parity");
    [[maybe_unused]] City OutCity = Symmetric[(P + Dir) % Size];
    assert(OutCity == InCity + N && "symmetric tour breaks a pair edge");
    Directed.push_back(InCity);
    P = (P + 2 * Dir) % Size;
  }
  assert(isValidTour(Directed, N) && "collapse produced an invalid tour");
}
