//===- tests/tsp_solver_test.cpp - Local search and iterated-3-Opt tests ------===//

#include "support/Random.h"
#include "tsp/Construct.h"
#include "tsp/Exact.h"
#include "tsp/Instance.h"
#include "tsp/IteratedOpt.h"
#include "tsp/LocalSearch.h"
#include "tsp/Transform.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <numeric>

using namespace balign;

namespace {

DirectedTsp randomInstance(size_t N, uint64_t Seed, int64_t MaxCost = 100) {
  Rng R(Seed);
  DirectedTsp Dtsp(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        Dtsp.setCost(I, J, static_cast<int64_t>(R.nextBelow(MaxCost + 1)));
  return Dtsp;
}

/// Alignment-like random instance: every city has a couple of cheap
/// arcs (hot CFG edges) over an expensive background.
DirectedTsp alignmentLikeInstance(size_t N, uint64_t Seed) {
  Rng R(Seed);
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J, 200 + static_cast<int64_t>(R.nextBelow(800)));
  for (City I = 0; I != N; ++I) {
    for (int Hot = 0; Hot != 2; ++Hot) {
      City J = static_cast<City>(R.nextIndex(N));
      if (J != I)
        D.setCost(I, J, static_cast<int64_t>(R.nextBelow(40)));
    }
  }
  return D;
}

/// FNV-1a over 64-bit words. Digests pin exact arrays, so a tour that
/// is merely a rotation or reflection of the expected one still fails.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ull;
  void add(uint64_t V) {
    for (unsigned Byte = 0; Byte != 8; ++Byte) {
      H ^= (V >> (8 * Byte)) & 0xff;
      H *= 0x100000001b3ull;
    }
  }
  void add(const std::vector<City> &Tour) {
    add(Tour.size());
    for (City C : Tour)
      add(C);
  }
};

/// Brute-force optimal directed tour cost (city 0 fixed), for N <= 9.
int64_t bruteForce(const DirectedTsp &D) {
  size_t N = D.numCities();
  std::vector<City> Perm(N - 1);
  std::iota(Perm.begin(), Perm.end(), 1);
  int64_t Best = INT64_MAX;
  do {
    std::vector<City> Tour;
    Tour.push_back(0);
    Tour.insert(Tour.end(), Perm.begin(), Perm.end());
    Best = std::min(Best, D.tourCost(Tour));
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return Best;
}

} // namespace

TEST(ExactTest, MatchesBruteForceOnRandomInstances) {
  for (uint64_t Seed = 1; Seed != 15; ++Seed) {
    size_t N = 2 + Seed % 6; // 2..7 cities.
    DirectedTsp D = randomInstance(N, Seed);
    std::vector<City> Tour;
    int64_t Cost = solveExactDirected(D, &Tour);
    EXPECT_EQ(Cost, bruteForce(D)) << "seed " << Seed;
    EXPECT_TRUE(isValidTour(Tour, N));
    EXPECT_EQ(D.tourCost(Tour), Cost);
  }
}

TEST(ExactTest, HandlesTrivialSizes) {
  DirectedTsp One(1);
  std::vector<City> Tour;
  EXPECT_EQ(solveExactDirected(One, &Tour), 0);
  EXPECT_EQ(Tour, std::vector<City>{0});

  DirectedTsp Two(2);
  Two.setCost(0, 1, 4);
  Two.setCost(1, 0, 9);
  EXPECT_EQ(solveExactDirected(Two, &Tour), 13);
}

TEST(LocalSearchTest, NeverWorsensAndStaysValid) {
  for (uint64_t Seed = 1; Seed != 8; ++Seed) {
    DirectedTsp D = randomInstance(15, Seed * 31);
    SymmetricTransform T = transformToSymmetric(D);
    NeighborLists Neighbors(T.Sym, 10);
    Rng R(Seed);
    std::vector<City> Dir = canonicalTour(15);
    R.shuffle(Dir);
    std::vector<City> Sym = T.toSymmetricTour(Dir);
    int64_t Before = T.Sym.tourCost(Sym);
    int64_t After = localSearchSymmetric(T.Sym, Neighbors, Sym);
    EXPECT_LE(After, Before);
    EXPECT_TRUE(isValidTour(Sym, 30));
    // Pair edges survive local search, so the tour collapses.
    std::vector<City> Back = T.toDirectedTour(Sym);
    EXPECT_EQ(D.tourCost(Back), T.toDirectedCost(After));
  }
}

TEST(LocalSearchTest, ReachesTwoOptLocalOptimum) {
  DirectedTsp D = randomInstance(12, 99);
  SymmetricTransform T = transformToSymmetric(D);
  NeighborLists Neighbors(T.Sym, 23); // Full lists.
  std::vector<City> Sym = T.toSymmetricTour(canonicalTour(12));
  localSearchSymmetric(T.Sym, Neighbors, Sym);
  int64_t Cost = T.Sym.tourCost(Sym);

  // No single 2-opt move may improve the result further.
  size_t N = Sym.size();
  for (size_t I = 0; I + 2 < N; ++I) {
    for (size_t J = I + 2; J < N; ++J) {
      if (I == 0 && J + 1 == N)
        continue;
      std::vector<City> Alt = Sym;
      std::reverse(Alt.begin() + I + 1, Alt.begin() + J + 1);
      EXPECT_GE(T.Sym.tourCost(Alt), Cost)
          << "improving 2-opt move left at (" << I << "," << J << ")";
    }
  }
}

TEST(DoubleBridgeTest, PreservesPermutationAndStart) {
  Rng R(5);
  for (size_t N : {4u, 5u, 8u, 20u, 101u}) {
    std::vector<City> Tour = canonicalTour(N);
    doubleBridge(Tour, R);
    EXPECT_TRUE(isValidTour(Tour, N));
    EXPECT_EQ(Tour[0], 0u) << "double bridge must keep segment A first";
  }
}

TEST(DoubleBridgeTest, TinyToursUntouched) {
  Rng R(6);
  std::vector<City> Tour = {0, 1, 2};
  doubleBridge(Tour, R);
  EXPECT_EQ(Tour, (std::vector<City>{0, 1, 2}));
}

TEST(DoubleBridgeTest, ActuallyPerturbs) {
  Rng R(7);
  std::vector<City> Tour = canonicalTour(30);
  doubleBridge(Tour, R);
  EXPECT_NE(Tour, canonicalTour(30));
}

/// Property sweep: iterated 3-Opt matches the exact optimum on small
/// random instances across many seeds.
class IteratedOptOptimality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IteratedOptOptimality, FindsOptimumOnSmallInstances) {
  uint64_t Seed = GetParam();
  size_t N = 4 + Seed % 9; // 4..12 cities.
  DirectedTsp D = randomInstance(N, Seed * 13 + 1);
  IteratedOptOptions Options;
  Options.Seed = Seed;
  DtspSolution Solution = solveDirectedTsp(D, Options);
  EXPECT_TRUE(isValidTour(Solution.Tour, N));
  EXPECT_EQ(D.tourCost(Solution.Tour), Solution.Cost);
  EXPECT_EQ(Solution.Cost, solveExactDirected(D)) << "N=" << N;
  EXPECT_EQ(Solution.NumRuns, 10u);
  EXPECT_GE(Solution.RunsFindingBest, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratedOptOptimality,
                         ::testing::Range<uint64_t>(1, 26));

TEST(IteratedOptTest, NearOptimalOnMediumInstances) {
  // 16-18 cities: still exactly solvable; allow a sliver of slack.
  for (uint64_t Seed = 1; Seed != 5; ++Seed) {
    size_t N = 16 + Seed % 3;
    DirectedTsp D = randomInstance(N, Seed * 7 + 3);
    IteratedOptOptions Options;
    Options.Seed = Seed;
    DtspSolution Solution = solveDirectedTsp(D, Options);
    int64_t Optimal = solveExactDirected(D);
    EXPECT_GE(Solution.Cost, Optimal);
    EXPECT_LE(static_cast<double>(Solution.Cost),
              static_cast<double>(Optimal) * 1.05 + 1.0)
        << "seed " << Seed;
  }
}

TEST(IteratedOptTest, TrivialSizes) {
  IteratedOptOptions Options;
  DirectedTsp Two(2);
  Two.setCost(0, 1, 3);
  Two.setCost(1, 0, 4);
  DtspSolution S = solveDirectedTsp(Two, Options);
  EXPECT_EQ(S.Cost, 7);

  DirectedTsp Three(3);
  Three.setCost(0, 1, 1);
  Three.setCost(1, 2, 1);
  Three.setCost(2, 0, 1);
  Three.setCost(0, 2, 10);
  Three.setCost(2, 1, 10);
  Three.setCost(1, 0, 10);
  S = solveDirectedTsp(Three, Options);
  EXPECT_EQ(S.Cost, 3);
}

TEST(IteratedOptTest, DeterministicForFixedSeed) {
  DirectedTsp D = randomInstance(20, 555);
  IteratedOptOptions Options;
  Options.Seed = 77;
  DtspSolution A = solveDirectedTsp(D, Options);
  DtspSolution B = solveDirectedTsp(D, Options);
  EXPECT_EQ(A.Cost, B.Cost);
  EXPECT_EQ(A.Tour, B.Tour);
  EXPECT_EQ(A.RunsFindingBest, B.RunsFindingBest);
}

// Pinned trajectories. The local search and the iterated-3-Opt kick loop
// are performance-critical and have been rewritten for speed under the
// constraint that every tour stays bit-identical. These digests were
// captured from the straightforward implementation (Or-opt rebuilding
// the whole order on every accepted move); any change to the search
// trajectory, including which rotation of the cyclic tour the array
// holds, changes them. The corpus reaches both 2-opt orientations,
// Or-opt insertions before and after the segment, reversed insertions,
// and segments that wrap past array position 0.

namespace {

const size_t PinnedSizes[] = {4, 5, 8, 13, 30, 57, 103};

/// Digest of the exact arrays localSearchSymmetric leaves behind on
/// \p N-city inputs: pair-locked transforms from alternating and fully
/// shuffled starts, seeded restarts after a kick, and plain random
/// symmetric instances.
uint64_t localSearchDigest(size_t N) {
  Digest D;
  for (uint64_t Seed = 1; Seed != 4; ++Seed) {
    Rng R(Seed * 1000 + N);
    for (int Kind = 0; Kind != 2; ++Kind) {
      DirectedTsp Dtsp = Kind == 0
                             ? randomInstance(N, Seed * 7919 + N)
                             : alignmentLikeInstance(N, Seed * 104729 + N);
      SymmetricTransform T = transformToSymmetric(Dtsp);
      NeighborLists Neighbors(T.Sym, 12);

      // Alternating start, then a seeded restart after a kick, exactly as
      // the solver drives it.
      std::vector<City> Dir = canonicalTour(N);
      R.shuffle(Dir);
      std::vector<City> Sym = T.toSymmetricTour(Dir);
      D.add(static_cast<uint64_t>(localSearchSymmetric(T.Sym, Neighbors, Sym)));
      D.add(Sym);
      Dir = T.toDirectedTour(Sym);
      std::vector<City> Touched;
      doubleBridge(Dir, R, &Touched);
      std::vector<City> Seeds;
      for (City C : Touched) {
        Seeds.push_back(C);
        Seeds.push_back(C + static_cast<City>(N));
      }
      Sym = T.toSymmetricTour(Dir);
      D.add(static_cast<uint64_t>(
          localSearchSymmetric(T.Sym, Neighbors, Sym, &Seeds)));
      D.add(Sym);

      // Fully shuffled start: pairs begin broken, so long-range moves
      // and wrapping segments are frequent.
      Sym = canonicalTour(2 * N);
      R.shuffle(Sym);
      D.add(static_cast<uint64_t>(localSearchSymmetric(T.Sym, Neighbors, Sym)));
      D.add(Sym);
    }

    // Plain random symmetric instance, seeded with a random subset.
    SymmetricTsp Plain(N);
    for (City A = 0; A != N; ++A)
      for (City B = A + 1; B != N; ++B)
        Plain.setDist(A, B, static_cast<int64_t>(R.nextBelow(1000)));
    NeighborLists PlainNeighbors(Plain, 8);
    std::vector<City> Tour = canonicalTour(N);
    R.shuffle(Tour);
    D.add(static_cast<uint64_t>(
        localSearchSymmetric(Plain, PlainNeighbors, Tour)));
    D.add(Tour);
    R.shuffle(Tour);
    std::vector<City> Seeds(Tour.begin(), Tour.begin() + (N + 1) / 2);
    D.add(static_cast<uint64_t>(
        localSearchSymmetric(Plain, PlainNeighbors, Tour, &Seeds)));
    D.add(Tour);
  }
  return D.H;
}

/// Digest of solveDirectedTsp's full result on \p N-city random and
/// alignment-like instances.
uint64_t solverDigest(size_t N) {
  Digest D;
  for (int Kind = 0; Kind != 2; ++Kind) {
    DirectedTsp Dtsp = Kind == 0 ? randomInstance(N, 31 * N + 5)
                                 : alignmentLikeInstance(N, 37 * N + 11);
    IteratedOptOptions Options;
    Options.Seed = 1000 + N + Kind;
    DtspSolution S = solveDirectedTsp(Dtsp, Options);
    D.add(S.Tour);
    D.add(static_cast<uint64_t>(S.Cost));
    D.add(S.NumRuns);
    D.add(S.RunsFindingBest);
  }
  return D.H;
}

} // namespace

TEST(PinnedTrajectoryTest, LocalSearchArraysMatchReference) {
  const uint64_t Expected[] = {
      0x8fa28e676d10506cull, 0x682b4d6df7f5c73cull, 0xd3351fb73d42f5dbull,
      0x7af43cea0e9f20b4ull, 0xf7654f3d90f665e3ull, 0xc03d13b1b4b3e487ull,
      0x0d190715cd198b94ull,
  };
  for (size_t I = 0; I != std::size(PinnedSizes); ++I) {
    uint64_t Got = localSearchDigest(PinnedSizes[I]);
    EXPECT_EQ(Got, Expected[I])
        << "N=" << PinnedSizes[I] << " digest 0x" << std::hex << Got;
  }
}

TEST(PinnedTrajectoryTest, SolverResultsMatchReference) {
  const uint64_t Expected[] = {
      0x9cca828158119264ull, 0x633883f977c1cde8ull, 0x1977268b272a80cdull,
      0x2ad729e6201007d5ull, 0x7f7f0e3efd8a4102ull, 0x1129b6dfa4c14f24ull,
      0x9fde25505c155150ull,
  };
  for (size_t I = 0; I != std::size(PinnedSizes); ++I) {
    uint64_t Got = solverDigest(PinnedSizes[I]);
    EXPECT_EQ(Got, Expected[I])
        << "N=" << PinnedSizes[I] << " digest 0x" << std::hex << Got;
  }
}
