//===- tsp/LocalSearch.cpp --------------------------------------------------===//

#include "tsp/LocalSearch.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace balign;

NeighborLists::NeighborLists(const SymmetricTsp &Sym, unsigned K) {
  size_t N = Sym.numCities();
  Lists.resize(N);
  size_t Keep = std::min<size_t>(K, N > 0 ? N - 1 : 0);
  std::vector<City> All(N);
  std::iota(All.begin(), All.end(), 0);
  for (City C = 0; C != N; ++C) {
    std::vector<City> Others;
    Others.reserve(N - 1);
    for (City O : All)
      if (O != C)
        Others.push_back(O);
    std::partial_sort(Others.begin(), Others.begin() + Keep, Others.end(),
                      [&](City A, City B) {
                        int64_t DA = Sym.dist(C, A);
                        int64_t DB = Sym.dist(C, B);
                        return DA != DB ? DA < DB : A < B;
                      });
    Others.resize(Keep);
    Lists[C] = std::move(Others);
  }
}

namespace {

/// Array-based tour with position index and don't-look bits.
///
/// The search trajectory depends on the exact array, not only on the
/// cyclic tour it encodes: reverseSegment picks which side of a 2-opt
/// move to reverse from absolute positions. applyOrOpt therefore
/// reproduces, move for move, the array a rebuild would produce (walk the
/// order from position 0, drop the segment, reinsert it after C).
class TourState {
public:
  TourState(const SymmetricTsp &Sym, const NeighborLists &Neighbors,
            std::vector<City> &Tour, const std::vector<City> *Seeds,
            LocalSearchWorkspace &Work)
      : Sym(Sym), Neighbors(Neighbors), Order(Tour.data()),
        N(static_cast<uint32_t>(Tour.size())), Queue(Work.Queue),
        InQueue(Work.InQueue) {
    Work.Pos.resize(N);
    Pos = Work.Pos.data();
    for (uint32_t P = 0; P != N; ++P)
      Pos[Order[P]] = P;
    Queue.clear();
    Queue.reserve(N);
    InQueue.assign(N, 0);
    if (Seeds) {
      for (City C : *Seeds)
        pushActive(C);
    } else {
      for (City C = 0; C != N; ++C)
        pushActive(C);
    }
  }

  /// Runs to exhaustion; Order holds the local optimum afterwards.
  void run() {
    while (!Queue.empty()) {
      City C = Queue.back();
      Queue.pop_back();
      InQueue[C] = 0;
      // Retry the same city until it yields nothing; each success may
      // enable further moves around it.
      while (improveCity(C)) {
      }
    }
  }

  LocalSearchStats Moves;

private:
  const SymmetricTsp &Sym;
  const NeighborLists &Neighbors;
  // The tour never changes size during a search, so raw pointers into
  // the caller's tour and the workspace stay valid throughout.
  City *Order;
  uint32_t *Pos = nullptr;
  uint32_t N;
  std::vector<City> &Queue;
  std::vector<uint8_t> &InQueue;

  uint32_t nextPos(uint32_t P) const { return P + 1 == N ? 0 : P + 1; }
  uint32_t prevPos(uint32_t P) const { return (P == 0 ? N : P) - 1; }
  City succ(City C) const { return Order[nextPos(Pos[C])]; }
  City pred(City C) const { return Order[prevPos(Pos[C])]; }

  /// Forward distance from position \p From to position \p To, in
  /// [0, N), without a branch or a division.
  uint32_t offset(uint32_t From, uint32_t To) const {
    return To - From + (N & -static_cast<uint32_t>(To < From));
  }

  void pushActive(City C) {
    if (InQueue[C])
      return;
    InQueue[C] = 1;
    Queue.push_back(C);
  }

  /// Rewrites Pos for the cities at positions [First, Last).
  void renumber(uint32_t First, uint32_t Last) {
    for (uint32_t P = First; P != Last; ++P)
      Pos[Order[P]] = P;
  }

  /// Reverses the tour segment running forward from city B to city C
  /// (inclusive); reverses whichever representation side is contiguous.
  void reverseSegment(City B, City C) {
    uint32_t I = Pos[B], J = Pos[C];
    if ((offset(I, J) + 1) * 2 > N) {
      // Reversing the complement yields the same cyclic tour.
      std::swap(I, J);
      I = nextPos(I);
      J = prevPos(J);
    }
    // Reverse positions I..J walking inward cyclically.
    uint32_t Len = offset(I, J) + 1;
    for (uint32_t S = 0; S < Len / 2; ++S) {
      std::swap(Order[I], Order[J]);
      Pos[Order[I]] = I;
      Pos[Order[J]] = J;
      I = nextPos(I);
      J = prevPos(J);
    }
  }

  bool improveCity(City A) {
    if (tryTwoOpt(A, /*Forward=*/true) || tryTwoOpt(A, /*Forward=*/false))
      return true;
    unsigned MaxSegment = std::min<unsigned>(MaxOrOptSegment, N / 2);
    // The segment A..SLast grows by one city per length. A failed
    // tryOrOpt leaves the tour untouched, so extending it stays exact.
    City SLast = A;
    for (unsigned L = 1; L <= MaxSegment; ++L) {
      if (L > 1)
        SLast = succ(SLast);
      if (tryOrOpt(A, SLast, L))
        return true;
    }
    return false;
  }

  /// Longest segment Or-opt relocates. Length-1..3 moves are the classic
  /// Or-opt; longer lengths realize the remaining 3-opt segment
  /// relocations, which matter here because chains of locked city pairs
  /// (= runs of basic blocks) want to move as units.
  static constexpr unsigned MaxOrOptSegment = 12;

  /// 2-opt: removes (A, B) where B = succ(A) (or pred for the backward
  /// direction) and (C, D); adds (A, C) and (B, D).
  bool tryTwoOpt(City A, bool Forward) {
    City B = Forward ? succ(A) : pred(A);
    const int64_t *RowA = Sym.row(A);
    int64_t DistAB = RowA[B];
    for (City C : Neighbors.neighbors(A)) {
      int64_t DistAC = RowA[C];
      if (DistAC >= DistAB)
        break; // Sorted list: no closer candidate remains.
      if (C == B)
        continue;
      City D = Forward ? succ(C) : pred(C);
      if (D == A)
        continue;
      int64_t Delta = DistAC + Sym.dist(B, D) - DistAB - Sym.dist(C, D);
      if (Delta >= 0)
        continue;
      // In forward orientation the reversed run is B..C; in backward
      // orientation the tour reads ...B A...D C... and reversing the
      // forward run A..D realizes the same reconnection.
      if (Forward)
        reverseSegment(B, C);
      else
        reverseSegment(A, D);
      ++Moves.TwoOptMoves;
      pushActive(A);
      pushActive(B);
      pushActive(C);
      pushActive(D);
      return true;
    }
    return false;
  }

  /// Or-opt: moves the length-L segment A..SLast to sit after some
  /// candidate city C elsewhere in the tour, in either orientation.
  bool tryOrOpt(City A, City SLast, unsigned L) {
    if (N < L + 3)
      return false;
    // Segment A = S0 .. SLast, with P before it and Next after it.
    City P = pred(A);
    City Next = succ(SLast);
    if (Next == P)
      return false; // Segment plus endpoints is the whole tour.
    int64_t RemoveGain =
        Sym.dist(P, A) + Sym.dist(SLast, Next) - Sym.dist(P, Next);

    // The segment occupies the L positions running forward from A.
    uint32_t Start = Pos[A];
    auto InSegment = [&](City X) { return offset(Start, Pos[X]) < L; };
    const int64_t *RowA = Sym.row(A);
    const int64_t *RowLast = Sym.row(SLast);

    // Candidate insertion points: after C, where C is near either
    // endpoint of the segment.
    for (unsigned EndIdx = 0; EndIdx != 2; ++EndIdx) {
      City Endpoint = EndIdx == 0 ? A : SLast;
      if (EndIdx == 1 && L == 1)
        break; // Same endpoint twice.
      for (City C : Neighbors.neighbors(Endpoint)) {
        if (InSegment(C) || C == P)
          continue;
        City D = succ(C);
        if (InSegment(D))
          continue;
        int64_t Base = Sym.dist(C, D);
        // Forward: C -> S0 ... SLast -> D. Reversed: C -> SLast ... S0 -> D.
        int64_t AddForward = RowA[C] + RowLast[D];
        int64_t AddReversed = RowLast[C] + RowA[D];
        bool Reversed = AddReversed < AddForward;
        int64_t Add = Reversed ? AddReversed : AddForward;
        int64_t Delta = Add - Base - RemoveGain;
        if (Delta >= 0)
          continue;
        applyOrOpt(Start, L, C, Reversed);
        ++Moves.OrOptMoves;
        pushActive(A);
        pushActive(SLast);
        pushActive(P);
        pushActive(Next);
        pushActive(C);
        pushActive(D);
        return true;
      }
    }
    return false;
  }

  /// Moves the length-\p L segment at positions Start.. (cyclically) to
  /// sit directly after city \p C, reversed if asked. Splices in place:
  /// only the positions between the segment and C move, and the result
  /// is the array the remove-and-reinsert rebuild would produce.
  void applyOrOpt(uint32_t Start, uint32_t L, City C, bool Reversed) {
    assert(offset(Start, Pos[C]) >= L && "or-opt lost a city");
    if (Start + L > N) {
      // The segment wraps past position 0. The rebuild's array starts
      // with the first city after the segment, so rotate it there; the
      // segment then ends the array.
      std::rotate(Order, Order + (Start + L - N), Order + N);
      renumber(0, N);
      Start = N - L;
    }
    uint32_t CPos = Pos[C];
    uint32_t First, Last, Dest;
    if (CPos < Start) {
      // ... C [gap] Seg ... -> ... C Seg [gap] ...
      First = CPos + 1;
      Last = Start + L;
      std::rotate(Order + First, Order + Start, Order + Last);
      Dest = First;
    } else {
      // ... Seg [gap] C ... -> ... [gap] C Seg ...
      First = Start;
      Last = CPos + 1;
      std::rotate(Order + First, Order + Start + L, Order + Last);
      Dest = Last - L;
    }
    if (Reversed)
      std::reverse(Order + Dest, Order + Dest + L);
    renumber(First, Last);
  }
};

} // namespace

int64_t balign::localSearchSymmetric(const SymmetricTsp &Sym,
                                     const NeighborLists &Neighbors,
                                     std::vector<City> &Tour,
                                     const std::vector<City> *Seeds,
                                     LocalSearchStats *Stats,
                                     LocalSearchWorkspace *Work) {
  assert(isValidTour(Tour, Sym.numCities()) && "invalid input tour");
  if (Tour.size() >= 5) {
    LocalSearchWorkspace Local;
    TourState State(Sym, Neighbors, Tour, Seeds, Work ? *Work : Local);
    State.run();
    if (Stats) {
      Stats->TwoOptMoves += State.Moves.TwoOptMoves;
      Stats->OrOptMoves += State.Moves.OrOptMoves;
    }
  }
  assert(isValidTour(Tour, Sym.numCities()) && "local search broke the tour");
  return Sym.tourCost(Tour);
}
