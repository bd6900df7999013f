//===- tsp/LocalSearch.h - Symmetric-TSP local search ----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Neighbor-list-driven local search on symmetric instances, in the style
/// of Johnson & McGeoch's TSP case study (the paper's reference [10]).
/// Two move classes are searched to exhaustion with don't-look bits:
///
///  * 2-opt edge exchanges, and
///  * segment insertions (Or-opt) of length 1-3 in both orientations,
///    which are exactly the 3-opt reconnections reachable without a full
///    sequential depth-3 search.
///
/// On the pair-locked symmetric transformation of a directed instance,
/// improving moves can never break a locked pair edge (doing so would add
/// at least one forbidden edge, and the lock bonus exceeds the total
/// absolute real cost), so tours stay collapsible to directed tours.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_LOCALSEARCH_H
#define BALIGN_TSP_LOCALSEARCH_H

#include "tsp/Instance.h"

#include <vector>

namespace balign {

/// Precomputed K-nearest-neighbor candidate lists for a symmetric
/// instance; shared across all local-search invocations on it.
class NeighborLists {
public:
  NeighborLists() = default;
  NeighborLists(const SymmetricTsp &Sym, unsigned K);

  const std::vector<City> &neighbors(City C) const { return Lists[C]; }

private:
  std::vector<std::vector<City>> Lists;
};

/// Improving moves applied by localSearchSymmetric, accumulated across
/// calls. Both counts are pure functions of the inputs, so the solver
/// publishes them as thread-count-stable counters.
struct LocalSearchStats {
  uint64_t TwoOptMoves = 0; ///< Accepted 2-opt exchanges.
  uint64_t OrOptMoves = 0;  ///< Accepted segment insertions.
};

/// Scratch buffers for localSearchSymmetric. A caller that searches many
/// tours (the iterated-3-Opt kick loop) keeps one alive so repeated calls
/// allocate nothing; the contents between calls carry no meaning.
struct LocalSearchWorkspace {
  std::vector<uint32_t> Pos;
  std::vector<City> Queue;
  std::vector<uint8_t> InQueue;
};

/// Runs 2-opt + Or-opt local search to exhaustion on \p Tour (modified in
/// place); returns the final tour cost. If \p Seeds is non-null, only the
/// listed cities start active (the standard iterated-local-search trick
/// after a kick: everything far from the perturbed edges is already
/// locally optimal); otherwise every city starts active. Applied moves
/// are added to \p Stats when it is non-null; \p Work, when non-null,
/// supplies the scratch buffers.
int64_t localSearchSymmetric(const SymmetricTsp &Sym,
                             const NeighborLists &Neighbors,
                             std::vector<City> &Tour,
                             const std::vector<City> *Seeds = nullptr,
                             LocalSearchStats *Stats = nullptr,
                             LocalSearchWorkspace *Work = nullptr);

} // namespace balign

#endif // BALIGN_TSP_LOCALSEARCH_H
