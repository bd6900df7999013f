//===- align/Aligners.h - The three layout algorithms compared -------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The layout algorithms the paper evaluates:
///
///  * OriginalAligner — the identity layout ("original" bars; the
///    normalization baseline of Figures 2 and 3).
///  * GreedyAligner — Pettis-Hansen-style bottom-up chaining: consider
///    CFG edges in decreasing execution-frequency order; accept an edge
///    when its head has no layout successor yet, its tail no layout
///    predecessor, and accepting closes no cycle; finally concatenate the
///    chains (entry chain first, remaining chains by falling execution
///    weight).
///  * TspAligner — the paper's contribution: reduce to a DTSP
///    (Reduction.h) and solve with iterated 3-Opt on the pair-locked
///    symmetric transformation.
///  * CalderGrunwaldAligner — the related-work refinement of Section 5:
///    greedy driven by *cost-model benefit* rather than raw frequency,
///    followed by an exhaustive search over the orders of the hottest
///    few chains (our bounded adaptation of their "all orders of the
///    blocks touched by the 15 hottest edges" search).
///  * ExtTspAligner — the 2020s-era baseline: Newell/Pupyrev-style chain
///    merging driven by an ObjectiveFn score delta (objective/), with a
///    bounded split-point search when inserting into short hot chains.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ALIGN_ALIGNERS_H
#define BALIGN_ALIGN_ALIGNERS_H

#include "align/Reduction.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "objective/Objective.h"
#include "profile/Profile.h"
#include "tsp/IteratedOpt.h"

#include <memory>
#include <string>

namespace balign {

/// Which algorithm produces the pipeline's primary layout
/// (ProcedureAlignment::TspLayout — the name is historical; greedy and
/// original are always computed alongside as baselines). The numeric
/// values are wire and cache-key contract: append-only.
enum class PrimaryAligner : uint8_t {
  Tsp = 0,      ///< The paper's DTSP + iterated 3-Opt (the default).
  ExtTsp = 1,   ///< ObjectiveFn-driven chain merging (ExtTspAligner).
  Cg = 2,       ///< CalderGrunwaldAligner.
  Greedy = 3,   ///< GreedyAligner.
  Original = 4, ///< OriginalAligner (the identity layout).
};

/// Stable flag spellings, in value order; each is the name() of the
/// aligner makeAligner returns.
inline constexpr auto PrimaryAlignerNames =
    enumNames<PrimaryAligner>("tsp", "exttsp", "cg", "greedy", "original");
static_assert(PrimaryAlignerNames.count() ==
              static_cast<size_t>(PrimaryAligner::Original) + 1);

/// The report's primary-column heading: PrimaryAlignerNames' spelling.
inline const char *primaryAlignerName(PrimaryAligner Primary) {
  return PrimaryAlignerNames.name(Primary);
}

/// Interface shared by every layout algorithm.
class Aligner {
public:
  virtual ~Aligner();

  /// Short stable identifier: the aligner's PrimaryAlignerNames spelling.
  virtual std::string name() const = 0;

  /// Computes a layout of \p Proc from the training profile.
  virtual Layout align(const Procedure &Proc, const ProcedureProfile &Train,
                       const MachineModel &Model) const = 0;
};

/// Identity layout.
class OriginalAligner : public Aligner {
public:
  std::string name() const override {
    return PrimaryAlignerNames.name(PrimaryAligner::Original);
  }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;
};

/// Pettis-Hansen-style frequency-greedy chaining.
class GreedyAligner : public Aligner {
public:
  std::string name() const override {
    return PrimaryAlignerNames.name(PrimaryAligner::Greedy);
  }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;
};

/// The DTSP-based aligner (the paper's method).
class TspAligner : public Aligner {
public:
  explicit TspAligner(IteratedOptOptions Options = {})
      : Options(Options) {}

  std::string name() const override {
    return PrimaryAlignerNames.name(PrimaryAligner::Tsp);
  }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;

  /// Like align() but also reports solver statistics (tour cost, number
  /// of runs that tied the best — the appendix's reproducibility stat).
  struct Result {
    Layout L;
    int64_t TourCost = 0;
    unsigned NumRuns = 0;
    unsigned RunsFindingBest = 0;
  };
  Result alignWithStats(const Procedure &Proc, const ProcedureProfile &Train,
                        const MachineModel &Model) const;

  const IteratedOptOptions &options() const { return Options; }

private:
  IteratedOptOptions Options;
};

/// Cost-model greedy with bounded exhaustive chain-order search.
class CalderGrunwaldAligner : public Aligner {
public:
  /// \p MaxExhaustiveChains chains (beyond the entry chain) participate
  /// in the exhaustive order search; the rest keep the greedy order.
  explicit CalderGrunwaldAligner(unsigned MaxExhaustiveChains = 6)
      : MaxExhaustiveChains(MaxExhaustiveChains) {}

  std::string name() const override {
    return PrimaryAlignerNames.name(PrimaryAligner::Cg);
  }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;

private:
  unsigned MaxExhaustiveChains;
};

/// Newell/Pupyrev-style chain merging ("Improved Basic Block Reordering"):
/// every block starts as its own chain; the pair of chains connected by an
/// executed CFG edge whose merge improves the objective score the most is
/// merged, repeatedly, until no merge improves the score. Besides plain
/// concatenation X+Y, a bounded split-point search inserts Y at every
/// interior position of X when X is short (<= MaxSplitBlocks) and at
/// least as hot as Y — the adaptation of the paper's split merges that
/// keeps each round linear in chain length. Leftover chains concatenate
/// entry-first, then by falling execution weight. Fully deterministic:
/// candidate pairs are enumerated in chain-index order and ties keep the
/// first candidate.
class ExtTspAligner : public Aligner {
public:
  explicit ExtTspAligner(ObjectiveKind Objective = ObjectiveKind::ExtTsp,
                         unsigned MaxSplitBlocks = 16)
      : Objective(Objective), MaxSplitBlocks(MaxSplitBlocks) {}

  std::string name() const override {
    return PrimaryAlignerNames.name(PrimaryAligner::ExtTsp);
  }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;

  ObjectiveKind objective() const { return Objective; }

private:
  ObjectiveKind Objective;
  unsigned MaxSplitBlocks;
};

/// The one aligner factory. \p Objective configures ExtTsp and \p Solver
/// configures Tsp; the other aligners ignore both.
std::unique_ptr<Aligner> makeAligner(PrimaryAligner Primary,
                                     ObjectiveKind Objective =
                                         ObjectiveKind::ExtTsp,
                                     const IteratedOptOptions &Solver = {});

} // namespace balign

#endif // BALIGN_ALIGN_ALIGNERS_H
