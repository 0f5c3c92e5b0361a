// Directed-graph view of a netlist, following the paper's fig. 5: every
// gate is a vertex, every driver->sink connection a directed edge. This is
// the structure over which the formal model of section III computes
//   Nc  — number of logic levels (gates in series on the critical path),
//   Nij — gates at level i (statically: level occupancy; dynamically the
//         simulator reports which of them switch),
//   Nt  — total transitions per computation (measured by simulation on
//         balanced blocks, constant per block).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "qdi/netlist/netlist.hpp"

namespace qdi::netlist {

class Graph {
 public:
  /// Builds the adjacency from the netlist. Pseudo-cells participate:
  /// Input cells are the sources (level 0), Output cells the final sinks.
  explicit Graph(const Netlist& nl);

  const Netlist& netlist() const noexcept { return *nl_; }

  const std::vector<CellId>& successors(CellId c) const { return succ_.at(c); }
  const std::vector<CellId>& predecessors(CellId c) const { return pred_.at(c); }

  /// Topological order over the acyclic subgraph. QDI circuits contain
  /// feedback (C-element acknowledge loops); edges into Muller gates from
  /// higher-numbered cells are treated as cut-points (standard practice:
  /// state-holding gates break combinational cycles). `is_dag()` reports
  /// whether any cycle through purely combinational gates exists — that
  /// would be a genuine structural error.
  const std::vector<CellId>& topo_order() const noexcept { return topo_; }
  bool combinational_cycle() const noexcept { return comb_cycle_; }

  /// Level of a cell: longest path (in gates) from any Input pseudo-cell,
  /// with cycle-cut edges ignored. Input cells have level 0; the first
  /// layer of real gates has level 1 (matching "level 1..4" in fig. 5).
  int level(CellId c) const { return level_.at(c); }

  /// Nc: the number of logic levels = max level over real gates.
  int num_levels() const noexcept { return nc_; }

  /// Static level occupancy |{cells at level i}| for i in 1..Nc. This is
  /// the upper bound of the paper's Nij (all gates at the level switching).
  std::vector<std::size_t> level_occupancy() const;

  /// Transitive fanin cone of a net: every cell that can influence it
  /// (cycle-cut edges ignored). Sorted by cell id.
  std::vector<CellId> fanin_cone(NetId net) const;

  /// Graphviz DOT of the whole graph (or of a cone when `roots` given),
  /// with nets annotated by their capacitance — the "annotated directed
  /// graph" of fig. 5.
  std::string to_dot() const;
  std::string cone_to_dot(NetId root) const;

 private:
  void levelize();

  const Netlist* nl_;
  std::vector<std::vector<CellId>> succ_;
  std::vector<std::vector<CellId>> pred_;
  std::vector<CellId> topo_;
  std::vector<int> level_;
  std::vector<std::vector<CellId>> by_level_;
  int nc_ = 0;
  bool comb_cycle_ = false;
};

}  // namespace qdi::netlist
