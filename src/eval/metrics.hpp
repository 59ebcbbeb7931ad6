#pragma once

#include "detail/detailed_router.hpp"

namespace mebl::eval {

/// Quality metrics of a routed design — the columns of the paper's tables.
struct RouteMetrics {
  std::int64_t wirelength = 0;  ///< same-layer same-net grid adjacencies
  int vias = 0;                 ///< same-net cross-layer adjacencies
  int via_violations = 0;       ///< #VV: vias on stitching-line columns
  int vertical_violations = 0;  ///< vertical wires on stitching lines (must be 0)
  int short_polygons = 0;       ///< #SP: Fig. 5(c) soft-constraint violations
  int routed_nets = 0;
  int total_nets = 0;

  [[nodiscard]] double routability_pct() const noexcept {
    return total_nets == 0
               ? 100.0
               : 100.0 * static_cast<double>(routed_nets) / total_nets;
  }
};

/// Scan the occupancy grid and the per-subnet routing outcomes into the
/// table metrics. A net counts as routed when every one of its subnets
/// routed (single-pin nets are trivially routed).
[[nodiscard]] RouteMetrics compute_metrics(
    const detail::GridGraph& grid, const netlist::Netlist& netlist,
    const std::vector<netlist::Subnet>& subnets,
    const detail::DetailedResult& outcome);

}  // namespace mebl::eval
