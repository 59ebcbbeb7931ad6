#pragma once

#include "grid/routing_grid.hpp"

namespace mebl::grid {

/// Identifier of a global-routing tile (GCell) in the tiling of a
/// RoutingGrid. Flattened index = ty * tiles_x + tx.
struct GCellId {
  int tx = 0;
  int ty = 0;

  friend constexpr bool operator==(GCellId, GCellId) = default;
};

/// MEBL-aware routing-resource model for GCells (paper SIII-A, Fig. 7).
///
/// The capacity of a tile boundary is the number of tracks that may carry a
/// wire across it; stitching lines remove vertical tracks (vertical routing
/// constraint), so top/bottom boundaries of tiles containing a line lose
/// capacity. Each tile additionally has a *line-end capacity*: the number of
/// vertical tracks outside stitch unfriendly regions, an upper bound on the
/// number of vertical line ends the tile can host without risking short
/// polygons.
///
/// Stitching lines are vertical, so every capacity is uniform along one
/// axis and the signatures take only the coordinate it depends on: the
/// tile row for horizontal boundaries, the tile column for vertical
/// boundaries and line ends.
class CapacityModel {
 public:
  explicit CapacityModel(const RoutingGrid& grid) : grid_(&grid) {}

  /// Wires crossing a vertical boundary between two tiles of row ty are
  /// horizontal; capacity = tracks along y times horizontal layer count.
  [[nodiscard]] int horizontal_edge_capacity(int ty) const;

  /// Wires crossing a horizontal boundary between two tiles of column tx
  /// are vertical; capacity = stitch-free vertical tracks times vertical
  /// layer count.
  [[nodiscard]] int vertical_edge_capacity(int tx) const;

  /// Line-end capacity of every tile of column tx: vertical tracks outside
  /// stitch unfriendly regions, times vertical layer count.
  [[nodiscard]] int line_end_capacity(int tx) const;

  /// Vertical boundary capacity with the stitch plan ignored
  /// (conventional-lithography estimation, used for the baseline router
  /// comparison).
  [[nodiscard]] int vertical_edge_capacity_no_stitch(int tx) const;

 private:
  const RoutingGrid* grid_;
};

}  // namespace mebl::grid
