#pragma once

#include <vector>

#include "global/global_router.hpp"

namespace mebl::assign {

/// A maximal straight run of a global route inside one panel.
///
/// Vertical runs live in *column panels* (a column of GCells) and are the
/// objects of stitch-aware layer and track assignment; horizontal runs live
/// in row panels and are assigned conventionally. `span` is in tile
/// coordinates along the run; `fixed_tile` is the panel index (tx for
/// vertical runs, ty for horizontal runs).
struct GlobalRun {
  netlist::NetId net = -1;
  std::size_t path_index = 0;  ///< index into GlobalResult::paths
  geom::Orientation dir = geom::Orientation::kVertical;
  int fixed_tile = 0;
  geom::Interval span;  ///< tile interval along the run (length >= 1... 2 tiles min)

  /// Horizontal continuation at each end of a *vertical* run: 0 = none
  /// (terminal pin / via only), -1 = the connected horizontal wire leaves
  /// toward smaller x, +1 = toward larger x. Short-polygon (bad-end)
  /// analysis needs this: an end in a stitch unfriendly region is bad only
  /// when its horizontal wire crosses the adjacent stitching line.
  int lo_continuation = 0;
  int hi_continuation = 0;

  // --- filled by layer assignment ---
  geom::LayerId layer = -1;

  // --- filled by track assignment ---
  /// Per tile-row piece: (tile interval, absolute track coordinate).
  /// Consecutive pieces with different tracks imply a dogleg at the
  /// boundary. Empty when the run was ripped up (assigned directly during
  /// detailed routing).
  std::vector<std::pair<geom::Interval, geom::Coord>> pieces;
  bool ripped = false;
  /// Bad ends left after track assignment (0..2) — drives the stitch-aware
  /// detailed-routing net order.
  int bad_ends = 0;
};

/// All runs extracted from a global-routing result, with per-path indexing
/// so later stages can walk a subnet's runs in path order.
struct RoutePlan {
  std::vector<GlobalRun> runs;
  std::vector<std::vector<std::size_t>> runs_of_path;  ///< path -> run indices
};

/// Split every routed TilePath into maximal straight runs and derive the
/// end-continuation annotations; each run's net is its subnet's
/// (`subnets` is parallel to result.paths). Single-tile paths produce no
/// runs (they are routed purely by the detailed router). The extraction
/// fields of a plan are always exactly this function of the paths; only
/// the assignment fields are the assignment stages' own.
[[nodiscard]] RoutePlan extract_runs(
    const global::GlobalResult& result,
    const std::vector<netlist::Subnet>& subnets);

/// Copy the assignment fields (layer, pieces, ripped, bad_ends) of `from`
/// onto `to`, a run extracted from the same path segment.
void copy_assignment(const GlobalRun& from, GlobalRun& to);

/// Indices of the vertical runs in column panel `tx` (any layer).
[[nodiscard]] std::vector<std::size_t> runs_in_column_panel(
    const RoutePlan& plan, int tx);

/// Indices of the horizontal runs in row panel `ty` (any layer).
[[nodiscard]] std::vector<std::size_t> runs_in_row_panel(const RoutePlan& plan,
                                                         int ty);

}  // namespace mebl::assign
