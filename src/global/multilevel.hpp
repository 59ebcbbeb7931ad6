#pragma once

#include <vector>

#include "geom/rect.hpp"
#include "global/search_scratch.hpp"
#include "netlist/netlist.hpp"

namespace mebl::global {

/// Bottom-up multilevel schedule (paper SII-B, Fig. 6).
///
/// The coarsening scheme repeatedly merges 2x2 groups of tiles. A subnet is
/// *local at level L* when its GCell bounding box fits inside a single level-L
/// cluster; the two-pass bottom-up framework routes subnets in ascending
/// level order so that local nets are routed before longer ones.
class MultilevelScheduler {
 public:
  /// `tiles_x`/`tiles_y`: GCell grid extent. The number of levels is the
  /// smallest L with 2^L clusters covering the whole grid.
  MultilevelScheduler(int tiles_x, int tiles_y);

  [[nodiscard]] int num_levels() const noexcept { return num_levels_; }

  /// Level at which a subnet whose GCell bbox is `tile_bbox` becomes local.
  [[nodiscard]] int level_of(const geom::Rect& tile_bbox) const;

  /// Cluster region (in tile coordinates, clipped to the grid) containing
  /// `tile_bbox` at the given level. Routing for a local net is confined to
  /// this region (plus any margin the router adds).
  [[nodiscard]] geom::Rect cluster_region(const geom::Rect& tile_bbox,
                                          int level) const;

  /// Bucket subnet indices by routing level: result[L] lists the indices of
  /// `tile_bboxes` that become local at level L.
  [[nodiscard]] std::vector<std::vector<std::size_t>> schedule(
      const std::vector<geom::Rect>& tile_bboxes) const;

 private:
  int tiles_x_;
  int tiles_y_;
  int num_levels_;
};

// ---------------------------------------------------------------------------
// Coarsen–route–refine (DESIGN.md §15)
//
// The scheduler above orders subnets bottom-up; the machinery below adds the
// *top-down* half that makes paper-scale grids tractable: long subnets are
// first routed on a coarsened congestion graph (factor x factor tiles per
// coarse cell, capacities aggregated by summing the fine boundary/vertex
// capacities each coarse edge/cell collapses), the coarse path is committed
// as coarse demand so later long nets spread out, and the fine search is
// then confined to the corridor of fine tiles under the coarse path. A
// corridor search that fails falls back to the full grid, exactly like the
// cluster-region fallback of the flat pass.

/// Fine tiles per coarse cell along each axis of the coarsen–route–refine
/// global pass (>= 2).
inline constexpr int kCoarsenFactor = 8;
static_assert(kCoarsenFactor >= 2);
/// Minimum fine-tile bbox span of a subnet for coarse-first routing;
/// shorter subnets keep the flat cluster-region schedule (a corridor cannot
/// beat a region that small).
inline constexpr int kMinCoarseSpan = 16;
/// Fine tiles of margin around each coarse cell when the corridor is
/// stamped, so refinement can detour around congestion crossing the
/// corridor boundary.
inline constexpr int kCorridorMargin = 2;

/// Aggregate `fine` into a dense coarse graph of ceil(X/factor) x
/// ceil(Y/factor) cells: a coarse h-edge's capacity sums the fine h-edge
/// capacities along the collapsed column boundary (v-edges and line-end
/// vertices likewise). Demands start at zero — the coarse pass prices only
/// coarse-level contention.
[[nodiscard]] RoutingGraph coarsen_graph(const RoutingGraph& fine, int factor);

/// Commit (+1) or rip (-1) a coarse tile path's demand onto `coarse`: edge
/// demand per step and line-end demand at both end cells of every maximal
/// vertical run — the same bookkeeping CongestionIndex::commit applies to
/// fine paths, minus the reverse index (the sequential coarse pass needs
/// none).
void commit_coarse_path(RoutingGraph& coarse,
                        const std::vector<grid::GCellId>& cells, int sign);

/// Stamp the fine-tile corridor of `coarse_cells` (margin-inflated, clipped
/// to the fine grid) into `scratch`'s corridor mask and return its bounding
/// box — the region rect of the refinement search. Must run on the thread
/// that will search, since the mask lives in that thread's scratch.
geom::Rect stamp_corridor(const std::vector<grid::GCellId>& coarse_cells,
                          int factor, int margin, int tiles_x, int tiles_y,
                          GlobalSearchScratch& scratch);

}  // namespace mebl::global
