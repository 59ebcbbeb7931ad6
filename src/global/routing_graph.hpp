#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "grid/gcell.hpp"

namespace mebl::global {

/// Congestion state of the global-routing graph (paper SIII-A, Fig. 7).
///
/// Vertices are GCells; edges join 4-neighbouring GCells. Each edge carries
/// a capacity (wires that can cross the shared tile boundary — reduced by
/// stitching lines for vertical crossings when `stitch_aware` is set) and a
/// demand. Each vertex additionally carries a *line-end capacity* (vertical
/// tracks outside stitch unfriendly regions) and a line-end demand; the
/// stitch-aware router prices both (eqs. 1-3).
///
/// Costs are served from cached rows (DESIGN.md §10): psi values are
/// memoized per (demand, capacity) and the marginal cost psi(d+1, c) of
/// every edge and vertex is kept in a flat row, updated incrementally by
/// add_*_demand. Demands change only at the router's sequential batch
/// barriers, so the rows are frozen — and race-free to read — during the
/// parallel search phase of a batch; relaxations become table lookups
/// instead of exp2 calls, bit-identical to computing psi directly. Overflow
/// totals are maintained incrementally the same way.
///
/// Storage is one dense layout (DESIGN.md §15): a flat capacity, demand
/// and frozen-cost slot per edge and vertex, the rows the search kernels
/// read directly. A grid-backed graph is built from per-axis capacities
/// (the CapacityModel is uniform along one axis, so O(X+Y) model calls
/// cover the grid); a coarsened graph takes explicit capacities, which are
/// not axis-uniform, through with_capacities. Both share one constructor.
class RoutingGraph {
 public:
  RoutingGraph(const grid::RoutingGrid& grid, bool stitch_aware);

  /// A dense graph over an explicit capacity assignment (no RoutingGrid
  /// behind it) — the constructor the multilevel pass uses for coarsened
  /// graphs whose capacities are aggregates of a finer graph's. Vector
  /// layouts match h_index/v_index/t_index.
  [[nodiscard]] static RoutingGraph with_capacities(
      int tiles_x, int tiles_y, std::vector<int> h_cap,
      std::vector<int> v_cap, std::vector<int> vert_cap);

  [[nodiscard]] int tiles_x() const noexcept { return tiles_x_; }
  [[nodiscard]] int tiles_y() const noexcept { return tiles_y_; }

  // --- edges ---------------------------------------------------------------
  // h-edge (tx,ty): boundary between (tx,ty) and (tx+1,ty), 0 <= tx < X-1.
  // v-edge (tx,ty): boundary between (tx,ty) and (tx,ty+1), 0 <= ty < Y-1.

  [[nodiscard]] int h_capacity(int tx, int ty) const {
    return h_cap_[h_index(tx, ty)];
  }
  [[nodiscard]] int v_capacity(int tx, int ty) const {
    return v_cap_[v_index(tx, ty)];
  }
  [[nodiscard]] int h_demand(int tx, int ty) const {
    return h_dem_[h_index(tx, ty)];
  }
  [[nodiscard]] int v_demand(int tx, int ty) const {
    return v_dem_[v_index(tx, ty)];
  }
  void add_h_demand(int tx, int ty, int delta);
  void add_v_demand(int tx, int ty, int delta);

  /// Congestion cost psi_e = 2^(d/c) - 1 of the edge *after* adding `extra`
  /// wires (the router prices the marginal wire with extra = 1, served from
  /// the cached row; other extras compute psi directly).
  [[nodiscard]] double h_cost(int tx, int ty, int extra = 1) const {
    if (extra != 1) return psi(h_demand(tx, ty) + extra, h_capacity(tx, ty));
    return h_cost_row_[h_index(tx, ty)];
  }
  [[nodiscard]] double v_cost(int tx, int ty, int extra = 1) const {
    if (extra != 1) return psi(v_demand(tx, ty) + extra, v_capacity(tx, ty));
    return v_cost_row_[v_index(tx, ty)];
  }

  // --- vertices (line ends) --------------------------------------------------

  [[nodiscard]] int vertex_capacity(int tx, int ty) const {
    return vert_cap_[t_index(tx, ty)];
  }
  [[nodiscard]] int vertex_demand(int tx, int ty) const {
    return vert_dem_[t_index(tx, ty)];
  }
  void add_vertex_demand(int tx, int ty, int delta);

  /// Line-end congestion cost psi_v = 2^(d/c) - 1 after `extra` more ends.
  [[nodiscard]] double vertex_cost(int tx, int ty, int extra = 1) const {
    if (extra != 1)
      return psi(vertex_demand(tx, ty) + extra, vertex_capacity(tx, ty));
    return vert_cost_row_[t_index(tx, ty)];
  }

  // --- overflow metrics (Table IV) -------------------------------------------

  /// Total vertex overflow: sum over tiles of max(0, demand - capacity).
  /// O(1): maintained incrementally by add_vertex_demand.
  [[nodiscard]] int total_vertex_overflow() const noexcept {
    return total_vertex_overflow_;
  }
  /// Maximum vertex overflow over all tiles (one scan of the vertex rows).
  [[nodiscard]] int max_vertex_overflow() const;
  /// Total edge overflow over both edge directions. O(1): maintained
  /// incrementally by add_h_demand / add_v_demand.
  [[nodiscard]] int total_edge_overflow() const noexcept {
    return total_edge_overflow_;
  }

  // --- storage telemetry (DESIGN.md §15) -------------------------------------

  [[nodiscard]] std::size_t tiles_total() const noexcept {
    return static_cast<std::size_t>(tiles_x_) * tiles_y_;
  }
  /// Resident bytes of the congestion tables (capacity/demand/cost rows;
  /// excludes the psi memo, which is shared and bounded by the distinct
  /// capacities present).
  [[nodiscard]] std::size_t storage_bytes() const noexcept;

 private:
  /// Capacity rows in the h_index/v_index/t_index layouts.
  struct Capacities {
    int tiles_x = 0;
    int tiles_y = 0;
    std::vector<int> h, v, vert;
  };

  /// Broadcast the CapacityModel's per-axis values over the tile grid.
  [[nodiscard]] static Capacities axis_capacities(
      const grid::RoutingGrid& grid, bool stitch_aware);

  /// The one constructor body: zero demand, psi memo seeded for the
  /// largest capacity present, marginal-cost rows frozen at demand 0.
  explicit RoutingGraph(Capacities caps);

  [[nodiscard]] std::size_t h_index(int tx, int ty) const {
    return static_cast<std::size_t>(ty) * (tiles_x_ - 1) + tx;
  }
  [[nodiscard]] std::size_t v_index(int tx, int ty) const {
    return static_cast<std::size_t>(ty) * tiles_x_ + tx;
  }
  [[nodiscard]] std::size_t t_index(int tx, int ty) const {
    return static_cast<std::size_t>(ty) * tiles_x_ + tx;
  }

  /// psi = 2^(d/c) - 1; a zero-capacity resource is priced effectively
  /// infinite (but finite, so routing can still complete when forced).
  [[nodiscard]] static double psi(int demand, int capacity);

  /// Memoized psi keyed on (demand, capacity): grows the per-capacity row
  /// on demand, every entry computed by psi() itself so lookups are
  /// bit-identical to the direct call. Only invoked from construction and
  /// add_*_demand (sequential phases), never from the read-only cost path.
  [[nodiscard]] double psi_lookup(int demand, int capacity);

  int tiles_x_ = 0;
  int tiles_y_ = 0;

  std::vector<int> h_cap_, v_cap_, h_dem_, v_dem_;
  std::vector<int> vert_cap_, vert_dem_;
  /// Frozen marginal-cost rows: psi(demand + 1, capacity) per resource.
  std::vector<double> h_cost_row_, v_cost_row_, vert_cost_row_;

  /// psi memo, indexed [capacity][demand] (capacities are bounded by the
  /// construction-time maximum; demands grow rows lazily).
  std::vector<std::vector<double>> psi_memo_;
  int total_edge_overflow_ = 0;
  int total_vertex_overflow_ = 0;
};

/// Walk the demand a tile path puts on the graph: on_edge(horizontal, tx, ty)
/// for the h- or v-edge of every step, in path order, then
/// on_line_end(tx, ty) at both end tiles of every maximal vertical run. The
/// one walk behind CongestionIndex::commit and commit_coarse_path.
template <typename EdgeFn, typename LineEndFn>
void for_each_demand(const std::vector<grid::GCellId>& tiles, EdgeFn&& on_edge,
                     LineEndFn&& on_line_end) {
  for (std::size_t i = 0; i + 1 < tiles.size(); ++i) {
    const grid::GCellId a = tiles[i];
    const grid::GCellId b = tiles[i + 1];
    if (a.ty == b.ty)
      on_edge(true, std::min(a.tx, b.tx), a.ty);
    else
      on_edge(false, a.tx, std::min(a.ty, b.ty));
  }
  std::size_t i = 0;
  while (i + 1 < tiles.size()) {
    if (tiles[i].tx == tiles[i + 1].tx) {  // a vertical run starts
      const std::size_t run_start = i;
      while (i + 1 < tiles.size() && tiles[i].tx == tiles[i + 1].tx) ++i;
      on_line_end(tiles[run_start].tx, tiles[run_start].ty);
      on_line_end(tiles[i].tx, tiles[i].ty);
    } else {
      ++i;
    }
  }
}

}  // namespace mebl::global
