#pragma once

#include <cstdint>
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
/// Storage comes in two bit-identical flavours (DESIGN.md §15):
///
///  * **dense** (default): one flat array slot per edge/vertex, the layout
///    the kernels have always read.
///  * **tiled** (`tiled = true`): capacities are uniform along one axis —
///    horizontal boundary capacity depends only on the tile row, vertical
///    boundary and line-end capacity only on the tile column — so the graph
///    keeps one capacity/default-cost entry *per axis* and materializes a
///    per-tile demand/cost slot lazily on the first demand write to that
///    tile. Untouched tiles answer reads from the shared axis defaults
///    (demand 0, cost psi(1, c)); reads never materialize anything, so the
///    parallel search phase touches no mutable state either way. At paper
///    scale (~150k tiles, a few percent carrying demand) this shrinks the
///    resident graph to the slot directory plus the touched slots.
///
/// Every value served — capacity, demand, cost, overflow — is computed by
/// the identical arithmetic in both modes, so routed results are
/// bit-identical under the storage switch.
class RoutingGraph {
 public:
  RoutingGraph(const grid::RoutingGrid& grid, bool stitch_aware,
               bool tiled = false);

  /// A dense graph over an explicit capacity assignment (no RoutingGrid
  /// behind it) — the constructor the multilevel pass uses for coarsened
  /// graphs whose capacities are aggregates of a finer graph's. Vector
  /// layouts match h_index/v_index/t_index.
  [[nodiscard]] static RoutingGraph with_capacities(
      int tiles_x, int tiles_y, std::vector<int> h_cap,
      std::vector<int> v_cap, std::vector<int> vert_cap);

  [[nodiscard]] int tiles_x() const noexcept { return tiles_x_; }
  [[nodiscard]] int tiles_y() const noexcept { return tiles_y_; }
  [[nodiscard]] bool tiled() const noexcept { return tiled_; }

  // --- edges ---------------------------------------------------------------
  // h-edge (tx,ty): boundary between (tx,ty) and (tx+1,ty), 0 <= tx < X-1.
  // v-edge (tx,ty): boundary between (tx,ty) and (tx,ty+1), 0 <= ty < Y-1.

  [[nodiscard]] int h_capacity(int tx, int ty) const {
    return tiled_ ? h_cap_of_ty_[static_cast<std::size_t>(ty)]
                  : h_cap_[h_index(tx, ty)];
  }
  [[nodiscard]] int v_capacity(int tx, int ty) const {
    return tiled_ ? v_cap_of_tx_[static_cast<std::size_t>(tx)]
                  : v_cap_[v_index(tx, ty)];
  }
  [[nodiscard]] int h_demand(int tx, int ty) const {
    if (!tiled_) return h_dem_[h_index(tx, ty)];
    const std::int32_t s = slot_of_[t_index(tx, ty)];
    return s >= 0 ? slots_[static_cast<std::size_t>(s)].h_dem : 0;
  }
  [[nodiscard]] int v_demand(int tx, int ty) const {
    if (!tiled_) return v_dem_[v_index(tx, ty)];
    const std::int32_t s = slot_of_[t_index(tx, ty)];
    return s >= 0 ? slots_[static_cast<std::size_t>(s)].v_dem : 0;
  }
  void add_h_demand(int tx, int ty, int delta);
  void add_v_demand(int tx, int ty, int delta);

  /// Congestion cost psi_e = 2^(d/c) - 1 of the edge *after* adding `extra`
  /// wires (the router prices the marginal wire with extra = 1, served from
  /// the cached row; other extras compute psi directly).
  [[nodiscard]] double h_cost(int tx, int ty, int extra = 1) const {
    if (extra != 1) return psi(h_demand(tx, ty) + extra, h_capacity(tx, ty));
    if (!tiled_) return h_cost_row_[h_index(tx, ty)];
    const std::int32_t s = slot_of_[t_index(tx, ty)];
    return s >= 0 ? memo_cost(slots_[static_cast<std::size_t>(s)].h_dem,
                              h_cap_of_ty_[static_cast<std::size_t>(ty)])
                  : h_cost0_of_ty_[static_cast<std::size_t>(ty)];
  }
  [[nodiscard]] double v_cost(int tx, int ty, int extra = 1) const {
    if (extra != 1) return psi(v_demand(tx, ty) + extra, v_capacity(tx, ty));
    if (!tiled_) return v_cost_row_[v_index(tx, ty)];
    const std::int32_t s = slot_of_[t_index(tx, ty)];
    return s >= 0 ? memo_cost(slots_[static_cast<std::size_t>(s)].v_dem,
                              v_cap_of_tx_[static_cast<std::size_t>(tx)])
                  : v_cost0_of_tx_[static_cast<std::size_t>(tx)];
  }

  // --- vertices (line ends) --------------------------------------------------

  [[nodiscard]] int vertex_capacity(int tx, int ty) const {
    return tiled_ ? vert_cap_of_tx_[static_cast<std::size_t>(tx)]
                  : vert_cap_[t_index(tx, ty)];
  }
  [[nodiscard]] int vertex_demand(int tx, int ty) const {
    if (!tiled_) return vert_dem_[t_index(tx, ty)];
    const std::int32_t s = slot_of_[t_index(tx, ty)];
    return s >= 0 ? slots_[static_cast<std::size_t>(s)].vert_dem : 0;
  }
  void add_vertex_demand(int tx, int ty, int delta);

  /// Line-end congestion cost psi_v = 2^(d/c) - 1 after `extra` more ends.
  [[nodiscard]] double vertex_cost(int tx, int ty, int extra = 1) const {
    if (extra != 1)
      return psi(vertex_demand(tx, ty) + extra, vertex_capacity(tx, ty));
    if (!tiled_) return vert_cost_row_[t_index(tx, ty)];
    const std::int32_t s = slot_of_[t_index(tx, ty)];
    return s >= 0 ? memo_cost(slots_[static_cast<std::size_t>(s)].vert_dem,
                              vert_cap_of_tx_[static_cast<std::size_t>(tx)])
                  : vert_cost0_of_tx_[static_cast<std::size_t>(tx)];
  }

  // --- overflow metrics (Table IV) -------------------------------------------

  /// Total vertex overflow: sum over tiles of max(0, demand - capacity).
  /// O(1): maintained incrementally by add_vertex_demand.
  [[nodiscard]] int total_vertex_overflow() const noexcept {
    return total_vertex_overflow_;
  }
  /// Maximum vertex overflow over all tiles. Tiled mode scans only the
  /// materialized slots: an untouched tile has demand 0 <= capacity.
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
  /// Tiles whose demand/cost slot exists. Dense mode materializes every
  /// tile at construction by definition.
  [[nodiscard]] std::size_t tiles_materialized() const noexcept {
    return tiled_ ? slots_.size() : tiles_total();
  }
  /// Resident bytes of the congestion tables this graph actually holds
  /// (capacity/demand/cost storage; excludes the psi memo, which is shared
  /// and bounded by the distinct capacities present).
  [[nodiscard]] std::size_t storage_bytes() const noexcept;
  /// What the dense layout would hold for a grid of this extent — the
  /// denominator of the bench suite's memory-fraction gate.
  [[nodiscard]] static std::size_t dense_storage_bytes(int tiles_x,
                                                       int tiles_y) noexcept {
    // 3 capacity ints + 3 demand ints + 3 cost doubles per tile (the h/v
    // edge arrays are one row/column short; close enough for an estimate
    // that must only be comparable across runs).
    return static_cast<std::size_t>(tiles_x) * tiles_y *
           (3 * sizeof(int) + 3 * sizeof(int) + 3 * sizeof(double));
  }

 private:
  RoutingGraph() = default;

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

  /// Extend the memo row of `capacity` through `demand` (psi_lookup without
  /// the read); a no-op outside the memo's domain.
  void grow_psi_memo(int demand, int capacity);

  /// Size the psi memo for the largest capacity present.
  void seed_psi_memo(int max_cap);

  /// Tiled mode's marginal-cost read psi(demand + 1, capacity), served by
  /// direct psi-memo indexing. Safe without growth on the (frozen, const)
  /// read path: construction grows every present capacity's row to index 1
  /// (the axis defaults) and every add_*_demand grows its resource's row to
  /// demand + 1, so a materialized slot's row always covers its demand.
  [[nodiscard]] double memo_cost(int demand, int capacity) const {
    if (capacity <= 0) return 1e9;  // psi(d, c <= 0) with d >= 1
    return psi_memo_[static_cast<std::size_t>(capacity)]
                    [static_cast<std::size_t>(demand) + 1];
  }

  /// Materialized per-tile state of the tiled mode: the demands of the
  /// tile's h-edge (to the right), v-edge (upward) and line-end vertex —
  /// 12 bytes, the costs are served from the shared psi memo. Edge fields
  /// of boundary tiles are simply unused.
  struct TileSlot {
    int h_dem = 0;
    int v_dem = 0;
    int vert_dem = 0;
  };

  /// Tiled mode: index of tile (tx,ty)'s slot, materializing it (seeded
  /// from the axis defaults) on first use.
  [[nodiscard]] std::size_t ensure_slot(int tx, int ty);

  int tiles_x_ = 0;
  int tiles_y_ = 0;
  bool tiled_ = false;

  // Dense storage (tiled_ == false).
  std::vector<int> h_cap_, v_cap_, h_dem_, v_dem_;
  std::vector<int> vert_cap_, vert_dem_;
  /// Frozen marginal-cost rows: psi(demand + 1, capacity) per resource.
  std::vector<double> h_cost_row_, v_cost_row_, vert_cost_row_;

  // Tiled storage (tiled_ == true): per-axis capacities and default costs
  // (the capacity model is uniform along the other axis — asserted at
  // construction), a per-tile slot directory, and the materialized slots.
  std::vector<int> h_cap_of_ty_, v_cap_of_tx_, vert_cap_of_tx_;
  std::vector<double> h_cost0_of_ty_, v_cost0_of_tx_, vert_cost0_of_tx_;
  std::vector<std::int32_t> slot_of_;  ///< per tile; -1 = unmaterialized
  std::vector<TileSlot> slots_;

  /// psi memo, indexed [capacity][demand] (capacities are bounded by the
  /// construction-time maximum; demands grow rows lazily).
  std::vector<std::vector<double>> psi_memo_;
  int total_edge_overflow_ = 0;
  int total_vertex_overflow_ = 0;
};

}  // namespace mebl::global
