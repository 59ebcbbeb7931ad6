#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geom/rect.hpp"
#include "global/routing_graph.hpp"
#include "grid/gcell.hpp"

namespace mebl::global {

/// Extra cost per bend, to prefer straight global routes.
inline constexpr double kTurnCost = 0.5;
/// Multiplier on the vertex (line-end) congestion term. Line-end capacity
/// is scarcer than edge capacity (a handful of safe tracks per tile), so
/// pricing it at parity lets overflow through; the paper's near-zero TVOF
/// needs the term to dominate small detours.
inline constexpr double kVertexCostWeight = 8.0;

/// Cost-model parameters of one global-routing search, passed as a struct
/// so the kernel and the pattern-route fast path are free functions a test
/// or bench can drive against a bare RoutingGraph with any costs. The
/// vertex weight is per-search because the reroute passes escalate it
/// without mutating shared config (DESIGN.md §10).
struct GlobalSearchParams {
  double turn_cost = kTurnCost;
  bool vertex_cost = true;
  double vertex_weight = kVertexCostWeight;
};

/// Direction of the move that entered a search state: 0 = the start tile,
/// 1 = horizontal, 2 = vertical. Direction matters because line-end
/// (vertex) costs are incurred where vertical runs start and end.
inline constexpr int kDirStart = 0;
inline constexpr int kDirH = 1;
inline constexpr int kDirV = 2;

/// Cost of one kernel step (paper eqs. 1-3) from tile (tx,ty), entered with
/// direction `dir`, to its 4-neighbour (nx,ny) on the way to `goal`. The A*
/// kernel and the pattern walk both call it, so an accepted pattern
/// candidate's cost is bit-identical to the g-value A* computes along the
/// same path. Inline, so it compiles into the kernel loop.
inline double step_cost(const RoutingGraph& graph,
                        const GlobalSearchParams& params, int tx, int ty,
                        int dir, int nx, int ny, grid::GCellId goal) {
  const bool horizontal = ny == ty;
  double step = 1.0;
  // Edge congestion: a cached-row lookup, bit-identical to direct psi.
  if (horizontal)
    step += graph.h_cost(std::min(tx, nx), ty);
  else
    step += graph.v_cost(tx, std::min(ty, ny));
  // Bend penalty.
  if (dir != kDirStart && ((dir == kDirH) != horizontal))
    step += params.turn_cost;
  // Line-end (vertex) congestion: a vertical run starts at the current tile
  // when a vertical move follows a horizontal one (or the start), and ends
  // there when a horizontal move follows a vertical one.
  if (params.vertex_cost) {
    if (!horizontal && dir != kDirV)
      step += params.vertex_weight * graph.vertex_cost(tx, ty);
    if (horizontal && dir == kDirV)
      step += params.vertex_weight * graph.vertex_cost(tx, ty);
    // Arriving at the goal vertically leaves a line end there.
    if (!horizontal && nx == goal.tx && ny == goal.ty)
      step += params.vertex_weight * graph.vertex_cost(nx, ny);
  }
  return step;
}

/// Per-search scratch state of the global-routing kernel: epoch-stamped
/// dist/parent arrays sized for the *full* tile grid (region searches and
/// the full-grid fallback share the same storage), reusable open-list
/// storage, and the result path. A search touches no other mutable state,
/// so concurrent searches on one RoutingGraph are race-free as long as each
/// uses its own scratch — the batch-parallel router keeps one per pool
/// worker (thread_local), mirroring detail::SearchScratch.
struct GlobalSearchScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<double> dist;
  std::vector<std::int32_t> parent;
  std::uint32_t epoch = 0;
  /// Open-list storage, reused across searches (std::push_heap/pop_heap
  /// with the same comparator as the old std::priority_queue, so the pop
  /// order — including ties — is unchanged).
  struct HeapEntry {
    double f;
    double g;
    std::int32_t state;
  };
  std::vector<HeapEntry> heap;
  /// Tiles of the most recent successful search, in start-to-goal order.
  std::vector<grid::GCellId> path;

  /// Corridor mask for multilevel refinement (DESIGN.md §15): tiles stamped
  /// with the current corridor epoch are admissible. Epoch-stamped like the
  /// dist arrays, so stamping a new corridor is O(corridor), not O(grid),
  /// and the storage is allocation-free once grown to the fine tile count.
  std::vector<std::uint32_t> corridor_stamp;
  std::uint32_t corridor_epoch = 0;

  /// Start a new (empty) corridor over `num_tiles` tiles; admit tiles with
  /// admit_tile before searching with corridor = true.
  void begin_corridor(std::size_t num_tiles);
  void admit_tile(std::size_t tile) { corridor_stamp[tile] = corridor_epoch; }
  [[nodiscard]] bool in_corridor(std::size_t tile) const {
    return corridor_stamp[tile] == corridor_epoch;
  }

  // Per-call kernel stats, read by the router's telemetry flush.
  std::int64_t last_pops = 0;     ///< heap pops of the last kernel run
  bool last_reused = false;       ///< last kernel run reused the storage

  /// Start a new search epoch over `num_states` states. Returns true when
  /// the existing storage was large enough (zero allocation); on growth (or
  /// epoch wrap-around) the stamp array is re-initialized.
  bool begin(std::size_t num_states);
};

/// Heap A* over the congestion graph: the global router's search kernel
/// (paper §III-A, eqs. 1–3), confined to `region` (tile coordinates, must
/// contain both endpoints). Prices edge congestion, bends, and — when
/// params.vertex_cost — line-end (vertex) congestion at
/// params.vertex_weight. On success fills `scratch.path` with the tile path
/// and returns true; `cost` (optional) receives the goal's g-value. The
/// routed result is identical to the pre-scratch kernel: same expansion
/// order, same tie-breaks, costs read from the RoutingGraph's cached rows
/// which are bit-identical to direct psi.
///
/// With `corridor = true` expansion is additionally confined to the tiles
/// the caller admitted into scratch's corridor mask (which must include
/// both endpoints) — the multilevel refinement path. The cost model is
/// unchanged; only the admissible tile set shrinks.
bool search_tiles_astar(const RoutingGraph& graph,
                        const GlobalSearchParams& params, grid::GCellId from,
                        grid::GCellId to, const geom::Rect& region,
                        GlobalSearchScratch& scratch, double* cost = nullptr,
                        bool corridor = false);

}  // namespace mebl::global
