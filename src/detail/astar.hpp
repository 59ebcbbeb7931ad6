#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "detail/grid_graph.hpp"
#include "detail/node_bitmap.hpp"
#include "telemetry/telemetry.hpp"

namespace mebl::detail {

/// Cost weights for the stitch-aware detailed-routing search (paper
/// eq. (10)): C_grid(j) = C_grid(i) + alpha*C_wl + beta*C_vsu + gamma*C_esc.
/// The paper's experiments use alpha=1, beta=10, gamma=5 with beta >> gamma;
/// alpha is fixed (kAlpha in astar.cpp), the ablations vary beta and gamma.
struct AStarConfig {
  double beta = 10.0;  ///< via-in-stitch-unfriendly-region cost
  double gamma = 5.0;  ///< escape-region cost
  /// Master switch for the beta/gamma stitch terms (the Table VIII
  /// "w/o stitch consideration" ablation turns them off).
  bool stitch_cost = true;
};

/// Per-search scratch state of one A* search: the epoch-stamped visited /
/// g-cost / parent arrays, the reusable open-list storage, and the result
/// path. The caller owns the scratch, which makes a search reentrant:
/// concurrent searches on one AStarRouter are race-free as long as each
/// thread uses its own scratch (the detailed router borrows one per search
/// from a shared free list).
struct SearchScratch {
  std::vector<std::uint32_t> stamp;
  std::vector<double> g_cost;
  std::vector<std::int32_t> parent;
  std::uint32_t epoch = 0;
  /// Open-list storage, reused across searches (std::push_heap/pop_heap).
  struct HeapEntry {
    double f;
    double g;
    std::int32_t state;
  };
  std::vector<HeapEntry> heap;
  /// Nodes of the most recent successful search using this scratch, in
  /// start-to-goal order (AStarRouter::search never claims them).
  std::vector<geom::Point3> path;
};

/// Grid-level A* router. Hard MEBL constraints are enforced structurally:
/// no vertical move on a stitching-line column (wires cross lines only in
/// the x-direction) and no via on a line except at the subnet's fixed pin
/// positions.
///
/// Sealed-goal check: a normal-mode search that has expanded kSealTrigger
/// states without reaching the goal floods breadth-first from the goal pin
/// under the same move rules, capped at kSealCap nodes. A flood that closes
/// without meeting the start pin proves the search must fail (every move
/// is symmetric and a normal-mode search has no expansion cap), so the
/// search returns "no path" at once; otherwise it continues where it
/// paused. Routes are identical with or without the check.
///
/// The expansion kernel is branch-light: escape cost, unfriendly-region
/// surcharge, and the via / vertical-move legality flags are pure functions
/// of the column x, precomputed into one per-column table at construction;
/// the few static node penalties live in a small map keyed by grid node,
/// consulted only on columns flagged as guarded. The
/// open list breaks f-ties toward higher g (deeper nodes), which preserves
/// admissibility but cuts re-expansions markedly.
class AStarRouter {
 public:
  /// Expansions after which a normal-mode search checks for a sealed goal.
  static constexpr std::int64_t kSealTrigger = 1024;
  /// Most nodes the goal-side flood visits before it gives up undecided.
  static constexpr std::size_t kSealCap = 1024;

  AStarRouter(const GridGraph& grid, AStarConfig config);

  /// The one A* search: find a path for `net` from pin `a` to pin `b` (both
  /// on the pin layer), confined to `box` (track coordinates), into
  /// `scratch.path` in start-to-goal order. Nothing is claimed — the caller
  /// claims the path it keeps, so a failed search leaves the grid unchanged.
  ///
  /// With `foreign_penalty` > 0 (the rip-up probe) nodes owned by *other*
  /// nets are passable at that price per node, except pin-layer nodes and
  /// the nodes in `hard`, which stay blocked. Reentrant: safe to call
  /// concurrently from several threads, each with its own scratch, while
  /// nobody mutates the grid — the parallel detailed router's contract.
  bool search(SearchScratch& scratch, netlist::NetId net, geom::Point a,
              geom::Point b, const geom::Rect& box,
              double foreign_penalty = -1.0,
              const NodeBitmap* hard = nullptr) const;

  /// Add a static extra cost on a node (e.g. the line-crossing positions
  /// next to stitch-unfriendly pins, where a crossing wire would become a
  /// short polygon). Cumulative; a penalty that sums back to zero is
  /// dropped. Sequential phases only, like set_beta_scale.
  void add_node_penalty(geom::Point3 node, double penalty);

  /// Nodes that currently carry a non-zero static penalty.
  [[nodiscard]] std::size_t guard_nodes() const noexcept {
    return guards_.size();
  }

  /// Largest SearchScratch any search on this router ran with, in bytes
  /// (16 B per box state: stamp, g-cost and parent).
  [[nodiscard]] std::size_t scratch_peak_bytes() const noexcept {
    return scratch_peak_states_.load(std::memory_order_relaxed) * 16;
  }

  /// Temporarily scale the beta (via-in-unfriendly-region) term; the SP
  /// cleanup pass uses this to reroute offenders more strictly. Sequential
  /// phases only — never call while searches run on other threads.
  void set_beta_scale(double scale) noexcept { beta_scale_ = scale; }

 private:
  /// Escape-region columns strictly between x1 and x2 (heuristic term).
  [[nodiscard]] double escape_between(geom::Coord x1, geom::Coord x2) const;

  /// Call `fn(q)` for each move p -> q that the search rules allow whatever
  /// the grid holds, in a fixed order. A move stays inside `box`, follows
  /// the layer's direction (no vertical move on a stitching line), changes
  /// layer only where a via is legal or at a pin, and enters the pin layer
  /// only at the pins `a` and `b`. Ownership is the caller's test. Every
  /// move it allows, it also allows backwards.
  template <typename Fn>
  void for_each_move(geom::Point3 p, const geom::Rect& box, geom::Point a,
                     geom::Point b, Fn&& fn) const;

  /// True when a breadth-first flood from pin `b` under for_each_move and
  /// the normal-mode ownership rule closes within kSealCap nodes without
  /// meeting pin `a`: then no path from a to b exists in `box`.
  [[nodiscard]] bool goal_sealed(netlist::NetId net, geom::Point a,
                                 geom::Point b, const geom::Rect& box) const;

  /// Everything the expansion loop needs that is a pure function of the
  /// column x, folded to one cache line's worth of loads per neighbor.
  struct Column {
    double escape_cost = 0.0;  ///< gamma when in an escape region (stitch on)
    double unfriendly = 0.0;   ///< 1.0 when in an unfriendly region (stitch on)
    std::uint8_t via_ok = 1;   ///< via legal here (off stitching lines)
    std::uint8_t vmove_ok = 1; ///< vertical move legal here
    std::uint8_t guarded = 0;  ///< some node here ever got a static penalty
  };

  const GridGraph* grid_;
  AStarConfig config_;
  std::vector<Column> columns_;
  std::vector<int> escape_prefix_;
  /// True when routing layer `l` runs horizontally (index 0 = pin layer).
  std::vector<std::uint8_t> layer_horizontal_;
  double beta_scale_ = 1.0;
  /// Non-zero static per-node penalties, keyed by GridGraph::index.
  std::unordered_map<std::size_t, double> guards_;
  /// Largest scratch state count seen by search() (scratch_peak_bytes).
  mutable std::atomic<std::size_t> scratch_peak_states_{0};

  // Telemetry endpoints, resolved once at construction (stable addresses,
  // thread-safe sinks).
  telemetry::Counter* searches_counter_;
  telemetry::Counter* expansions_counter_;
  telemetry::Counter* sealed_fails_counter_;
  telemetry::Histogram* search_ns_histogram_;
};

}  // namespace mebl::detail
