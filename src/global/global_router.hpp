#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "global/multilevel.hpp"
#include "global/routing_graph.hpp"
#include "global/search_scratch.hpp"
#include "netlist/netlist.hpp"

namespace mebl::exec {
class ThreadPool;
class Cancellation;
}  // namespace mebl::exec

namespace mebl::telemetry {
class Counter;
}  // namespace mebl::telemetry

namespace mebl::global {

/// Global-router knobs; the Table III / Table IV ablations toggle these.
struct GlobalRouterConfig {
  /// Derive vertical edge capacities from the stitch plan (tracks on
  /// stitching lines are unusable). Off = conventional-lithography resource
  /// estimation (the baseline router's model).
  bool stitch_aware_capacity = true;
  /// Price line-end (vertex) congestion, eq. (2)-(3). Off = the "w/o line
  /// end consideration" column of Table IV.
  bool vertex_cost = true;
  /// Coarsen–route–refine multilevel pass for long subnets (DESIGN.md §15).
  bool multilevel = false;
};

/// Global route of one 2-pin subnet: a 4-connected GCell path from the tile
/// of the subnet's pin `a` to the tile of its pin `b` (single tile when both
/// pins share one). The path is routed exactly when `tiles` is non-empty;
/// its net and pins are the subnet's, at the same index.
struct TilePath {
  std::vector<grid::GCellId> tiles;
};

/// Aggregate result of the global-routing stage.
struct GlobalResult {
  std::vector<TilePath> paths;  ///< parallel to the input subnet vector
  std::int64_t wirelength = 0;  ///< total inter-tile hops
  int total_vertex_overflow = 0;   ///< TVOF, Table IV
  int max_vertex_overflow = 0;     ///< MVOF, Table IV
  int total_edge_overflow = 0;
};

/// Reverse index from overflowed routing resources (h/v edges and line-end
/// vertices) to the committed subnets crossing them, maintained at commit
/// time (DESIGN.md §10). Replaces the rip-up loop's per-pass full rescan:
/// congested(idx) answers in O(1) exactly the predicate the old
/// `is_congested` walk computed — "does subnet idx's committed path cross
/// any resource whose live demand exceeds its capacity" — because every
/// demand change propagates overflow transitions to the crossing subnets'
/// hit counts. Dirty-set selection is therefore bit-identical to the
/// rescan's, in the same index order.
class CongestionIndex {
 public:
  /// Size the index for `graph` and `num_subnets` committed paths, seeding
  /// overflow flags from the graph's current demand state. `track_vertices`
  /// mirrors GlobalRouterConfig::vertex_cost: the rescan only treated
  /// vertex overflow as congestion when line ends were priced.
  void reset(const RoutingGraph& graph, std::size_t num_subnets,
             bool track_vertices);

  /// Apply subnet `idx`'s tile path to `graph` with `sign` (+1 commit,
  /// -1 rip-up): updates edge demands, vertex (line-end) demands at the end
  /// tiles of maximal vertical runs, overflow flags, the reverse index, and
  /// the per-subnet hit counts, in one pass.
  void commit(RoutingGraph& graph, std::size_t idx,
              const std::vector<grid::GCellId>& tiles, int sign);

  /// True iff subnet `idx`'s committed path crosses at least one currently
  /// overflowed resource — the old full-rescan predicate, in O(1).
  [[nodiscard]] bool congested(std::size_t idx) const {
    return hits_[idx] > 0;
  }

 private:
  // Flat resource ids: h-edges, then v-edges, then vertices.
  [[nodiscard]] std::size_t h_id(int tx, int ty) const {
    return static_cast<std::size_t>(ty) * (tiles_x_ - 1) + tx;
  }
  [[nodiscard]] std::size_t v_id(int tx, int ty) const {
    return h_count_ + static_cast<std::size_t>(ty) * tiles_x_ + tx;
  }
  [[nodiscard]] std::size_t vert_id(int tx, int ty) const {
    return h_count_ + v_count_ + static_cast<std::size_t>(ty) * tiles_x_ + tx;
  }

  void set_overflowed(std::size_t resource, bool now);
  /// Add (`member`) or remove subnet `idx` as a crosser of every resource
  /// of `tiles`, adjusting its hit count.
  void set_membership(std::size_t idx,
                      const std::vector<grid::GCellId>& tiles, bool member);

  int tiles_x_ = 0;
  int tiles_y_ = 0;
  std::size_t h_count_ = 0;
  std::size_t v_count_ = 0;
  bool track_vertices_ = false;
  std::vector<std::uint8_t> overflowed_;          ///< per resource
  std::vector<std::vector<std::int32_t>> crossers_;  ///< resource -> subnets
  std::vector<std::int32_t> hits_;  ///< subnet -> overflowed crossings
};

/// Stitch-aware global router (paper SIII-A): congestion-driven path search
/// on the GCell graph pricing both edge congestion and line-end (vertex)
/// congestion, scheduled by the bottom-up multilevel framework, with rip-up
/// and reroute of subnets through overflowed resources.
///
/// The search kernel (DESIGN.md §10) composes the L/Z pattern-route fast
/// path (pattern_route.hpp) with the epoch-stamped scratch A*
/// (search_scratch.hpp); per-worker thread-local scratch makes concurrent
/// batch searches allocation-free and race-free.
class GlobalRouter {
 public:
  GlobalRouter(const grid::RoutingGrid& grid, GlobalRouterConfig config = {});

  /// Reports batch completion during routing: (subnets routed so far,
  /// total subnets).
  using ProgressFn = std::function<void(std::size_t, std::size_t)>;

  /// Route all subnets (produced by netlist::decompose_all). Demands
  /// accumulate in graph(); call once per instance.
  ///
  /// `pool` parallelizes the search phase of each net batch (null = run on
  /// the calling thread; the routed result is identical either way).
  /// `cancel` stops the scheduling of further batches; already-committed
  /// paths are kept and the partial result returned. `progress` fires after
  /// every committed batch.
  GlobalResult route(const std::vector<netlist::Subnet>& subnets,
                     exec::ThreadPool* pool = nullptr,
                     const exec::Cancellation* cancel = nullptr,
                     const ProgressFn& progress = {});

  // --- incremental (ECO) rerouting -----------------------------------------
  // A resident design holds one GlobalRouter whose graph carries the
  // committed demand of the current GlobalResult. An ECO rips up a dirty
  // closure of subnets and reroutes only that closure against the untouched
  // remainder (DESIGN.md §12). Bit-identity contract: seed() followed by
  // rip_dirty_closure() + reroute_subset() produces the same GlobalResult
  // whether the router is long-lived or freshly seeded from a saved state,
  // because both read identical demand and the schedules are index-ordered.

  /// Rebuild the demand state from a previously-routed result: fresh graph,
  /// then commit every routed path in index order, and recompute `result`'s
  /// wirelength and overflow totals from it. After this the router is
  /// resident for `result` and ready for rip_dirty_closure().
  void seed(GlobalResult& result);

  /// Rip up the targets and return the dirty closure in ascending index
  /// order: the targets plus every committed subnet still crossing an
  /// overflowed resource after the rip (those must re-negotiate, since the
  /// freed capacity may relieve them — and rerouting them may in turn free
  /// more). Rip-up only lowers demand, so one ascending scan is exact. All
  /// closure paths are off the graph on return; the non-closure remainder
  /// keeps its committed demand.
  [[nodiscard]] std::vector<std::size_t> rip_dirty_closure(
      GlobalResult& result, const std::vector<std::size_t>& targets);

  /// Reroute exactly the (ripped) closure subnets batch-synchronously in
  /// index order against the live demand, run the escalating reroute passes
  /// over the whole result, and recompute the aggregate fields. `dirty`
  /// must be ascending (rip_dirty_closure's order).
  void reroute_subset(const std::vector<netlist::Subnet>& subnets,
                      GlobalResult& result,
                      const std::vector<std::size_t>& dirty,
                      exec::ThreadPool* pool = nullptr,
                      const exec::Cancellation* cancel = nullptr);

  [[nodiscard]] const RoutingGraph& graph() const noexcept { return graph_; }
  [[nodiscard]] const grid::RoutingGrid& grid() const noexcept { return *grid_; }

 private:
  /// The one search entry of the global passes: the path from tile `from`
  /// to tile `to`, pricing line-end congestion at `vertex_weight` (the
  /// reroute passes escalate it per pass without mutating the config, so
  /// concurrent searches of one batch all see the same weight). Tries the
  /// pattern-route fast path (an accepted candidate is a whole-grid
  /// optimum), then the scratch A* kernel on the calling worker's
  /// thread-local scratch: inside `corridor` when one is given (the
  /// subnet's coarse path from plan_coarse, stamped into that scratch
  /// here), then inside `region`, then on the full grid. Returns an empty
  /// vector when no path exists.
  [[nodiscard]] std::vector<grid::GCellId> search(
      grid::GCellId from, grid::GCellId to, const geom::Rect& region,
      double vertex_weight,
      const std::vector<grid::GCellId>* corridor = nullptr) const;

  /// Sequential coarse pass of the multilevel schedule: route every subnet
  /// whose tile bbox spans >= kMinCoarseSpan on the coarsened graph
  /// (committing coarse demand net by net, in index order, so long nets
  /// spread out), and return the per-subnet coarse paths (empty vector =
  /// not a coarse candidate). Deterministic: runs on the calling thread
  /// against its own coarse graph.
  [[nodiscard]] std::vector<std::vector<grid::GCellId>> plan_coarse(
      const std::vector<netlist::Subnet>& subnets,
      const std::vector<geom::Rect>& tile_bboxes) const;

  /// Commit (+1) or rip up (-1) subnet `idx`'s path: demand bookkeeping and
  /// the congestion index move together.
  void commit(std::size_t idx, const TilePath& path, int sign);

  /// The batch-synchronous schedule (DESIGN.md §7), the one loop of every
  /// global pass: per batch of kNetBatchSize indices of `order`, rip the
  /// batch's paths up when `rip_first`, set each path to find(idx) in
  /// parallel (inline when `pool` is null) against the graph frozen at the
  /// batch start, commit the non-empty paths in index order, and call
  /// after_batch with their count. `cancel` stops further batches and
  /// unstarted searches; a ripped batch is re-committed either way.
  /// Returns the number of paths committed.
  std::size_t route_batches(
      std::span<const std::size_t> order, bool rip_first,
      GlobalResult& result, exec::ThreadPool* pool,
      const exec::Cancellation* cancel,
      const std::function<std::vector<grid::GCellId>(std::size_t)>& find,
      const std::function<void(std::size_t)>& after_batch = {});

  /// The negotiated-congestion rip-up & reroute passes over `result`,
  /// shared by route() and reroute_subset().
  void run_reroute_passes(GlobalResult& result, exec::ThreadPool* pool,
                          const exec::Cancellation* cancel);

  /// Recompute wirelength and the overflow aggregates from the live graph.
  void finalize_totals(GlobalResult& result) const;

  const grid::RoutingGrid* grid_;
  GlobalRouterConfig config_;
  RoutingGraph graph_;
  CongestionIndex congestion_;

  // Telemetry endpoints, resolved once at construction (stable addresses,
  // thread-safe sinks). Written from concurrent batch searches.
  telemetry::Counter* pops_counter_;
  telemetry::Counter* pattern_hits_counter_;
  telemetry::Counter* scratch_reuses_counter_;
  telemetry::Counter* ml_coarse_counter_;
  telemetry::Counter* ml_corridor_hits_counter_;
  telemetry::Counter* ml_corridor_fallbacks_counter_;
};

}  // namespace mebl::global
