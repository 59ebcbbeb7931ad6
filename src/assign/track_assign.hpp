#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "grid/stitch_plan.hpp"
#include "netlist/netlist.hpp"

namespace mebl::exec {
class ThreadPool;
}  // namespace mebl::exec

namespace mebl::assign {

/// Track-assignment algorithm selection (Table VII comparison). Defined at
/// the assign layer so stage configs, panel helpers and the core router
/// share one vocabulary (core::TrackAlgorithm aliases this).
enum class TrackMethod {
  kBaseline,  ///< stitch-oblivious first-fit (baseline router)
  kIlp,       ///< exact multicommodity-flow ILP (eqs. 5-9)
  kGraph,     ///< graph-based dogleg heuristic (SIII-C2)
};

/// One vertical segment to be given an exact track inside a column panel.
struct TrackSegment {
  std::size_t run_index = 0;  ///< caller's back-reference (e.g. RoutePlan run)
  geom::Interval rows;        ///< tile rows the segment spans
  /// Horizontal continuation at the low/high end: 0 none, -1 the connected
  /// horizontal wire leaves toward smaller x, +1 toward larger x.
  int lo_continuation = 0;
  int hi_continuation = 0;
  netlist::NetId net = -1;
};

/// Track-assignment problem for one (column panel, vertical layer) pair.
struct TrackAssignInstance {
  geom::Interval x_span;  ///< absolute track range of the panel
  const grid::StitchPlan* stitch = nullptr;
  std::vector<TrackSegment> segments;
};

/// Assigned geometry of one segment: per tile-row piece, the absolute track.
/// Consecutive pieces on different tracks form a dogleg.
struct SegmentTrack {
  std::vector<std::pair<geom::Interval, geom::Coord>> pieces;
  bool ripped = false;  ///< not assigned; detailed routing routes it directly
  int bad_ends = 0;     ///< line ends left in stitch unfriendly regions (0..2)
};

/// Result of one instance. `tracks` is parallel to `instance.segments`.
struct TrackAssignResult {
  std::vector<SegmentTrack> tracks;
  int total_bad_ends = 0;
  int total_ripped = 0;
  bool solved = true;     ///< false when the ILP hit its limits (caller falls back)
  bool optimal = false;   ///< ILP proved optimality
  std::int64_t ilp_nodes = 0;  ///< branch-and-bound nodes (ILP only)
  /// True when the branch-and-bound was cut short by any limit — the node
  /// budget in replayable mode, wall clock otherwise — even if a usable
  /// (feasible, unproven) assignment was still returned.
  bool budget_hit = false;
};

/// True when a vertical line end on track `x` whose horizontal wire leaves
/// in direction `continuation` (+1/-1) creates a bad end: the end lies in
/// the stitch unfriendly region of the line the wire crosses.
[[nodiscard]] bool is_bad_end(geom::Coord x, int continuation,
                              const grid::StitchPlan& stitch);

/// Shared post-pass: count bad ends of an assigned segment.
[[nodiscard]] int count_bad_ends(const TrackSegment& segment,
                                 const SegmentTrack& track,
                                 const grid::StitchPlan& stitch);

/// Stitch-oblivious baseline (the conventional track assigner of the
/// baseline router): left-edge first-fit over the full panel width,
/// straight tracks only. Segments that land on a stitching-line column are
/// ripped up afterwards (routed directly in detailed routing), exactly as
/// the paper describes for the baseline flow.
[[nodiscard]] TrackAssignResult track_assign_baseline(
    const TrackAssignInstance& instance);

/// Graph-based short-polygon-avoiding heuristic (paper SIII-C2, Fig. 11):
/// stitch-aware segment ordering, min/max track constraint graphs with
/// dummy-vertex unfriendly-region offsets, longest-path feasible windows,
/// then greedy dogleg-aware assignment.
[[nodiscard]] TrackAssignResult track_assign_graph(
    const TrackAssignInstance& instance);

/// Options for the exact ILP formulation (eqs. 5-9).
struct IlpTrackOptions {
  double time_limit_seconds = 10.0;
  std::int64_t max_nodes = 2'000'000;
  /// Absolute deadline shared by every panel of one circuit (the router's
  /// ilp_budget_seconds converted at stage start). The solver aborts
  /// mid-search once it passes; unset = only the per-panel limits apply.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Deterministic per-panel effort: > 0 caps the branch-and-bound at this
  /// many nodes and disables every wall-clock limit (time_limit_seconds and
  /// deadline are ignored), making the result a pure function of the
  /// instance. Replayable flows — the mebl_serve ECO path and its verify
  /// replay gate — use this instead of a deadline.
  std::int64_t node_budget = 0;
  /// Seed the solver with the graph heuristic's assignment as the initial
  /// incumbent and branching hint (ilp::SolveOptions::warm_start). Pruning
  /// then starts at the heuristic cost instead of +inf, which typically cuts
  /// the node count sharply. The objective value is unaffected, but when
  /// several optima tie the returned geometry may differ from a cold solve,
  /// so this defaults off; the router's stage config turns it on.
  bool warm_start = false;
  /// Pool for the solver's parallel subproblem fan-out. nullptr solves
  /// sequentially. Calls from inside pool workers degrade gracefully (nested
  /// fan-out runs inline), so the batch router passes its pool unconditionally
  /// and the sequential ECO path gets real speedup from it.
  exec::ThreadPool* pool = nullptr;
  /// ilp::SolveOptions::split_target passthrough: root subproblem count,
  /// fixed per configuration, never thread-derived. 0 = solver default.
  int split_target = 0;
};

/// Exact ILP-based short-polygon-avoiding track assignment (paper SIII-C1):
/// multicommodity-flow model over track vertices with vertex-capacity and
/// edge-crossing constraints, solved by the branch-and-bound solver. When a
/// limit is hit, `solved` is false and the caller is expected to fall back.
[[nodiscard]] TrackAssignResult track_assign_ilp(
    const TrackAssignInstance& instance, const IlpTrackOptions& options = {});

}  // namespace mebl::assign
