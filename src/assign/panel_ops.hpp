#pragma once

// Per-panel assignment operations, the building blocks of
// assign::assign_panels (assign/stage.hpp), which maps them over any set of
// panels: every
// panel for the batch router, exactly the panels whose run set changed for
// the incremental (ECO) path (DESIGN.md §12). Each operation touches only
// its own panel's runs, so calls on distinct panels are safe to run in
// parallel.

#include <vector>

#include "assign/panel.hpp"
#include "assign/track_assign.hpp"

namespace mebl::assign {

/// Distribute one panel's runs over the panel-direction layer list, writing
/// GlobalRun::layer in place. `column_panel` selects vertical-run conflict
/// handling; `colorable_subset` picks the paper's iterated max-k-colorable-
/// subset heuristic over the MST baseline. Returns false (and does nothing)
/// when the panel has no runs.
bool assign_panel_layers(RoutePlan& plan,
                         const std::vector<std::size_t>& run_ids,
                         const std::vector<geom::LayerId>& layers,
                         bool column_panel, bool colorable_subset);

/// One (column panel, vertical layer) track-assignment problem plus the
/// back-references needed to write the solution onto the plan. `members` is
/// parallel to `instance.segments`.
struct TrackPanelTask {
  int tx = 0;
  geom::LayerId layer = -1;
  TrackAssignInstance instance;
  std::vector<std::size_t> members;
};

/// Build the track tasks of the listed column panels: one task per
/// (panel, vertical layer) pair that has at least one run. Task order is
/// deterministic — ascending (tx, layer) — which downstream index-order
/// commits rely on.
[[nodiscard]] std::vector<TrackPanelTask> build_track_tasks(
    const RoutePlan& plan, const grid::RoutingGrid& grid,
    const std::vector<int>& panels);

/// Write a solved task back onto the plan's runs (pieces / ripped /
/// bad_ends, parallel to task.members).
void apply_track_result(RoutePlan& plan, const TrackPanelTask& task,
                        const TrackAssignResult& solved);

/// What one solve_track_task call did, for the caller's telemetry.
struct TrackTaskStats {
  std::int64_t ilp_nodes = 0;   ///< branch-and-bound nodes (ILP method only)
  bool ilp_fallback = false;    ///< ILP gave up / deadline passed; graph used
  bool ilp_budget_hit = false;  ///< the solve was truncated by its budget
};

/// Solve one track task under `method`. This is assign_panels' single
/// fallback policy, for batch route and ECO alike: the ILP method
/// skips panels that start past the shared deadline (unless a deterministic
/// node budget is set, in which case the clock is never consulted) and falls
/// back to the graph heuristic whenever the solve returns no usable
/// assignment.
[[nodiscard]] TrackAssignResult solve_track_task(const TrackPanelTask& task,
                                                 TrackMethod method,
                                                 const IlpTrackOptions& options,
                                                 TrackTaskStats& stats);

}  // namespace mebl::assign
