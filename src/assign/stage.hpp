#pragma once

// The panel-assignment pass: one entry point that runs layer assignment and
// then track assignment over a given set of panels (paper §III-B/C). The
// batch router hands it every panel; the incremental (ECO) path hands it
// only the panels whose run set changed (DESIGN.md §12, §13).

#include <vector>

#include "assign/layer_assign.hpp"
#include "assign/panel_ops.hpp"
#include "grid/routing_grid.hpp"

namespace mebl::exec {
class ThreadPool;
}  // namespace mebl::exec

namespace mebl::assign {

/// Everything assign_panels needs, mapped from the core RouterConfig (core
/// depends on assign, never the other way).
struct StageConfig {
  LayerMethod layer = LayerMethod::kColorableSubset;
  TrackMethod track = TrackMethod::kGraph;
  /// Per-panel ILP knobs. assign_panels overwrites `deadline` (from
  /// ilp_budget_seconds when it starts; cleared entirely when
  /// node_budget > 0) and `pool` (with its pool) — everything else passes
  /// through.
  IlpTrackOptions ilp;
  /// Wall-clock budget for all ILP panels of one assign_panels call,
  /// converted to one absolute deadline shared by every worker when it
  /// starts. Ignored in deterministic mode (ilp.node_budget > 0).
  double ilp_budget_seconds = 60.0;
};

/// Telemetry summary of one assign_panels call. The detailed counters land
/// in the telemetry registry (telemetry/keys.hpp) as it runs, so
/// stage-boundary observers see them in the right per-stage delta; this
/// struct carries only what the callers consume directly.
struct StageStats {
  int panels = 0;  ///< (column panel, vertical layer) track tasks solved
  /// An ILP panel fell back to the graph heuristic — it started past the
  /// shared deadline or its solve returned no usable assignment (maps to
  /// RoutingResult::ilp_budget_exceeded — the Table VII "NA" flag). Solves
  /// merely truncated by a limit but still usable only bump the budget-hit
  /// counter.
  bool ilp_budget_exceeded = false;
};

/// The panels one assign_panels call covers, by tile index: column panels
/// get layer and then track assignment, row panels layer assignment only.
struct PanelSet {
  std::vector<int> columns;
  std::vector<int> rows;

  /// Every column and row panel of `grid`, ascending.
  [[nodiscard]] static PanelSet all(const grid::RoutingGrid& grid);
};

/// Assign layers and tracks to the runs of `panels`, in place. One task per
/// column panel runs that panel's layer assignment and then immediately its
/// track solves, so the layer work of one panel overlaps the track work of
/// another on `pool` with no barrier between the two; row panels fill the
/// same fan-out as layer-only tasks. Every task touches only its own
/// panel's runs and a panel's track solve depends on nothing but its own
/// layer result, so the plan is bit-identical at every pool size
/// (DESIGN.md §7). Runs outside `panels` are left as they are.
StageStats assign_panels(RoutePlan& plan, const grid::RoutingGrid& grid,
                         const PanelSet& panels, const StageConfig& config,
                         exec::ThreadPool& pool);

}  // namespace mebl::assign
