#include "assign/stage.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <vector>

#include "exec/thread_pool.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/timer.hpp"

namespace mebl::assign {

namespace {

namespace keys = telemetry::keys;

/// One panel's layer assignment plus its telemetry; panels without runs
/// are skipped (and not counted).
void layer_assign_panel(RoutePlan& plan,
                        const std::vector<std::size_t>& run_ids,
                        const std::vector<geom::LayerId>& layers,
                        bool column_panel, const StageConfig& config,
                        telemetry::Counter& panels) {
  if (run_ids.empty()) return;
  TELEMETRY_SPAN("assign.layer.panel");
  assign_panel_layers(plan, run_ids, layers, column_panel,
                      config.layer == LayerMethod::kColorableSubset);
  panels.add(1);
}

/// Shared context of one track-assignment fan-out: the resolved per-panel
/// options and the counter handles, created once per assign_panels call so
/// registration does not depend on which panels run where.
struct TrackRun {
  IlpTrackOptions options;
  std::atomic<bool> budget_exceeded{false};
  telemetry::Counter& panels = telemetry::counter(keys::kTrackPanels);
  telemetry::Counter& ilp_nodes = telemetry::counter(keys::kTrackIlpNodes);
  telemetry::Counter& ilp_fallbacks =
      telemetry::counter(keys::kTrackIlpFallbacks);
  telemetry::Counter& ilp_budget_hits =
      telemetry::counter(keys::kTrackIlpBudgetHits);
  telemetry::Counter& bad_ends = telemetry::counter(keys::kTrackBadEnds);
  telemetry::Counter& ripped = telemetry::counter(keys::kTrackRipped);
  telemetry::Histogram& panel_ns = telemetry::histogram(keys::kTrackPanelNs);
};

/// Resolve the per-panel ILP options for one assign_panels call: its pool
/// always, and either the deterministic node budget (no wall-clock limits
/// at all) or one absolute deadline shared by every worker — so a single
/// over-budget panel cannot overshoot the circuit budget.
IlpTrackOptions make_track_options(const StageConfig& config,
                                   exec::ThreadPool& pool) {
  IlpTrackOptions options = config.ilp;
  options.pool = &pool;
  if (options.node_budget > 0) {
    options.deadline.reset();
  } else {
    options.deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(config.ilp_budget_seconds));
  }
  return options;
}

void track_solve_one(RoutePlan& plan, const TrackPanelTask& task,
                     TrackMethod method, TrackRun& run) {
  TELEMETRY_SPAN("assign.track.panel");
  const std::uint64_t panel_start_ns = telemetry::now_ns();

  TrackTaskStats stats;
  const TrackAssignResult assigned =
      solve_track_task(task, method, run.options, stats);
  apply_track_result(plan, task, assigned);

  run.panels.add(1);
  run.bad_ends.add(assigned.total_bad_ends);
  run.ripped.add(assigned.total_ripped);
  run.ilp_nodes.add(stats.ilp_nodes);
  if (stats.ilp_fallback) run.ilp_fallbacks.add(1);
  if (stats.ilp_budget_hit) run.ilp_budget_hits.add(1);
  // The Table VII "NA" flag means the ILP column no longer describes this
  // circuit: a panel was handed to the heuristic (deadline skip or unsolved
  // fallback). A truncated solve that still produced a usable assignment
  // stays an ILP result — it only bumps the budget-hit counter above.
  if (stats.ilp_fallback)
    run.budget_exceeded.store(true, std::memory_order_relaxed);
  run.panel_ns.record_ns(telemetry::now_ns() - panel_start_ns);
}

}  // namespace

PanelSet PanelSet::all(const grid::RoutingGrid& grid) {
  PanelSet panels;
  panels.columns.resize(static_cast<std::size_t>(grid.tiles_x()));
  panels.rows.resize(static_cast<std::size_t>(grid.tiles_y()));
  std::iota(panels.columns.begin(), panels.columns.end(), 0);
  std::iota(panels.rows.begin(), panels.rows.end(), 0);
  return panels;
}

StageStats assign_panels(RoutePlan& plan, const grid::RoutingGrid& grid,
                         const PanelSet& panels, const StageConfig& config,
                         exec::ThreadPool& pool) {
  telemetry::Counter& layer_panels = telemetry::counter(keys::kLayerPanels);
  TrackRun run{make_track_options(config, pool)};
  const auto v_layers = grid.layers_with(geom::Orientation::kVertical);
  const auto h_layers = grid.layers_with(geom::Orientation::kHorizontal);
  const std::size_t columns = panels.columns.size();
  std::atomic<int> track_tasks{0};

  util::Timer stage_timer;
  pool.parallel_for(0, columns + panels.rows.size(), [&](std::size_t i) {
    if (i < columns) {
      // Column-panel task: layers first, then immediately this panel's
      // track solves — nothing outside the panel is read or written, so no
      // barrier is needed between the two.
      const int tx = panels.columns[i];
      layer_assign_panel(plan, runs_in_column_panel(plan, tx), v_layers, true,
                         config, layer_panels);
      const std::vector<TrackPanelTask> tasks =
          build_track_tasks(plan, grid, {tx});
      for (const TrackPanelTask& task : tasks)
        track_solve_one(plan, task, config.track, run);
      track_tasks.fetch_add(static_cast<int>(tasks.size()),
                            std::memory_order_relaxed);
    } else {
      // Row panels are layer-only; they fill pool gaps between column tasks.
      layer_assign_panel(plan,
                         runs_in_row_panel(plan, panels.rows[i - columns]),
                         h_layers, false, config, layer_panels);
    }
  });
  telemetry::counter(keys::kTrackIlpNs)
      .add(static_cast<std::int64_t>(stage_timer.seconds() * 1e9));

  StageStats stats;
  stats.panels = track_tasks.load(std::memory_order_relaxed);
  stats.ilp_budget_exceeded =
      run.budget_exceeded.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mebl::assign
