#include "core/stitch_router.hpp"

#include <algorithm>
#include <optional>

#include "assign/stage.hpp"
#include "exec/cancellation.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/decompose.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mebl::core {

StitchAwareRouter::StitchAwareRouter(const grid::RoutingGrid& grid,
                                     const netlist::Netlist& netlist,
                                     RouterConfig config)
    : grid_(&grid), netlist_(&netlist), config_(std::move(config)) {}

RoutingResult StitchAwareRouter::run() {
  TELEMETRY_SPAN("pipeline.run");
  namespace keys = telemetry::keys;
  const telemetry::StatsSnapshot stats_before = telemetry::snapshot_counters();

  RoutingResult result;
  const auto subnets = netlist::decompose_all(*netlist_);

  // A service shares one pool and one token across jobs (set_pool /
  // set_cancellation); a batch run builds both locally.
  std::optional<exec::ThreadPool> local_pool;
  if (pool_ == nullptr) local_pool.emplace(config_.num_threads);
  exec::ThreadPool& pool = pool_ != nullptr ? *pool_ : *local_pool;
  exec::Cancellation local_cancel;
  exec::Cancellation& cancel = cancel_ != nullptr ? *cancel_ : local_cancel;
  const auto begin_stage = [&](Stage stage) {
    for (ProgressObserver* observer : observers_)
      observer->on_stage_begin(stage);
  };
  const auto end_stage = [&](Stage stage, double seconds) {
    for (ProgressObserver* observer : observers_)
      observer->on_stage_end(stage, seconds);
  };
  const auto any_wants_cancel = [&] {
    return std::any_of(
        observers_.begin(), observers_.end(),
        [](ProgressObserver* observer) { return observer->should_cancel(); });
  };
  // Polled at stage boundaries (and, via the global router's progress hook,
  // between net batches). Sticky through the Cancellation token.
  const auto cancelled = [&] {
    if (any_wants_cancel()) cancel.request_stop();
    return cancel.stop_requested();
  };
  const auto finalize = [&](bool was_cancelled) -> RoutingResult& {
    result.cancelled = was_cancelled;
    if (was_cancelled) {
      // The token's reason was set by whichever stop landed first; observer
      // cancels without an explicit reason read as user cancels.
      result.stop_reason = cancel.reason() == exec::StopReason::kNone
                               ? exec::StopReason::kUser
                               : cancel.reason();
    }
    result.stats_ =
        telemetry::delta(stats_before, telemetry::snapshot_counters());
    return result;
  };

  // The spans and the StageTimes struct report the same boundaries; the
  // struct stays populated for API compatibility with existing harnesses.
  util::Timer timer;
  {
    TELEMETRY_SPAN("pipeline.global");
    begin_stage(Stage::kGlobal);
    global::GlobalRouter global_router(*grid_, config_.global);
    global::GlobalRouter::ProgressFn progress;
    if (!observers_.empty())
      progress = [&](std::size_t routed, std::size_t total) {
        for (ProgressObserver* observer : observers_)
          observer->on_nets_routed(routed, total);
        if (any_wants_cancel()) cancel.request_stop();
      };
    result.global = global_router.route(subnets, &pool, &cancel, progress);
    // Record the global-stage quality counters before the stage boundary so
    // per-stage report snapshots carry them.
    telemetry::counter(keys::kGlobalWirelength).add(result.global.wirelength);
    telemetry::counter(keys::kGlobalVertexOverflow)
        .add(result.global.total_vertex_overflow);
    telemetry::counter(keys::kGlobalVertexOverflowMax)
        .add(result.global.max_vertex_overflow);
    telemetry::counter(keys::kGlobalEdgeOverflow)
        .add(result.global.total_edge_overflow);
  }
  result.times.global_seconds = timer.seconds();
  end_stage(Stage::kGlobal, result.times.global_seconds);
  if (cancelled()) return finalize(true);

  timer.reset();
  {
    TELEMETRY_SPAN("pipeline.layer_assign");
    begin_stage(Stage::kLayerAssign);
    // Layer assignment runs inside the track stage's assign_panels call,
    // panel by panel, so this stage only extracts the runs and the
    // layer counters land in the track stage's delta.
    result.plan = assign::extract_runs(result.global, *grid_);
  }
  result.times.layer_seconds = timer.seconds();
  end_stage(Stage::kLayerAssign, result.times.layer_seconds);
  if (cancelled()) return finalize(true);

  timer.reset();
  {
    TELEMETRY_SPAN("pipeline.track_assign");
    begin_stage(Stage::kTrackAssign);
    result.ilp_budget_exceeded =
        assign::assign_panels(result.plan, *grid_,
                              assign::PanelSet::all(*grid_),
                              config_.stage_config(), pool)
            .ilp_budget_exceeded;
  }
  result.times.track_seconds = timer.seconds();
  end_stage(Stage::kTrackAssign, result.times.track_seconds);
  if (cancelled()) return finalize(true);

  timer.reset();
  {
    TELEMETRY_SPAN("pipeline.detail");
    begin_stage(Stage::kDetail);
    result.grid = std::make_shared<detail::GridGraph>(*grid_);
    detail::DetailedRouter detailed(*result.grid, config_.detail);
    detailed.claim_pins(*netlist_);
    detail::DetailedRouter::ProgressFn progress;
    if (!observers_.empty())
      progress = [&](std::size_t routed, std::size_t total) {
        for (ProgressObserver* observer : observers_)
          observer->on_nets_routed(routed, total);
        if (any_wants_cancel()) cancel.request_stop();
      };
    result.detail =
        detailed.route_all(subnets, result.plan, &pool, &cancel, progress);
  }
  result.times.detail_seconds = timer.seconds();
  end_stage(Stage::kDetail, result.times.detail_seconds);
  if (cancelled()) return finalize(true);

  timer.reset();
  {
    TELEMETRY_SPAN("pipeline.metrics");
    begin_stage(Stage::kMetrics);
    result.metrics =
        eval::compute_metrics(*result.grid, *netlist_, subnets, result.detail);
    // Counters must land before end_stage fires: stage-boundary observers
    // (report::RunReportBuilder) snapshot the registry at the boundary, so
    // anything added later would be missing from the metrics-stage delta.
    telemetry::counter(keys::kShortPolygons)
        .add(result.metrics.short_polygons);
    telemetry::counter(keys::kViaViolations)
        .add(result.metrics.via_violations);
    telemetry::counter(keys::kVerticalViolations)
        .add(result.metrics.vertical_violations);
    telemetry::counter(keys::kWirelength).add(result.metrics.wirelength);
    telemetry::counter(keys::kVias).add(result.metrics.vias);
    telemetry::counter(keys::kRoutedNets).add(result.metrics.routed_nets);
    telemetry::counter(keys::kTotalNets).add(result.metrics.total_nets);
    end_stage(Stage::kMetrics, timer.seconds());
  }

  util::log_info() << "routed " << result.metrics.routed_nets << "/"
                   << result.metrics.total_nets << " nets, #SP="
                   << result.metrics.short_polygons << ", #VV="
                   << result.metrics.via_violations << ", WL="
                   << result.metrics.wirelength;
  return finalize(false);
}

}  // namespace mebl::core
