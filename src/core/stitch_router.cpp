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

RoutingResult::Recorder::Recorder(RoutingResult& result,
                                  std::vector<ProgressObserver*> observers,
                                  const exec::Cancellation& cancel)
    : result_(&result),
      observers_(std::move(observers)),
      cancel_(&cancel),
      before_(telemetry::snapshot_counters()) {
  result.stages.clear();
}

void RoutingResult::Recorder::stage(Stage stage,
                                    const std::function<void()>& body) {
  const telemetry::StatsSnapshot before = telemetry::snapshot_counters();
  util::Timer timer;
  for (ProgressObserver* observer : observers_)
    observer->on_stage_begin(stage);
  body();
  const double seconds = timer.seconds();
  result_->stages.push_back(
      {stage_name(stage), seconds,
       telemetry::delta(before, telemetry::snapshot_counters())});
  for (ProgressObserver* observer : observers_)
    observer->on_stage_end(stage, seconds);
}

void RoutingResult::Recorder::finish(bool cancelled) {
  result_->cancelled = cancelled;
  result_->stop_reason = !cancelled ? exec::StopReason::kNone
                         : cancel_->reason() == exec::StopReason::kNone
                             ? exec::StopReason::kUser
                             : cancel_->reason();
  result_->stats_ = telemetry::delta(before_, telemetry::snapshot_counters());
}

RoutingResult StitchAwareRouter::run() {
  TELEMETRY_SPAN("pipeline.run");
  namespace keys = telemetry::keys;

  // A service shares one pool and one token across jobs (set_pool /
  // set_cancellation); a batch run builds both locally.
  exec::Cancellation local_cancel;
  exec::Cancellation& cancel = cancel_ != nullptr ? *cancel_ : local_cancel;
  RoutingResult result;
  RoutingResult::Recorder recorder(result, observers_, cancel);
  const auto subnets = netlist::decompose_all(*netlist_);
  std::optional<exec::ThreadPool> local_pool;
  if (pool_ == nullptr) local_pool.emplace(config_.num_threads);
  exec::ThreadPool& pool = pool_ != nullptr ? *pool_ : *local_pool;
  const auto any_wants_cancel = [&] {
    return std::any_of(
        observers_.begin(), observers_.end(),
        [](ProgressObserver* observer) { return observer->should_cancel(); });
  };
  // Polled at stage boundaries (and, through on_nets_routed, between net
  // batches); sticky through the Cancellation token. A stop closes the run
  // as cancelled.
  const auto stopped = [&] {
    if (any_wants_cancel()) cancel.request_stop();
    if (!cancel.stop_requested()) return false;
    recorder.finish(true);
    return true;
  };
  const auto on_nets_routed = [&](std::size_t routed, std::size_t total) {
    for (ProgressObserver* observer : observers_)
      observer->on_nets_routed(routed, total);
    if (any_wants_cancel()) cancel.request_stop();
  };

  recorder.stage(Stage::kGlobal, [&] {
    TELEMETRY_SPAN("pipeline.global");
    global::GlobalRouter global_router(*grid_, config_.global);
    global::GlobalRouter::ProgressFn progress;
    if (!observers_.empty()) progress = on_nets_routed;
    result.global = global_router.route(subnets, &pool, &cancel, progress);
    // Record the global-stage quality counters inside the stage so its
    // report record carries them.
    telemetry::counter(keys::kGlobalWirelength).add(result.global.wirelength);
    telemetry::counter(keys::kGlobalVertexOverflow)
        .add(result.global.total_vertex_overflow);
    telemetry::counter(keys::kGlobalVertexOverflowMax)
        .add(result.global.max_vertex_overflow);
    telemetry::counter(keys::kGlobalEdgeOverflow)
        .add(result.global.total_edge_overflow);
  });
  if (stopped()) return result;

  recorder.stage(Stage::kLayerAssign, [&] {
    TELEMETRY_SPAN("pipeline.layer_assign");
    // Layer assignment runs inside the track stage's assign_panels call,
    // panel by panel, so this stage only extracts the runs and the
    // layer counters land in the track stage's delta.
    result.plan = assign::extract_runs(result.global, *grid_);
  });
  if (stopped()) return result;

  recorder.stage(Stage::kTrackAssign, [&] {
    TELEMETRY_SPAN("pipeline.track_assign");
    result.ilp_budget_exceeded =
        assign::assign_panels(result.plan, *grid_,
                              assign::PanelSet::all(*grid_),
                              config_.stage_config(), pool)
            .ilp_budget_exceeded;
  });
  if (stopped()) return result;

  recorder.stage(Stage::kDetail, [&] {
    TELEMETRY_SPAN("pipeline.detail");
    result.grid = std::make_shared<detail::GridGraph>(*grid_);
    detail::DetailedRouter detailed(*result.grid, config_.detail);
    detailed.claim_pins(*netlist_);
    detail::DetailedRouter::ProgressFn progress;
    if (!observers_.empty()) progress = on_nets_routed;
    result.detail =
        detailed.route_all(subnets, result.plan, &pool, &cancel, progress);
  });
  if (stopped()) return result;

  recorder.stage(Stage::kMetrics, [&] {
    TELEMETRY_SPAN("pipeline.metrics");
    result.metrics =
        eval::compute_metrics(*result.grid, *netlist_, subnets, result.detail);
    // The quality counters land inside the stage so its record carries
    // them.
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
  });

  util::log_info() << "routed " << result.metrics.routed_nets << "/"
                   << result.metrics.total_nets << " nets, #SP="
                   << result.metrics.short_polygons << ", #VV="
                   << result.metrics.via_violations << ", WL="
                   << result.metrics.wirelength;
  recorder.finish(false);
  return result;
}

}  // namespace mebl::core
