#include "core/stitch_router.hpp"

#include <optional>
#include <utility>

#include "assign/stage.hpp"
#include "exec/cancellation.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/decompose.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mebl::core {

StitchAwareRouter::StitchAwareRouter(const grid::RoutingGrid& grid,
                                     const netlist::Netlist& netlist,
                                     RouterConfig config)
    : grid_(&grid), netlist_(&netlist), config_(std::move(config)) {}

RoutingResult::Recorder::Recorder(RoutingResult& result,
                                  ProgressObserver* observer,
                                  const exec::Cancellation& cancel)
    : result_(&result),
      observer_(observer),
      cancel_(&cancel),
      before_(telemetry::snapshot_counters()) {
  result.stages.clear();
}

void RoutingResult::Recorder::stage(Stage stage,
                                    const std::function<void()>& body) {
  const telemetry::StatsSnapshot before = telemetry::snapshot_counters();
  util::Timer timer;
  if (observer_ != nullptr) observer_->on_stage_begin(stage);
  body();
  const double seconds = timer.seconds();
  result_->stages.push_back(
      {stage_name(stage), seconds,
       telemetry::delta(before, telemetry::snapshot_counters())});
  if (observer_ != nullptr) observer_->on_stage_end(stage, seconds);
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

  // A service shares one pool and one token across jobs (set_pool /
  // set_cancellation); a batch run builds both locally.
  exec::Cancellation local_cancel;
  exec::Cancellation& cancel = cancel_ != nullptr ? *cancel_ : local_cancel;
  RoutingResult result;
  RoutingResult::Recorder recorder(result, observer_, cancel);
  const auto subnets = netlist::decompose_all(*netlist_);
  std::optional<exec::ThreadPool> local_pool;
  if (pool_ == nullptr) local_pool.emplace(config_.num_threads);
  exec::ThreadPool& pool = pool_ != nullptr ? *pool_ : *local_pool;
  // Polled at stage boundaries; a stop closes the run as cancelled.
  const auto stopped = [&] {
    if (!cancel.stop_requested()) return false;
    recorder.finish(true);
    return true;
  };
  // The global and detail stages report their committed batches here.
  global::GlobalRouter::ProgressFn progress;
  if (observer_ != nullptr)
    progress = [&](std::size_t routed, std::size_t total) {
      observer_->on_nets_routed(routed, total);
    };

  recorder.stage(Stage::kGlobal, [&] {
    TELEMETRY_SPAN("pipeline.global");
    global::GlobalRouter global_router(*grid_, config_.global);
    result.global = global_router.route(subnets, &pool, &cancel, progress);
  });
  if (stopped()) return result;

  recorder.stage(Stage::kLayerAssign, [&] {
    TELEMETRY_SPAN("pipeline.layer_assign");
    // Layer assignment runs inside the track stage's assign_panels call,
    // panel by panel, so this stage only extracts the runs and the
    // layer counters land in the track stage's delta.
    result.plan = assign::extract_runs(result.global, subnets);
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
    result.detail =
        detailed.route_all(subnets, result.plan, &pool, &cancel, progress);
  });
  if (stopped()) return result;

  recorder.stage(Stage::kMetrics, [&] {
    TELEMETRY_SPAN("pipeline.metrics");
    result.metrics =
        eval::compute_metrics(*result.grid, *netlist_, subnets, result.detail);
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
