#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/progress.hpp"
#include "core/router_config.hpp"
#include "eval/metrics.hpp"
#include "exec/cancellation.hpp"
#include "telemetry/telemetry.hpp"

namespace mebl::exec {
class ThreadPool;
}  // namespace mebl::exec

namespace mebl::core {

/// What one pipeline stage did: its wall time and the telemetry counter
/// delta it produced.
struct StageRecord {
  std::string name;
  double seconds = 0.0;
  telemetry::StatsSnapshot counters;
};

/// Everything a routing run produces: the per-stage artifacts, the final
/// occupancy grid, and the table metrics.
struct RoutingResult {
  global::GlobalResult global;
  assign::RoutePlan plan;
  detail::DetailedResult detail;
  eval::RouteMetrics metrics;

  /// One record per stage that ran, in core::Stage order. A full route and
  /// an ECO record the same five stages (RoutingResult::Recorder).
  std::vector<StageRecord> stages;

  /// Final routed geometry (kept alive for plotting / re-analysis).
  std::shared_ptr<detail::GridGraph> grid;

  /// Set when the ILP budget deadline passed and panels fell back to the
  /// heuristic (reported as NA in the Table VII harness).
  bool ilp_budget_exceeded = false;

  /// Set when the run's cancellation token stopped it; the stages that did
  /// not run leave their artifacts empty.
  bool cancelled = false;

  /// Why the run stopped early: kUser for an external cancel,
  /// kDeadline when the cancellation token's deadline passed, kNone for a
  /// run that completed. Server timeouts and client cancels both surface as
  /// cancelled == true but are distinguishable here.
  exec::StopReason stop_reason = exec::StopReason::kNone;

  /// Per-run telemetry counter deltas: everything the run burned — rip-ups,
  /// A* expansions, ILP branch-and-bound nodes, bad ends, short polygons —
  /// keyed by the names in telemetry/keys.hpp; e.g.
  /// stats().value(telemetry::keys::kTrackIlpNodes).
  [[nodiscard]] const telemetry::StatsSnapshot& stats() const noexcept {
    return stats_;
  }

  class Recorder;

 private:
  telemetry::StatsSnapshot stats_;
};

/// Records one run (a full route or an ECO) into a RoutingResult: each
/// stage's wall time and counter delta, the whole-run counter delta, and
/// how the run stopped. Counter snapshots are taken before the observers
/// fire, at stage begin and at stage end.
class RoutingResult::Recorder {
 public:
  /// Clears `result.stages` and snapshots the counters for the whole-run
  /// delta. `observer` (may be null) sees every stage's begin and end;
  /// `cancel` names the stop reason of a cancelled run. The observer and
  /// `cancel` must outlive the recorder.
  Recorder(RoutingResult& result, ProgressObserver* observer,
           const exec::Cancellation& cancel);

  /// Fire the begin event, run `body`, append the stage's record, then
  /// fire the end event.
  void stage(Stage stage, const std::function<void()>& body);

  /// Close the run: set `cancelled`, the stop reason (a cancel without an
  /// explicit reason reads as a user cancel) and the whole-run counter
  /// delta.
  void finish(bool cancelled);

 private:
  RoutingResult* result_;
  ProgressObserver* observer_;
  const exec::Cancellation* cancel_;
  telemetry::StatsSnapshot before_;
};

/// The complete two-pass bottom-up stitch-aware routing flow (paper Fig. 6):
/// global routing -> stitch-aware layer assignment -> short-polygon-avoiding
/// track assignment -> stitch-aware detailed routing with rip-up/reroute.
///
/// The pipeline is parallel at the decomposition boundaries the paper
/// already defines — panels for layer/track assignment, net batches within
/// a multilevel level for global routing — on a work-stealing thread pool
/// sized by RouterConfig::num_threads. Results are bit-identical for every
/// thread count (DESIGN.md §7).
class StitchAwareRouter {
 public:
  StitchAwareRouter(const grid::RoutingGrid& grid,
                    const netlist::Netlist& netlist,
                    RouterConfig config = RouterConfig::stitch_aware());

  /// Attach the observer of stage boundaries and nets routed. Pass nullptr
  /// to detach it. The pointer must outlive run().
  StitchAwareRouter& set_observer(ProgressObserver* observer) {
    observer_ = observer;
    return *this;
  }

  /// Run on this externally-owned pool instead of creating one per run().
  /// Lets a long-running service share one pool across jobs. The pool must
  /// outlive run(); pass nullptr to revert to the internal per-run pool.
  StitchAwareRouter& set_pool(exec::ThreadPool* pool) {
    pool_ = pool;
    return *this;
  }

  /// Use this externally-owned cancellation token so callers on other
  /// threads can stop the run (with a reason and/or deadline). The token
  /// must outlive run(); pass nullptr to revert to an internal token that
  /// nothing trips.
  StitchAwareRouter& set_cancellation(exec::Cancellation* cancel) {
    cancel_ = cancel;
    return *this;
  }

  /// Execute the full pipeline.
  [[nodiscard]] RoutingResult run();

 private:
  const grid::RoutingGrid* grid_;
  const netlist::Netlist* netlist_;
  RouterConfig config_;
  ProgressObserver* observer_ = nullptr;
  exec::ThreadPool* pool_ = nullptr;
  exec::Cancellation* cancel_ = nullptr;
};

}  // namespace mebl::core
