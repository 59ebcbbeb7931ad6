#pragma once

#include <memory>
#include <vector>

#include "core/progress.hpp"
#include "core/router_config.hpp"
#include "eval/metrics.hpp"
#include "exec/cancellation.hpp"
#include "telemetry/telemetry.hpp"

namespace mebl::exec {
class ThreadPool;
}  // namespace mebl::exec

namespace mebl::serve {
class ResidentDesign;
}  // namespace mebl::serve

namespace mebl::core {

/// Per-stage wall-clock breakdown of one routing run.
struct StageTimes {
  double global_seconds = 0.0;
  double layer_seconds = 0.0;
  double track_seconds = 0.0;
  double detail_seconds = 0.0;

  [[nodiscard]] double total() const noexcept {
    return global_seconds + layer_seconds + track_seconds + detail_seconds;
  }
};

/// Everything a routing run produces: the per-stage artifacts, the final
/// occupancy grid, and the table metrics.
struct RoutingResult {
  global::GlobalResult global;
  assign::RoutePlan plan;
  detail::DetailedResult detail;
  eval::RouteMetrics metrics;
  StageTimes times;

  /// Final routed geometry (kept alive for plotting / re-analysis).
  std::shared_ptr<detail::GridGraph> grid;

  /// Set when the ILP budget deadline passed and panels fell back to the
  /// heuristic (reported as NA in the Table VII harness).
  bool ilp_budget_exceeded = false;

  /// Set when a ProgressObserver cancelled the run; the stages that did not
  /// run leave their artifacts empty.
  bool cancelled = false;

  /// Why the run stopped early: kUser for an observer / external cancel,
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

 private:
  friend class StitchAwareRouter;  // populates the snapshot in run()
  /// The serving layer refreshes the snapshot with per-ECO deltas.
  friend class mebl::serve::ResidentDesign;
  telemetry::StatsSnapshot stats_;
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

  /// Replace the observer list with this single observer (stage boundaries,
  /// nets routed, cancellation). Pass nullptr to detach all. The pointer
  /// must outlive run().
  StitchAwareRouter& set_observer(ProgressObserver* observer) {
    observers_.clear();
    if (observer != nullptr) observers_.push_back(observer);
    return *this;
  }

  /// Append an observer; every registered observer sees every callback, so
  /// progress display and report building compose on one run. Cancellation
  /// is requested when ANY observer's should_cancel() returns true.
  StitchAwareRouter& add_observer(ProgressObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
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
  /// only observers can trip.
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
  std::vector<ProgressObserver*> observers_;
  exec::ThreadPool* pool_ = nullptr;
  exec::Cancellation* cancel_ = nullptr;
};

}  // namespace mebl::core
