#pragma once

#include <cstddef>

namespace mebl::core {

/// The stages of the stitch-aware pipeline, in execution order.
enum class Stage {
  kGlobal,       ///< multilevel congestion-driven global routing
  kLayerAssign,  ///< stitch-aware layer assignment over panels
  kTrackAssign,  ///< short-polygon-avoiding track assignment over panels
  kDetail,       ///< detailed routing with rip-up/reroute
  kMetrics,      ///< final metric evaluation
};

[[nodiscard]] constexpr const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kGlobal: return "global";
    case Stage::kLayerAssign: return "layer_assign";
    case Stage::kTrackAssign: return "track_assign";
    case Stage::kDetail: return "detail";
    case Stage::kMetrics: return "metrics";
  }
  return "?";
}

/// Push-style progress interface for StitchAwareRouter: callers (the CLI, a
/// service wrapper) register one observer instead of polling the router.
///
/// Callbacks fire on the thread that calls StitchAwareRouter::run(). A run
/// is stopped through its exec::Cancellation token, never by an observer.
/// All default implementations are no-ops, so observers override only what
/// they need.
class ProgressObserver {
 public:
  virtual ~ProgressObserver() = default;

  virtual void on_stage_begin(Stage /*stage*/) {}
  /// `seconds` is the stage's wall-clock time.
  virtual void on_stage_end(Stage /*stage*/, double /*seconds*/) {}
  /// Subnets with a committed global route so far (fires per net batch
  /// during the global stage).
  virtual void on_nets_routed(std::size_t /*routed*/, std::size_t /*total*/) {}
};

}  // namespace mebl::core
