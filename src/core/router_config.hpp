#pragma once

#include <cstdint>

#include "assign/stage.hpp"
#include "detail/detailed_router.hpp"
#include "global/global_router.hpp"

namespace mebl::core {

/// Layer-assignment heuristic selection (Table VI comparison). Alias of the
/// assign-level enum so RouterConfig and assign::StageConfig share one
/// vocabulary; the enumerator names are unchanged.
using LayerAlgorithm = assign::LayerMethod;

/// Track-assignment algorithm selection (Table VII comparison); alias of
/// the assign-level enum, as above.
using TrackAlgorithm = assign::TrackMethod;

/// Full pipeline configuration. The default constructs the paper's
/// stitch-aware router; `baseline()` constructs the comparison router of
/// Table III (conventional objectives at every stage).
///
/// The preferred way to customize a config is the fluent `with_*` builder
/// chain, which reads as one expression and keeps working when fields move
/// behind validation later:
///
///   auto config = RouterConfig::stitch_aware()
///                     .with_track_algorithm(TrackAlgorithm::kIlp)
///                     .with_ilp_budget(30.0)
///                     .with_threads(8);
///
/// Direct field access remains supported for existing callers and for the
/// knobs without a builder yet.
struct RouterConfig {
  global::GlobalRouterConfig global;
  LayerAlgorithm layer_algorithm = LayerAlgorithm::kColorableSubset;
  TrackAlgorithm track_algorithm = TrackAlgorithm::kGraph;
  /// Per-panel ILP knobs. Like `ilp.deadline`, the `warm_start`, `pool` and
  /// `node_budget` members are overwritten by assign::assign_panels from the
  /// router-level fields below; set those instead.
  assign::IlpTrackOptions ilp;
  /// Wall-clock budget for all ILP panels of one circuit, enforced as one
  /// absolute deadline shared by every worker: panels that start after it
  /// fall back to the graph heuristic, and the branch-and-bound aborts
  /// mid-solve when it passes, so a single over-budget panel cannot blow
  /// past the budget. Runs that hit the deadline are flagged (the paper
  /// reports such circuits as NA). Where a cut-off lands is inherently
  /// machine-dependent; replayable flows set ilp_node_budget instead.
  double ilp_budget_seconds = 60.0;
  /// Deterministic alternative to the wall-clock budget: > 0 caps every
  /// panel's branch-and-bound at this many nodes and disables all wall-clock
  /// ILP limits, making track assignment a pure function of the input at
  /// any thread count and on any machine. This is what the mebl_serve ECO
  /// path uses so node-budgeted ILP reroutes pass the replay verify gate.
  std::int64_t ilp_node_budget = 0;
  detail::DetailedConfig detail;
  /// Worker threads for the parallel pipeline stages (panel-parallel
  /// layer/track assignment, net-batch-parallel global routing,
  /// disjoint-batch-parallel detailed routing).
  /// 0 = std::thread::hardware_concurrency(). Routed results are
  /// bit-identical for every value — see DESIGN.md §7.
  int num_threads = 0;

  // ------------------------------------------------------ fluent builders

  RouterConfig& with_layer_algorithm(LayerAlgorithm algorithm) {
    layer_algorithm = algorithm;
    return *this;
  }
  RouterConfig& with_track_algorithm(TrackAlgorithm algorithm) {
    track_algorithm = algorithm;
    return *this;
  }
  /// `num_threads` as above; 0 selects hardware concurrency.
  RouterConfig& with_threads(int threads) {
    num_threads = threads;
    return *this;
  }
  /// Wall-clock ILP budget (absolute deadline) in seconds.
  RouterConfig& with_ilp_budget(double seconds) {
    ilp_budget_seconds = seconds;
    return *this;
  }
  /// Deterministic ILP budget: cap each panel's branch-and-bound at `nodes`
  /// and drop every wall-clock ILP limit (see ilp_node_budget above).
  RouterConfig& with_ilp_node_budget(std::int64_t nodes) {
    ilp_node_budget = nodes;
    return *this;
  }
  /// No-op kept for source compatibility: the global congestion graph has
  /// one storage layout (DESIGN.md §15), so there is nothing to switch.
  /// Scheduled for removal together with its last caller in perfbench.
  RouterConfig& with_tiled_grid(bool /*enabled*/) { return *this; }
  /// Toggle the coarsen–route–refine multilevel global pass (DESIGN.md
  /// §15): long subnets route on a coarsened graph first, then refine
  /// inside the resulting corridor (full-grid fallback on failure).
  RouterConfig& with_multilevel(bool enabled) {
    global.multilevel.enabled = enabled;
    return *this;
  }

  /// The assign::assign_panels configuration: the enum selections (aliases)
  /// pass through, and the router-level ILP fields land in the per-panel
  /// options.
  [[nodiscard]] assign::StageConfig stage_config() const;

  /// The paper's stitch-aware configuration (alpha=1, beta=10, gamma=5).
  static RouterConfig stitch_aware();

  /// The baseline router of Table III: conventional resource estimation,
  /// conventional layer/track assignment, no stitch costs or ordering in
  /// detailed routing. Hard constraints (no vertical routing on lines, vias
  /// on lines only at pins) remain enforced, as in the paper's baseline.
  static RouterConfig baseline();
};

}  // namespace mebl::core
