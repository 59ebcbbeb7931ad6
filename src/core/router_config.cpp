#include "core/router_config.hpp"

namespace mebl::core {

assign::StageConfig RouterConfig::stage_config() const {
  assign::StageConfig stage;
  stage.layer = layer_algorithm;
  stage.track = track_algorithm;
  stage.ilp.time_limit_seconds = ilp_panel_seconds;
  stage.ilp.node_budget = ilp_node_budget;
  // Every panel's ILP starts from the graph heuristic's assignment (initial
  // incumbent + branch hint): pruning starts at the heuristic cost instead
  // of +inf, usually a large node-count cut at identical objective value.
  stage.ilp.warm_start = true;
  stage.ilp_budget_seconds = ilp_budget_seconds;
  return stage;
}

RouterConfig RouterConfig::stitch_aware() {
  RouterConfig config;  // defaults are the stitch-aware settings
  // Batch-synchronous global routing (the parallel unit of work). The batch
  // size is part of the determinism contract — fixed here, never derived
  // from the thread count.
  config.global.net_batch_size = 32;
  return config;
}

RouterConfig RouterConfig::baseline() {
  RouterConfig config;
  config.global.stitch_aware_capacity = false;
  config.global.vertex_cost = false;
  config.global.net_batch_size = 32;
  config.layer_algorithm = LayerAlgorithm::kMaxSpanningTree;
  config.track_algorithm = TrackAlgorithm::kBaseline;
  config.detail.astar.stitch_cost = false;
  config.detail.stitch_net_ordering = false;
  return config;
}

}  // namespace mebl::core
