// Quickstart: build a tiny netlist by hand, run the stitch-aware router,
// and inspect the result. This is the 30-second tour of the public API.

#include <iostream>

#include "core/stitch_router.hpp"

int main() {
  using namespace mebl;

  // 1. Describe the fabric: a 120x120-track layout, 3 routing layers (HVH),
  //    30-track GCells, stitching lines every 15 tracks (the paper's setup).
  grid::RoutingGrid fabric(120, 120, /*num_routing_layers=*/3,
                           /*tile_size=*/30, grid::StitchPlan(120, 15));

  // 2. Describe the nets. Pins live on the pin layer at track coordinates.
  netlist::Netlist netlist;
  const auto clk = netlist.add_net("clk");
  netlist.add_pin(clk, {5, 5});
  netlist.add_pin(clk, {100, 80});
  netlist.add_pin(clk, {40, 110});
  const auto data = netlist.add_net("data");
  netlist.add_pin(data, {10, 60});
  netlist.add_pin(data, {90, 20});
  const auto rst = netlist.add_net("rst");
  netlist.add_pin(rst, {70, 70});
  netlist.add_pin(rst, {16, 14});  // right next to a stitching line

  // 3. Route with the stitch-aware configuration (alpha=1, beta=10, gamma=5).
  core::StitchAwareRouter router(fabric, netlist,
                                 core::RouterConfig::stitch_aware());
  const auto result = router.run();

  // 4. Inspect the outcome.
  std::cout << "routability  : " << result.metrics.routability_pct() << "%\n"
            << "wirelength   : " << result.metrics.wirelength << " tracks\n"
            << "vias         : " << result.metrics.vias << "\n"
            << "short polygons (soft): " << result.metrics.short_polygons
            << "\n"
            << "via violations (pins on lines): "
            << result.metrics.via_violations << "\n"
            << "vertical-routing violations (must be 0): "
            << result.metrics.vertical_violations << "\n"
            << "stage times  :";
  for (const core::StageRecord& stage : result.stages)
    std::cout << " " << stage.name << " " << stage.seconds << "s";
  std::cout << "\n";

  return result.metrics.vertical_violations == 0 ? 0 : 1;
}
