#include "eval/metrics.hpp"

#include <algorithm>

namespace mebl::eval {

using geom::Coord;
using geom::LayerId;
using geom::Orientation;
using netlist::NetId;

RouteMetrics compute_metrics(const detail::GridGraph& grid,
                             const netlist::Netlist& netlist,
                             const std::vector<netlist::Subnet>& subnets,
                             const detail::DetailedResult& outcome) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  RouteMetrics metrics;

  for (LayerId layer = 0; layer < rg.num_layers(); ++layer) {
    const bool vertical = layer >= 1 &&
                          rg.layer_dir(layer) == Orientation::kVertical;
    const auto above = static_cast<LayerId>(layer + 1);
    grid.for_each_run(layer, [&](Coord y, Coord lo, Coord hi, NetId net) {
      // Wire adjacencies (count each once: toward +x / +y).
      if (layer >= 1) metrics.wirelength += hi - lo;
      for (Coord x = lo; x <= hi; ++x) {
        if (layer >= 1 && y + 1 < rg.height() &&
            grid.owner({x, y + 1, layer}) == net) {
          ++metrics.wirelength;
          // An actual vertical *wire* exists only on vertical layers;
          // same-net y-adjacency on a horizontal layer is two stacked
          // horizontal wires, which may legally cross a line.
          if (vertical && stitch.is_stitch_column(x))
            ++metrics.vertical_violations;
        }
        // Vias (count each once: toward the layer above).
        if (above < rg.num_layers() && grid.owner({x, y, above}) == net) {
          ++metrics.vias;
          if (stitch.is_stitch_column(x)) ++metrics.via_violations;
        }
      }
    });
  }

  metrics.short_polygons =
      static_cast<int>(detail::short_polygon_ends(grid).size());

  metrics.total_nets = static_cast<int>(netlist.num_nets());
  std::vector<bool> net_ok(netlist.num_nets(), true);
  for (std::size_t i = 0; i < subnets.size(); ++i)
    if (i < outcome.subnet_nodes.size() && outcome.subnet_nodes[i].empty())
      net_ok[static_cast<std::size_t>(subnets[i].net)] = false;
  metrics.routed_nets =
      static_cast<int>(std::count(net_ok.begin(), net_ok.end(), true));
  return metrics;
}

}  // namespace mebl::eval
