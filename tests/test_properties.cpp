// Parameterized property sweeps over the whole pipeline: for a family of
// random circuits and both router configurations, the hard MEBL constraints
// and structural invariants must always hold.

#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "netlist/decompose.hpp"

namespace mebl::core {
namespace {

struct PropertyParam {
  std::uint64_t seed;
  int layers;
  bool stitch_aware;
};

void PrintTo(const PropertyParam& p, std::ostream* os) {
  *os << "seed" << p.seed << "_L" << p.layers
      << (p.stitch_aware ? "_aware" : "_baseline");
}

class PipelineProperty : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(PipelineProperty, HardConstraintsAndInvariantsHold) {
  const auto param = GetParam();
  bench_suite::BenchmarkSpec spec;
  spec.name = "prop";
  spec.um_width = 90;
  spec.um_height = 70;
  spec.layers = param.layers;
  spec.nets = 90;
  spec.pins = 260;
  const auto circuit = bench_suite::generate_circuit(spec, {}, param.seed);

  StitchAwareRouter router(circuit.grid, circuit.netlist,
                           param.stitch_aware ? RouterConfig::stitch_aware()
                                              : RouterConfig::baseline());
  const auto result = router.run();

  // Property 1: the vertical routing constraint is never violated.
  EXPECT_EQ(result.metrics.vertical_violations, 0);

  // Property 2: every via violation sits at a fixed pin location.
  const auto& grid = *result.grid;
  const auto& stitch = circuit.grid.stitch();
  std::unordered_set<geom::Point> pin_locations;
  for (const auto& pin : circuit.netlist.pins()) pin_locations.insert(pin.pos);
  for (geom::Coord y = 0; y < circuit.grid.height(); ++y) {
    for (const geom::Coord x : stitch.lines()) {
      for (geom::LayerId l = 0; l + 1 < circuit.grid.num_layers(); ++l) {
        const auto net = grid.owner({x, y, l});
        if (net != -1 &&
            grid.owner({x, y, static_cast<geom::LayerId>(l + 1)}) == net) {
          EXPECT_TRUE(pin_locations.count({x, y}))
              << "via violation off-pin at (" << x << "," << y << ")";
        }
      }
    }
  }

  // Property 3: no vertical wire runs along a stitching line — same-net
  // y-adjacency on a vertical layer never occurs on a line column (except
  // through pin via stacks, which claim no two y-adjacent nodes).
  for (const geom::LayerId l :
       circuit.grid.layers_with(geom::Orientation::kVertical)) {
    for (const geom::Coord x : stitch.lines()) {
      for (geom::Coord y = 0; y + 1 < circuit.grid.height(); ++y) {
        const auto net = grid.owner({x, y, l});
        if (net == -1) continue;
        EXPECT_TRUE(grid.owner({x, y + 1, l}) != net ||
                    (pin_locations.count({x, y}) &&
                     pin_locations.count({x, y + 1})))
            << "vertical wire on stitch line at (" << x << "," << y << ",L"
            << l << ")";
      }
    }
  }

  // Property 4: counting consistency — #SP recounted by brute force. For
  // every maximal same-net horizontal wire and every line strictly inside
  // it, each wire end within epsilon of the line that has a same-net node
  // directly above or below is one short polygon.
  int short_polygons = 0;
  for (const geom::LayerId l :
       circuit.grid.layers_with(geom::Orientation::kHorizontal)) {
    const auto same_net_via = [&](geom::Coord x, geom::Coord y,
                                  netlist::NetId net) {
      return grid.owner({x, y, static_cast<geom::LayerId>(l - 1)}) == net ||
             (l + 1 < circuit.grid.num_layers() &&
              grid.owner({x, y, static_cast<geom::LayerId>(l + 1)}) == net);
    };
    for (geom::Coord y = 0; y < circuit.grid.height(); ++y) {
      for (geom::Coord lo = 0; lo < circuit.grid.width(); ++lo) {
        const auto net = grid.owner({lo, y, l});
        if (net == -1 || (lo > 0 && grid.owner({lo - 1, y, l}) == net))
          continue;  // free, or not the start of a wire
        geom::Coord hi = lo;
        while (hi + 1 < circuit.grid.width() &&
               grid.owner({hi + 1, y, l}) == net)
          ++hi;
        for (const geom::Coord s : stitch.lines()) {
          if (s <= lo || s >= hi) continue;
          if (s - lo <= stitch.epsilon() && same_net_via(lo, y, net))
            ++short_polygons;
          if (hi - s <= stitch.epsilon() && same_net_via(hi, y, net))
            ++short_polygons;
        }
      }
    }
  }
  EXPECT_EQ(result.metrics.short_polygons, short_polygons);
  EXPECT_LE(result.metrics.routed_nets, result.metrics.total_nets);

  // Property 5: a routed net's pins are all claimed by that net.
  std::vector<bool> net_ok(circuit.netlist.num_nets(), true);
  const auto subnets = netlist::decompose_all(circuit.netlist);
  for (std::size_t i = 0; i < subnets.size(); ++i)
    if (result.detail.subnet_nodes[i].empty())
      net_ok[static_cast<std::size_t>(subnets[i].net)] = false;
  for (const auto& pin : circuit.netlist.pins()) {
    if (net_ok[static_cast<std::size_t>(pin.net)]) {
      EXPECT_EQ(grid.owner({pin.pos.x, pin.pos.y, 0}), pin.net);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineProperty,
    ::testing::Values(PropertyParam{1, 3, true}, PropertyParam{1, 3, false},
                      PropertyParam{2, 3, true}, PropertyParam{2, 6, true},
                      PropertyParam{3, 6, false}, PropertyParam{4, 4, true},
                      PropertyParam{5, 3, true}, PropertyParam{5, 5, true}),
    [](const ::testing::TestParamInfo<PropertyParam>& info) {
      std::ostringstream name;
      PrintTo(info.param, &name);
      return name.str();
    });

/// Connectivity property: every routed 2-pin subnet's endpoints are joined
/// by same-net geometry (flood fill over the occupancy grid).
class ConnectivityProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConnectivityProperty, RoutedSubnetsAreConnected) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "conn";
  spec.um_width = 70;
  spec.um_height = 70;
  spec.layers = 3;
  spec.nets = 60;
  spec.pins = 150;
  const auto circuit = bench_suite::generate_circuit(spec, {}, GetParam());
  StitchAwareRouter router(circuit.grid, circuit.netlist);
  const auto result = router.run();
  const auto subnets = netlist::decompose_all(circuit.netlist);
  const auto& grid = *result.grid;

  // Flood fill per net over claimed nodes.
  const auto reachable = [&](netlist::NetId net, geom::Point3 from,
                             geom::Point3 to) {
    std::vector<geom::Point3> stack{from};
    std::unordered_set<std::size_t> seen{grid.index(from)};
    while (!stack.empty()) {
      const auto p = stack.back();
      stack.pop_back();
      if (p == to) return true;
      const geom::Point3 neighbors[6] = {
          {static_cast<geom::Coord>(p.x + 1), p.y, p.layer},
          {static_cast<geom::Coord>(p.x - 1), p.y, p.layer},
          {p.x, static_cast<geom::Coord>(p.y + 1), p.layer},
          {p.x, static_cast<geom::Coord>(p.y - 1), p.layer},
          {p.x, p.y, static_cast<geom::LayerId>(p.layer + 1)},
          {p.x, p.y, static_cast<geom::LayerId>(p.layer - 1)}};
      for (const auto q : neighbors) {
        if (!circuit.grid.in_bounds(q)) continue;
        if (grid.owner(q) != net) continue;
        if (seen.insert(grid.index(q)).second) stack.push_back(q);
      }
    }
    return false;
  };

  for (std::size_t i = 0; i < subnets.size(); ++i) {
    if (result.detail.subnet_nodes[i].empty()) continue;
    EXPECT_TRUE(reachable(subnets[i].net, {subnets[i].a.x, subnets[i].a.y, 0},
                          {subnets[i].b.x, subnets[i].b.y, 0}))
        << "subnet " << i << " of net " << subnets[i].net << " disconnected";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConnectivityProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace mebl::core
