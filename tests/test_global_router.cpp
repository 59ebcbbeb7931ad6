#include "global/global_router.hpp"

#include <gtest/gtest.h>

namespace mebl::global {
namespace {

grid::RoutingGrid make_grid(geom::Coord w = 120, geom::Coord h = 120) {
  return grid::RoutingGrid(w, h, 3, 30, grid::StitchPlan(w, 15));
}

bool is_contiguous(const std::vector<grid::GCellId>& tiles) {
  for (std::size_t i = 0; i + 1 < tiles.size(); ++i) {
    const int dx = std::abs(tiles[i].tx - tiles[i + 1].tx);
    const int dy = std::abs(tiles[i].ty - tiles[i + 1].ty);
    if (dx + dy != 1) return false;
  }
  return true;
}

TEST(GlobalRouter, RoutesSimpleSubnet) {
  const auto grid = make_grid();
  GlobalRouter router(grid);
  const std::vector<netlist::Subnet> subnets{{0, {5, 5}, {95, 95}}};
  const auto result = router.route(subnets);
  ASSERT_EQ(result.paths.size(), 1u);
  ASSERT_FALSE(result.paths[0].tiles.empty());
  const auto& tiles = result.paths[0].tiles;
  EXPECT_EQ(tiles.front(), (grid::GCellId{0, 0}));
  EXPECT_EQ(tiles.back(), (grid::GCellId{3, 3}));
  EXPECT_TRUE(is_contiguous(tiles));
  // Shortest tile path = 6 hops.
  EXPECT_EQ(result.wirelength, 6);
}

TEST(GlobalRouter, SameTileSubnetIsTrivial) {
  const auto grid = make_grid();
  GlobalRouter router(grid);
  const std::vector<netlist::Subnet> subnets{{0, {2, 2}, {9, 9}}};
  const auto result = router.route(subnets);
  ASSERT_FALSE(result.paths[0].tiles.empty());
  EXPECT_EQ(result.paths[0].tiles.size(), 1u);
  EXPECT_EQ(result.wirelength, 0);
}

TEST(GlobalRouter, DemandsRecordedAlongPath) {
  const auto grid = make_grid();
  GlobalRouter router(grid);
  const std::vector<netlist::Subnet> subnets{{0, {5, 5}, {95, 5}}};
  router.route(subnets);
  // A straight horizontal path through tiles (0..3, 0): 3 h-edges.
  int used = 0;
  for (int tx = 0; tx + 1 < 4; ++tx) used += router.graph().h_demand(tx, 0);
  EXPECT_EQ(used, 3);
}

TEST(GlobalRouter, VerticalPathAddsLineEndDemand) {
  const auto grid = make_grid();
  GlobalRouter router(grid);
  const std::vector<netlist::Subnet> subnets{{0, {5, 5}, {5, 95}}};
  router.route(subnets);
  // One maximal vertical run: line ends at both end tiles.
  EXPECT_EQ(router.graph().vertex_demand(0, 0), 1);
  EXPECT_EQ(router.graph().vertex_demand(0, 3), 1);
  EXPECT_EQ(router.graph().vertex_demand(0, 1), 0);
}

TEST(GlobalRouter, ManySubnetsAllRouted) {
  const auto grid = make_grid();
  GlobalRouter router(grid);
  std::vector<netlist::Subnet> subnets;
  for (int i = 0; i < 40; ++i)
    subnets.push_back({i, {static_cast<geom::Coord>(3 * i % 110), 5},
                       {static_cast<geom::Coord>((3 * i + 60) % 110), 95}});
  const auto result = router.route(subnets);
  for (const auto& path : result.paths) EXPECT_FALSE(path.tiles.empty());
}

TEST(GlobalRouter, VertexCostSpreadsLineEnds) {
  // Many vertical subnets ending in the same tile: with vertex cost the
  // router spreads their bends; without it they pile up.
  const auto grid = make_grid(240, 240);
  std::vector<netlist::Subnet> subnets;
  for (int i = 0; i < 120; ++i) {
    const auto x = static_cast<geom::Coord>(2 + (i * 2) % 26);
    subnets.push_back({i, {x, static_cast<geom::Coord>(2 + i % 20)},
                       {static_cast<geom::Coord>(200 + i % 30),
                        static_cast<geom::Coord>(100 + (i * 7) % 100)}});
  }

  GlobalRouterConfig with;
  with.vertex_cost = true;
  GlobalRouter aware(grid, with);
  const auto aware_result = aware.route(subnets);

  GlobalRouterConfig without;
  without.vertex_cost = false;
  GlobalRouter oblivious(grid, without);
  const auto oblivious_result = oblivious.route(subnets);

  EXPECT_LE(aware_result.total_vertex_overflow,
            oblivious_result.total_vertex_overflow);
}

TEST(GlobalRouter, PathEndpointsMatchPinTiles) {
  const auto grid = make_grid();
  GlobalRouter router(grid);
  const std::vector<netlist::Subnet> subnets{
      {0, {40, 70}, {100, 10}}, {1, {0, 0}, {119, 119}}};
  const auto result = router.route(subnets);
  for (std::size_t i = 0; i < subnets.size(); ++i) {
    ASSERT_FALSE(result.paths[i].tiles.empty());
    EXPECT_EQ(result.paths[i].tiles.front().tx,
              grid.tile_of_x(subnets[i].a.x));
    EXPECT_EQ(result.paths[i].tiles.front().ty,
              grid.tile_of_y(subnets[i].a.y));
    EXPECT_EQ(result.paths[i].tiles.back().tx, grid.tile_of_x(subnets[i].b.x));
    EXPECT_EQ(result.paths[i].tiles.back().ty, grid.tile_of_y(subnets[i].b.y));
    EXPECT_TRUE(is_contiguous(result.paths[i].tiles));
  }
}

}  // namespace
}  // namespace mebl::global
