#include "detail/astar.hpp"

#include <gtest/gtest.h>

#include "telemetry/keys.hpp"

namespace mebl::detail {
namespace {

using geom::Coord;
using geom::Point;
using geom::Point3;
using geom::Rect;

grid::RoutingGrid make_grid(Coord w = 60, Coord h = 60, int layers = 3) {
  return grid::RoutingGrid(w, h, layers, 30, grid::StitchPlan(w, 15));
}

/// Search, then claim the found path the way the detailed router commits
/// an attempt (the search itself never claims).
bool route(const AStarRouter& router, GridGraph& grid, SearchScratch& scratch,
           netlist::NetId net, Point a, Point b, const Rect& box) {
  if (!router.search(scratch, net, a, b, box)) return false;
  for (const Point3 p : scratch.path) grid.claim(p, net);
  return true;
}

TEST(AStar, RoutesStraightHorizontalConnection) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  ASSERT_TRUE(route(router, grid, scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  // Path claims the pins' column stacks and the wire on layer 1.
  EXPECT_EQ(grid.owner({2, 5, 0}), 0);
  EXPECT_EQ(grid.owner({12, 5, 0}), 0);
  EXPECT_EQ(grid.owner({7, 5, 1}), 0);
}

TEST(AStar, LShapeUsesVerticalLayer) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  ASSERT_TRUE(route(router, grid, scratch, 0, {2, 2}, {10, 12}, rg.extent()));
  bool used_vertical_layer = false;
  for (const Point3 p : scratch.path)
    if (p.layer == 2) used_vertical_layer = true;
  EXPECT_TRUE(used_vertical_layer);
}

TEST(AStar, NeverRoutesVerticallyOnStitchColumn) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  // Force vertical movement near the line x=15.
  ASSERT_TRUE(route(router, grid, scratch, 0, {15, 2}, {15, 25}, rg.extent()));
  for (std::size_t i = 0; i + 1 < scratch.path.size(); ++i) {
    const Point3 a = scratch.path[i];
    const Point3 b = scratch.path[i + 1];
    if (a.layer == b.layer && a.x == b.x && a.x == 15)
      FAIL() << "vertical move on stitch column at y " << a.y;
  }
}

TEST(AStar, ViaOnStitchColumnOnlyAtPins) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  ASSERT_TRUE(route(router, grid, scratch, 0, {15, 2}, {15, 25}, rg.extent()));
  for (std::size_t i = 0; i + 1 < scratch.path.size(); ++i) {
    const Point3 a = scratch.path[i];
    const Point3 b = scratch.path[i + 1];
    if (a.layer != b.layer && rg.stitch().is_stitch_column(a.x)) {
      const bool at_pin = (a.x == 15 && (a.y == 2 || a.y == 25));
      EXPECT_TRUE(at_pin) << "via on line at (" << a.x << "," << a.y << ")";
    }
  }
}

TEST(AStar, AvoidsBlockedNodes) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  // Wall on layer 1 at y=5 between the pins (x in [4,8]).
  for (Coord x = 4; x <= 8; ++x) grid.claim({x, 5, 1}, 99);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  ASSERT_TRUE(route(router, grid, scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  for (const Point3 p : scratch.path) EXPECT_NE(grid.owner(p), 99);
}

TEST(AStar, FailsWhenFullyBlocked) {
  const auto rg = make_grid(60, 60, 2);  // layers: 1 H, 2 V
  GridGraph grid(rg);
  // Block every node of both routing layers in a box around pin a except
  // the pin column itself.
  for (Coord x = 0; x <= 10; ++x)
    for (Coord y = 0; y <= 10; ++y)
      for (geom::LayerId l = 1; l <= 2; ++l)
        if (!(x == 2 && y == 2)) grid.claim({x, y, l}, 99);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  EXPECT_FALSE(
      route(router, grid, scratch, 0, {2, 2}, {8, 8}, Rect{0, 0, 10, 10}));
}

TEST(AStar, FailureLeavesGridUnchanged) {
  const auto rg = make_grid(60, 60, 2);
  GridGraph grid(rg);
  for (Coord x = 0; x <= 10; ++x)
    for (Coord y = 0; y <= 10; ++y)
      for (geom::LayerId l = 1; l <= 2; ++l)
        if (!(x == 2 && y == 2)) grid.claim({x, y, l}, 99);
  const auto before = grid.occupied_nodes();
  const AStarRouter router(grid, {});
  SearchScratch scratch;
  EXPECT_FALSE(router.search(scratch, 0, {2, 2}, {8, 8}, Rect{0, 0, 10, 10}));
  EXPECT_EQ(grid.occupied_nodes(), before);
  // A successful search claims nothing either: claiming is the caller's.
  EXPECT_TRUE(router.search(scratch, 0, {20, 5}, {30, 5}, rg.extent()));
  EXPECT_EQ(grid.occupied_nodes(), before);
}

TEST(AStar, ReusesOwnNetGeometry) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  // Pre-existing wire of net 0 along y=5.
  for (Coord x = 2; x <= 20; ++x) grid.claim({x, 5, 1}, 0);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  ASSERT_TRUE(route(router, grid, scratch, 0, {2, 5}, {20, 5}, rg.extent()));
  // Riding its own wire: only the two pin stacks get claimed in addition.
  EXPECT_EQ(grid.occupied_nodes(), 19 + 2);
}

TEST(AStar, StitchCostSteersViasOutOfUnfriendlyRegions) {
  const auto rg = make_grid(90, 60);
  // Route an L that could bend right next to the line x=15.
  AStarConfig aware;
  aware.stitch_cost = true;
  GridGraph grid_aware(rg);
  AStarRouter router_aware(grid_aware, aware);
  SearchScratch scratch;
  ASSERT_TRUE(route(router_aware, grid_aware, scratch, 0, {2, 5}, {16, 25},
                    rg.extent()));
  int aware_vsu = 0;
  for (std::size_t i = 0; i + 1 < scratch.path.size(); ++i) {
    const Point3 a = scratch.path[i];
    const Point3 b = scratch.path[i + 1];
    if (a.layer != b.layer && rg.stitch().in_unfriendly_region(b.x) &&
        !(b.x == 16 && b.y == 25))
      ++aware_vsu;  // vias in unfriendly regions away from the target pin
  }
  EXPECT_EQ(aware_vsu, 0);
}

TEST(AStar, ProbeCrossesForeignWithoutClaiming) {
  const auto rg = make_grid(60, 60, 2);
  GridGraph grid(rg);
  // Wall across both routing layers between the pins: normal routing fails.
  for (Coord y = 0; y < 60; ++y)
    for (geom::LayerId l = 1; l <= 2; ++l) grid.claim({6, y, l}, 99);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  EXPECT_FALSE(route(router, grid, scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  const auto before = grid.occupied_nodes();
  ASSERT_TRUE(
      router.search(scratch, 0, {2, 5}, {12, 5}, rg.extent(), 40.0, nullptr));
  EXPECT_EQ(grid.occupied_nodes(), before);  // probe never claims
  bool crossed_foreign = false;
  for (const Point3 p : scratch.path)
    if (grid.owner(p) == 99) crossed_foreign = true;
  EXPECT_TRUE(crossed_foreign);
}

TEST(AStar, ProbeRespectsHardNodes) {
  const auto rg = make_grid(60, 60, 2);
  GridGraph grid(rg);
  NodeBitmap hard(grid.index_space());
  for (Coord y = 0; y < 60; ++y)
    for (geom::LayerId l = 1; l <= 2; ++l) {
      grid.claim({6, y, l}, 99);
      hard.set(grid.index({6, y, l}));
    }
  AStarRouter router(grid, {});
  SearchScratch scratch;
  EXPECT_FALSE(
      router.search(scratch, 0, {2, 5}, {12, 5}, rg.extent(), 40.0, &hard));
}

TEST(AStar, NodePenaltySteersPath) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  AStarRouter router(grid, {});
  SearchScratch scratch;
  // Heavily penalize the straight row on both horizontal layers so the
  // route jogs around it.
  for (Coord x = 3; x <= 11; ++x) {
    router.add_node_penalty({x, 5, 1}, 100.0);
    router.add_node_penalty({x, 5, 3}, 100.0);
  }
  ASSERT_TRUE(route(router, grid, scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  bool left_row = false;
  for (const Point3 p : scratch.path)
    if (p.layer >= 1 && p.y != 5) left_row = true;
  EXPECT_TRUE(left_row);
}

TEST(AStar, CancelledGuardGivesThePathOfNoGuard) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  SearchScratch scratch;
  const AStarRouter plain(grid, {});
  ASSERT_TRUE(plain.search(scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  const std::vector<Point3> unguarded = scratch.path;

  AStarRouter guarded(grid, {});
  for (Coord x = 3; x <= 11; ++x) guarded.add_node_penalty({x, 5, 1}, 40.0);
  EXPECT_EQ(guarded.guard_nodes(), 9u);
  for (Coord x = 3; x <= 11; ++x) guarded.add_node_penalty({x, 5, 1}, -40.0);
  EXPECT_EQ(guarded.guard_nodes(), 0u);
  ASSERT_TRUE(guarded.search(scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  EXPECT_EQ(scratch.path, unguarded);
}

TEST(AStar, TracksNodesExpanded) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  const AStarRouter router(grid, {});
  SearchScratch scratch;
  auto& searches = telemetry::counter(telemetry::keys::kAstarSearches);
  auto& expansions = telemetry::counter(telemetry::keys::kAstarExpansions);
  const std::int64_t searches_before = searches.value();
  const std::int64_t expansions_before = expansions.value();
  ASSERT_TRUE(router.search(scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  EXPECT_EQ(searches.value() - searches_before, 1);
  EXPECT_GT(expansions.value() - expansions_before, 0);
}

}  // namespace
}  // namespace mebl::detail
