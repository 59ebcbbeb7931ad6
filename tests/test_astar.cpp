#include "detail/astar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <limits>
#include <random>
#include <vector>

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

TEST(AStar, EpochWrapForgetsStaleStamps) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  const AStarRouter router(grid, {});
  const auto path_of = [&](Point a, Point b) {
    SearchScratch fresh;
    EXPECT_TRUE(router.search(fresh, 0, a, b, rg.extent()));
    return fresh.path;
  };
  SearchScratch scratch;
  ASSERT_TRUE(router.search(scratch, 0, {2, 5}, {12, 5}, rg.extent()));
  // The next search wraps the epoch to zero; stamps left at zero (never
  // written) or at one (the search above) must not read as visited.
  scratch.epoch = std::numeric_limits<std::uint32_t>::max();
  ASSERT_TRUE(router.search(scratch, 0, {2, 5}, {12, 20}, rg.extent()));
  EXPECT_EQ(scratch.path, path_of({2, 5}, {12, 20}));
  ASSERT_TRUE(router.search(scratch, 0, {3, 5}, {12, 5}, rg.extent()));
  EXPECT_EQ(scratch.path, path_of({3, 5}, {12, 5}));
}

TEST(AStar, SealedGoalFailsAtTheTrigger) {
  const auto rg = make_grid();  // layers: 1 H, 2 V, 3 H
  GridGraph grid(rg);
  // Foreign wire on every routing layer next to the goal's pin column, on
  // each side a wire step could leave it by.
  const Point b{40, 40};
  for (geom::LayerId l = 1; l <= 3; ++l)
    for (const Point d : {Point{-1, 0}, Point{1, 0}, Point{0, -1}, Point{0, 1}})
      grid.claim({static_cast<Coord>(b.x + d.x), static_cast<Coord>(b.y + d.y),
                  l},
                 99);
  const AStarRouter router(grid, {});
  SearchScratch scratch;
  auto& searches = telemetry::counter(telemetry::keys::kAstarSearches);
  auto& expansions = telemetry::counter(telemetry::keys::kAstarExpansions);
  auto& sealed = telemetry::counter(telemetry::keys::kAstarSealedFails);
  const std::int64_t searches_before = searches.value();
  const std::int64_t expansions_before = expansions.value();
  const std::int64_t sealed_before = sealed.value();
  EXPECT_FALSE(router.search(scratch, 0, {5, 5}, b, rg.extent()));
  EXPECT_EQ(searches.value() - searches_before, 1);
  EXPECT_EQ(sealed.value() - sealed_before, 1);
  EXPECT_LE(expansions.value() - expansions_before,
            AStarRouter::kSealTrigger + 1);

  // The rip-up probe may cross the ring, so it never takes the check.
  EXPECT_TRUE(router.search(scratch, 0, {5, 5}, b, rg.extent(), 40.0));
  EXPECT_EQ(sealed.value() - sealed_before, 1);
}

TEST(AStar, GoalRegionPastTheFloodCapStillRoutes) {
  const auto rg = make_grid(60, 60, 2);  // layers: 1 H, 2 V
  GridGraph grid(rg);
  // A wall across both routing layers with a gap at the top: the start
  // side floods well past kSealTrigger before A* finds the gap, and the
  // goal side holds far more than kSealCap free nodes.
  for (Coord y = 0; y < 57; ++y)
    for (geom::LayerId l = 1; l <= 2; ++l) grid.claim({31, y, l}, 99);
  const AStarRouter router(grid, {});
  SearchScratch scratch;
  auto& expansions = telemetry::counter(telemetry::keys::kAstarExpansions);
  auto& sealed = telemetry::counter(telemetry::keys::kAstarSealedFails);
  const std::int64_t expansions_before = expansions.value();
  const std::int64_t sealed_before = sealed.value();
  ASSERT_TRUE(router.search(scratch, 0, {5, 5}, {55, 5}, rg.extent()));
  EXPECT_GT(expansions.value() - expansions_before, AStarRouter::kSealTrigger);
  EXPECT_EQ(sealed.value(), sealed_before);
  EXPECT_EQ(scratch.path.front(), (Point3{5, 5, 0}));
  EXPECT_EQ(scratch.path.back(), (Point3{55, 5, 0}));
  for (const Point3 p : scratch.path) EXPECT_NE(grid.owner(p), 99);
}

/// Reference reachability for a normal-mode search, written from the move
/// rules alone: wire steps along the layer's direction (none vertical on a
/// stitching column), vias off stitching columns or at a pin, the pin layer
/// only at the two pins, nothing outside the box, no foreign node entered.
bool bfs_reaches(const GridGraph& grid, netlist::NetId net, Point a, Point b,
                 const Rect& box) {
  const auto& rg = grid.routing_grid();
  const auto is_pin = [&](Coord x, Coord y) {
    return (x == a.x && y == a.y) || (x == b.x && y == b.y);
  };
  const auto enterable = [&](Point3 q) {
    if (!box.contains(q.xy()) || q.layer < 0 || q.layer >= rg.num_layers())
      return false;
    if (q.layer == 0 && !is_pin(q.x, q.y)) return false;
    const netlist::NetId owner = grid.owner(q);
    return owner == -1 || owner == net;
  };
  std::vector<char> seen(grid.index_space(), 0);
  std::deque<Point3> queue{{a.x, a.y, 0}};
  seen[grid.index(queue.front())] = 1;
  while (!queue.empty()) {
    const Point3 p = queue.front();
    queue.pop_front();
    if (p.xy() == b && p.layer == 0) return true;
    const bool line = rg.stitch().is_stitch_column(p.x);
    std::vector<Point3> next;
    if (p.layer >= 1) {
      if (rg.layer_dir(p.layer) == geom::Orientation::kHorizontal) {
        next.push_back({static_cast<Coord>(p.x - 1), p.y, p.layer});
        next.push_back({static_cast<Coord>(p.x + 1), p.y, p.layer});
      } else if (!line) {
        next.push_back({p.x, static_cast<Coord>(p.y - 1), p.layer});
        next.push_back({p.x, static_cast<Coord>(p.y + 1), p.layer});
      }
    }
    if (!line || is_pin(p.x, p.y)) {
      next.push_back({p.x, p.y, static_cast<geom::LayerId>(p.layer + 1)});
      next.push_back({p.x, p.y, static_cast<geom::LayerId>(p.layer - 1)});
    }
    for (const Point3 q : next) {
      if (!enterable(q) || seen[grid.index(q)] != 0) continue;
      seen[grid.index(q)] = 1;
      queue.push_back(q);
    }
  }
  return false;
}

TEST(AStar, SearchSucceedsExactlyWhenReferenceBfsReaches) {
  std::mt19937 rng(20130602);
  const auto uniform = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  auto& sealed = telemetry::counter(telemetry::keys::kAstarSealedFails);
  const std::int64_t sealed_before = sealed.value();
  int found = 0;
  int failed = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const Coord w = static_cast<Coord>(uniform(8, 40));
    const Coord h = static_cast<Coord>(uniform(8, 40));
    const grid::RoutingGrid rg(w, h, uniform(2, 4), 8,
                               grid::StitchPlan(w, static_cast<Coord>(
                                                       uniform(4, 9))));
    GridGraph grid(rg);
    // Foreign wire at a random density (sparse when the goal is walled in,
    // so the start side can outgrow kSealTrigger), a little wire of the
    // searching net, and now and then a foreign-owned pin node.
    const bool walled = uniform(0, 1) == 0;
    const int foreign_pct = walled ? uniform(0, 20) : uniform(10, 60);
    for (Coord x = 0; x < w; ++x)
      for (Coord y = 0; y < h; ++y)
        for (geom::LayerId l = 1; l < rg.num_layers(); ++l) {
          const int roll = uniform(0, 99);
          if (roll < foreign_pct) grid.claim({x, y, l}, 7);
          else if (roll < foreign_pct + 5) grid.claim({x, y, l}, 0);
        }
    const Point a{static_cast<Coord>(uniform(0, w - 1)),
                  static_cast<Coord>(uniform(0, h - 1))};
    Point b = a;
    while (b == a)
      b = {static_cast<Coord>(uniform(0, w - 1)),
           static_cast<Coord>(uniform(0, h - 1))};
    if (uniform(0, 9) == 0) grid.claim({a.x, a.y, 0}, 7);
    if (uniform(0, 9) == 0) grid.claim({b.x, b.y, 0}, 7);
    // A walled goal sits in a square ring of foreign wire, from tight to
    // larger than the flood cap, now and then leaky or bridged by the
    // searching net's own wire.
    if (walled) {
      const Coord r = static_cast<Coord>(uniform(1, 12));
      const int gap_pct = uniform(0, 2);
      const int own_pct = uniform(0, 2);
      for (Coord x = static_cast<Coord>(b.x - r); x <= b.x + r; ++x)
        for (Coord y = static_cast<Coord>(b.y - r); y <= b.y + r; ++y) {
          const bool ring = std::max(std::abs(x - b.x), std::abs(y - b.y)) == r;
          if (!ring || !rg.in_bounds(Point{x, y})) continue;
          for (geom::LayerId l = 1; l < rg.num_layers(); ++l) {
            const int roll = uniform(0, 99);
            if (roll < gap_pct) continue;
            grid.release({x, y, l});
            grid.claim({x, y, l}, roll < gap_pct + own_pct ? 0 : 7);
          }
        }
    }
    const Coord margin = static_cast<Coord>(uniform(0, 40));
    const Rect box = Rect{std::min(a.x, b.x), std::min(a.y, b.y),
                          std::max(a.x, b.x), std::max(a.y, b.y)}
                         .inflated(margin)
                         .intersect(rg.extent());

    const AStarRouter router(grid, {});
    SearchScratch scratch;
    const bool searched = router.search(scratch, 0, a, b, box);
    ASSERT_EQ(searched, bfs_reaches(grid, 0, a, b, box))
        << "trial " << trial << ": " << w << "x" << h << ", pins (" << a.x
        << "," << a.y << ") (" << b.x << "," << b.y << ")";
    ++(searched ? found : failed);
  }
  // The sample covers both outcomes and the sealed-goal shortcut.
  EXPECT_GT(found, 0);
  EXPECT_GT(failed, 0);
  EXPECT_GT(sealed.value() - sealed_before, 0);
}

}  // namespace
}  // namespace mebl::detail
