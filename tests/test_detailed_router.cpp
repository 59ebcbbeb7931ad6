#include "detail/detailed_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "detail/net_ordering.hpp"

namespace mebl::detail {
namespace {

using geom::Coord;
using geom::Interval;
using geom::Orientation;

grid::RoutingGrid make_grid(Coord w = 120, Coord h = 120) {
  return grid::RoutingGrid(w, h, 3, 30, grid::StitchPlan(w, 15));
}

/// Subnets with committed geometry.
std::ptrdiff_t routed_count(const DetailedResult& result) {
  return std::count_if(result.subnet_nodes.begin(), result.subnet_nodes.end(),
                       [](const auto& nodes) { return !nodes.empty(); });
}

/// Subnets whose committed geometry came from `method`.
std::ptrdiff_t method_count(const DetailedResult& result,
                            RouteMethod method) {
  return std::count(result.subnet_method.begin(), result.subnet_method.end(),
                    method);
}

TEST(NetOrdering, BadEndsFirstThenSmallBbox) {
  assign::RoutePlan plan;
  plan.runs_of_path.resize(3);
  assign::GlobalRun bad_run;
  bad_run.bad_ends = 2;
  plan.runs.push_back(bad_run);
  plan.runs_of_path[2] = {0};  // subnet 2 carries the bad ends

  const std::vector<netlist::Subnet> subnets{
      {0, {0, 0}, {50, 50}},  // big
      {1, {0, 0}, {3, 3}},    // small
      {2, {0, 0}, {90, 90}},  // biggest but has bad ends
  };
  const auto order = order_subnets(subnets, plan, /*stitch_aware=*/true);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 0u);

  const auto baseline = order_subnets(subnets, plan, false);
  EXPECT_EQ(baseline[0], 1u);
  EXPECT_EQ(baseline[2], 2u);
}

TEST(DetailedRouter, RoutesSubnetsWithoutPlan) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  DetailedRouter router(grid);
  const std::vector<netlist::Subnet> subnets{{0, {5, 5}, {40, 40}},
                                             {1, {10, 50}, {70, 20}}};
  assign::RoutePlan plan;
  plan.runs_of_path.resize(subnets.size());
  const auto result = router.route_all(subnets, plan);
  EXPECT_EQ(routed_count(result), 2);
  EXPECT_EQ(method_count(result, RouteMethod::kSearch), 2);
  EXPECT_EQ(method_count(result, RouteMethod::kRealized), 0);
}

TEST(DetailedRouter, ClaimPinsBlocksForeignNets) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  netlist::Netlist nl;
  const auto a = nl.add_net("a");
  nl.add_pin(a, {5, 5});
  DetailedRouter router(grid);
  router.claim_pins(nl);
  EXPECT_EQ(grid.owner({5, 5, 0}), a);
}

/// Build a one-subnet plan with a vertical run through column panel 1 and
/// verify the router realizes exactly the assigned track.
TEST(DetailedRouter, RealizesPlannedTrack) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  DetailedRouter router(grid);

  // Subnet from (5,5) to (50, 100): global route right then up.
  const std::vector<netlist::Subnet> subnets{{0, {5, 5}, {50, 100}}};
  assign::RoutePlan plan;
  assign::GlobalRun h;
  h.net = 0;
  h.path_index = 0;
  h.dir = Orientation::kHorizontal;
  h.fixed_tile = 0;          // row panel ty=0
  h.span = {0, 1};           // tiles 0..1 in x
  h.layer = 1;
  assign::GlobalRun v;
  v.net = 0;
  v.path_index = 0;
  v.dir = Orientation::kVertical;
  v.fixed_tile = 1;          // column panel tx=1
  v.span = {0, 3};
  v.layer = 2;
  v.pieces = {{Interval{0, 3}, 47}};  // assigned track x=47
  plan.runs.push_back(h);
  plan.runs.push_back(v);
  plan.runs_of_path.push_back({0, 1});

  const auto result = router.route_all(subnets, plan);
  EXPECT_EQ(method_count(result, RouteMethod::kRealized), 1);
  // The vertical wire sits on the assigned track x=47, layer 2.
  EXPECT_EQ(grid.owner({47, 50, 2}), 0);
  // And connects to both pins.
  EXPECT_EQ(grid.owner({5, 5, 0}), 0);
  EXPECT_EQ(grid.owner({50, 100, 0}), 0);
}

TEST(DetailedRouter, PlannedDoglegRealized) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  DetailedRouter router(grid);

  const std::vector<netlist::Subnet> subnets{{0, {47, 5}, {50, 100}}};
  assign::RoutePlan plan;
  assign::GlobalRun v;
  v.net = 0;
  v.path_index = 0;
  v.dir = Orientation::kVertical;
  v.fixed_tile = 1;
  v.span = {0, 3};
  v.layer = 2;
  v.pieces = {{Interval{0, 1}, 47}, {Interval{2, 3}, 50}};  // dogleg
  plan.runs.push_back(v);
  plan.runs_of_path.push_back({0});

  const auto result = router.route_all(subnets, plan);
  EXPECT_EQ(method_count(result, RouteMethod::kRealized), 1);
  EXPECT_EQ(grid.owner({47, 30, 2}), 0);   // first piece
  EXPECT_EQ(grid.owner({50, 80, 2}), 0);   // second piece
}

TEST(DetailedRouter, FallsBackToAStarWhenPlannedTrackBlocked) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  // Block the planned track with a foreign net.
  for (Coord y = 20; y <= 40; ++y) grid.claim({47, y, 2}, 99);
  DetailedRouter router(grid);

  const std::vector<netlist::Subnet> subnets{{0, {47, 5}, {47, 100}}};
  assign::RoutePlan plan;
  assign::GlobalRun v;
  v.net = 0;
  v.path_index = 0;
  v.dir = Orientation::kVertical;
  v.fixed_tile = 1;
  v.span = {0, 3};
  v.layer = 2;
  v.pieces = {{Interval{0, 3}, 47}};
  plan.runs.push_back(v);
  plan.runs_of_path.push_back({0});

  const auto result = router.route_all(subnets, plan);
  EXPECT_EQ(routed_count(result), 1);
  EXPECT_EQ(method_count(result, RouteMethod::kSearch), 1);
}

TEST(DetailedRouter, RippedRunsRouteDirectly) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  DetailedRouter router(grid);
  const std::vector<netlist::Subnet> subnets{{0, {5, 5}, {50, 100}}};
  assign::RoutePlan plan;
  assign::GlobalRun v;
  v.net = 0;
  v.path_index = 0;
  v.dir = Orientation::kVertical;
  v.fixed_tile = 1;
  v.span = {0, 3};
  v.layer = 2;
  v.ripped = true;  // no pieces
  plan.runs.push_back(v);
  plan.runs_of_path.push_back({0});
  const auto result = router.route_all(subnets, plan);
  EXPECT_EQ(routed_count(result), 1);
  // A ripped plan cannot be realized.
  EXPECT_EQ(method_count(result, RouteMethod::kSearch), 1);
}

TEST(DetailedRouter, ManyParallelSubnetsAllRouted) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  DetailedRouter router(grid);
  std::vector<netlist::Subnet> subnets;
  for (int i = 0; i < 20; ++i) {
    const auto y = static_cast<Coord>(3 + 5 * i);
    subnets.push_back({i, {2, y}, {110, y}});
  }
  assign::RoutePlan plan;
  plan.runs_of_path.resize(subnets.size());
  const auto result = router.route_all(subnets, plan);
  EXPECT_EQ(routed_count(result), 20);
}

}  // namespace
}  // namespace mebl::detail
