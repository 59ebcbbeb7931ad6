#include "eval/metrics.hpp"

#include <gtest/gtest.h>

namespace mebl::eval {
namespace {

using geom::Coord;
using geom::LayerId;

grid::RoutingGrid make_grid(Coord w = 60, Coord h = 60) {
  return grid::RoutingGrid(w, h, 3, 30, grid::StitchPlan(w, 15));
}

TEST(Metrics, EmptyGridHasNoViolations) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  EXPECT_EQ(detail::short_polygon_ends(grid).size(), 0u);
}

TEST(Metrics, CountsWirelengthAndVias) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  // A 5-node horizontal wire with a via stack at its left end.
  for (Coord x = 2; x <= 6; ++x) grid.claim({x, 5, 1}, 0);
  grid.claim({2, 5, 0}, 0);
  netlist::Netlist nl;
  nl.add_net("a");
  detail::DetailedResult outcome;
  const auto metrics = compute_metrics(grid, nl, {}, outcome);
  EXPECT_EQ(metrics.wirelength, 4);
  EXPECT_EQ(metrics.vias, 1);
  EXPECT_EQ(metrics.via_violations, 0);
  EXPECT_EQ(metrics.vertical_violations, 0);
}

TEST(Metrics, DetectsShortPolygon) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  // Horizontal wire from x=10..16 at y=5 on layer 1: cut by line 15, right
  // end (16) is within epsilon of the line, with a landing via.
  for (Coord x = 10; x <= 16; ++x) grid.claim({x, 5, 1}, 0);
  grid.claim({16, 5, 2}, 0);  // via to the vertical layer
  EXPECT_EQ(detail::short_polygon_ends(grid).size(), 1u);
}

TEST(Metrics, NoShortPolygonWithoutVia) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  for (Coord x = 10; x <= 16; ++x) grid.claim({x, 5, 1}, 0);
  EXPECT_EQ(detail::short_polygon_ends(grid).size(), 0u);
}

TEST(Metrics, NoShortPolygonWhenEndFarFromLine) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  // End at x=20 is 5 tracks past line 15: long piece, fine.
  for (Coord x = 10; x <= 20; ++x) grid.claim({x, 5, 1}, 0);
  grid.claim({20, 5, 2}, 0);
  EXPECT_EQ(detail::short_polygon_ends(grid).size(), 0u);
}

TEST(Metrics, NoShortPolygonWhenWireNotCut) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  // Wire entirely between lines: ends near nothing it crosses.
  for (Coord x = 16; x <= 20; ++x) grid.claim({x, 5, 1}, 0);
  grid.claim({16, 5, 2}, 0);
  grid.claim({20, 5, 2}, 0);
  EXPECT_EQ(detail::short_polygon_ends(grid).size(), 0u);
}

TEST(Metrics, LeftEndShortPolygon) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  // Wire 14..20 cut by 15: left piece one track, via at left end.
  for (Coord x = 14; x <= 20; ++x) grid.claim({x, 5, 1}, 0);
  grid.claim({14, 5, 0}, 0);
  EXPECT_EQ(detail::short_polygon_ends(grid).size(), 1u);
}

TEST(Metrics, ViaViolationOnStitchColumn) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  grid.claim({15, 5, 0}, 0);  // pin on a line
  grid.claim({15, 5, 1}, 0);  // via stack to layer 1
  netlist::Netlist nl;
  nl.add_net("a");
  const auto metrics = compute_metrics(grid, nl, {}, detail::DetailedResult{});
  EXPECT_EQ(metrics.via_violations, 1);
}

TEST(Metrics, VerticalViolationDetected) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  grid.claim({15, 5, 2}, 0);
  grid.claim({15, 6, 2}, 0);  // vertical wire ON the line (illegal geometry)
  netlist::Netlist nl;
  nl.add_net("a");
  const auto metrics = compute_metrics(grid, nl, {}, detail::DetailedResult{});
  EXPECT_EQ(metrics.vertical_violations, 1);
}

TEST(Metrics, RoutabilityCountsFullyRoutedNets) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  netlist::Netlist nl;
  const auto a = nl.add_net("a");
  const auto b = nl.add_net("b");
  const std::vector<netlist::Subnet> subnets{
      {a, {0, 0}, {1, 1}}, {b, {2, 2}, {3, 3}}, {b, {3, 3}, {4, 4}}};
  detail::DetailedResult outcome;
  // Net b partially failed: its second subnet has no geometry.
  outcome.subnet_nodes = {{{0, 0, 0}}, {{2, 2, 0}}, {}};
  const auto metrics = compute_metrics(grid, nl, subnets, outcome);
  EXPECT_EQ(metrics.routed_nets, 1);
  EXPECT_EQ(metrics.total_nets, 2);
  EXPECT_DOUBLE_EQ(metrics.routability_pct(), 50.0);
}

TEST(Metrics, AdjacentDifferentNetsDoNotCount) {
  const auto rg = make_grid();
  detail::GridGraph grid(rg);
  grid.claim({2, 5, 1}, 0);
  grid.claim({3, 5, 1}, 1);  // different net
  netlist::Netlist nl;
  nl.add_net("a");
  nl.add_net("b");
  const auto metrics = compute_metrics(grid, nl, {}, detail::DetailedResult{});
  EXPECT_EQ(metrics.wirelength, 0);
  EXPECT_EQ(metrics.vias, 0);
}

}  // namespace
}  // namespace mebl::eval
