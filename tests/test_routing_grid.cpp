#include "grid/routing_grid.hpp"

#include <gtest/gtest.h>

#include "grid/gcell.hpp"

namespace mebl::grid {
namespace {

using geom::Orientation;

RoutingGrid make_grid(geom::Coord w = 90, geom::Coord h = 60, int layers = 3,
                      geom::Coord tile = 30) {
  return RoutingGrid(w, h, layers, tile, StitchPlan(w, 15));
}

TEST(RoutingGrid, LayerDirectionsAlternateStartingHorizontal) {
  const RoutingGrid grid = make_grid(90, 60, 6);
  EXPECT_EQ(grid.layer_dir(1), Orientation::kHorizontal);
  EXPECT_EQ(grid.layer_dir(2), Orientation::kVertical);
  EXPECT_EQ(grid.layer_dir(3), Orientation::kHorizontal);
  EXPECT_EQ(grid.layer_dir(6), Orientation::kVertical);
}

TEST(RoutingGrid, LayersWithDirection) {
  const RoutingGrid grid = make_grid(90, 60, 3);
  const auto h = grid.layers_with(Orientation::kHorizontal);
  const auto v = grid.layers_with(Orientation::kVertical);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 1);
  EXPECT_EQ(h[1], 3);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 2);
}

TEST(RoutingGrid, NumLayersIncludesPinLayer) {
  EXPECT_EQ(make_grid(90, 60, 3).num_layers(), 4);
  EXPECT_EQ(make_grid(90, 60, 6).num_layers(), 7);
}

TEST(RoutingGrid, TileCounts) {
  const RoutingGrid grid = make_grid(90, 60, 3, 30);
  EXPECT_EQ(grid.tiles_x(), 3);
  EXPECT_EQ(grid.tiles_y(), 2);
}

TEST(RoutingGrid, PartialLastTileClipped) {
  const RoutingGrid grid(100, 70, 3, 30, StitchPlan(100, 15));
  EXPECT_EQ(grid.tiles_x(), 4);
  EXPECT_EQ(grid.tile_x_span(3), (geom::Interval{90, 99}));
  EXPECT_EQ(grid.tiles_y(), 3);
  EXPECT_EQ(grid.tile_y_span(2), (geom::Interval{60, 69}));
}

TEST(RoutingGrid, TileOfCoordinates) {
  const RoutingGrid grid = make_grid();
  EXPECT_EQ(grid.tile_of_x(0), 0);
  EXPECT_EQ(grid.tile_of_x(29), 0);
  EXPECT_EQ(grid.tile_of_x(30), 1);
  EXPECT_EQ(grid.tile_of_y(59), 1);
}

TEST(RoutingGrid, InBounds) {
  const RoutingGrid grid = make_grid();
  EXPECT_TRUE(grid.in_bounds(geom::Point{0, 0}));
  EXPECT_TRUE(grid.in_bounds(geom::Point{89, 59}));
  EXPECT_FALSE(grid.in_bounds(geom::Point{90, 0}));
  EXPECT_TRUE(grid.in_bounds(geom::Point3{5, 5, 3}));
  EXPECT_FALSE(grid.in_bounds(geom::Point3{5, 5, 4}));
}

TEST(CapacityModel, HorizontalEdgeCapacityCountsHorizontalLayers) {
  const RoutingGrid grid = make_grid(90, 60, 3, 30);  // H layers: 1 and 3
  const CapacityModel model(grid);
  EXPECT_EQ(model.horizontal_edge_capacity(0), 30 * 2);
}

TEST(CapacityModel, VerticalEdgeCapacityLosesStitchTracks) {
  const RoutingGrid grid = make_grid(90, 60, 3, 30);  // V layer: 2
  const CapacityModel model(grid);
  // Tile column 0 spans x in [0,29] and contains the line x=15.
  EXPECT_EQ(model.vertical_edge_capacity(0), 29);
  EXPECT_EQ(model.vertical_edge_capacity_no_stitch(0), 30);
}

TEST(CapacityModel, LineEndCapacityExcludesUnfriendlyRegions) {
  const RoutingGrid grid = make_grid(90, 60, 3, 30);
  const CapacityModel model(grid);
  // Column 0: x in [0,29]; unfriendly: 14,15,16 (line 15) and 29 (line 30).
  EXPECT_EQ(model.line_end_capacity(0), 26);
}

}  // namespace
}  // namespace mebl::grid
