#include "detail/grid_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "detail/node_bitmap.hpp"

namespace mebl::detail {
namespace {

grid::RoutingGrid make_grid() {
  return grid::RoutingGrid(60, 60, 3, 30, grid::StitchPlan(60, 15));
}

TEST(GridGraph, StartsEmpty) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  EXPECT_EQ(grid.occupied_nodes(), 0);
  EXPECT_TRUE(grid.is_free({5, 5, 1}));
  EXPECT_EQ(grid.owner({5, 5, 1}), -1);
}

TEST(GridGraph, ClaimAndRelease) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  grid.claim({5, 5, 1}, 7);
  EXPECT_EQ(grid.owner({5, 5, 1}), 7);
  EXPECT_FALSE(grid.is_free({5, 5, 1}));
  EXPECT_TRUE(grid.is_free_or({5, 5, 1}, 7));
  EXPECT_FALSE(grid.is_free_or({5, 5, 1}, 8));
  EXPECT_EQ(grid.occupied_nodes(), 1);
  grid.release({5, 5, 1});
  EXPECT_TRUE(grid.is_free({5, 5, 1}));
  EXPECT_EQ(grid.occupied_nodes(), 0);
}

TEST(GridGraph, ReclaimBySameNetIsIdempotent) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  grid.claim({3, 3, 2}, 1);
  grid.claim({3, 3, 2}, 1);
  EXPECT_EQ(grid.occupied_nodes(), 1);
}

TEST(GridGraph, LayersAreIndependent) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  grid.claim({3, 3, 1}, 1);
  EXPECT_TRUE(grid.is_free({3, 3, 2}));
  EXPECT_TRUE(grid.is_free({3, 3, 0}));
}

TEST(GridGraph, StitchConstraints) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  EXPECT_FALSE(grid.vertical_move_allowed(15));
  EXPECT_FALSE(grid.vertical_move_allowed(30));
  EXPECT_TRUE(grid.vertical_move_allowed(14));
  EXPECT_FALSE(grid.via_allowed(15));
  EXPECT_TRUE(grid.via_allowed(16));
}

TEST(GridGraph, ReleaseFreeNodeIsNoop) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  grid.release({1, 1, 1});
  EXPECT_EQ(grid.occupied_nodes(), 0);
}

TEST(GridGraph, IndexIsABijectionOntoIndexSpace) {
  for (const auto& [w, h] : {std::pair{1, 1}, std::pair{33, 31},
                            std::pair{65, 97}}) {
    const grid::RoutingGrid rg(w, h, 3, 30, grid::StitchPlan(w, 15));
    const GridGraph grid(rg);
    ASSERT_GE(grid.index_space(),
              static_cast<std::size_t>(w) * h * rg.num_layers());
    std::vector<bool> seen(grid.index_space(), false);
    for (geom::LayerId l = 0; l < rg.num_layers(); ++l)
      for (geom::Coord y = 0; y < h; ++y)
        for (geom::Coord x = 0; x < w; ++x) {
          const std::size_t i = grid.index({x, y, l});
          ASSERT_LT(i, grid.index_space()) << w << "x" << h;
          ASSERT_FALSE(seen[i]) << "collision at " << x << "," << y << ","
                                << l << " on " << w << "x" << h;
          seen[i] = true;
        }
  }
}

TEST(GridGraph, ClaimReleaseRoundTripAtBlockEdges) {
  const grid::RoutingGrid rg(65, 97, 3, 30, grid::StitchPlan(65, 15));
  GridGraph grid(rg);
  const geom::Coord edges[] = {0, 31, 32, 63, 64};
  netlist::NetId net = 0;
  for (geom::LayerId l = 0; l < rg.num_layers(); ++l)
    for (const geom::Coord y : edges)
      for (const geom::Coord x : edges) grid.claim({x, y, l}, net++);
  EXPECT_EQ(grid.occupied_nodes(), net);
  EXPECT_EQ(grid.owner_blocks_touched(), 9u * rg.num_layers());

  net = 0;
  for (geom::LayerId l = 0; l < rg.num_layers(); ++l)
    for (const geom::Coord y : edges)
      for (const geom::Coord x : edges) {
        EXPECT_EQ(grid.owner({x, y, l}), net++);
        // Two rows up is never an edge row, and stays free.
        EXPECT_TRUE(grid.is_free({x, static_cast<geom::Coord>(y + 2), l}));
      }
  for (geom::LayerId l = 0; l < rg.num_layers(); ++l)
    for (const geom::Coord y : edges)
      for (const geom::Coord x : edges) {
        grid.release({x, y, l});
        EXPECT_TRUE(grid.is_free({x, y, l}));
      }
  EXPECT_EQ(grid.occupied_nodes(), 0);
  // Blocks ever claimed into stay counted after release.
  EXPECT_EQ(grid.owner_blocks_touched(), 9u * rg.num_layers());
}

TEST(NodeBitmap, SetUnsetTestCountAcrossWordBoundaries) {
  NodeBitmap bits(200);
  EXPECT_TRUE(bits.empty());
  const std::size_t members[] = {0, 62, 63, 64, 65, 127, 128, 199};
  for (const std::size_t i : members) bits.set(i);
  bits.set(64);  // already present: no double count
  EXPECT_EQ(bits.count(), std::size(members));
  for (std::size_t i = 0; i < 200; ++i)
    EXPECT_EQ(bits.test(i), std::find(std::begin(members), std::end(members),
                                      i) != std::end(members))
        << i;
  bits.unset(63);
  bits.unset(64);
  bits.unset(66);  // absent: no-op
  EXPECT_FALSE(bits.test(63));
  EXPECT_FALSE(bits.test(64));
  EXPECT_TRUE(bits.test(62));
  EXPECT_TRUE(bits.test(65));
  EXPECT_EQ(bits.count(), std::size(members) - 2);
  EXPECT_EQ(bits.bytes(), 4 * sizeof(std::uint64_t));
}

TEST(NodeBitmap, OutOfRangeReadsAsAbsent) {
  NodeBitmap unsized;
  EXPECT_FALSE(unsized.test(0));
  unsized.unset(5);
  EXPECT_EQ(unsized.count(), 0u);

  NodeBitmap bits(70);
  bits.set(69);
  EXPECT_FALSE(bits.test(70));   // same word, past size()
  EXPECT_FALSE(bits.test(1000));
  bits.unset(1000);
  EXPECT_EQ(bits.count(), 1u);
}

}  // namespace
}  // namespace mebl::detail
