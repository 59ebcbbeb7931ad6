#include "detail/grid_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "detail/node_bitmap.hpp"
#include "util/rng.hpp"

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

// --------------------------------------------------------------- change log

TEST(GridGraphChangeLog, ClaimStampsItsBlockOnEveryLayerQuery) {
  const grid::RoutingGrid rg(130, 100, 3, 30, grid::StitchPlan(130, 15));
  GridGraph grid(rg);
  const geom::Rect whole = rg.extent();
  EXPECT_EQ(grid.seq(), 0u);
  EXPECT_EQ(grid.last_change(whole), 0u);

  // (70, 40) lies in block column 2, block row 1; a claim on layer 2 shows
  // up in a query of the xy rect (queries cover all layers).
  grid.claim({70, 40, 2}, 3);
  const GridGraph::Seq first = grid.seq();
  EXPECT_GT(first, 0u);
  EXPECT_EQ(grid.last_change(whole), first);
  EXPECT_EQ(grid.last_change({64, 32, 95, 63}), first);
  EXPECT_EQ(grid.last_change({70, 40, 70, 40}), first);
  // Rects that span several blocks but miss block (2, 1).
  EXPECT_EQ(grid.last_change({0, 0, 63, 99}), 0u);
  EXPECT_EQ(grid.last_change({96, 0, 129, 99}), 0u);
  EXPECT_EQ(grid.last_change({0, 64, 129, 99}), 0u);
  // A rect that spans blocks (1..3, 0..2) includes it.
  EXPECT_EQ(grid.last_change({40, 10, 100, 70}), first);

  // Re-claiming by the same net changes no slot and stamps nothing.
  grid.claim({70, 40, 2}, 3);
  EXPECT_EQ(grid.seq(), first);
  // A second change elsewhere leaves the first block's stamp alone.
  grid.claim({5, 5, 1}, 4);
  EXPECT_GT(grid.last_change({0, 0, 31, 31}), first);
  EXPECT_EQ(grid.last_change({64, 32, 95, 63}), first);
  // Release stamps too; releasing a free node does not.
  grid.release({70, 40, 2});
  const GridGraph::Seq released = grid.seq();
  EXPECT_GT(grid.last_change({70, 40, 70, 40}), first);
  grid.release({70, 40, 2});
  EXPECT_EQ(grid.seq(), released);
  // Rects are clipped to the grid; an empty or outside rect reads 0.
  EXPECT_EQ(grid.last_change({-50, -50, 500, 500}), grid.seq());
  EXPECT_EQ(grid.last_change(geom::Rect{}), 0u);
  EXPECT_EQ(grid.last_change({200, 200, 300, 300}), 0u);
}

TEST(GridGraphChangeLog, TouchStampsWithoutChangingOwners) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  grid.touch({10, 10, 1});
  EXPECT_EQ(grid.occupied_nodes(), 0);
  EXPECT_TRUE(grid.is_free({10, 10, 1}));
  EXPECT_EQ(grid.last_change({10, 10, 10, 10}), grid.seq());
  EXPECT_GT(grid.seq(), 0u);
}

TEST(GridGraphChangeLog, TransactionKeepsOnlyTheNetEffect) {
  const grid::RoutingGrid rg(130, 100, 3, 30, grid::StitchPlan(130, 15));
  GridGraph grid(rg);
  for (geom::Coord x = 10; x < 80; ++x) grid.claim({x, 20, 1}, 1);
  const GridGraph::Seq before = grid.seq();
  const geom::Rect wire{10, 20, 79, 20};
  ASSERT_EQ(grid.last_change(wire), before);

  // Rip and reclaim by the same net: a round trip leaves no trace.
  grid.begin_transaction();
  for (geom::Coord x = 10; x < 80; ++x) grid.release({x, 20, 1});
  for (geom::Coord x = 79; x >= 10; --x) grid.claim({x, 20, 1}, 1);
  EXPECT_GT(grid.last_change(wire), before);  // visible inside
  grid.end_transaction();
  EXPECT_EQ(grid.last_change(wire), before);
  EXPECT_EQ(grid.last_change(rg.extent()), before);

  // A real change keeps its fresh stamp, but only in the block it changed:
  // the other blocks of the round trip get their old stamps back.
  const GridGraph::Seq left_before = grid.last_change({0, 0, 63, 31});
  grid.begin_transaction();
  for (geom::Coord x = 10; x < 80; ++x) grid.release({x, 20, 1});
  for (geom::Coord x = 10; x < 80; ++x) grid.claim({x, 20, 1}, 1);
  grid.release({75, 20, 1});
  grid.claim({75, 21, 1}, 1);
  grid.end_transaction();
  EXPECT_GT(grid.last_change({64, 0, 95, 31}), before);
  EXPECT_EQ(grid.last_change({0, 0, 63, 31}), left_before);

  // Reclaiming a node by a different net is a change.
  const GridGraph::Seq second = grid.seq();
  grid.begin_transaction();
  grid.release({20, 20, 1});
  grid.claim({20, 20, 1}, 2);
  grid.end_transaction();
  EXPECT_GT(grid.last_change({20, 20, 20, 20}), second);

  // A touch survives compression even though no slot changed.
  const GridGraph::Seq third = grid.seq();
  grid.begin_transaction();
  grid.touch({40, 20, 1});
  grid.release({40, 20, 1});
  grid.claim({40, 20, 1}, 1);
  grid.end_transaction();
  EXPECT_GT(grid.last_change({40, 20, 40, 20}), third);
  // ... and so does one that comes after the block was first changed.
  const GridGraph::Seq fourth = grid.seq();
  grid.begin_transaction();
  grid.release({45, 20, 1});
  grid.touch({45, 20, 1});
  grid.claim({45, 20, 1}, 1);
  grid.end_transaction();
  EXPECT_GT(grid.last_change({45, 20, 45, 20}), fourth);
}

// Seeded random claims, releases, touches and transactions against
// brute-force snapshots of every owner: whenever last_change(rect) is at
// most the sequence number a snapshot was taken at (outside any
// transaction), every node of the rect must still hold its snapshot owner.
TEST(GridGraphChangeLog, RandomOpsAgreeWithBruteForceSnapshots) {
  const grid::RoutingGrid rg(100, 70, 3, 30, grid::StitchPlan(100, 15));
  GridGraph grid(rg);
  util::Rng rng(20130602u);
  const auto random_node = [&] {
    return geom::Point3{static_cast<geom::Coord>(rng.uniform_int(0, 99)),
                        static_cast<geom::Coord>(rng.uniform_int(0, 69)),
                        static_cast<geom::LayerId>(rng.uniform_int(0, 2))};
  };
  const auto owners = [&] {
    std::vector<netlist::NetId> all;
    for (geom::LayerId l = 0; l < 3; ++l)
      for (geom::Coord y = 0; y < 70; ++y)
        for (geom::Coord x = 0; x < 100; ++x)
          all.push_back(grid.owner({x, y, l}));
    return all;
  };
  const auto random_op = [&] {
    const geom::Point3 p = random_node();
    const netlist::NetId owner = grid.owner(p);
    switch (rng.uniform_int(0, 5)) {
      case 0:
        if (owner == -1)
          grid.claim(p, static_cast<netlist::NetId>(rng.uniform_int(0, 3)));
        break;
      case 1: grid.release(p); break;
      case 2: grid.touch(p); break;
      default:  // rip and reclaim: the repair passes' favourite no-op
        if (owner != -1) {
          grid.release(p);
          grid.claim(p, owner);
        }
        break;
    }
  };

  struct Snapshot {
    GridGraph::Seq seq;
    std::vector<netlist::NetId> owners;
  };
  std::vector<Snapshot> snapshots{{grid.seq(), owners()}};
  int unchanged_checks = 0;
  for (int step = 0; step < 300; ++step) {
    if (rng.uniform_int(0, 1) == 0) {
      grid.begin_transaction();
      const auto ops = rng.uniform_int(1, 40);
      for (std::int64_t k = 0; k < ops; ++k) random_op();
      grid.end_transaction();
    } else {
      random_op();
    }
    snapshots.push_back({grid.seq(), owners()});

    for (int probe = 0; probe < 8; ++probe) {
      const Snapshot& then = snapshots[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(snapshots.size()) - 1))];
      const auto x0 = static_cast<geom::Coord>(rng.uniform_int(0, 99));
      const auto y0 = static_cast<geom::Coord>(rng.uniform_int(0, 69));
      const geom::Rect r{x0, y0,
                         static_cast<geom::Coord>(std::min<std::int64_t>(
                             99, x0 + rng.uniform_int(0, 50))),
                         static_cast<geom::Coord>(std::min<std::int64_t>(
                             69, y0 + rng.uniform_int(0, 50)))};
      if (grid.last_change(r) > then.seq) continue;
      ++unchanged_checks;
      for (geom::LayerId l = 0; l < 3; ++l)
        for (geom::Coord y = r.ylo; y <= r.yhi; ++y)
          for (geom::Coord x = r.xlo; x <= r.xhi; ++x)
            ASSERT_EQ(
                grid.owner({x, y, l}),
                then.owners[(static_cast<std::size_t>(l) * 70 + y) * 100 + x])
                << "step " << step << " node " << x << "," << y << "," << l;
    }
  }
  // The check is not vacuous: many rects were found unchanged.
  EXPECT_GT(unchanged_checks, 50);
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
