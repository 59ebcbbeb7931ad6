// Global-routing kernel (DESIGN.md §10): the memoized psi cost rows are
// bit-identical to computing psi directly, the pattern-route fast path only
// accepts paths A* would return (same tiles, same cost, bit-for-bit), the
// commit-time congestion index answers exactly the old full-rescan
// predicate, and the batch-synchronous router's GlobalResult is
// bit-identical for every thread count.

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_suite/circuit_generator.hpp"
#include "exec/thread_pool.hpp"
#include "global/global_router.hpp"
#include "global/pattern_route.hpp"
#include "global/search_scratch.hpp"
#include "grid/gcell.hpp"
#include "netlist/decompose.hpp"
#include "util/rng.hpp"

namespace {

using namespace mebl;
using geom::Rect;
using grid::GCellId;

constexpr std::uint64_t kSeed = 20130602u;

/// The psi formula, restated independently of RoutingGraph (same expression,
/// so IEEE semantics make an exact-equality comparison meaningful).
double direct_psi(int demand, int capacity) {
  if (capacity <= 0) return demand > 0 ? 1e9 : 0.0;
  return std::exp2(static_cast<double>(demand) / capacity) - 1.0;
}

// ------------------------------------------------------------- psi cache

class PsiCacheEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PsiCacheEquivalence, CachedCostsMatchDirectPsiUnderRandomMutation) {
  // A dense stitch plan relative to the tile size produces a spread of
  // capacities including near-zero line-end capacities, so the cache's
  // degenerate branches get exercised too.
  const geom::Coord tile = GetParam();
  const grid::RoutingGrid rg(20 * tile, 20 * tile, 3, tile,
                             grid::StitchPlan(20 * tile, 3 * tile));
  global::RoutingGraph graph(rg, true);
  util::Rng rng(kSeed);

  const auto verify_all = [&] {
    int edge_overflow = 0;
    int vertex_overflow = 0;
    int max_vertex = 0;
    for (int ty = 0; ty < graph.tiles_y(); ++ty) {
      for (int tx = 0; tx + 1 < graph.tiles_x(); ++tx) {
        const int d = graph.h_demand(tx, ty);
        const int c = graph.h_capacity(tx, ty);
        ASSERT_EQ(graph.h_cost(tx, ty), direct_psi(d + 1, c));
        ASSERT_EQ(graph.h_cost(tx, ty, 3), direct_psi(d + 3, c));
        edge_overflow += std::max(0, d - c);
      }
    }
    for (int ty = 0; ty + 1 < graph.tiles_y(); ++ty) {
      for (int tx = 0; tx < graph.tiles_x(); ++tx) {
        const int d = graph.v_demand(tx, ty);
        const int c = graph.v_capacity(tx, ty);
        ASSERT_EQ(graph.v_cost(tx, ty), direct_psi(d + 1, c));
        edge_overflow += std::max(0, d - c);
      }
    }
    for (int ty = 0; ty < graph.tiles_y(); ++ty) {
      for (int tx = 0; tx < graph.tiles_x(); ++tx) {
        const int d = graph.vertex_demand(tx, ty);
        const int c = graph.vertex_capacity(tx, ty);
        ASSERT_EQ(graph.vertex_cost(tx, ty), direct_psi(d + 1, c));
        ASSERT_EQ(graph.vertex_cost(tx, ty, 2), direct_psi(d + 2, c));
        vertex_overflow += std::max(0, d - c);
        max_vertex = std::max(max_vertex, d - c);
      }
    }
    EXPECT_EQ(graph.total_edge_overflow(), edge_overflow);
    EXPECT_EQ(graph.total_vertex_overflow(), vertex_overflow);
    EXPECT_EQ(graph.max_vertex_overflow(), std::max(0, max_vertex));
  };

  verify_all();  // pristine graph: rows seeded at construction

  // Random demand churn, including pushes past capacity (overflow) and
  // removals back toward zero, re-verifying the whole surface periodically.
  std::vector<std::array<int, 3>> applied;  // kind, tx, ty of adds
  for (int step = 0; step < 4000; ++step) {
    const bool remove = !applied.empty() && rng.uniform_int(0, 3) == 0;
    if (remove) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(applied.size()) - 1));
      const auto [kind, tx, ty] = applied[pick];
      if (kind == 0)
        graph.add_h_demand(tx, ty, -1);
      else if (kind == 1)
        graph.add_v_demand(tx, ty, -1);
      else
        graph.add_vertex_demand(tx, ty, -1);
      applied[pick] = applied.back();
      applied.pop_back();
    } else {
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      const int tx = static_cast<int>(
          rng.uniform_int(0, graph.tiles_x() - (kind == 0 ? 2 : 1)));
      const int ty = static_cast<int>(
          rng.uniform_int(0, graph.tiles_y() - (kind == 1 ? 2 : 1)));
      if (kind == 0)
        graph.add_h_demand(tx, ty, 1);
      else if (kind == 1)
        graph.add_v_demand(tx, ty, 1);
      else
        graph.add_vertex_demand(tx, ty, 1);
      applied.push_back({kind, tx, ty});
    }
    if (step % 500 == 499) verify_all();
  }
  verify_all();
}

INSTANTIATE_TEST_SUITE_P(TileSizes, PsiCacheEquivalence,
                         ::testing::Values(8, 30),
                         [](const auto& info) {
                           return "tile" + std::to_string(info.param);
                         });

// --------------------------------------------------------- pattern route

TEST(PatternRoute, AcceptedPathsAreExactlyWhatAStarReturns) {
  const grid::RoutingGrid rg(640, 640, 3, 16, grid::StitchPlan(640, 48));
  global::RoutingGraph graph(rg, true);
  util::Rng rng(kSeed);
  const int tiles_x = graph.tiles_x();
  const int tiles_y = graph.tiles_y();
  const Rect full{0, 0, tiles_x - 1, tiles_y - 1};

  const global::GlobalSearchParams configs[] = {
      {0.5, true, 8.0},    // the router's stitch-aware default
      {0.5, true, 16.0},   // escalated reroute weight
      {0.5, false, 8.0},   // Table IV "w/o line end consideration"
      {0.0, true, 8.0},    // no bend penalty: ties must be rejected
  };

  int accepted = 0;
  int rejected = 0;
  // Three congestion regimes: empty, light clutter, heavy clutter. The
  // demand state changes between sweeps, never inside one (the router only
  // searches against a frozen graph).
  for (int regime = 0; regime < 3; ++regime) {
    if (regime > 0) {
      const int stripes = regime == 1 ? 150 : 1200;
      for (int i = 0; i < stripes; ++i) {
        const int tx = static_cast<int>(rng.uniform_int(0, tiles_x - 2));
        const int ty = static_cast<int>(rng.uniform_int(0, tiles_y - 2));
        if (i % 2 == 0)
          graph.add_h_demand(tx, ty, static_cast<int>(rng.uniform_int(1, 4)));
        else
          graph.add_v_demand(tx, ty, static_cast<int>(rng.uniform_int(1, 4)));
        if (i % 3 == 0)
          graph.add_vertex_demand(tx, ty,
                                  static_cast<int>(rng.uniform_int(1, 3)));
      }
    }
    for (int trial = 0; trial < 400; ++trial) {
      const GCellId a{static_cast<int>(rng.uniform_int(0, tiles_x - 1)),
                      static_cast<int>(rng.uniform_int(0, tiles_y - 1))};
      const int reach = trial % 4 == 0 ? 15 : 4;
      const GCellId b{
          std::clamp(a.tx + static_cast<int>(rng.uniform_int(-reach, reach)),
                     0, tiles_x - 1),
          std::clamp(a.ty + static_cast<int>(rng.uniform_int(-reach, reach)),
                     0, tiles_y - 1)};
      if (a == b) continue;
      const auto& params = configs[trial % 4];
      std::vector<GCellId> pattern;
      double pattern_cost = 0.0;
      if (!global::try_pattern_route(graph, params, a, b, pattern,
                                     &pattern_cost)) {
        ++rejected;
        continue;
      }
      ++accepted;
      // The acceptance proof claims a unique optimum over the *whole*
      // grid, so A* confined to any containing region — here the full
      // grid — must return the identical tile sequence at the identical
      // (bit-for-bit) cost.
      global::GlobalSearchScratch scratch;
      double astar_cost = 0.0;
      ASSERT_TRUE(global::search_tiles_astar(graph, params, a, b, full,
                                             scratch, &astar_cost));
      EXPECT_EQ(scratch.path, pattern)
          << "regime " << regime << " trial " << trial;
      EXPECT_EQ(astar_cost, pattern_cost)
          << "regime " << regime << " trial " << trial;
    }
  }
  // The property is vacuous unless both branches fire across the sweeps.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(PatternRoute, RejectsDegenerateAndTieConfigurations) {
  const grid::RoutingGrid rg(320, 320, 3, 16, grid::StitchPlan(320, 48));
  global::RoutingGraph graph(rg, true);
  std::vector<GCellId> out;
  // Same-tile endpoints are the caller's trivial case.
  EXPECT_FALSE(global::try_pattern_route(graph, {0.5, true, 8.0}, {3, 3},
                                         {3, 3}, out));
  // A negative bend weight voids the lower-bound argument entirely.
  EXPECT_FALSE(global::try_pattern_route(graph, {-1.0, true, 8.0}, {1, 1},
                                         {5, 4}, out));
  EXPECT_FALSE(global::try_pattern_route(graph, {0.5, true, -8.0}, {1, 1},
                                         {5, 4}, out));
}

// ------------------------------------------------------ congestion index

/// The seed router's full-rescan congestion predicate, verbatim: does this
/// committed tile path cross any h/v edge over capacity, or (when line ends
/// are priced) touch any tile whose vertex demand exceeds capacity.
bool rescan_is_congested(const global::RoutingGraph& graph,
                         const std::vector<GCellId>& tiles,
                         bool vertex_cost) {
  for (std::size_t i = 0; i + 1 < tiles.size(); ++i) {
    const GCellId a = tiles[i];
    const GCellId b = tiles[i + 1];
    if (a.ty == b.ty) {
      const int tx = std::min(a.tx, b.tx);
      if (graph.h_demand(tx, a.ty) > graph.h_capacity(tx, a.ty)) return true;
    } else {
      const int ty = std::min(a.ty, b.ty);
      if (graph.v_demand(a.tx, ty) > graph.v_capacity(a.tx, ty)) return true;
    }
  }
  if (vertex_cost) {
    for (const GCellId t : tiles)
      if (graph.vertex_demand(t.tx, t.ty) > graph.vertex_capacity(t.tx, t.ty))
        return true;
  }
  return false;
}

/// Monotone L path with a random leg order — the shape every global route
/// is made of (and commit() handles arbitrary 4-connected paths the same).
std::vector<GCellId> random_l_path(util::Rng& rng, GCellId a, GCellId b) {
  std::vector<GCellId> tiles{a};
  const auto walk_h = [&](int to_x) {
    while (tiles.back().tx != to_x) {
      const int step = to_x > tiles.back().tx ? 1 : -1;
      tiles.push_back({tiles.back().tx + step, tiles.back().ty});
    }
  };
  const auto walk_v = [&](int to_y) {
    while (tiles.back().ty != to_y) {
      const int step = to_y > tiles.back().ty ? 1 : -1;
      tiles.push_back({tiles.back().tx, tiles.back().ty + step});
    }
  };
  if (rng.uniform_int(0, 1) == 0) {
    walk_h(b.tx);
    walk_v(b.ty);
  } else {
    walk_v(b.ty);
    walk_h(b.tx);
  }
  return tiles;
}

class CongestionIndexEquivalence : public ::testing::TestWithParam<bool> {};

TEST_P(CongestionIndexEquivalence, MatchesFullRescanUnderChurn) {
  const bool vertex_cost = GetParam();
  const grid::RoutingGrid rg(384, 384, 3, 16, grid::StitchPlan(384, 48));
  global::RoutingGraph graph(rg, true);
  const int tiles_x = graph.tiles_x();
  const int tiles_y = graph.tiles_y();
  util::Rng rng(kSeed);

  constexpr std::size_t kSubnets = 64;
  global::CongestionIndex index;
  index.reset(graph, kSubnets, vertex_cost);

  std::vector<std::vector<GCellId>> committed(kSubnets);
  const auto random_pair = [&](GCellId& a, GCellId& b) {
    a = {static_cast<int>(rng.uniform_int(0, tiles_x - 1)),
         static_cast<int>(rng.uniform_int(0, tiles_y - 1))};
    // Tight spans pile demand onto few resources, forcing overflow
    // transitions in both directions.
    b = {std::clamp(a.tx + static_cast<int>(rng.uniform_int(-3, 3)), 0,
                    tiles_x - 1),
         std::clamp(a.ty + static_cast<int>(rng.uniform_int(-3, 3)), 0,
                    tiles_y - 1)};
  };

  const auto verify_all = [&] {
    for (std::size_t i = 0; i < kSubnets; ++i) {
      const bool expected =
          !committed[i].empty() &&
          rescan_is_congested(graph, committed[i], vertex_cost);
      ASSERT_EQ(index.congested(i), expected) << "subnet " << i;
    }
  };

  // Initial commits, then churn: rip + reroute (the reroute loop's exact
  // op sequence) or plain recommit, verifying the whole index each round.
  for (std::size_t i = 0; i < kSubnets; ++i) {
    GCellId a, b;
    random_pair(a, b);
    committed[i] = random_l_path(rng, a, b);
    index.commit(graph, i, committed[i], +1);
  }
  verify_all();

  for (int op = 0; op < 300; ++op) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kSubnets) - 1));
    index.commit(graph, i, committed[i], -1);
    // Mid-rip state must be consistent too: the reroute loop gathers a
    // whole batch between rips and recommits.
    if (op % 7 == 0) verify_all();
    GCellId a, b;
    random_pair(a, b);
    committed[i] = random_l_path(rng, a, b);
    index.commit(graph, i, committed[i], +1);
    if (op % 5 == 0) verify_all();
  }
  verify_all();
}

INSTANTIATE_TEST_SUITE_P(VertexTracking, CongestionIndexEquivalence,
                         ::testing::Bool(), [](const auto& info) {
                           return info.param ? "with_vertex" : "edges_only";
                         });

// -------------------------------------------------- thread determinism

TEST(GlobalRouterDeterminism, ResultBitIdenticalAcrossThreadCounts) {
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);
  const auto subnets = netlist::decompose_all(circuit.netlist);

  global::GlobalRouterConfig config;
  config.net_batch_size = 32;  // the pipeline's parallel batching default

  const auto route_with = [&](int threads) {
    exec::ThreadPool pool(threads);
    global::GlobalRouter router(circuit.grid, config);
    return router.route(subnets, &pool);
  };

  const global::GlobalResult one = route_with(1);
  EXPECT_GT(one.wirelength, 0);
  for (const int threads : {2, 8}) {
    const global::GlobalResult other = route_with(threads);
    ASSERT_EQ(other.paths.size(), one.paths.size()) << threads;
    for (std::size_t i = 0; i < one.paths.size(); ++i) {
      ASSERT_EQ(other.paths[i].tiles, one.paths[i].tiles)
          << "subnet " << i << " threads " << threads;
    }
    EXPECT_EQ(other.wirelength, one.wirelength) << threads;
    EXPECT_EQ(other.total_vertex_overflow, one.total_vertex_overflow)
        << threads;
    EXPECT_EQ(other.max_vertex_overflow, one.max_vertex_overflow) << threads;
    EXPECT_EQ(other.total_edge_overflow, one.total_edge_overflow) << threads;
  }
}

}  // namespace
