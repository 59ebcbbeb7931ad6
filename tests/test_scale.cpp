// Paper-scale routing tests (ctest label `scale`, DESIGN.md §15): the
// congestion graph's per-axis construction answers every accessor exactly
// like a per-tile reference and like its explicit-capacity twin under
// random demand churn (tiles never written keep their pristine costs), the
// global router's results and the whole pipeline's canonical report bytes
// are invariant under the thread count with and without the multilevel pass,
// corridor-confined searches refuse paths outside the corridor and the
// router falls back to the full grid, and the multilevel pass routes
// everything deterministically — including through the serving layer's
// incremental-ECO replay gate. The detail stage's occupancy costs memory
// only where routing writes (pin claims at full scale stay far below the
// dense W x H x L footprint).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "detail/detailed_router.hpp"
#include "exec/thread_pool.hpp"
#include "global/global_router.hpp"
#include "global/search_scratch.hpp"
#include "grid/gcell.hpp"
#include "netlist/decompose.hpp"
#include "report/report.hpp"
#include "serve/resident_design.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace mebl;
using geom::Rect;
using grid::GCellId;

constexpr std::uint64_t kSeed = 20130602u;

/// The psi formula, restated independently of RoutingGraph (same
/// expression, so IEEE semantics make exact-equality comparisons
/// meaningful).
double direct_psi(int demand, int capacity) {
  if (capacity <= 0) return demand > 0 ? 1e9 : 0.0;
  return std::exp2(static_cast<double>(demand) / capacity) - 1.0;
}

// ------------------------------------------- congestion storage reference

struct GraphShape {
  const char* name;
  int tiles_x;
  int tiles_y;
  bool stitch_aware;
};

void PrintTo(const GraphShape& shape, std::ostream* out) { *out << shape.name; }

class CongestionStorage : public ::testing::TestWithParam<GraphShape> {};

/// Drive random demand churn into a RoutingGraph and, after every step,
/// check every accessor against a test-local reference: capacities from one
/// CapacityModel call per tile, costs from direct_psi over the reference
/// demands, and overflow totals and maximum by brute-force sums. The grid's
/// last row and column are partial and the stitch pitch does not divide the
/// tile size, so every row and column has its own capacity and a shifted
/// or transposed broadcast shows.
TEST_P(CongestionStorage, EveryAccessorMatchesReferenceUnderChurn) {
  const GraphShape shape = GetParam();
  const geom::Coord tile = 10;
  const geom::Coord width = shape.tiles_x * tile - 3;
  const geom::Coord height = shape.tiles_y * tile - 4;
  const grid::RoutingGrid rg(width, height, 2, tile,
                             grid::StitchPlan(width, 7));
  global::RoutingGraph graph(rg, shape.stitch_aware);
  const int tiles_x = shape.tiles_x;
  const int tiles_y = shape.tiles_y;
  ASSERT_EQ(graph.tiles_x(), tiles_x);
  ASSERT_EQ(graph.tiles_y(), tiles_y);
  ASSERT_EQ(graph.tiles_total(), static_cast<std::size_t>(tiles_x) * tiles_y);

  // Reference state, indexed [ty][tx]; edge entries past the last edge of
  // a row or column stay unused.
  const grid::CapacityModel model(rg);
  const auto tiles = static_cast<std::size_t>(tiles_x) * tiles_y;
  std::vector<int> h_cap(tiles, 0), v_cap(tiles, 0), vert_cap(tiles, 0);
  std::vector<int> h_dem(tiles, 0), v_dem(tiles, 0), vert_dem(tiles, 0);
  const auto at = [&](int tx, int ty) {
    return static_cast<std::size_t>(ty) * tiles_x + tx;
  };
  for (int ty = 0; ty < tiles_y; ++ty)
    for (int tx = 0; tx < tiles_x; ++tx) {
      if (tx + 1 < tiles_x)
        h_cap[at(tx, ty)] = model.horizontal_edge_capacity(ty);
      if (ty + 1 < tiles_y)
        v_cap[at(tx, ty)] = shape.stitch_aware
                                ? model.vertical_edge_capacity(tx)
                                : model.vertical_edge_capacity_no_stitch(tx);
      vert_cap[at(tx, ty)] = model.line_end_capacity(tx);
    }

  int seen_edge_overflow = 0;
  int seen_vertex_overflow = 0;
  const auto verify_all = [&] {
    int edge_overflow = 0;
    int vertex_overflow = 0;
    int max_vertex = 0;
    for (int ty = 0; ty < tiles_y; ++ty)
      for (int tx = 0; tx < tiles_x; ++tx) {
        const std::size_t t = at(tx, ty);
        if (tx + 1 < tiles_x) {
          ASSERT_EQ(graph.h_capacity(tx, ty), h_cap[t]) << tx << "," << ty;
          ASSERT_EQ(graph.h_demand(tx, ty), h_dem[t]);
          ASSERT_EQ(graph.h_cost(tx, ty), direct_psi(h_dem[t] + 1, h_cap[t]));
          ASSERT_EQ(graph.h_cost(tx, ty, 3),
                    direct_psi(h_dem[t] + 3, h_cap[t]));
          edge_overflow += std::max(0, h_dem[t] - h_cap[t]);
        }
        if (ty + 1 < tiles_y) {
          ASSERT_EQ(graph.v_capacity(tx, ty), v_cap[t]) << tx << "," << ty;
          ASSERT_EQ(graph.v_demand(tx, ty), v_dem[t]);
          ASSERT_EQ(graph.v_cost(tx, ty), direct_psi(v_dem[t] + 1, v_cap[t]));
          ASSERT_EQ(graph.v_cost(tx, ty, 2),
                    direct_psi(v_dem[t] + 2, v_cap[t]));
          edge_overflow += std::max(0, v_dem[t] - v_cap[t]);
        }
        ASSERT_EQ(graph.vertex_capacity(tx, ty), vert_cap[t])
            << tx << "," << ty;
        ASSERT_EQ(graph.vertex_demand(tx, ty), vert_dem[t]);
        ASSERT_EQ(graph.vertex_cost(tx, ty),
                  direct_psi(vert_dem[t] + 1, vert_cap[t]));
        ASSERT_EQ(graph.vertex_cost(tx, ty, 2),
                  direct_psi(vert_dem[t] + 2, vert_cap[t]));
        vertex_overflow += std::max(0, vert_dem[t] - vert_cap[t]);
        max_vertex = std::max(max_vertex, vert_dem[t] - vert_cap[t]);
      }
    ASSERT_EQ(graph.total_edge_overflow(), edge_overflow);
    ASSERT_EQ(graph.total_vertex_overflow(), vertex_overflow);
    ASSERT_EQ(graph.max_vertex_overflow(), max_vertex);
    seen_edge_overflow = std::max(seen_edge_overflow, edge_overflow);
    seen_vertex_overflow = std::max(seen_vertex_overflow, vertex_overflow);
  };
  verify_all();  // pristine: demand 0, costs psi(1, c)
  ASSERT_FALSE(HasFatalFailure());

  util::Rng rng(kSeed);
  std::vector<std::array<int, 3>> applied;  // kind, tx, ty of live adds
  for (int step = 0; step < 1500; ++step) {
    if (!applied.empty() && rng.chance(0.25)) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(applied.size()) - 1));
      const auto [kind, tx, ty] = applied[pick];
      applied[pick] = applied.back();
      applied.pop_back();
      if (kind == 0) {
        graph.add_h_demand(tx, ty, -1);
        --h_dem[at(tx, ty)];
      } else if (kind == 1) {
        graph.add_v_demand(tx, ty, -1);
        --v_dem[at(tx, ty)];
      } else {
        graph.add_vertex_demand(tx, ty, -1);
        --vert_dem[at(tx, ty)];
      }
    } else {
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      if ((kind == 0 && tiles_x == 1) || (kind == 1 && tiles_y == 1)) continue;
      // Half the adds hit a 2x2 corner, the first or the last one (whose
      // partial row and column have the smallest capacities), so resources
      // overflow at both ends of every scan.
      const int x_max = tiles_x - (kind == 0 ? 2 : 1);
      const int y_max = tiles_y - (kind == 1 ? 2 : 1);
      int x_lo = 0, x_hi = x_max, y_lo = 0, y_hi = y_max;
      if (rng.chance(0.5)) {
        if (rng.chance(0.5)) {
          x_hi = std::min(1, x_max);
          y_hi = std::min(1, y_max);
        } else {
          x_lo = std::max(0, x_max - 1);
          y_lo = std::max(0, y_max - 1);
        }
      }
      const int tx = static_cast<int>(rng.uniform_int(x_lo, x_hi));
      const int ty = static_cast<int>(rng.uniform_int(y_lo, y_hi));
      if (kind == 0) {
        graph.add_h_demand(tx, ty, 1);
        ++h_dem[at(tx, ty)];
      } else if (kind == 1) {
        graph.add_v_demand(tx, ty, 1);
        ++v_dem[at(tx, ty)];
      } else {
        graph.add_vertex_demand(tx, ty, 1);
        ++vert_dem[at(tx, ty)];
      }
      applied.push_back({kind, tx, ty});
    }
    verify_all();
    ASSERT_FALSE(HasFatalFailure()) << "step " << step;
  }
  EXPECT_GT(seen_edge_overflow, 0) << "churn never overflowed an edge";
  EXPECT_GT(seen_vertex_overflow, 0) << "churn never overflowed a vertex";

  // Every tile is resident: the rows hold at least one capacity, demand and
  // cost entry per resource.
  const std::size_t resources =
      static_cast<std::size_t>(std::max(0, tiles_x - 1)) * tiles_y +
      static_cast<std::size_t>(tiles_x) * std::max(0, tiles_y - 1) + tiles;
  EXPECT_GE(graph.storage_bytes(),
            resources * (2 * sizeof(int) + sizeof(double)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CongestionStorage,
    ::testing::Values(GraphShape{"Grid12x9", 12, 9, true},
                      GraphShape{"Grid12x9NoStitch", 12, 9, false},
                      GraphShape{"Column1x9", 1, 9, true},
                      GraphShape{"Row12x1", 12, 1, true},
                      GraphShape{"Row12x1NoStitch", 12, 1, false}),
    [](const auto& info) { return std::string(info.param.name); });

/// Mirror random demand churn into a grid-backed RoutingGraph and its dense
/// twin built by with_capacities from the same per-tile capacities (the
/// explicit-capacity path the multilevel pass uses), and require the full
/// read surface — demands, marginal costs, overflow aggregates — to stay
/// bit-identical, while every tile that never took a write keeps demand 0
/// and its pristine psi(1, c) costs.
TEST(TiledGraph, RandomChurnMatchesDenseTwinAndMaterializesTouchedTilesOnly) {
  const geom::Coord tile = 8;
  const grid::RoutingGrid rg(24 * tile, 18 * tile, 3, tile,
                             grid::StitchPlan(24 * tile, 3 * tile));
  global::RoutingGraph graph(rg, true);
  const int tiles_x = graph.tiles_x();
  const int tiles_y = graph.tiles_y();
  std::vector<int> h_cap, v_cap, vert_cap;
  for (int ty = 0; ty < tiles_y; ++ty)
    for (int tx = 0; tx + 1 < tiles_x; ++tx)
      h_cap.push_back(graph.h_capacity(tx, ty));
  for (int ty = 0; ty + 1 < tiles_y; ++ty)
    for (int tx = 0; tx < tiles_x; ++tx)
      v_cap.push_back(graph.v_capacity(tx, ty));
  for (int ty = 0; ty < tiles_y; ++ty)
    for (int tx = 0; tx < tiles_x; ++tx)
      vert_cap.push_back(graph.vertex_capacity(tx, ty));
  global::RoutingGraph twin = global::RoutingGraph::with_capacities(
      tiles_x, tiles_y, h_cap, v_cap, vert_cap);
  ASSERT_EQ(twin.tiles_total(), graph.tiles_total());
  EXPECT_EQ(twin.storage_bytes(), graph.storage_bytes());

  std::set<std::size_t> touched;
  const auto verify_all = [&] {
    for (int ty = 0; ty < tiles_y; ++ty)
      for (int tx = 0; tx < tiles_x; ++tx) {
        const bool untouched =
            touched.count(static_cast<std::size_t>(ty) * tiles_x + tx) == 0;
        // Edge accessors are only defined where the edge exists (h: to the
        // right, v: upward), matching the routing kernel's usage.
        if (tx + 1 < tiles_x) {
          ASSERT_EQ(twin.h_capacity(tx, ty), graph.h_capacity(tx, ty));
          ASSERT_EQ(twin.h_demand(tx, ty), graph.h_demand(tx, ty));
          ASSERT_EQ(twin.h_cost(tx, ty), graph.h_cost(tx, ty));
          ASSERT_EQ(twin.h_cost(tx, ty, 3), graph.h_cost(tx, ty, 3));
          if (untouched) {
            ASSERT_EQ(graph.h_demand(tx, ty), 0) << tx << "," << ty;
            ASSERT_EQ(graph.h_cost(tx, ty),
                      direct_psi(1, graph.h_capacity(tx, ty)));
          }
        }
        if (ty + 1 < tiles_y) {
          ASSERT_EQ(twin.v_capacity(tx, ty), graph.v_capacity(tx, ty));
          ASSERT_EQ(twin.v_demand(tx, ty), graph.v_demand(tx, ty));
          ASSERT_EQ(twin.v_cost(tx, ty), graph.v_cost(tx, ty));
          if (untouched) {
            ASSERT_EQ(graph.v_demand(tx, ty), 0) << tx << "," << ty;
            ASSERT_EQ(graph.v_cost(tx, ty),
                      direct_psi(1, graph.v_capacity(tx, ty)));
          }
        }
        ASSERT_EQ(twin.vertex_capacity(tx, ty), graph.vertex_capacity(tx, ty));
        ASSERT_EQ(twin.vertex_demand(tx, ty), graph.vertex_demand(tx, ty));
        ASSERT_EQ(twin.vertex_cost(tx, ty), graph.vertex_cost(tx, ty));
        ASSERT_EQ(twin.vertex_cost(tx, ty, 2), graph.vertex_cost(tx, ty, 2));
        if (untouched) {
          ASSERT_EQ(graph.vertex_demand(tx, ty), 0) << tx << "," << ty;
          ASSERT_EQ(graph.vertex_cost(tx, ty),
                    direct_psi(1, graph.vertex_capacity(tx, ty)));
        }
      }
    EXPECT_EQ(twin.total_edge_overflow(), graph.total_edge_overflow());
    EXPECT_EQ(twin.total_vertex_overflow(), graph.total_vertex_overflow());
    EXPECT_EQ(twin.max_vertex_overflow(), graph.max_vertex_overflow());
  };
  verify_all();  // pristine: every tile untouched
  ASSERT_FALSE(HasFatalFailure());

  util::Rng rng(kSeed);
  std::vector<std::array<int, 3>> applied;  // kind, tx, ty of live adds
  for (int step = 0; step < 3000; ++step) {
    if (!applied.empty() && rng.chance(0.25)) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(applied.size()) - 1));
      const auto [kind, tx, ty] = applied[pick];
      applied[pick] = applied.back();
      applied.pop_back();
      if (kind == 0) {
        graph.add_h_demand(tx, ty, -1);
        twin.add_h_demand(tx, ty, -1);
      } else if (kind == 1) {
        graph.add_v_demand(tx, ty, -1);
        twin.add_v_demand(tx, ty, -1);
      } else {
        graph.add_vertex_demand(tx, ty, -1);
        twin.add_vertex_demand(tx, ty, -1);
      }
    } else {
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      // Churn one quadrant so a large remainder stays untouched.
      const int tx = static_cast<int>(rng.uniform_int(0, tiles_x / 2 - 1));
      const int ty = static_cast<int>(rng.uniform_int(0, tiles_y / 2 - 1));
      if (kind == 0) {
        graph.add_h_demand(tx, ty, 1);
        twin.add_h_demand(tx, ty, 1);
      } else if (kind == 1) {
        graph.add_v_demand(tx, ty, 1);
        twin.add_v_demand(tx, ty, 1);
      } else {
        graph.add_vertex_demand(tx, ty, 1);
        twin.add_vertex_demand(tx, ty, 1);
      }
      touched.insert(static_cast<std::size_t>(ty) * tiles_x + tx);
      applied.push_back({kind, tx, ty});
    }
    if (step % 250 == 0) {
      verify_all();
      ASSERT_FALSE(HasFatalFailure()) << "step " << step;
    }
  }
  verify_all();
  EXPECT_LE(touched.size(), graph.tiles_total() / 2);
  EXPECT_GT(graph.total_edge_overflow() + graph.total_vertex_overflow(), 0)
      << "churn never overflowed a resource";
}

/// A tile that never took a write prices its marginal wire and line end at
/// psi(1, c), next to a written tile whose marginal cost moved to psi(2, c);
/// reads leave every demand as it was.
TEST(TiledGraph, UntouchedTileCostsEqualDirectPsiOfDemandOne) {
  const grid::RoutingGrid rg(120, 90, 3, 10, grid::StitchPlan(120, 45));
  global::RoutingGraph graph(rg, true);
  graph.add_h_demand(0, 0, 1);  // write one corner tile
  EXPECT_EQ(graph.h_cost(0, 0), direct_psi(2, graph.h_capacity(0, 0)));
  const int tx = graph.tiles_x() - 1;
  const int ty = graph.tiles_y() - 1;
  EXPECT_EQ(graph.vertex_demand(tx, ty), 0);
  EXPECT_EQ(graph.vertex_cost(tx, ty),
            direct_psi(1, graph.vertex_capacity(tx, ty)));
  EXPECT_EQ(graph.h_cost(1, ty), direct_psi(1, graph.h_capacity(1, ty)));
  EXPECT_EQ(graph.v_cost(tx, 1), direct_psi(1, graph.v_capacity(tx, 1)));
  EXPECT_EQ(graph.h_demand(0, 0), 1);
  EXPECT_EQ(graph.h_demand(1, ty), 0);
  EXPECT_EQ(graph.v_demand(tx, 1), 0);
}

// ---------------------------------------------- thread-count determinism

class ScaleDeterminism : public ::testing::TestWithParam<const char*> {};

/// For every circuit and multilevel setting, the GlobalResult is
/// bit-identical across thread counts — the multilevel coarse pass and its
/// corridor-confined searches included.
TEST_P(ScaleDeterminism, GlobalResultBitIdenticalAcrossThreads) {
  const auto* spec = bench_suite::find_spec(GetParam());
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);
  const auto subnets = netlist::decompose_all(circuit.netlist);

  const auto route_with = [&](bool multilevel, int threads) {
    global::GlobalRouterConfig config;
    config.multilevel = multilevel;
    exec::ThreadPool pool(threads);
    global::GlobalRouter router(circuit.grid, config);
    return router.route(subnets, &pool);
  };

  for (const bool multilevel : {false, true}) {
    const global::GlobalResult one = route_with(multilevel, 1);
    EXPECT_GT(one.wirelength, 0);
    const global::GlobalResult eight = route_with(multilevel, 8);
    ASSERT_EQ(eight.paths.size(), one.paths.size());
    for (std::size_t i = 0; i < one.paths.size(); ++i) {
      ASSERT_EQ(eight.paths[i].tiles, one.paths[i].tiles)
          << "subnet " << i << " ml " << multilevel;
    }
    EXPECT_EQ(eight.wirelength, one.wirelength);
    EXPECT_EQ(eight.total_vertex_overflow, one.total_vertex_overflow);
    EXPECT_EQ(eight.max_vertex_overflow, one.max_vertex_overflow);
    EXPECT_EQ(eight.total_edge_overflow, one.total_edge_overflow);
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, ScaleDeterminism,
                         ::testing::Values("S5378", "S9234"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// End-to-end form: the ENTIRE canonical run report (grid.* representation
/// telemetry is execution-dependent and excluded by design) must be
/// byte-identical across thread counts, with and without the multilevel
/// pass.
TEST(ScaleDeterminism, CanonicalReportBytesIdenticalAcrossThreads) {
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);

  const auto canonical_report = [&](bool multilevel, int threads) {
    core::StitchAwareRouter router(circuit.grid, circuit.netlist,
                                   core::RouterConfig::stitch_aware()
                                       .with_threads(threads)
                                       .with_multilevel(multilevel));
    const auto result = router.run();
    report::WriteOptions options;
    options.include_timing = false;
    return report::serialize(
        report::build_run_report(result, circuit.grid, circuit.netlist),
        options);
  };

  // Multilevel refinement may legitimately pick different (corridor-guided)
  // paths than the flat search, so the two settings are not compared with
  // each other — each must be thread-invariant on its own.
  for (const bool multilevel : {false, true})
    EXPECT_EQ(canonical_report(multilevel, 1), canonical_report(multilevel, 8))
        << "multilevel=" << multilevel;
}

// ------------------------------------------------------ corridor search

TEST(CorridorSearch, WholeRegionCorridorMatchesUnconfinedSearch) {
  const grid::RoutingGrid rg(160, 160, 3, 10, grid::StitchPlan(160, 60));
  global::RoutingGraph graph(rg, true);
  const int tiles_x = graph.tiles_x();
  const int tiles_y = graph.tiles_y();
  const Rect full{0, 0, tiles_x - 1, tiles_y - 1};
  const GCellId from{1, 1};
  const GCellId to{tiles_x - 2, tiles_y - 2};

  global::GlobalSearchScratch scratch;
  double cost_free = 0.0;
  ASSERT_TRUE(global::search_tiles_astar(graph, {}, from, to, full, scratch,
                                         &cost_free));
  const std::vector<GCellId> free_path = scratch.path;

  scratch.begin_corridor(static_cast<std::size_t>(tiles_x) * tiles_y);
  for (std::size_t t = 0; t < static_cast<std::size_t>(tiles_x) * tiles_y;
       ++t)
    scratch.admit_tile(t);
  double cost_corridor = 0.0;
  ASSERT_TRUE(global::search_tiles_astar(graph, {}, from, to, full, scratch,
                                         &cost_corridor,
                                         /*corridor=*/true));
  EXPECT_EQ(scratch.path, free_path);
  EXPECT_EQ(cost_corridor, cost_free);
}

TEST(CorridorSearch, ExcludingCorridorFailsAndFullGridFallbackSucceeds) {
  const grid::RoutingGrid rg(160, 160, 3, 10, grid::StitchPlan(160, 60));
  global::RoutingGraph graph(rg, true);
  const int tiles_x = graph.tiles_x();
  const int tiles_y = graph.tiles_y();
  const Rect full{0, 0, tiles_x - 1, tiles_y - 1};
  const GCellId from{0, 0};
  const GCellId to{tiles_x - 1, tiles_y - 1};

  global::GlobalSearchScratch scratch;
  // Admit the start tile's row half and the goal tile alone: both endpoints
  // are in the corridor (search_tiles_astar's contract), but the goal is
  // unreachable inside it.
  scratch.begin_corridor(static_cast<std::size_t>(tiles_x) * tiles_y);
  for (int tx = 0; tx < tiles_x / 2; ++tx)
    scratch.admit_tile(static_cast<std::size_t>(tx));
  scratch.admit_tile(static_cast<std::size_t>(to.ty) * tiles_x + to.tx);
  EXPECT_FALSE(global::search_tiles_astar(graph, {}, from, to, full, scratch,
                                          nullptr, /*corridor=*/true));
  // The router's fallback: the same scratch, corridor off.
  ASSERT_TRUE(
      global::search_tiles_astar(graph, {}, from, to, full, scratch));
  EXPECT_EQ(scratch.path.front(), from);
  EXPECT_EQ(scratch.path.back(), to);
}

TEST(CorridorSearch, LShapedCorridorConfinesThePath) {
  const grid::RoutingGrid rg(160, 160, 3, 10, grid::StitchPlan(160, 60));
  global::RoutingGraph graph(rg, true);
  const int tiles_x = graph.tiles_x();
  const int tiles_y = graph.tiles_y();
  const Rect full{0, 0, tiles_x - 1, tiles_y - 1};
  const GCellId from{0, 0};
  const GCellId to{tiles_x - 1, tiles_y - 1};

  // Corridor = bottom row + right column (one L), nothing else.
  global::GlobalSearchScratch scratch;
  scratch.begin_corridor(static_cast<std::size_t>(tiles_x) * tiles_y);
  for (int tx = 0; tx < tiles_x; ++tx)
    scratch.admit_tile(static_cast<std::size_t>(tx));
  for (int ty = 0; ty < tiles_y; ++ty)
    scratch.admit_tile(static_cast<std::size_t>(ty) * tiles_x + tiles_x - 1);
  ASSERT_TRUE(global::search_tiles_astar(graph, {}, from, to, full, scratch,
                                         nullptr, /*corridor=*/true));
  for (const GCellId tile : scratch.path)
    EXPECT_TRUE(scratch.in_corridor(static_cast<std::size_t>(tile.ty) *
                                        tiles_x +
                                    tile.tx))
        << "(" << tile.tx << "," << tile.ty << ") escaped the corridor";
}

// -------------------------------------------------- multilevel telemetry

TEST(Multilevel, PlansCoarseNetsAndEveryCorridorSearchResolves) {
  // Paper scale, where subnets span enough tiles for the coarse pass.
  const auto* spec = bench_suite::find_spec("S9234");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(
      *spec, bench_suite::GeneratorConfig::full_scale(), kSeed);
  const auto subnets = netlist::decompose_all(circuit.netlist);

  global::GlobalRouterConfig config;
  config.multilevel = true;

  const auto before = telemetry::snapshot_counters();
  exec::ThreadPool pool(4);
  global::GlobalRouter router(circuit.grid, config);
  const auto result = router.route(subnets, &pool);
  const auto stats = telemetry::delta(before, telemetry::snapshot_counters());

  EXPECT_GT(result.wirelength, 0);
  const auto coarse = stats.value(telemetry::keys::kMlCoarseNets);
  const auto hits = stats.value(telemetry::keys::kMlCorridorHits);
  const auto fallbacks = stats.value(telemetry::keys::kMlCorridorFallbacks);
  EXPECT_GT(coarse, 0) << "multilevel never planned a coarse net";
  // Every planned subnet's fine search resolves through exactly one of the
  // two outcomes (reroute passes may re-search, hence >=).
  EXPECT_GE(hits + fallbacks, coarse);
  // A corridor fallback must never lose a net: the planned subnets route.
  for (std::size_t i = 0; i < result.paths.size(); ++i)
    EXPECT_FALSE(result.paths[i].tiles.empty()) << "subnet " << i;
}

// ------------------------------------------------------- serving layer

TEST(ScaleServe, EcoVerifyReplayPassesOnTiledMultilevelGrid) {
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);
  netlist::Design design{circuit.grid, std::move(circuit.netlist)};

  serve::ResidentDesign resident(std::move(design),
                                 core::RouterConfig::stitch_aware()
                                     .with_multilevel(true));
  ASSERT_TRUE(resident.route_full().ok);

  serve::EcoRequest request;
  for (const netlist::Net& net : resident.design().netlist.nets()) {
    if (net.degree() < 2) continue;
    request.nets.push_back(net.id);
    if (request.nets.size() == 12) break;
  }
  ASSERT_GE(request.nets.size(), 12u);
  request.verify = true;

  const serve::EcoOutcome outcome = resident.eco(request);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.verified)
      << "multilevel ECO diverged from the from-scratch replay";
  EXPECT_FALSE(outcome.verify_mismatch);
}

// ------------------------------------------------ detail-stage storage

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define MEBL_SCALE_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define MEBL_SCALE_SANITIZED 1
#endif

#if defined(__linux__) && !defined(MEBL_SCALE_SANITIZED)
/// Current resident set of this process in KiB (VmRSS), -1 when unknown.
long vm_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}
#endif

/// The detail occupancy at paper scale is demand-paged: building the grid
/// graph and claiming every pin of S5378@full_scale (6060 x 3330 tracks x 4
/// layers, 80.7 M nodes) must not fault in the dense per-node arrays, which
/// would cost well over a gigabyte.
TEST(DetailStorage, FullScalePinClaimsStayFarBelowDenseFootprint) {
#if !defined(__linux__) || defined(MEBL_SCALE_SANITIZED)
  GTEST_SKIP() << "needs /proc/self/status and an unsanitized allocator";
#else
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(
      *spec, bench_suite::GeneratorConfig::full_scale(), kSeed);
  const long before_kb = vm_rss_kb();
  ASSERT_GT(before_kb, 0);

  detail::GridGraph grid(circuit.grid);
  detail::DetailedRouter router(grid);
  router.claim_pins(circuit.netlist);
  const long growth_mb = (vm_rss_kb() - before_kb) / 1024;

  EXPECT_GT(grid.occupied_nodes(), 0);
  EXPECT_GE(grid.index_space(), static_cast<std::size_t>(circuit.grid.width()) *
                                    circuit.grid.height() *
                                    circuit.grid.num_layers());
  EXPECT_LT(growth_mb, 64) << "detail storage grew VmRSS by " << growth_mb
                           << " MB";
#endif
}

}  // namespace
