// Paper-scale routing tests (ctest label `scale`, DESIGN.md §15): the tiled
// sparse grid answers exactly like the dense representation (bit-identical
// costs under random demand churn, materializing precisely the touched
// tiles), the global router's results and the whole pipeline's canonical
// report bytes are invariant under the storage switch and the thread count,
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

// --------------------------------------------- tiled storage equivalence

/// Mirror random demand churn into a dense and a tiled RoutingGraph over
/// the same grid and require the full read surface — demands, marginal
/// costs, overflow aggregates — to stay bit-identical, while the tiled
/// side materializes exactly the set of tiles that ever took a write.
TEST(TiledGraph, RandomChurnMatchesDenseTwinAndMaterializesTouchedTilesOnly) {
  const geom::Coord tile = 8;
  const grid::RoutingGrid rg(24 * tile, 18 * tile, 3, tile,
                             grid::StitchPlan(24 * tile, 3 * tile));
  global::RoutingGraph dense(rg, true, /*tiled=*/false);
  global::RoutingGraph tiled(rg, true, /*tiled=*/true);
  const int tiles_x = dense.tiles_x();
  const int tiles_y = dense.tiles_y();
  ASSERT_EQ(tiled.tiles_total(), static_cast<std::size_t>(tiles_x) * tiles_y);
  EXPECT_EQ(tiled.tiles_materialized(), 0u);

  const auto verify_all = [&] {
    for (int ty = 0; ty < tiles_y; ++ty)
      for (int tx = 0; tx < tiles_x; ++tx) {
        // Edge accessors are only defined where the edge exists (h: to the
        // right, v: upward), matching the routing kernel's usage.
        if (tx + 1 < tiles_x) {
          ASSERT_EQ(tiled.h_capacity(tx, ty), dense.h_capacity(tx, ty));
          ASSERT_EQ(tiled.h_demand(tx, ty), dense.h_demand(tx, ty));
          ASSERT_EQ(tiled.h_cost(tx, ty), dense.h_cost(tx, ty));
          ASSERT_EQ(tiled.h_cost(tx, ty, 3), dense.h_cost(tx, ty, 3));
        }
        if (ty + 1 < tiles_y) {
          ASSERT_EQ(tiled.v_capacity(tx, ty), dense.v_capacity(tx, ty));
          ASSERT_EQ(tiled.v_demand(tx, ty), dense.v_demand(tx, ty));
          ASSERT_EQ(tiled.v_cost(tx, ty), dense.v_cost(tx, ty));
        }
        ASSERT_EQ(tiled.vertex_capacity(tx, ty), dense.vertex_capacity(tx, ty));
        ASSERT_EQ(tiled.vertex_demand(tx, ty), dense.vertex_demand(tx, ty));
        ASSERT_EQ(tiled.vertex_cost(tx, ty), dense.vertex_cost(tx, ty));
        ASSERT_EQ(tiled.vertex_cost(tx, ty, 2), dense.vertex_cost(tx, ty, 2));
      }
    EXPECT_EQ(tiled.total_edge_overflow(), dense.total_edge_overflow());
    EXPECT_EQ(tiled.total_vertex_overflow(), dense.total_vertex_overflow());
    EXPECT_EQ(tiled.max_vertex_overflow(), dense.max_vertex_overflow());
  };
  verify_all();  // pristine: untouched tiles serve the axis defaults

  util::Rng rng(kSeed);
  std::set<std::size_t> touched;
  std::vector<std::array<int, 3>> applied;
  for (int step = 0; step < 3000; ++step) {
    const bool remove = !applied.empty() && rng.chance(0.25);
    if (remove) {
      const std::size_t i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(applied.size()) - 1));
      const auto [kind, tx, ty] = applied[i];
      applied.erase(applied.begin() + static_cast<std::ptrdiff_t>(i));
      if (kind == 0) {
        dense.add_h_demand(tx, ty, -1);
        tiled.add_h_demand(tx, ty, -1);
      } else if (kind == 1) {
        dense.add_v_demand(tx, ty, -1);
        tiled.add_v_demand(tx, ty, -1);
      } else {
        dense.add_vertex_demand(tx, ty, -1);
        tiled.add_vertex_demand(tx, ty, -1);
      }
    } else {
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      // Churn a confined band of the grid so a large remainder stays
      // untouched — the sparse side must keep answering defaults for it.
      const int tx = static_cast<int>(rng.uniform_int(0, tiles_x / 2 - 1));
      const int ty = static_cast<int>(rng.uniform_int(0, tiles_y / 2 - 1));
      if (kind == 0 && tx + 1 >= tiles_x) continue;
      if (kind == 1 && ty + 1 >= tiles_y) continue;
      if (kind == 0) {
        dense.add_h_demand(tx, ty, 1);
        tiled.add_h_demand(tx, ty, 1);
      } else if (kind == 1) {
        dense.add_v_demand(tx, ty, 1);
        tiled.add_v_demand(tx, ty, 1);
      } else {
        dense.add_vertex_demand(tx, ty, 1);
        tiled.add_vertex_demand(tx, ty, 1);
      }
      touched.insert(static_cast<std::size_t>(ty) * tiles_x + tx);
      applied.push_back({kind, tx, ty});
    }
    // Rip-up back to zero never un-materializes: the invariant is exact
    // equality with the ever-touched set, not the currently-nonzero set.
    ASSERT_EQ(tiled.tiles_materialized(), touched.size()) << "step " << step;
    if (step % 250 == 0) verify_all();
  }
  verify_all();

  // The churn stayed inside one quadrant, so the sparse representation must
  // be far below the dense footprint of the same grid.
  EXPECT_LE(touched.size(), tiled.tiles_total() / 2);
  EXPECT_LT(tiled.storage_bytes(),
            global::RoutingGraph::dense_storage_bytes(tiles_x, tiles_y));
}

TEST(TiledGraph, UntouchedTileCostsEqualDirectPsiOfDemandOne) {
  const grid::RoutingGrid rg(120, 90, 3, 10, grid::StitchPlan(120, 45));
  global::RoutingGraph tiled(rg, true, /*tiled=*/true);
  tiled.add_h_demand(0, 0, 1);  // materialize one corner tile
  EXPECT_EQ(tiled.tiles_materialized(), 1u);
  const int tx = tiled.tiles_x() - 1;
  const int ty = tiled.tiles_y() - 1;
  EXPECT_EQ(tiled.vertex_demand(tx, ty), 0);
  EXPECT_EQ(tiled.vertex_cost(tx, ty),
            direct_psi(1, tiled.vertex_capacity(tx, ty)));
  EXPECT_EQ(tiled.h_cost(1, ty), direct_psi(1, tiled.h_capacity(1, ty)));
  EXPECT_EQ(tiled.v_cost(tx, 1), direct_psi(1, tiled.v_capacity(tx, 1)));
  // Reads never materialize; only writes do.
  EXPECT_EQ(tiled.tiles_materialized(), 1u);
}

// ------------------------------------------------- storage-switch sweeps

class StorageSwitchEquivalence
    : public ::testing::TestWithParam<const char*> {};

/// The headline contract of the storage switch: for every circuit, thread
/// count and multilevel setting, flipping tiled_grid changes *no routed
/// bit* of the GlobalResult.
TEST_P(StorageSwitchEquivalence, GlobalResultBitIdenticalTiledVsDense) {
  const auto* spec = bench_suite::find_spec(GetParam());
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);
  const auto subnets = netlist::decompose_all(circuit.netlist);

  const auto route_with = [&](bool tiled, bool multilevel, int threads) {
    global::GlobalRouterConfig config;
    config.net_batch_size = 32;
    config.tiled_grid = tiled;
    config.multilevel.enabled = multilevel;
    exec::ThreadPool pool(threads);
    global::GlobalRouter router(circuit.grid, config);
    return router.route(subnets, &pool);
  };

  for (const bool multilevel : {false, true}) {
    const global::GlobalResult dense = route_with(false, multilevel, 1);
    EXPECT_GT(dense.wirelength, 0);
    for (const int threads : {1, 8}) {
      const global::GlobalResult tiled = route_with(true, multilevel, threads);
      ASSERT_EQ(tiled.paths.size(), dense.paths.size());
      for (std::size_t i = 0; i < dense.paths.size(); ++i) {
        EXPECT_EQ(tiled.paths[i].routed, dense.paths[i].routed)
            << "subnet " << i << " threads " << threads << " ml "
            << multilevel;
        ASSERT_EQ(tiled.paths[i].tiles, dense.paths[i].tiles)
            << "subnet " << i << " threads " << threads << " ml "
            << multilevel;
      }
      EXPECT_EQ(tiled.wirelength, dense.wirelength);
      EXPECT_EQ(tiled.total_vertex_overflow, dense.total_vertex_overflow);
      EXPECT_EQ(tiled.max_vertex_overflow, dense.max_vertex_overflow);
      EXPECT_EQ(tiled.total_edge_overflow, dense.total_edge_overflow);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, StorageSwitchEquivalence,
                         ::testing::Values("S5378", "S9234"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

/// End-to-end form: the ENTIRE canonical run report (grid.* representation
/// telemetry is execution-dependent and excluded by design) must be
/// byte-identical across the storage switch and every thread count.
TEST(StorageSwitchEquivalence, CanonicalReportBytesInvariant) {
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);

  const auto canonical_report = [&](bool tiled, bool multilevel,
                                    int threads) {
    core::StitchAwareRouter router(circuit.grid, circuit.netlist,
                                   core::RouterConfig::stitch_aware()
                                       .with_threads(threads)
                                       .with_tiled_grid(tiled)
                                       .with_multilevel(multilevel));
    report::RunReportBuilder builder;
    router.add_observer(&builder);
    const auto result = router.run();
    report::WriteOptions options;
    options.include_timing = false;
    return report::serialize(
        builder.build(result, circuit.grid, circuit.netlist), options);
  };

  const std::string dense = canonical_report(false, false, 1);
  for (const int threads : {1, 8})
    EXPECT_EQ(dense, canonical_report(true, false, threads))
        << "threads=" << threads;

  // Multilevel refinement may legitimately pick different (corridor-guided)
  // paths than the flat search, so it is not compared against the dense
  // baseline — but its own canonical bytes must be thread-invariant and
  // storage-invariant.
  const std::string ml = canonical_report(false, true, 1);
  for (const int threads : {1, 8})
    EXPECT_EQ(ml, canonical_report(true, true, threads))
        << "threads=" << threads;
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
  // Admit only the start tile's row half: the goal is unreachable inside
  // the corridor even though the region contains it.
  scratch.begin_corridor(static_cast<std::size_t>(tiles_x) * tiles_y);
  for (int tx = 0; tx < tiles_x / 2; ++tx)
    scratch.admit_tile(static_cast<std::size_t>(tx));
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
  const auto* spec = bench_suite::find_spec("S9234");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);
  const auto subnets = netlist::decompose_all(circuit.netlist);

  global::GlobalRouterConfig config;
  config.net_batch_size = 32;
  config.tiled_grid = true;
  config.multilevel.enabled = true;
  config.multilevel.min_span = 4;  // plan more of this mid-size circuit

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
    EXPECT_TRUE(result.paths[i].routed) << "subnet " << i;
}

// ------------------------------------------------------- serving layer

TEST(ScaleServe, EcoVerifyReplayPassesOnTiledMultilevelGrid) {
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);
  netlist::Design design{circuit.grid, std::move(circuit.netlist)};

  serve::ResidentDesign resident(std::move(design),
                                 core::RouterConfig::stitch_aware()
                                     .with_tiled_grid(true)
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
      << "tiled-grid ECO diverged from the from-scratch replay";
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

/// Current resident set of this process in KiB (VmRSS), -1 when unknown.
long vm_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stol(line.substr(6));
  return -1;
}

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
