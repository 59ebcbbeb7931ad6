// Google-benchmark microbenchmarks of the core algorithmic substrates:
// A* detailed search, the global-routing search kernel, min-cost flow
// (Carlisle-Lloyd), Hungarian matching, layer-assignment heuristics, and the
// graph-based track assigner.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "assign/layer_assign.hpp"
#include "assign/panel.hpp"
#include "assign/stage.hpp"
#include "assign/track_assign.hpp"
#include "bench_common.hpp"
#include "bench_suite/layer_instance_generator.hpp"
#include "detail/astar.hpp"
#include "exec/thread_pool.hpp"
#include "global/global_router.hpp"
#include "global/pattern_route.hpp"
#include "graph/bipartite_matching.hpp"
#include "graph/interval_k_coloring.hpp"
#include "netlist/decompose.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace mebl;

// Worker count for the exec-pool benchmarks, set by --threads (0 = one
// worker per hardware thread).
int g_threads = 0;

/// Fixed seeded A* kernel workload: a 320x320 3-layer grid cluttered with
/// deterministic foreign wires, then 200 bbox-confined searches. The same
/// workload backs the BM_AStarKernel benchmark and the mebl.bench_report
/// row, so the JSON artifact and the benchmark table measure one thing.
struct KernelStats {
  std::int64_t expansions = 0;
  std::int64_t routed = 0;
  double seconds = 0.0;
};

KernelStats run_astar_kernel_workload() {
  constexpr geom::Coord kSize = 320;
  grid::RoutingGrid rg(kSize, kSize, 3, 30, grid::StitchPlan(kSize, 15));
  detail::GridGraph grid(rg);
  detail::AStarRouter router(grid, {});
  util::Rng rng(bench_common::kSeed);
  // Clutter: foreign horizontal wires on layers 1/3 and vertical on 2, so
  // searches detour and expand realistically instead of walking straight.
  for (int i = 0; i < 400; ++i) {
    const auto x = static_cast<geom::Coord>(rng.uniform_int(0, kSize - 40));
    const auto y = static_cast<geom::Coord>(rng.uniform_int(0, kSize - 40));
    const auto len = static_cast<geom::Coord>(rng.uniform_int(8, 32));
    const netlist::NetId net = 10000 + i;
    if (i % 3 == 1) {
      for (geom::Coord d = 0; d <= len; ++d) grid.claim({x, y + d, 2}, net);
    } else {
      const geom::LayerId l = i % 3 == 0 ? 1 : 3;
      for (geom::Coord d = 0; d <= len; ++d) grid.claim({x + d, y, l}, net);
    }
  }
  KernelStats stats;
  detail::SearchScratch scratch;
  const telemetry::Counter& expansions =
      telemetry::counter(telemetry::keys::kAstarExpansions);
  const std::int64_t before = expansions.value();
  util::Timer timer;
  for (int i = 0; i < 200; ++i) {
    const auto ax = static_cast<geom::Coord>(rng.uniform_int(2, kSize - 3));
    const auto ay = static_cast<geom::Coord>(rng.uniform_int(2, kSize - 3));
    const auto bx = static_cast<geom::Coord>(rng.uniform_int(2, kSize - 3));
    const auto by = static_cast<geom::Coord>(rng.uniform_int(2, kSize - 3));
    const geom::Rect box =
        geom::Rect::bounding({ax, ay}, {bx, by}).inflated(8).intersect(
            rg.extent());
    const auto net = static_cast<netlist::NetId>(i);
    if (router.search(scratch, net, {ax, ay}, {bx, by}, box)) {
      for (const geom::Point3 p : scratch.path) grid.claim(p, net);
      ++stats.routed;
    }
  }
  stats.seconds = timer.seconds();
  stats.expansions = expansions.value() - before;
  return stats;
}

void BM_AStarKernel(benchmark::State& state) {
  std::int64_t expansions = 0;
  for (auto _ : state) {
    const KernelStats stats = run_astar_kernel_workload();
    expansions += stats.expansions;
    benchmark::DoNotOptimize(stats.routed);
  }
  // items/sec == expanded nodes per second: the kernel's true unit of work.
  state.SetItemsProcessed(expansions);
}
BENCHMARK(BM_AStarKernel);

void BM_AStarRoute(benchmark::State& state) {
  const auto span = static_cast<geom::Coord>(state.range(0));
  grid::RoutingGrid rg(span + 20, span + 20, 3, 30,
                       grid::StitchPlan(span + 20, 15));
  detail::GridGraph grid(rg);
  detail::AStarRouter router(grid, {});
  detail::SearchScratch scratch;
  netlist::NetId net = 0;
  for (auto _ : state) {
    const geom::Coord y = (net * 7) % (span + 10);
    const bool found = router.search(
        scratch, net, {2, y}, {span, (y + span / 2) % (span + 10)},
        rg.extent());
    benchmark::DoNotOptimize(found);
    if (found)
      for (const geom::Point3 p : scratch.path) grid.claim(p, net);
    ++net;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AStarRoute)->Arg(40)->Arg(120)->Arg(300);

/// Fixed seeded global-search workload: a 96x96 GCell graph cluttered with
/// deterministic demand stripes, then 2000 region-confined searches between
/// random tile pairs (pattern fast path first, scratch A* otherwise). Backs
/// BM_GlobalSearch and the mebl.bench_report "global_kernel" row.
struct GlobalKernelStats {
  std::int64_t routed = 0;
  std::int64_t pops = 0;
  std::int64_t pattern_hits = 0;
  double seconds = 0.0;
};

GlobalKernelStats run_global_search_workload() {
  constexpr int kTiles = 96;
  constexpr geom::Coord kTileSize = 30;
  constexpr geom::Coord kSpan = kTiles * kTileSize;
  const grid::RoutingGrid rg(kSpan, kSpan, 3, kTileSize,
                             grid::StitchPlan(kSpan, 7 * kTileSize));
  global::RoutingGraph graph(rg, true);
  util::Rng rng(bench_common::kSeed);
  // Clutter: deterministic demand stripes so searches price real congestion
  // detours instead of walking an empty graph. Densities are tuned so the
  // pattern fast path hits at roughly the rate the table-IV circuits show
  // (~2/3 of searches).
  for (int i = 0; i < 1000; ++i) {
    const int tx = static_cast<int>(rng.uniform_int(0, kTiles - 2));
    const int ty = static_cast<int>(rng.uniform_int(0, kTiles - 2));
    const int len = static_cast<int>(rng.uniform_int(2, 12));
    if (i % 2 == 0) {
      for (int d = 0; d < len && tx + d < kTiles - 1; ++d)
        graph.add_h_demand(tx + d, ty, 1);
    } else {
      for (int d = 0; d < len && ty + d < kTiles - 1; ++d)
        graph.add_v_demand(tx, ty + d, 1);
    }
    if (i % 6 == 0) graph.add_vertex_demand(tx, ty, 1);
  }
  // Both table-IV cost configurations, alternated per search the way the
  // ablation bench runs them: with line-end (vertex) pricing and without.
  const global::GlobalSearchParams with_vertex{global::kTurnCost, true,
                                               global::kVertexCostWeight};
  const global::GlobalSearchParams without_vertex{
      global::kTurnCost, false, global::kVertexCostWeight};
  const geom::Rect full{0, 0, kTiles - 1, kTiles - 1};
  global::GlobalSearchScratch scratch;
  GlobalKernelStats stats;
  util::Timer timer;
  const auto clamp_tile = [](int t) {
    return std::min(std::max(t, 0), kTiles - 1);
  };
  for (int i = 0; i < 2000; ++i) {
    // Subnet spans mirror a decomposed netlist's: mostly a few tiles
    // (where the pattern fast path earns its keep), with a longer span
    // every 16th search to keep the A* fallback honest.
    const int reach = i % 16 == 0 ? 20 : 5;
    const grid::GCellId a{static_cast<int>(rng.uniform_int(0, kTiles - 1)),
                          static_cast<int>(rng.uniform_int(0, kTiles - 1))};
    const grid::GCellId b{
        clamp_tile(a.tx + static_cast<int>(rng.uniform_int(-reach, reach))),
        clamp_tile(a.ty + static_cast<int>(rng.uniform_int(-reach, reach)))};
    const global::GlobalSearchParams& params =
        i % 2 == 0 ? with_vertex : without_vertex;
    const geom::Rect region =
        geom::Rect::bounding({a.tx, a.ty}, {b.tx, b.ty}).inflated(8).intersect(
            full);
    if (global::try_pattern_route(graph, params, a, b, scratch.path)) {
      ++stats.pattern_hits;
      ++stats.routed;
      continue;
    }
    if (global::search_tiles_astar(graph, params, a, b, region, scratch))
      ++stats.routed;
    stats.pops += scratch.last_pops;
  }
  stats.seconds = timer.seconds();
  return stats;
}

void BM_GlobalSearch(benchmark::State& state) {
  std::int64_t routed = 0;
  for (auto _ : state) {
    const GlobalKernelStats stats = run_global_search_workload();
    routed += stats.routed;
    benchmark::DoNotOptimize(stats.pops);
  }
  // items/sec == completed searches per second.
  state.SetItemsProcessed(routed);
}
BENCHMARK(BM_GlobalSearch);

void BM_GlobalRoutePass(benchmark::State& state) {
  const auto* spec = bench_suite::find_spec("S5378");
  const auto circuit = bench_common::generate(*spec);
  const auto subnets = netlist::decompose_all(circuit.netlist);
  global::GlobalRouterConfig config;
  config.net_batch_size = 32;  // the pipeline's parallel batching default
  for (auto _ : state) {
    global::GlobalRouter router(circuit.grid, config);
    const auto result = router.route(subnets);
    benchmark::DoNotOptimize(result.wirelength);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(subnets.size()));
}
BENCHMARK(BM_GlobalRoutePass);

void BM_IntervalKColoring(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<graph::WeightedInterval> intervals;
  for (int i = 0; i < state.range(0); ++i) {
    const auto lo = static_cast<geom::Coord>(rng.uniform_int(0, 200));
    intervals.push_back(
        {{lo, lo + static_cast<geom::Coord>(rng.uniform_int(1, 40))},
         static_cast<double>(rng.uniform_int(1, 100))});
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::max_weight_k_colorable_subset(intervals, 3));
}
BENCHMARK(BM_IntervalKColoring)->Arg(32)->Arg(128)->Arg(512);

void BM_HungarianMatching(benchmark::State& state) {
  util::Rng rng(2);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost)
    for (auto& c : row) c = static_cast<double>(rng.uniform_int(0, 1000));
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::min_weight_perfect_matching(cost));
}
BENCHMARK(BM_HungarianMatching)->Arg(8)->Arg(32)->Arg(128);

void BM_LayerAssignMst(benchmark::State& state) {
  util::Rng rng(3);
  bench_suite::LayerInstanceConfig config;
  config.segments = static_cast<int>(state.range(0));
  const auto segments = bench_suite::generate_layer_instance(config, rng);
  const auto graph = assign::build_conflict_graph(segments, true);
  for (auto _ : state)
    benchmark::DoNotOptimize(assign::assign_layers_mst(graph, 3));
}
BENCHMARK(BM_LayerAssignMst)->Arg(44)->Arg(128);

void BM_LayerAssignOurs(benchmark::State& state) {
  util::Rng rng(3);
  bench_suite::LayerInstanceConfig config;
  config.segments = static_cast<int>(state.range(0));
  const auto segments = bench_suite::generate_layer_instance(config, rng);
  const auto graph = assign::build_conflict_graph(segments, true);
  for (auto _ : state)
    benchmark::DoNotOptimize(assign::assign_layers_ours(graph, 3));
}
BENCHMARK(BM_LayerAssignOurs)->Arg(44)->Arg(128);

void BM_TrackAssignGraph(benchmark::State& state) {
  const grid::StitchPlan stitch(150, 15, 1);
  util::Rng rng(4);
  assign::TrackAssignInstance instance;
  instance.x_span = {30, 59};
  instance.stitch = &stitch;
  for (int i = 0; i < state.range(0); ++i) {
    const auto lo = static_cast<geom::Coord>(rng.uniform_int(0, 10));
    instance.segments.push_back(
        {static_cast<std::size_t>(i),
         {lo, lo + static_cast<geom::Coord>(rng.uniform_int(0, 6))},
         static_cast<int>(rng.uniform_int(-1, 1)),
         static_cast<int>(rng.uniform_int(-1, 1)),
         static_cast<netlist::NetId>(i)});
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(assign::track_assign_graph(instance));
}
BENCHMARK(BM_TrackAssignGraph)->Arg(8)->Arg(20);

void BM_TrackAssignIlp(benchmark::State& state) {
  const grid::StitchPlan stitch(150, 15, 1);
  util::Rng rng(4);
  assign::TrackAssignInstance instance;
  instance.x_span = {30, 44};
  instance.stitch = &stitch;
  for (int i = 0; i < state.range(0); ++i) {
    const auto lo = static_cast<geom::Coord>(rng.uniform_int(0, 4));
    instance.segments.push_back(
        {static_cast<std::size_t>(i),
         {lo, lo + static_cast<geom::Coord>(rng.uniform_int(0, 4))},
         static_cast<int>(rng.uniform_int(-1, 1)),
         static_cast<int>(rng.uniform_int(-1, 1)),
         static_cast<netlist::NetId>(i)});
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(assign::track_assign_ilp(instance));
}
BENCHMARK(BM_TrackAssignIlp)->Arg(3)->Arg(5);

/// Fixed S5378 assignment workload shared by BM_AssignPanels and its
/// mebl.bench_report row: one global route + run extraction up front, then
/// assign::assign_panels over every panel of a fresh copy of the plan per
/// measurement (it annotates runs in place).
struct AssignWorkload {
  bench_suite::GeneratedCircuit circuit;
  assign::RoutePlan plan;  ///< extracted, layers unassigned
};

AssignWorkload make_assign_workload() {
  const auto* spec = bench_suite::find_spec("S5378");
  AssignWorkload w{bench_common::generate(*spec), {}};
  const auto subnets = netlist::decompose_all(w.circuit.netlist);
  global::GlobalRouter router(w.circuit.grid, {});
  const auto global_result = router.route(subnets);
  w.plan = assign::extract_runs(global_result, subnets);
  return w;
}

void BM_AssignPanels(benchmark::State& state) {
  const AssignWorkload w = make_assign_workload();
  const assign::PanelSet panels = assign::PanelSet::all(w.circuit.grid);
  exec::ThreadPool pool(g_threads);
  std::int64_t tasks = 0;
  for (auto _ : state) {
    assign::RoutePlan plan = w.plan;
    const auto stats = assign::assign_panels(plan, w.circuit.grid, panels,
                                             assign::StageConfig{}, pool);
    tasks += stats.panels;
    benchmark::DoNotOptimize(plan.runs.data());
  }
  state.SetItemsProcessed(tasks);
}
BENCHMARK(BM_AssignPanels);

/// Fixed seeded ILP solve sequence — the warm sweep's random panel family —
/// solved through the seed path (sequential DFS, cold start) or the
/// overhauled ilp::Solver path (split fan-out + graph-heuristic warm
/// start). Both see the same instances and the same node cap, so the
/// seconds are commensurable; on a single core the speedup measures the
/// warm-start pruning, not parallelism. Backs BM_IlpSolver,
/// BM_IlpSolverSeedPath and the mebl.bench_report "ilp_solver" row.
struct IlpSolverStats {
  std::int64_t nodes = 0;
  int optimal = 0;
  double seconds = 0.0;
};

IlpSolverStats run_ilp_solver_workload(bool overhauled) {
  const grid::StitchPlan stitch(90, 15, 1);
  util::Rng rng(bench_common::kSeed);
  std::vector<assign::TrackAssignInstance> instances(12);
  for (auto& instance : instances) {
    instance.x_span = {30, 44};
    instance.stitch = &stitch;
    const int n = static_cast<int>(rng.uniform_int(4, 8));
    for (int i = 0; i < n; ++i) {
      const auto lo = static_cast<geom::Coord>(rng.uniform_int(0, 5));
      instance.segments.push_back(
          {static_cast<std::size_t>(i),
           {lo, lo + static_cast<geom::Coord>(rng.uniform_int(0, 3))},
           static_cast<int>(rng.uniform_int(-1, 1)),
           static_cast<int>(rng.uniform_int(-1, 1)),
           static_cast<netlist::NetId>(i)});
    }
  }
  assign::IlpTrackOptions options;
  options.max_nodes = 500'000;
  if (overhauled)
    options.warm_start = true;  // split fan-out is the solver default
  else
    options.split_target = 1;  // the seed solver, node for node
  IlpSolverStats stats;
  util::Timer timer;
  for (const auto& instance : instances) {
    const auto result = assign::track_assign_ilp(instance, options);
    stats.nodes += result.ilp_nodes;
    if (result.optimal) ++stats.optimal;
  }
  stats.seconds = timer.seconds();
  return stats;
}

void BM_IlpSolver(benchmark::State& state) {
  std::int64_t nodes = 0;
  for (auto _ : state) {
    const IlpSolverStats stats = run_ilp_solver_workload(true);
    nodes += stats.nodes;
    benchmark::DoNotOptimize(stats.optimal);
  }
  state.SetItemsProcessed(nodes);
}
BENCHMARK(BM_IlpSolver);

void BM_IlpSolverSeedPath(benchmark::State& state) {
  std::int64_t nodes = 0;
  for (auto _ : state) {
    const IlpSolverStats stats = run_ilp_solver_workload(false);
    nodes += stats.nodes;
    benchmark::DoNotOptimize(stats.optimal);
  }
  state.SetItemsProcessed(nodes);
}
BENCHMARK(BM_IlpSolverSeedPath);

void BM_ExecParallelFor(benchmark::State& state) {
  exec::ThreadPool pool(g_threads);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  for (auto _ : state) {
    pool.parallel_for(0, n, [&](std::size_t i) {
      double acc = static_cast<double>(i);
      for (int it = 0; it < 200; ++it) acc = acc * 1.0000001 + 0.5;
      out[i] = acc;
    });
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExecParallelFor)->Arg(64)->Arg(1024)->Arg(16384);

}  // namespace

// BENCHMARK_MAIN rejects unknown flags, so peel off --threads (and the
// ReportScope's --json, which it consumed already but benchmark would
// reject) by hand before handing the rest to the benchmark library.
int main(int argc, char** argv) {
  mebl::bench_common::ReportScope report_scope("micro_algorithms", argc, argv);
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      g_threads = std::atoi(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();

  // A* kernel row for the regression-gate artifact: expansions/sec on the
  // fixed seeded workload (median of three runs' rates would be noisy to
  // diff, so the row records the raw totals plus the derived rate).
  if (report_scope.enabled()) {
    const KernelStats stats = run_astar_kernel_workload();
    report_scope.add(
        "synthetic320", "astar_kernel",
        mebl::report::Json::Object{
            {"expansions", stats.expansions},
            {"routed", stats.routed},
            {"seconds", stats.seconds},
            {"expansions_per_sec",
             stats.seconds > 0.0
                 ? static_cast<double>(stats.expansions) / stats.seconds
                 : 0.0},
        });

    // Global-routing kernel row: pattern fast path + scratch A* on the
    // fixed seeded search sequence.
    const GlobalKernelStats global = run_global_search_workload();
    report_scope.add(
        "synthetic96", "global_kernel",
        mebl::report::Json::Object{
            {"searches", global.routed},
            {"pattern_hits", global.pattern_hits},
            {"pops", global.pops},
            {"seconds", global.seconds},
        });

    // Global route-pass row: one full batch-synchronous GlobalRouter::route
    // (search + commit + dirty-set rip-up) on a table-IV-sized circuit.
    {
      const auto* spec = mebl::bench_suite::find_spec("S5378");
      const auto circuit = mebl::bench_common::generate(*spec);
      const auto subnets = mebl::netlist::decompose_all(circuit.netlist);
      mebl::global::GlobalRouterConfig config;
      config.net_batch_size = 32;
      mebl::util::Timer timer;
      mebl::global::GlobalRouter router(circuit.grid, config);
      const auto result = router.route(subnets);
      const double seconds = timer.seconds();
      report_scope.add(
          "S5378", "global_route_pass",
          mebl::report::Json::Object{
              {"subnets", static_cast<std::int64_t>(subnets.size())},
              {"wirelength", result.wirelength},
              {"total_vertex_overflow", result.total_vertex_overflow},
              {"total_edge_overflow", result.total_edge_overflow},
              {"seconds", seconds},
          });
    }

    // Assignment row: assign_panels over every panel of S5378's extracted
    // plan, one timed pass on the report pool. Task, bad-end and rip-up
    // totals are deterministic; the seconds field is what the regression
    // diff watches.
    {
      const AssignWorkload w = make_assign_workload();
      mebl::exec::ThreadPool pool(g_threads);
      mebl::assign::RoutePlan plan = w.plan;
      mebl::util::Timer timer;
      const auto stats = mebl::assign::assign_panels(
          plan, w.circuit.grid, mebl::assign::PanelSet::all(w.circuit.grid),
          mebl::assign::StageConfig{}, pool);
      const double seconds = timer.seconds();
      std::int64_t assigned = 0, bad_ends = 0, ripped = 0;
      for (const auto& run : plan.runs) {
        if (run.layer >= 0) ++assigned;
        bad_ends += run.bad_ends;
        ripped += run.ripped ? 1 : 0;
      }
      report_scope.add(
          "S5378", "assign_panels",
          mebl::report::Json::Object{
              {"track_tasks", static_cast<std::int64_t>(stats.panels)},
              {"runs", static_cast<std::int64_t>(plan.runs.size())},
              {"assigned", assigned},
              {"bad_ends", bad_ends},
              {"ripped", ripped},
              {"seconds", seconds},
          });
    }

    // ILP solver row: the overhauled Solver path (warm start + split
    // fan-out) vs. the seed sequential DFS on the identical instance
    // sequence. The speedup field is the regression gate for the
    // assignment-stage kernel overhaul.
    {
      const IlpSolverStats overhauled = run_ilp_solver_workload(true);
      const IlpSolverStats seed = run_ilp_solver_workload(false);
      report_scope.add(
          "synthetic_panels", "ilp_solver",
          mebl::report::Json::Object{
              {"nodes", overhauled.nodes},
              {"seed_nodes", seed.nodes},
              {"optimal", static_cast<std::int64_t>(overhauled.optimal)},
              {"seconds", overhauled.seconds},
              {"seed_seconds", seed.seconds},
              {"speedup", overhauled.seconds > 0.0
                              ? seed.seconds / overhauled.seconds
                              : 0.0},
          });
    }
  }
  benchmark::Shutdown();
  return 0;
}
