// Paper-scale global routing (DESIGN.md §15): generate a full-scale
// instance (~16k tracks wide for S38417 — the paper's physical die at a
// two-feature track pitch), route it with the coarsen–route–refine
// multilevel pass, and record the congestion graph's resident bytes and the
// process peak RSS alongside runtime and quality; the search work
// (global.search.* counters) and the multilevel counters of that route are
// gated exactly. A second row compares
// multilevel against the flat schedule on the same instance. A third row,
// `pipeline`, routes S5378@full_scale end to end (global, layer, track,
// detail) and holds it to a fixed peak-RSS budget: the harness exits 1 when
// the process peak exceeds kPipelineRssBudgetKb. A last row, `eco`, times
// 1-net and 10-net ECOs on a multilevel resident of that instance (wall
// time of ResidentDesign::eco, report included) and exits 1 when the 1-net
// median passes kEcoOneNetBudgetSeconds; its final quality is gated exactly.
// The `detail` row batch-routes the laptop-scale S38417 (the perfbench
// route_s38417 circuit, where detail is most of the time) and gates its
// A* work and schedule counts and its quality exactly; the detail phase
// times are informational.
//
//   full_scale [--threads N] [--json FILE] [--trace FILE] [--stats FILE]
//
// MEBL_FULL_SCALE_CIRCUIT selects the global rows' spec (default S38417).

#include <sys/resource.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/stitch_router.hpp"
#include "exec/thread_pool.hpp"
#include "global/global_router.hpp"
#include "netlist/decompose.hpp"
#include "serve/resident_design.hpp"
#include "telemetry/keys.hpp"

namespace {

/// Peak-RSS budget of the whole harness process, checked after the
/// pipeline row (the last and largest one): 512 MiB.
constexpr long kPipelineRssBudgetKb = 512L * 1024;

/// Budget of the eco row's 1-net median: wall time of ResidentDesign::eco,
/// run report included.
constexpr double kEcoOneNetBudgetSeconds = 0.5;

/// ECOs per batch size in the eco row; the row reports their medians.
constexpr std::size_t kEcoReps = 7;

/// Max resident set of this process so far, in kilobytes (getrusage;
/// /usr/bin/time -v reports the same number — bench/peak_mem.sh merges the
/// external measurement when available). -1 when unavailable.
long peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;
}

/// Medians of one eco-row series.
struct EcoSeries {
  double wall_s = 0.0;  ///< ResidentDesign::eco wall time, report included
  double eco_s = 0.0;   ///< EcoOutcome::seconds (the report left out)
  std::int64_t dirty_subnets = 0;  ///< summed over the series
  bool ok = true;  ///< every ECO succeeded without a full-route fallback
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// kEcoReps ECOs of `batch` nets each on `resident`, taking fresh nets in
/// order from `nets` starting at `next`.
EcoSeries run_eco_series(mebl::serve::ResidentDesign& resident,
                         const std::vector<mebl::netlist::NetId>& nets,
                         std::size_t batch, std::size_t& next) {
  EcoSeries series;
  std::vector<double> wall;
  std::vector<double> eco;
  for (std::size_t rep = 0; rep < kEcoReps; ++rep) {
    mebl::serve::EcoRequest request;
    request.nets.assign(nets.begin() + static_cast<std::ptrdiff_t>(next),
                        nets.begin() +
                            static_cast<std::ptrdiff_t>(next + batch));
    next += batch;
    mebl::util::Timer timer;
    const mebl::serve::EcoOutcome outcome = resident.eco(request);
    wall.push_back(timer.seconds());
    eco.push_back(outcome.seconds);
    series.dirty_subnets += static_cast<std::int64_t>(outcome.dirty_subnets);
    series.ok = series.ok && outcome.ok && !outcome.fallback_full;
  }
  series.wall_s = median(std::move(wall));
  series.eco_s = median(std::move(eco));
  return series;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mebl;
  bench_common::TelemetryScope telemetry_scope(argc, argv);
  bench_common::ReportScope report_scope("full_scale", argc, argv);
  bench_common::QuietLogs quiet;
  exec::ThreadPool pool(bench_common::threads_from_args(argc, argv));

  const char* circuit_name = std::getenv("MEBL_FULL_SCALE_CIRCUIT");
  const auto* spec =
      bench_suite::find_spec(circuit_name != nullptr ? circuit_name : "S38417");
  if (spec == nullptr) {
    std::cerr << "full_scale: unknown circuit\n";
    return 2;
  }

  const auto generator_config = bench_suite::GeneratorConfig::full_scale();
  // The global rows live in their own scope: the S38417 instance and both
  // routers are freed before the pipeline row, so its peak RSS does not
  // count them.
  {
    const auto circuit = bench_suite::generate_circuit(
        *spec, generator_config, bench_common::kSeed);
    const auto subnets = netlist::decompose_all(circuit.netlist);

    global::GlobalRouterConfig ml_config;
    ml_config.multilevel = true;

    util::Timer timer;
    global::GlobalRouter ml_router(circuit.grid, ml_config);
    const auto ml_result = ml_router.route(subnets, &pool);
    const double ml_seconds = timer.seconds();
    const long rss_kb = peak_rss_kb();

    const auto& graph = ml_router.graph();
    const auto tiles_total = graph.tiles_total();
    const auto storage_bytes = graph.storage_bytes();
    const auto counter_value = [](const char* key) {
      return telemetry::counter(key).value();
    };
    const auto global_pops = counter_value(telemetry::keys::kGlobalSearchPops);
    const auto pattern_hits =
        counter_value(telemetry::keys::kGlobalPatternHits);
    const auto coarse_nets = counter_value(telemetry::keys::kMlCoarseNets);
    const auto corridor_hits = counter_value(telemetry::keys::kMlCorridorHits);
    const auto corridor_fallbacks =
        counter_value(telemetry::keys::kMlCorridorFallbacks);

    {
      report::Json::Object metrics;
      metrics["subnets"] = static_cast<std::int64_t>(subnets.size());
      metrics["wirelength"] = ml_result.wirelength;
      metrics["total_vertex_overflow"] = ml_result.total_vertex_overflow;
      metrics["max_vertex_overflow"] = ml_result.max_vertex_overflow;
      metrics["total_edge_overflow"] = ml_result.total_edge_overflow;
      metrics["seconds"] = ml_seconds;
      metrics["peak_rss_kb"] = static_cast<std::int64_t>(rss_kb);
      metrics["tiles_total"] = static_cast<std::int64_t>(tiles_total);
      metrics["storage_bytes"] = static_cast<std::int64_t>(storage_bytes);
      metrics["global_pops"] = global_pops;
      metrics["pattern_hits"] = pattern_hits;
      metrics["coarse_nets"] = coarse_nets;
      metrics["corridor_hits"] = corridor_hits;
      metrics["corridor_fallbacks"] = corridor_fallbacks;
      report_scope.add(spec->name + "@full_scale", "global_route_pass",
                       std::move(metrics));
    }

    // Flat comparison: same instance, multilevel off — so the delta
    // isolates the coarsen–route–refine schedule.
    global::GlobalRouterConfig flat_config = ml_config;
    flat_config.multilevel = false;
    timer.reset();
    global::GlobalRouter flat_router(circuit.grid, flat_config);
    const auto flat_result = flat_router.route(subnets, &pool);
    const double flat_seconds = timer.seconds();

    {
      report::Json::Object metrics;
      metrics["wirelength"] = ml_result.wirelength;
      metrics["flat_wirelength"] = flat_result.wirelength;
      metrics["total_vertex_overflow"] = ml_result.total_vertex_overflow;
      metrics["flat_total_vertex_overflow"] = flat_result.total_vertex_overflow;
      metrics["total_edge_overflow"] = ml_result.total_edge_overflow;
      metrics["flat_total_edge_overflow"] = flat_result.total_edge_overflow;
      metrics["seconds"] = ml_seconds;
      metrics["flat_seconds"] = flat_seconds;
      metrics["speedup"] = ml_seconds > 0.0 ? flat_seconds / ml_seconds : 0.0;
      metrics["coarse_nets"] = coarse_nets;
      metrics["corridor_hits"] = corridor_hits;
      metrics["corridor_fallbacks"] = corridor_fallbacks;
      report_scope.add("full_scale", "multilevel_vs_flat", std::move(metrics));
    }

    util::Table table("Circuit", "Tracks", "Subnets", "WL", "TVOF", "CPU(s)",
                      "RSS(MB)", "Tiles", "Graph(KB)");
    table.add_row(
        spec->name + "@full_scale",
        std::to_string(circuit.grid.width()) + "x" +
            std::to_string(circuit.grid.height()),
        std::to_string(subnets.size()), std::to_string(ml_result.wirelength),
        std::to_string(ml_result.total_vertex_overflow),
        util::Table::fixed(ml_seconds, 2),
        std::to_string(rss_kb >= 0 ? rss_kb / 1024 : -1),
        std::to_string(tiles_total), std::to_string(storage_bytes / 1024));
    std::cout << table.str("Full-scale global routing (multilevel)")
              << "\nmultilevel " << util::Table::fixed(ml_seconds, 2)
              << " s vs flat " << util::Table::fixed(flat_seconds, 2)
              << " s (speedup "
              << util::Table::fixed(
                     ml_seconds > 0.0 ? flat_seconds / ml_seconds : 0.0, 2)
              << "x); coarse nets " << coarse_nets << ", corridor hits "
              << corridor_hits << ", fallbacks " << corridor_fallbacks << "\n";
  }

  // Pipeline row: paper-scale S5378 through every stage with multilevel,
  // so the detail stage's memory shows in the process peak.
  const auto* pipeline_spec = bench_suite::find_spec("S5378");
  const auto pipeline_circuit = bench_suite::generate_circuit(
      *pipeline_spec, generator_config, bench_common::kSeed);
  const auto pipeline_config =
      core::RouterConfig::stitch_aware()
          .with_threads(bench_common::threads_from_args(argc, argv))
          .with_multilevel(true);
  // The routed pipeline is freed before the eco row, so the process peak
  // counts one routed instance at a time.
  long pipeline_rss_kb = -1;
  {
    util::Timer timer;
    core::StitchAwareRouter pipeline_router(pipeline_circuit.grid,
                                            pipeline_circuit.netlist,
                                            pipeline_config);
    const auto pipeline = pipeline_router.run();
    const double pipeline_seconds = timer.seconds();
    pipeline_rss_kb = peak_rss_kb();
    const auto stage_seconds = [&](core::Stage stage) {
      return pipeline.stages.at(static_cast<std::size_t>(stage)).seconds;
    };
    {
      report::Json::Object metrics =
          report::QualitySummary::from(pipeline, pipeline_seconds).to_metrics();
      metrics["global_s"] = stage_seconds(core::Stage::kGlobal);
      metrics["layer_s"] = stage_seconds(core::Stage::kLayerAssign);
      metrics["track_s"] = stage_seconds(core::Stage::kTrackAssign);
      metrics["detail_s"] = stage_seconds(core::Stage::kDetail);
      metrics["peak_rss_kb"] = static_cast<std::int64_t>(pipeline_rss_kb);
      for (const auto& [name, value] : pipeline.stats().counters)
        if (name.starts_with("detail.storage."))
          metrics[name.substr(sizeof("detail.storage.") - 1)] = value;
      report_scope.add(pipeline_spec->name + "@full_scale", "pipeline",
                       std::move(metrics));
    }

    const auto wall = [&](core::Stage stage) {
      return util::Table::fixed(stage_seconds(stage), 2);
    };
    util::Table pipeline_table("Circuit", "Tracks", "Rout.(%)", "WL", "#VIA",
                               "#VV", "#SP", "G/L/T/D (s)", "RSS(MB)");
    pipeline_table.add_row(
        pipeline_spec->name + "@full_scale",
        std::to_string(pipeline_circuit.grid.width()) + "x" +
            std::to_string(pipeline_circuit.grid.height()),
        util::Table::fixed(pipeline.metrics.routability_pct(), 2),
        std::to_string(pipeline.metrics.wirelength),
        std::to_string(pipeline.metrics.vias),
        std::to_string(pipeline.metrics.via_violations),
        std::to_string(pipeline.metrics.short_polygons),
        wall(core::Stage::kGlobal) + "/" + wall(core::Stage::kLayerAssign) +
            "/" + wall(core::Stage::kTrackAssign) + "/" +
            wall(core::Stage::kDetail),
        std::to_string(pipeline_rss_kb >= 0 ? pipeline_rss_kb / 1024 : -1));
    std::cout << "\n"
              << pipeline_table.str("Full-scale pipeline (all four stages)");
  }

  // ECO row: a multilevel resident of the same instance takes kEcoReps
  // 1-net ECOs, then kEcoReps 10-net ECOs, each on fresh nets. It runs
  // after the pipeline row's RSS sample, so that row's peak does not count
  // the resident.
  serve::ResidentDesign resident(
      netlist::Design{pipeline_circuit.grid, pipeline_circuit.netlist},
      pipeline_config);
  if (!resident.route_full().ok) {
    std::cerr << "full_scale: eco resident failed its full route\n";
    return 1;
  }
  const auto eco_nets = bench_common::routable_nets(
      resident.design().netlist, kEcoReps * (1 + 10));
  if (eco_nets.size() < kEcoReps * (1 + 10)) {
    std::cerr << "full_scale: too few routable nets for the eco row\n";
    return 1;
  }
  std::size_t next_net = 0;
  const EcoSeries eco1 = run_eco_series(resident, eco_nets, 1, next_net);
  const EcoSeries eco10 = run_eco_series(resident, eco_nets, 10, next_net);
  if (!eco1.ok || !eco10.ok) {
    std::cerr << "full_scale: an eco-row ECO failed or fell back\n";
    return 1;
  }
  const eval::RouteMetrics& eco_final = resident.result().metrics;
  {
    report::Json::Object metrics;
    metrics["eco1_wall_s"] = eco1.wall_s;
    metrics["eco1_incremental_s"] = eco1.eco_s;
    metrics["eco10_wall_s"] = eco10.wall_s;
    metrics["eco10_incremental_s"] = eco10.eco_s;
    metrics["eco1_dirty_subnets"] = eco1.dirty_subnets;
    metrics["eco10_dirty_subnets"] = eco10.dirty_subnets;
    metrics["final_short_polygons"] = std::int64_t{eco_final.short_polygons};
    metrics["final_via_violations"] = std::int64_t{eco_final.via_violations};
    metrics["final_vias"] = std::int64_t{eco_final.vias};
    metrics["final_wirelength"] = eco_final.wirelength;
    report_scope.add(pipeline_spec->name + "@full_scale", "eco",
                     std::move(metrics));
  }
  util::Table eco_table("Circuit", "ECO nets", "Wall (s)", "Incremental (s)",
                        "Dirty subnets");
  for (const auto& [nets, series] :
       {std::pair{1, eco1}, std::pair{10, eco10}})
    eco_table.add_row(pipeline_spec->name + "@full_scale",
                      std::to_string(nets), util::Table::fixed(series.wall_s, 3),
                      util::Table::fixed(series.eco_s, 3),
                      std::to_string(series.dirty_subnets));
  std::cout << "\n"
            << eco_table.str("Full-scale ECO (median of " +
                             std::to_string(kEcoReps) + ", report included)");

  // Detail row: laptop-scale S38417 through every stage. It runs last and
  // peaks well below the pipeline row, so that row's RSS sample stands.
  {
    const auto* detail_spec = bench_suite::find_spec("S38417");
    const auto circuit = bench_common::generate(*detail_spec);
    util::Timer timer;
    core::StitchAwareRouter router(
        circuit.grid, circuit.netlist,
        core::RouterConfig::stitch_aware().with_threads(
            bench_common::threads_from_args(argc, argv)));
    const auto result = router.run();
    const double route_seconds = timer.seconds();
    namespace keys = telemetry::keys;
    const auto count = [&](const char* key) {
      return result.stats().value(key);
    };
    const auto seconds_of = [&](const char* key) {
      return static_cast<double>(count(key)) / 1e9;
    };
    const double detail_seconds =
        result.stages.at(static_cast<std::size_t>(core::Stage::kDetail))
            .seconds;
    const eval::RouteMetrics& quality = result.metrics;
    report::Json::Object metrics;
    metrics["astar_searches"] = count(keys::kAstarSearches);
    metrics["astar_expansions"] = count(keys::kAstarExpansions);
    metrics["sealed_fails"] = count(keys::kAstarSealedFails);
    metrics["escalations"] = count(keys::kDetailEscalations);
    metrics["failed_subnets"] = count(keys::kSubnetsFailed);
    metrics["final_short_polygons"] = std::int64_t{quality.short_polygons};
    metrics["final_via_violations"] = std::int64_t{quality.via_violations};
    metrics["final_vias"] = std::int64_t{quality.vias};
    metrics["final_wirelength"] = quality.wirelength;
    metrics["route_s"] = route_seconds;
    metrics["detail_s"] = detail_seconds;
    metrics["main_pass_s"] = seconds_of(keys::kDetailPhaseMainPassNs);
    metrics["rescue_s"] = seconds_of(keys::kDetailPhaseRescueNs);
    metrics["rescue_probe_s"] = seconds_of(keys::kDetailPhaseRescueProbeNs);
    metrics["sp_cleanup_s"] = seconds_of(keys::kDetailPhaseSpCleanupNs);
    report_scope.add(detail_spec->name, "detail", std::move(metrics));

    const auto fixed = [](double value) {
      return util::Table::fixed(value, 2);
    };
    util::Table detail_table("Circuit", "Searches", "Expansions", "Sealed",
                             "Failed", "Detail (s)", "Main/Rescue/SP (s)");
    detail_table.add_row(
        detail_spec->name, std::to_string(count(keys::kAstarSearches)),
        std::to_string(count(keys::kAstarExpansions)),
        std::to_string(count(keys::kAstarSealedFails)),
        std::to_string(count(keys::kSubnetsFailed)), fixed(detail_seconds),
        fixed(seconds_of(keys::kDetailPhaseMainPassNs)) + "/" +
            fixed(seconds_of(keys::kDetailPhaseRescueNs)) + "/" +
            fixed(seconds_of(keys::kDetailPhaseSpCleanupNs)));
    std::cout << "\n" << detail_table.str("Detailed routing (laptop scale)");
  }

  int status = 0;
  if (pipeline_rss_kb > kPipelineRssBudgetKb) {
    std::cerr << "full_scale: FAIL peak RSS " << pipeline_rss_kb / 1024
              << " MiB exceeds the " << kPipelineRssBudgetKb / 1024
              << " MiB pipeline budget\n";
    status = 1;
  }
  if (eco1.wall_s > kEcoOneNetBudgetSeconds) {
    std::cerr << "full_scale: FAIL 1-net ECO median " << eco1.wall_s
              << " s exceeds the " << kEcoOneNetBudgetSeconds
              << " s budget\n";
    status = 1;
  }
  return status;
}
