// Paper-scale global routing (DESIGN.md §15): generate a full-scale
// instance (~16k tracks wide for S38417 — the paper's physical die at a
// two-feature track pitch), route it with the coarsen–route–refine
// multilevel pass, and record the congestion graph's resident bytes and the
// process peak RSS alongside runtime and quality. A second row compares
// multilevel against the flat schedule on the same instance. A third row,
// `pipeline`, routes S5378@full_scale end to end (global, layer, track,
// detail) and holds it to a fixed peak-RSS budget: the harness exits 1 when
// the process peak exceeds kPipelineRssBudgetKb.
//
//   full_scale [--threads N] [--json FILE] [--trace FILE] [--stats FILE]
//
// MEBL_FULL_SCALE_CIRCUIT selects the global rows' spec (default S38417).

#include <sys/resource.h>

#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "core/stitch_router.hpp"
#include "exec/thread_pool.hpp"
#include "global/global_router.hpp"
#include "netlist/decompose.hpp"
#include "telemetry/keys.hpp"

namespace {

/// Peak-RSS budget of the whole harness process, checked after the
/// pipeline row (the last and largest one): 512 MiB.
constexpr long kPipelineRssBudgetKb = 512L * 1024;

/// Max resident set of this process so far, in kilobytes (getrusage;
/// /usr/bin/time -v reports the same number — bench/peak_mem.sh merges the
/// external measurement when available). -1 when unavailable.
long peak_rss_kb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1;
  return usage.ru_maxrss;
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
  const auto circuit =
      bench_suite::generate_circuit(*spec, generator_config, bench_common::kSeed);
  const auto subnets = netlist::decompose_all(circuit.netlist);

  global::GlobalRouterConfig ml_config;
  ml_config.net_batch_size = 32;  // the pipeline's parallel batching default
  ml_config.multilevel.enabled = true;

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
    metrics["coarse_nets"] = coarse_nets;
    metrics["corridor_hits"] = corridor_hits;
    metrics["corridor_fallbacks"] = corridor_fallbacks;
    report_scope.add(spec->name + "@full_scale", "global_route_pass",
                     std::move(metrics));
  }

  // Flat comparison: same instance, multilevel off — so the delta
  // isolates the coarsen–route–refine schedule.
  global::GlobalRouterConfig flat_config = ml_config;
  flat_config.multilevel.enabled = false;
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

  // Pipeline row: paper-scale S5378 through every stage with multilevel,
  // so the detail stage's memory shows in the process peak.
  const auto* pipeline_spec = bench_suite::find_spec("S5378");
  const auto pipeline_circuit = bench_suite::generate_circuit(
      *pipeline_spec, generator_config, bench_common::kSeed);
  timer.reset();
  core::StitchAwareRouter pipeline_router(
      pipeline_circuit.grid, pipeline_circuit.netlist,
      core::RouterConfig::stitch_aware()
          .with_threads(bench_common::threads_from_args(argc, argv))
          .with_multilevel(true));
  const auto pipeline = pipeline_router.run();
  const double pipeline_seconds = timer.seconds();
  const long pipeline_rss_kb = peak_rss_kb();
  {
    report::Json::Object metrics =
        report::QualitySummary::from(pipeline, pipeline_seconds).to_metrics();
    metrics["global_s"] = pipeline.times.global_seconds;
    metrics["layer_s"] = pipeline.times.layer_seconds;
    metrics["track_s"] = pipeline.times.track_seconds;
    metrics["detail_s"] = pipeline.times.detail_seconds;
    metrics["peak_rss_kb"] = static_cast<std::int64_t>(pipeline_rss_kb);
    for (const auto& [name, value] : pipeline.stats().counters)
      if (name.starts_with("detail.storage."))
        metrics[name.substr(sizeof("detail.storage.") - 1)] = value;
    report_scope.add(pipeline_spec->name + "@full_scale", "pipeline",
                     std::move(metrics));
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
      util::Table::fixed(pipeline.times.global_seconds, 2) + "/" +
          util::Table::fixed(pipeline.times.layer_seconds, 2) + "/" +
          util::Table::fixed(pipeline.times.track_seconds, 2) + "/" +
          util::Table::fixed(pipeline.times.detail_seconds, 2),
      std::to_string(pipeline_rss_kb >= 0 ? pipeline_rss_kb / 1024 : -1));
  std::cout << "\n"
            << pipeline_table.str("Full-scale pipeline (all four stages)");

  if (pipeline_rss_kb > kPipelineRssBudgetKb) {
    std::cerr << "full_scale: FAIL peak RSS " << pipeline_rss_kb / 1024
              << " MiB exceeds the " << kPipelineRssBudgetKb / 1024
              << " MiB pipeline budget\n";
    return 1;
  }
  return 0;
}
