// Reproduces Table IV: stitch-aware global routing with vs. without
// line-end (vertex) congestion consideration. Reports total/maximum vertex
// overflow, wirelength, and CPU per circuit.

#include <iostream>

#include "bench_common.hpp"
#include "exec/thread_pool.hpp"
#include "global/global_router.hpp"
#include "netlist/decompose.hpp"

int main(int argc, char** argv) {
  using namespace mebl;
  bench_common::TelemetryScope telemetry_scope(argc, argv);
  bench_common::ReportScope report_scope("table4_global_routing", argc, argv);
  bench_common::QuietLogs quiet;
  exec::ThreadPool pool(bench_common::threads_from_args(argc, argv));

  util::Table table("Circuit", "w/o TVOF", "w/o MVOF", "w/o WL", "w/o CPU(s)",
                    "w/ TVOF", "w/ MVOF", "w/ WL", "w/ CPU(s)");

  std::int64_t wo_tvof = 0, w_tvof = 0;
  std::int64_t wo_wl = 0, w_wl = 0;
  double wo_cpu = 0.0, w_cpu = 0.0;

  for (const auto& spec : bench_common::selected_specs()) {
    const auto circuit = bench_common::generate(spec);
    const auto subnets = netlist::decompose_all(circuit.netlist);

    global::GlobalRouterConfig without;
    without.vertex_cost = false;
    util::Timer timer;
    global::GlobalRouter router_wo(circuit.grid, without);
    const auto result_wo = router_wo.route(subnets, &pool);
    const double seconds_wo = timer.seconds();

    global::GlobalRouterConfig with;
    with.vertex_cost = true;
    timer.reset();
    global::GlobalRouter router_w(circuit.grid, with);
    const auto result_w = router_w.route(subnets, &pool);
    const double seconds_w = timer.seconds();

    const auto global_metrics = [](const global::GlobalResult& result,
                                   double seconds) {
      report::Json::Object metrics;
      metrics["total_vertex_overflow"] = result.total_vertex_overflow;
      metrics["max_vertex_overflow"] = result.max_vertex_overflow;
      metrics["total_edge_overflow"] = result.total_edge_overflow;
      metrics["wirelength"] = result.wirelength;
      metrics["seconds"] = seconds;
      return metrics;
    };
    report_scope.add(spec.name, "no-vertex-cost",
                     global_metrics(result_wo, seconds_wo));
    report_scope.add(spec.name, "vertex-cost",
                     global_metrics(result_w, seconds_w));

    table.add_row(spec.name, std::to_string(result_wo.total_vertex_overflow),
                  std::to_string(result_wo.max_vertex_overflow),
                  std::to_string(result_wo.wirelength),
                  util::Table::fixed(seconds_wo, 3),
                  std::to_string(result_w.total_vertex_overflow),
                  std::to_string(result_w.max_vertex_overflow),
                  std::to_string(result_w.wirelength),
                  util::Table::fixed(seconds_w, 3));

    wo_tvof += result_wo.total_vertex_overflow;
    w_tvof += result_w.total_vertex_overflow;
    wo_wl += result_wo.wirelength;
    w_wl += result_w.wirelength;
    wo_cpu += seconds_wo;
    w_cpu += seconds_w;
  }

  table.add_rule();
  table.add_row("Comp.", "1.000", "1.000", "1.000", "1.000",
                util::Table::fixed(wo_tvof > 0 ? static_cast<double>(w_tvof) /
                                                     static_cast<double>(wo_tvof)
                                               : 0.0,
                                   3),
                "-",
                util::Table::fixed(wo_wl > 0 ? static_cast<double>(w_wl) /
                                                   static_cast<double>(wo_wl)
                                             : 1.0,
                                   3),
                util::Table::fixed(wo_cpu > 0 ? w_cpu / wo_cpu : 1.0, 3));

  std::cout << table.str(
      "TABLE IV: global routing w/o vs. w/ line-end consideration")
            << "\nPaper shape: TVOF ratio ~0.001 (near-zero overflow), WL "
               "ratio ~1.015, CPU ratio ~1.007\n";
  return 0;
}
