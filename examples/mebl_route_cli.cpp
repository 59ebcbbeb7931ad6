// Standalone routing driver: route a design file (the "MEBL1" text format,
// see netlist/io.hpp) and emit metrics, an SVG plot, run reports, and
// spatial heatmaps. This is the adoption path for users with their own
// designs:
//
//   mebl_route_cli design.mebl [--baseline] [--threads 8] [--svg out.svg]
//                  [--report run.json] [--heatmap dir/]
//
// With no file argument a demo design is generated (--demo picks which),
// saved next to the outputs, and routed — so the binary is also a runnable
// example.

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "eval/congestion.hpp"
#include "eval/svg_writer.hpp"
#include "netlist/io.hpp"
#include "place/pin_refine.hpp"
#include "report/report.hpp"
#include "report/spatial.hpp"
#include "serve/client.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace {

void usage() {
  std::cout <<
      "usage: mebl_route_cli [design.mebl] [options]\n"
      "  --baseline          route with the conventional (stitch-oblivious) flow\n"
      "  --demo NAME         circuit to generate when no design file is given\n"
      "                      (default S9234; e.g. Struct, Primary1, S13207)\n"
      "  --threads N         worker threads (0 = one per hardware thread);\n"
      "                      results are identical for every N\n"
      "  --progress          print per-stage progress while routing\n"
      "  --refine-pins       run stitch-aware pin refinement before routing\n"
      "  --svg PATH          write the routed layout as SVG\n"
      "  --heatmap DIR       write congestion/via-density heatmaps (CSV + SVG)\n"
      "                      into DIR; '-' prints the ASCII congestion map\n"
      "  --report PATH       write the run quality report (JSON) to PATH\n"
      "  --report-canonical  omit wall-clock data from the report, making the\n"
      "                      bytes reproducible across runs and thread counts\n"
      "  --save PATH         write the (possibly refined) design back out\n"
      "  --trace PATH        write a Chrome/Perfetto trace of the routing run\n"
      "  --stats PATH        write the telemetry counters/histograms as JSON\n"
      "\n"
      "Client mode (talk to a running mebl_serve daemon instead of routing\n"
      "in-process; composes with --report and --progress):\n"
      "  --connect SOCK      load + route the design on the daemon at SOCK\n"
      "  --name NAME         resident-design key on the daemon (default:\n"
      "                      the demo name, or 'design' for a file)\n"
      "  --eco LIST          after routing, incrementally reroute the\n"
      "                      comma-separated nets (ids or names)\n"
      "  --eco-verify        run the daemon's bit-identity check on the ECO\n"
      "  --metrics           print the daemon's Prometheus metrics and exit\n"
      "  --dump              ask the daemon to dump its flight recorder and\n"
      "                      print the dump path\n"
      "  --log-level L       logging threshold: debug, info, warn, error\n"
      "\n"
      "All output sinks compose: one routing run feeds --report, --heatmap,\n"
      "--svg, --trace, --stats, and --progress simultaneously. The report's\n"
      "stage counter snapshots are taken at the same stage boundaries the\n"
      "progress observer reports.\n";
}

/// --progress: push-style pipeline reporting on stderr. Also the minimal
/// worked example of the core::ProgressObserver interface.
class StderrProgress final : public mebl::core::ProgressObserver {
 public:
  void on_stage_begin(mebl::core::Stage stage) override {
    std::cerr << "[stage] " << mebl::core::stage_name(stage) << "...\n";
  }
  void on_stage_end(mebl::core::Stage stage, double seconds) override {
    std::cerr << "[stage] " << mebl::core::stage_name(stage) << " done in "
              << seconds << " s\n";
  }
  void on_nets_routed(std::size_t routed, std::size_t total) override {
    // Only print every ~5% so big designs do not flood the terminal.
    if (total == 0) return;
    const std::size_t step = total < 20 ? 1 : total / 20;
    if (routed >= last_reported_ + step || routed == total) {
      last_reported_ = routed;
      std::cerr << "[global] " << routed << "/" << total << " nets\n";
    }
  }

 private:
  std::size_t last_reported_ = 0;
};

/// Print the quality block of a daemon "done" payload.
void print_remote_quality(const mebl::report::Json& payload) {
  const mebl::report::Json* report = payload.get("report");
  const mebl::report::Json* quality =
      report != nullptr ? report->get("quality") : nullptr;
  if (quality == nullptr) return;
  const auto num = [&](const char* key) -> double {
    const mebl::report::Json* v = quality->get(key);
    return v != nullptr ? v->as_double() : 0.0;
  };
  std::cout << "routability        : " << num("routability_pct") << "% ("
            << num("routed_nets") << "/" << num("total_nets") << " nets)\n"
            << "wirelength         : " << num("wirelength") << "\n"
            << "vias               : " << num("vias") << "\n"
            << "short polygons     : " << num("short_polygons") << "\n"
            << "via violations     : " << num("via_violations") << "\n";
  const mebl::report::Json* seconds = payload.get("seconds");
  if (seconds != nullptr)
    std::cout << "server seconds     : " << seconds->as_double() << "\n";
}

/// --metrics / --dump: one inline request against the daemon, print the
/// answer, exit. No design is loaded or routed.
int run_inspect_mode(const std::string& socket_path, bool metrics) {
  using namespace mebl;

  serve::Client client;
  if (!client.connect(socket_path)) {
    std::cerr << "cannot connect to mebl_serve at " << socket_path << "\n";
    return 1;
  }
  serve::Request request;
  request.op = metrics ? serve::Op::kMetrics : serve::Op::kDump;
  const auto response = client.call(std::move(request));
  if (!response || response->type == "error") {
    std::cerr << (metrics ? "metrics" : "dump") << " failed: "
              << (response ? response->error : std::string("connection lost"))
              << "\n";
    return 1;
  }
  if (metrics) {
    const report::Json* text = response->payload.get("text");
    if (text == nullptr) {
      std::cerr << "daemon response carries no metrics text\n";
      return 1;
    }
    std::cout << text->as_string();
  } else {
    const report::Json* path = response->payload.get("path");
    const report::Json* events = response->payload.get("events");
    std::cout << "flight recorder dumped to "
              << (path != nullptr ? path->as_string() : std::string("?"))
              << " (" << (events != nullptr ? events->as_int() : 0)
              << " events)\n";
  }
  return 0;
}

/// Route (and optionally ECO) on a mebl_serve daemon instead of in-process.
int run_connect_mode(const std::string& socket_path, std::string design_name,
                     const mebl::netlist::Design& design,
                     const std::string& eco_list, bool eco_verify,
                     const std::string& report_path, bool progress) {
  using namespace mebl;

  serve::Client client;
  if (!client.connect(socket_path)) {
    std::cerr << "cannot connect to mebl_serve at " << socket_path << "\n";
    return 1;
  }

  const auto progress_fn = [progress](const serve::Response& event) {
    if (!progress || event.type != "progress") return;
    const report::Json* stage = event.payload.get("stage");
    const report::Json* kind = event.payload.get("event");
    if (stage != nullptr && kind != nullptr)
      std::cerr << "[serve] " << kind->as_string() << " "
                << stage->as_string() << "\n";
  };
  const auto fail = [](const char* what,
                       const std::optional<serve::Response>& response) {
    std::cerr << what << " failed: "
              << (response ? (response->error.empty() ? response->type
                                                      : response->error)
                           : std::string("connection lost"))
              << "\n";
    return 1;
  };

  std::ostringstream design_text;
  netlist::write_design(design_text, design);
  serve::Request load;
  load.op = serve::Op::kLoad;
  load.design = design_name;
  load.design_text = design_text.str();
  auto response = client.call(std::move(load));
  if (!response || response->type != "done") return fail("load", response);
  std::cout << "loaded '" << design_name << "' onto the daemon\n";

  serve::Request route;
  route.op = serve::Op::kRoute;
  route.design = design_name;
  response = client.call(std::move(route), progress_fn);
  if (!response || response->type != "done") return fail("route", response);
  std::cout << "routed '" << design_name << "' remotely\n";
  print_remote_quality(response->payload);

  if (!eco_list.empty()) {
    serve::Request eco;
    eco.op = serve::Op::kEco;
    eco.design = design_name;
    eco.verify = eco_verify;
    std::istringstream tokens(eco_list);
    for (std::string token; std::getline(tokens, token, ',');) {
      if (token.empty()) continue;
      const bool numeric = token.find_first_not_of("0123456789") ==
                           std::string::npos;
      if (numeric)
        eco.nets.push_back(static_cast<netlist::NetId>(std::stol(token)));
      else
        eco.net_names.push_back(token);
    }
    response = client.call(std::move(eco), progress_fn);
    if (!response || response->type != "done") return fail("eco", response);
    std::cout << "eco reroute done\n";
    if (const report::Json* summary = response->payload.get("eco")) {
      const report::Json* dirty = summary->get("dirty_subnets");
      if (dirty != nullptr)
        std::cout << "dirty subnets      : " << dirty->as_int() << "\n";
      const report::Json* verified = summary->get("verified");
      if (verified != nullptr)
        std::cout << "bit-identity check : "
                  << (verified->as_bool() ? "ok" : "MISMATCH") << "\n";
    }
    print_remote_quality(response->payload);
  }

  if (!report_path.empty()) {
    const report::Json* report = response->payload.get("report");
    if (report == nullptr) {
      std::cerr << "daemon response carries no report\n";
      return 1;
    }
    std::ofstream out(report_path);
    report->dump(out);
    out << "\n";
    if (!out) {
      std::cerr << "cannot write " << report_path << "\n";
      return 1;
    }
    std::cout << "wrote run report to " << report_path << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mebl;

  std::string design_path;
  std::string demo_name = "S9234";
  std::string svg_path;
  std::string save_path;
  std::string trace_path;
  std::string stats_path;
  std::string report_path;
  std::string heatmap_dir;
  std::string connect_socket;
  std::string remote_name;
  std::string eco_list;
  bool eco_verify = false;
  bool remote_metrics = false;
  bool remote_dump = false;
  bool baseline = false;
  bool refine = false;
  bool progress = false;
  bool report_canonical = false;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline") {
      baseline = true;
    } else if (arg == "--demo" && i + 1 < argc) {
      demo_name = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--progress") {
      progress = true;
    } else if (arg == "--refine-pins") {
      refine = true;
    } else if (arg == "--heatmap" && i + 1 < argc) {
      heatmap_dir = argv[++i];
    } else if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (arg == "--report-canonical") {
      report_canonical = true;
    } else if (arg == "--svg" && i + 1 < argc) {
      svg_path = argv[++i];
    } else if (arg == "--save" && i + 1 < argc) {
      save_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--stats" && i + 1 < argc) {
      stats_path = argv[++i];
    } else if (arg == "--connect" && i + 1 < argc) {
      connect_socket = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      remote_name = argv[++i];
    } else if (arg == "--eco" && i + 1 < argc) {
      eco_list = argv[++i];
    } else if (arg == "--eco-verify") {
      eco_verify = true;
    } else if (arg == "--metrics") {
      remote_metrics = true;
    } else if (arg == "--dump") {
      remote_dump = true;
    } else if (arg == "--log-level" && i + 1 < argc) {
      const auto level = util::log_level_from_name(argv[++i]);
      if (!level) {
        std::cerr << "bad --log-level '" << argv[i]
                  << "' (debug, info, warn, error)\n";
        return 2;
      }
      util::Log::set_level(*level);
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      design_path = arg;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      usage();
      return 2;
    }
  }

  // --metrics / --dump are pure daemon inspection: no design involved.
  if (remote_metrics || remote_dump) {
    if (connect_socket.empty()) {
      std::cerr << "--metrics/--dump need --connect (they query a running "
                   "daemon)\n";
      return 2;
    }
    return run_inspect_mode(connect_socket, remote_metrics);
  }

  // Load the design, or synthesize a demo one.
  std::optional<netlist::Design> design;
  if (!design_path.empty()) {
    design = netlist::load_design(design_path);
    if (!design) {
      std::cerr << "cannot load design from " << design_path << "\n";
      return 1;
    }
    std::cout << "loaded " << design_path << ": " << design->grid.width()
              << "x" << design->grid.height() << " tracks, "
              << design->netlist.num_nets() << " nets\n";
  } else {
    const auto* spec = bench_suite::find_spec(demo_name);
    if (spec == nullptr) {
      std::cerr << "unknown demo circuit '" << demo_name << "'\n";
      return 2;
    }
    std::cout << "no design given; generating the " << demo_name
              << "-like demo circuit\n";
    auto circuit = bench_suite::generate_circuit(*spec, {}, 1);
    design = netlist::Design{circuit.grid, std::move(circuit.netlist)};
  }

  if (!connect_socket.empty()) {
    if (remote_name.empty())
      remote_name = design_path.empty() ? demo_name : "design";
    return run_connect_mode(connect_socket, remote_name, *design, eco_list,
                            eco_verify, report_path, progress);
  }
  if (!eco_list.empty() || eco_verify) {
    std::cerr << "--eco/--eco-verify need --connect (a running daemon keeps "
                 "the resident state)\n";
    return 2;
  }

  if (refine) {
    const auto stats = place::refine_pins(design->grid, design->netlist);
    std::cout << "pin refinement: moved " << stats.pins_moved
              << " pins (on-line " << stats.pins_on_lines_before << " -> "
              << stats.pins_on_lines_after << ", unfriendly "
              << stats.pins_unfriendly_before << " -> "
              << stats.pins_unfriendly_after << ")\n";
  }
  if (!save_path.empty()) {
    if (!netlist::save_design(save_path, *design)) {
      std::cerr << "cannot save design to " << save_path << "\n";
      return 1;
    }
    std::cout << "saved design to " << save_path << "\n";
  }

  if (!trace_path.empty()) telemetry::Tracer::enable();
  auto config = baseline ? core::RouterConfig::baseline()
                         : core::RouterConfig::stitch_aware();
  config.with_threads(threads);
  core::StitchAwareRouter router(design->grid, design->netlist, config);
  StderrProgress reporter;
  if (progress) router.set_observer(&reporter);
  const auto result = router.run();
  if (!trace_path.empty()) {
    if (!telemetry::Tracer::write_chrome_trace_file(trace_path)) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    std::cout << "wrote trace to " << trace_path
              << " (open in ui.perfetto.dev or chrome://tracing)\n";
  }
  if (!stats_path.empty()) {
    if (!telemetry::write_stats_file(stats_path)) {
      std::cerr << "cannot write " << stats_path << "\n";
      return 1;
    }
    std::cout << "wrote stats to " << stats_path << "\n";
  }
  if (!report_path.empty()) {
    const auto report =
        report::build_run_report(result, design->grid, design->netlist);
    report::WriteOptions options;
    options.include_timing = !report_canonical;
    if (!report::write_report_file(report, report_path, options)) {
      std::cerr << "cannot write " << report_path << "\n";
      return 1;
    }
    std::cout << "wrote run report to " << report_path
              << (report_canonical ? " (canonical)" : "") << "\n";
  }

  std::cout << "routability        : " << result.metrics.routability_pct()
            << "% (" << result.metrics.routed_nets << "/"
            << result.metrics.total_nets << " nets)\n"
            << "wirelength         : " << result.metrics.wirelength << "\n"
            << "vias               : " << result.metrics.vias << "\n"
            << "short polygons     : " << result.metrics.short_polygons << "\n"
            << "via violations     : " << result.metrics.via_violations << "\n"
            << "vertical violations: " << result.metrics.vertical_violations
            << "\n"
            << "stage seconds      :";
  const char* separator = " ";
  for (const core::StageRecord& stage : result.stages) {
    std::cout << separator << stage.name << " " << stage.seconds;
    separator = " / ";
  }
  std::cout << "\n";

  if (!svg_path.empty()) {
    if (!eval::write_svg(*result.grid, svg_path)) {
      std::cerr << "cannot write " << svg_path << "\n";
      return 1;
    }
    std::cout << "wrote " << svg_path << "\n";
  }
  if (heatmap_dir == "-") {
    const auto congestion = eval::measure_congestion(*result.grid);
    std::cout << "vertical congestion (peak " << congestion.peak() << "):\n"
              << eval::ascii_heatmap(congestion, /*vertical=*/true);
  } else if (!heatmap_dir.empty()) {
    if (!report::write_heatmap_dir(heatmap_dir, *result.grid)) {
      std::cerr << "cannot write heatmaps into " << heatmap_dir << "\n";
      return 1;
    }
    std::cout << "wrote heatmaps into " << heatmap_dir << "/\n";
  }
  return result.metrics.vertical_violations == 0 ? 0 : 1;
}
