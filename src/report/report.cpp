#include "report/report.hpp"

#include <fstream>
#include <utility>

#include "eval/congestion.hpp"
#include "eval/yield.hpp"
#include "netlist/decompose.hpp"
#include "report/spatial.hpp"
#include "telemetry/keys.hpp"

namespace mebl::report {

namespace {

/// Counters serialize with zero values omitted, so a report's counter set
/// does not depend on which unrelated counters other runs in the same
/// process happened to register. Execution-dependent counters (wall-clock
/// *_ns timings, per-worker scratch reuses — see telemetry::keys) drop out
/// of the canonical (include_timing = false) form: they vary with the
/// thread count, which would break canonical cross-thread byte-identity.
Json counters_to_json(const telemetry::StatsSnapshot& stats,
                      bool include_timing) {
  Json out = Json::object();
  for (const auto& [name, value] : stats.counters) {
    if (value == 0) continue;
    if (!include_timing && telemetry::keys::execution_dependent(name)) continue;
    out[name] = value;
  }
  return out;
}

telemetry::StatsSnapshot counters_from_json(const Json* json) {
  telemetry::StatsSnapshot stats;
  if (json == nullptr || json->kind() != Json::Kind::kObject) return stats;
  // Json objects iterate name-sorted, the order StatsSnapshot::value needs.
  for (const auto& [name, value] : json->members())
    stats.counters.emplace_back(name, value.as_int());
  return stats;
}

std::int64_t get_int(const Json& json, std::string_view key) {
  const Json* value = json.get(key);
  return value != nullptr && value->is_number() ? value->as_int() : 0;
}

double get_double(const Json& json, std::string_view key) {
  const Json* value = json.get(key);
  return value != nullptr && value->is_number() ? value->as_double() : 0.0;
}

bool get_bool(const Json& json, std::string_view key) {
  const Json* value = json.get(key);
  return value != nullptr && value->kind() == Json::Kind::kBool &&
         value->as_bool();
}

std::string get_string(const Json& json, std::string_view key) {
  const Json* value = json.get(key);
  return value != nullptr && value->kind() == Json::Kind::kString
             ? value->as_string()
             : std::string();
}

}  // namespace

Json to_json(const RunReport& report, const WriteOptions& options) {
  Json root = Json::object();
  root["schema"] = kRunReportSchema;
  root["version"] = report.version;

  Json& design = root["design"];
  design["width"] = static_cast<std::int64_t>(report.design.width);
  design["height"] = static_cast<std::int64_t>(report.design.height);
  design["routing_layers"] = report.design.routing_layers;
  design["tile_size"] = static_cast<std::int64_t>(report.design.tile_size);
  design["tiles_x"] = report.design.tiles_x;
  design["tiles_y"] = report.design.tiles_y;
  design["nets"] = report.design.nets;
  design["pins"] = report.design.pins;
  design["stitch_lines"] = report.design.stitch_lines;

  Json stages = Json::array();
  for (const core::StageRecord& stage : report.stages) {
    Json entry = Json::object();
    entry["name"] = stage.name;
    if (options.include_timing) entry["seconds"] = stage.seconds;
    entry["counters"] = counters_to_json(stage.counters, options.include_timing);
    stages.push_back(std::move(entry));
  }
  root["stages"] = std::move(stages);

  Json& quality = root["quality"];
  quality["routability_pct"] = report.metrics.routability_pct();
  quality["routed_nets"] = report.metrics.routed_nets;
  quality["total_nets"] = report.metrics.total_nets;
  quality["wirelength"] = report.metrics.wirelength;
  quality["vias"] = report.metrics.vias;
  quality["via_violations"] = report.metrics.via_violations;
  quality["vertical_violations"] = report.metrics.vertical_violations;
  quality["short_polygons"] = report.metrics.short_polygons;
  Json& global = quality["global"];
  global["wirelength"] = report.global.wirelength;
  global["total_vertex_overflow"] = report.global.total_vertex_overflow;
  global["max_vertex_overflow"] = report.global.max_vertex_overflow;
  global["total_edge_overflow"] = report.global.total_edge_overflow;
  Json& yield = quality["yield"];
  yield["expected_defects"] = report.yield.expected_defects;
  yield["yield"] = report.yield.yield;

  Json& heatmaps = root["heatmaps"];
  Json& congestion = heatmaps["congestion"];
  congestion["tiles_x"] = report.congestion.tiles_x;
  congestion["tiles_y"] = report.congestion.tiles_y;
  congestion["horizontal_peak"] = report.congestion.horizontal_peak;
  congestion["horizontal_mean"] = report.congestion.horizontal_mean;
  congestion["vertical_peak"] = report.congestion.vertical_peak;
  congestion["vertical_mean"] = report.congestion.vertical_mean;
  congestion["escape_peak"] = report.congestion.escape_peak;
  Json& via_density = heatmaps["via_density"];
  via_density["tiles_x"] = report.via_density.tiles_x;
  via_density["tiles_y"] = report.via_density.tiles_y;
  via_density["vias"] = report.via_density.vias;
  via_density["unfriendly_vias"] = report.via_density.unfriendly_vias;
  via_density["peak_tile_vias"] = report.via_density.peak_tile_vias;

  Json nets = Json::array();
  for (const NetAudit& audit : report.nets) {
    Json entry = Json::object();
    entry["net"] = static_cast<std::int64_t>(audit.net);
    entry["name"] = audit.name;
    entry["routed"] = audit.routed;
    entry["stitch_crossings"] = audit.stitch_crossings;
    entry["bad_ends"] = audit.bad_ends;
    entry["ripped_runs"] = audit.ripped_runs;
    entry["via_violations"] = audit.via_violations;
    entry["escape_nodes"] = audit.escape_nodes;
    nets.push_back(std::move(entry));
  }
  root["nets"] = std::move(nets);

  root["counters"] = counters_to_json(report.counters, options.include_timing);
  root["ilp_budget_exceeded"] = report.ilp_budget_exceeded;
  root["cancelled"] = report.cancelled;
  if (report.cancelled)
    root["cancel_reason"] = exec::stop_reason_name(report.cancel_reason);
  if (options.include_timing)
    root["timing"]["total_seconds"] = report.total_seconds;
  return root;
}

std::string serialize(const RunReport& report, const WriteOptions& options) {
  return to_json(report, options).dump();
}

std::optional<RunReport> parse_run_report(const Json& json) {
  if (get_string(json, "schema") != kRunReportSchema) return std::nullopt;
  if (get_int(json, "version") != kSchemaVersion) return std::nullopt;

  RunReport report;
  report.version = static_cast<int>(get_int(json, "version"));

  if (const Json* design = json.get("design")) {
    report.design.width = static_cast<geom::Coord>(get_int(*design, "width"));
    report.design.height = static_cast<geom::Coord>(get_int(*design, "height"));
    report.design.routing_layers =
        static_cast<int>(get_int(*design, "routing_layers"));
    report.design.tile_size =
        static_cast<geom::Coord>(get_int(*design, "tile_size"));
    report.design.tiles_x = static_cast<int>(get_int(*design, "tiles_x"));
    report.design.tiles_y = static_cast<int>(get_int(*design, "tiles_y"));
    report.design.nets = get_int(*design, "nets");
    report.design.pins = get_int(*design, "pins");
    report.design.stitch_lines = get_int(*design, "stitch_lines");
  }

  if (const Json* stages = json.get("stages");
      stages != nullptr && stages->kind() == Json::Kind::kArray) {
    for (const Json& entry : stages->items()) {
      core::StageRecord stage;
      stage.name = get_string(entry, "name");
      stage.seconds = get_double(entry, "seconds");
      stage.counters = counters_from_json(entry.get("counters"));
      report.stages.push_back(std::move(stage));
    }
  }

  if (const Json* quality = json.get("quality")) {
    report.metrics.routed_nets =
        static_cast<int>(get_int(*quality, "routed_nets"));
    report.metrics.total_nets =
        static_cast<int>(get_int(*quality, "total_nets"));
    report.metrics.wirelength = get_int(*quality, "wirelength");
    report.metrics.vias = static_cast<int>(get_int(*quality, "vias"));
    report.metrics.via_violations =
        static_cast<int>(get_int(*quality, "via_violations"));
    report.metrics.vertical_violations =
        static_cast<int>(get_int(*quality, "vertical_violations"));
    report.metrics.short_polygons =
        static_cast<int>(get_int(*quality, "short_polygons"));
    if (const Json* global = quality->get("global")) {
      report.global.wirelength = get_int(*global, "wirelength");
      report.global.total_vertex_overflow =
          static_cast<int>(get_int(*global, "total_vertex_overflow"));
      report.global.max_vertex_overflow =
          static_cast<int>(get_int(*global, "max_vertex_overflow"));
      report.global.total_edge_overflow =
          static_cast<int>(get_int(*global, "total_edge_overflow"));
    }
    if (const Json* yield = quality->get("yield")) {
      report.yield.expected_defects = get_double(*yield, "expected_defects");
      report.yield.yield = get_double(*yield, "yield");
    }
  }

  if (const Json* heatmaps = json.get("heatmaps")) {
    if (const Json* congestion = heatmaps->get("congestion")) {
      report.congestion.tiles_x =
          static_cast<int>(get_int(*congestion, "tiles_x"));
      report.congestion.tiles_y =
          static_cast<int>(get_int(*congestion, "tiles_y"));
      report.congestion.horizontal_peak =
          get_double(*congestion, "horizontal_peak");
      report.congestion.horizontal_mean =
          get_double(*congestion, "horizontal_mean");
      report.congestion.vertical_peak =
          get_double(*congestion, "vertical_peak");
      report.congestion.vertical_mean =
          get_double(*congestion, "vertical_mean");
      report.congestion.escape_peak = get_double(*congestion, "escape_peak");
    }
    if (const Json* via_density = heatmaps->get("via_density")) {
      report.via_density.tiles_x =
          static_cast<int>(get_int(*via_density, "tiles_x"));
      report.via_density.tiles_y =
          static_cast<int>(get_int(*via_density, "tiles_y"));
      report.via_density.vias = get_int(*via_density, "vias");
      report.via_density.unfriendly_vias =
          get_int(*via_density, "unfriendly_vias");
      report.via_density.peak_tile_vias =
          get_int(*via_density, "peak_tile_vias");
    }
  }

  if (const Json* nets = json.get("nets");
      nets != nullptr && nets->kind() == Json::Kind::kArray) {
    for (const Json& entry : nets->items()) {
      NetAudit audit;
      audit.net = static_cast<netlist::NetId>(get_int(entry, "net"));
      audit.name = get_string(entry, "name");
      audit.routed = get_bool(entry, "routed");
      audit.stitch_crossings = get_int(entry, "stitch_crossings");
      audit.bad_ends = static_cast<int>(get_int(entry, "bad_ends"));
      audit.ripped_runs = static_cast<int>(get_int(entry, "ripped_runs"));
      audit.via_violations =
          static_cast<int>(get_int(entry, "via_violations"));
      audit.escape_nodes = get_int(entry, "escape_nodes");
      report.nets.push_back(std::move(audit));
    }
  }

  report.counters = counters_from_json(json.get("counters"));
  report.ilp_budget_exceeded = get_bool(json, "ilp_budget_exceeded");
  report.cancelled = get_bool(json, "cancelled");
  if (const std::string reason = get_string(json, "cancel_reason");
      reason == "deadline")
    report.cancel_reason = exec::StopReason::kDeadline;
  else if (reason == "user")
    report.cancel_reason = exec::StopReason::kUser;
  if (const Json* timing = json.get("timing"))
    report.total_seconds = get_double(*timing, "total_seconds");
  return report;
}

std::optional<RunReport> parse_run_report_text(std::string_view text) {
  const std::optional<Json> json = Json::parse(text);
  if (!json.has_value()) return std::nullopt;
  return parse_run_report(*json);
}

bool write_report_file(const RunReport& report, const std::string& path,
                       const WriteOptions& options) {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize(report, options);
  return out.good();
}

RunReport build_run_report(const core::RoutingResult& result,
                           const grid::RoutingGrid& grid,
                           const netlist::Netlist& netlist) {
  RunReport report;
  report.design.width = grid.width();
  report.design.height = grid.height();
  report.design.routing_layers = grid.num_routing_layers();
  report.design.tile_size = grid.tile_size();
  report.design.tiles_x = grid.tiles_x();
  report.design.tiles_y = grid.tiles_y();
  report.design.nets = static_cast<std::int64_t>(netlist.num_nets());
  report.design.pins = static_cast<std::int64_t>(netlist.num_pins());
  report.design.stitch_lines =
      static_cast<std::int64_t>(grid.stitch().lines().size());

  report.stages = result.stages;
  for (const core::StageRecord& stage : report.stages)
    report.total_seconds += stage.seconds;

  report.metrics = result.metrics;
  report.global.wirelength = result.global.wirelength;
  report.global.total_vertex_overflow = result.global.total_vertex_overflow;
  report.global.max_vertex_overflow = result.global.max_vertex_overflow;
  report.global.total_edge_overflow = result.global.total_edge_overflow;
  report.counters = result.stats();
  report.ilp_budget_exceeded = result.ilp_budget_exceeded;
  report.cancelled = result.cancelled;
  report.cancel_reason = result.stop_reason;

  if (result.grid != nullptr) {
    const eval::CongestionMap congestion =
        eval::measure_congestion(*result.grid);
    report.congestion.tiles_x = congestion.tiles_x;
    report.congestion.tiles_y = congestion.tiles_y;
    report.congestion.horizontal_mean = 0.0;
    double h_total = 0.0, v_total = 0.0;
    for (const double v : congestion.horizontal) {
      report.congestion.horizontal_peak =
          std::max(report.congestion.horizontal_peak, v);
      h_total += v;
    }
    for (const double v : congestion.vertical) {
      report.congestion.vertical_peak =
          std::max(report.congestion.vertical_peak, v);
      v_total += v;
    }
    for (const double v : congestion.escape_use)
      report.congestion.escape_peak =
          std::max(report.congestion.escape_peak, v);
    if (!congestion.horizontal.empty()) {
      report.congestion.horizontal_mean =
          h_total / static_cast<double>(congestion.horizontal.size());
      report.congestion.vertical_mean =
          v_total / static_cast<double>(congestion.vertical.size());
    }

    report.via_density = measure_via_density(*result.grid).summary();

    const eval::YieldReport yield = eval::estimate_yield(*result.grid);
    report.yield.expected_defects = yield.expected_defects;
    report.yield.yield = yield.yield;

    report.nets =
        collect_net_audits(*result.grid, netlist, result.plan,
                           netlist::decompose_all(netlist), result.detail);
  }
  return report;
}

// ------------------------------------------------------- bench artifacts

QualitySummary QualitySummary::from(const core::RoutingResult& result,
                                    double seconds) {
  QualitySummary summary;
  summary.routability_pct = result.metrics.routability_pct();
  summary.routed_nets = result.metrics.routed_nets;
  summary.total_nets = result.metrics.total_nets;
  summary.wirelength = result.metrics.wirelength;
  summary.vias = result.metrics.vias;
  summary.via_violations = result.metrics.via_violations;
  summary.vertical_violations = result.metrics.vertical_violations;
  summary.short_polygons = result.metrics.short_polygons;
  summary.seconds = seconds;
  return summary;
}

Json::Object QualitySummary::to_metrics() const {
  Json::Object metrics;
  metrics["routability_pct"] = routability_pct;
  metrics["routed_nets"] = routed_nets;
  metrics["total_nets"] = total_nets;
  metrics["wirelength"] = wirelength;
  metrics["vias"] = vias;
  metrics["via_violations"] = via_violations;
  metrics["vertical_violations"] = vertical_violations;
  metrics["short_polygons"] = short_polygons;
  metrics["seconds"] = seconds;
  return metrics;
}

Json BenchReport::to_json() const {
  Json root = Json::object();
  root["schema"] = kBenchReportSchema;
  root["version"] = kSchemaVersion;
  root["bench"] = bench;
  Json out_rows = Json::array();
  for (const BenchRow& row : rows) {
    Json entry = Json::object();
    entry["circuit"] = row.circuit;
    entry["variant"] = row.variant;
    entry["metrics"] = Json(row.metrics);
    out_rows.push_back(std::move(entry));
  }
  root["rows"] = std::move(out_rows);
  return root;
}

std::string BenchReport::serialize() const { return to_json().dump(); }

std::optional<BenchReport> BenchReport::parse(const Json& json) {
  if (get_string(json, "schema") != kBenchReportSchema) return std::nullopt;
  if (get_int(json, "version") != kSchemaVersion) return std::nullopt;
  BenchReport report;
  report.bench = get_string(json, "bench");
  const Json* rows = json.get("rows");
  if (rows == nullptr || rows->kind() != Json::Kind::kArray)
    return std::nullopt;
  for (const Json& entry : rows->items()) {
    BenchRow row;
    row.circuit = get_string(entry, "circuit");
    row.variant = get_string(entry, "variant");
    if (const Json* metrics = entry.get("metrics");
        metrics != nullptr && metrics->kind() == Json::Kind::kObject)
      row.metrics = metrics->members();
    report.rows.push_back(std::move(row));
  }
  return report;
}

bool BenchReport::write_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize();
  return out.good();
}

}  // namespace mebl::report
