#pragma once

// mebl::report — per-run quality reports and bench artifacts.
//
// A RunReport is the machine-readable record of one routing run: a
// versioned JSON document carrying per-stage snapshots (telemetry counter
// deltas + wall time for global routing, layer assignment, track
// assignment, detailed routing, and metric evaluation), the paper's quality
// metrics (wirelength, vias, #VV, #SP, routability, overflow), the yield
// model output, spatial heatmap summaries (gcell congestion, via density in
// stitch unfriendly regions), and per-net audit records. `mebl_report diff`
// compares two such documents under configured tolerances, which makes
// run-to-run quality comparison a CI primitive (DESIGN.md §8).
//
// Serialization is deterministic: name-sorted members, kind-stable numbers
// (report/json.hpp), zero-valued counters omitted. With
// WriteOptions::include_timing = false every wall-clock field (stage
// seconds, total seconds, *_ns counters) is dropped, so two runs of the
// same seed produce byte-identical reports for any thread count — the form
// the determinism tests and the CI smoke gate compare.

#include <optional>
#include <string>
#include <vector>

#include "core/stitch_router.hpp"
#include "report/json.hpp"

namespace mebl::report {

inline constexpr char kRunReportSchema[] = "mebl.run_report";
inline constexpr char kBenchReportSchema[] = "mebl.bench_report";
inline constexpr int kSchemaVersion = 1;

struct WriteOptions {
  /// Include wall-clock data (stage/total seconds, counters named *_ns).
  /// Off = the canonical byte-reproducible form.
  bool include_timing = true;
};

/// Static facts about the routed design, so a report is self-describing.
struct DesignInfo {
  geom::Coord width = 0;
  geom::Coord height = 0;
  int routing_layers = 0;
  geom::Coord tile_size = 0;
  int tiles_x = 0;
  int tiles_y = 0;
  std::int64_t nets = 0;
  std::int64_t pins = 0;
  std::int64_t stitch_lines = 0;
};

struct GlobalSummary {
  std::int64_t wirelength = 0;
  int total_vertex_overflow = 0;
  int max_vertex_overflow = 0;
  int total_edge_overflow = 0;
};

struct YieldSummary {
  double expected_defects = 0.0;
  double yield = 1.0;
};

/// Aggregate view of the gcell congestion map (full per-tile data is the
/// CSV/SVG export, see report/spatial.hpp).
struct CongestionSummary {
  int tiles_x = 0;
  int tiles_y = 0;
  double horizontal_peak = 0.0;
  double horizontal_mean = 0.0;
  double vertical_peak = 0.0;
  double vertical_mean = 0.0;
  double escape_peak = 0.0;
};

/// Aggregate view of the via-density map over stitch unfriendly regions.
struct ViaDensitySummary {
  int tiles_x = 0;
  int tiles_y = 0;
  std::int64_t vias = 0;
  std::int64_t unfriendly_vias = 0;
  std::int64_t peak_tile_vias = 0;
};

/// Stitch-hazard audit of one net.
struct NetAudit {
  netlist::NetId net = -1;
  std::string name;
  bool routed = true;
  /// Stitching lines crossed by the net's horizontal wires (occupied nodes
  /// on line columns of horizontal layers).
  std::int64_t stitch_crossings = 0;
  /// Bad ends left by track assignment across the net's runs.
  int bad_ends = 0;
  /// Runs ripped by track assignment (re-routed by the detailed router).
  int ripped_runs = 0;
  /// Vias of this net on stitching-line columns.
  int via_violations = 0;
  /// Escape-region nodes the net occupies — the escape cost it paid.
  std::int64_t escape_nodes = 0;
};

/// The complete per-run quality report; see the schema notes above.
struct RunReport {
  int version = kSchemaVersion;
  DesignInfo design;
  std::vector<core::StageRecord> stages;
  eval::RouteMetrics metrics;
  GlobalSummary global;
  YieldSummary yield;
  CongestionSummary congestion;
  ViaDensitySummary via_density;
  std::vector<NetAudit> nets;
  /// Whole-run counter delta (RoutingResult::stats()).
  telemetry::StatsSnapshot counters;
  double total_seconds = 0.0;
  bool ilp_budget_exceeded = false;
  bool cancelled = false;
  /// Why the run stopped early ("user" or "deadline"); kNone — and absent
  /// from the serialized form — when the run completed. Only emitted when
  /// cancelled is true, so completed-run reports keep their exact bytes.
  exec::StopReason cancel_reason = exec::StopReason::kNone;
};

[[nodiscard]] Json to_json(const RunReport& report,
                           const WriteOptions& options = {});
[[nodiscard]] std::string serialize(const RunReport& report,
                                    const WriteOptions& options = {});
[[nodiscard]] std::optional<RunReport> parse_run_report(const Json& json);
/// Named differently from the Json overload because a string literal would
/// convert to either Json or string_view ambiguously.
[[nodiscard]] std::optional<RunReport> parse_run_report_text(
    std::string_view text);
[[nodiscard]] bool write_report_file(const RunReport& report,
                                     const std::string& path,
                                     const WriteOptions& options = {});

/// Derive a full RunReport from a finished routing run; the stage records
/// are the run's own (RoutingResult::stages).
[[nodiscard]] RunReport build_run_report(const core::RoutingResult& result,
                                         const grid::RoutingGrid& grid,
                                         const netlist::Netlist& netlist);

// ------------------------------------------------------- bench artifacts

/// The quality columns every full-pipeline bench row shares.
struct QualitySummary {
  double routability_pct = 100.0;
  int routed_nets = 0;
  int total_nets = 0;
  std::int64_t wirelength = 0;
  int vias = 0;
  int via_violations = 0;
  int vertical_violations = 0;
  int short_polygons = 0;
  double seconds = 0.0;

  [[nodiscard]] static QualitySummary from(const core::RoutingResult& result,
                                           double seconds);
  /// Flat numeric metric map, the row payload of a BenchReport.
  [[nodiscard]] Json::Object to_metrics() const;
};

/// One measured configuration of a bench harness: (circuit, variant) plus a
/// flat map of numeric metrics.
struct BenchRow {
  std::string circuit;
  std::string variant;
  Json::Object metrics;
};

/// The machine-readable artifact of one bench harness run
/// (BENCH_<name>.json); `mebl_report diff` compares two of these row by
/// row, matched on (circuit, variant).
struct BenchReport {
  std::string bench;
  std::vector<BenchRow> rows;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<BenchReport> parse(const Json& json);
  [[nodiscard]] bool write_file(const std::string& path) const;
};

}  // namespace mebl::report
