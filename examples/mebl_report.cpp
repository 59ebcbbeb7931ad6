// Report inspection and regression gating over the JSON artifacts the
// routing pipeline emits (mebl_route_cli --report, bench --json):
//
//   mebl_report show  run.json                 # human summary
//   mebl_report check run.json                 # schema validation
//   mebl_report diff  baseline.json candidate.json [--threshold-file t.json]
//
// `diff` is the CI gate: exit 0 when the candidate is no worse than the
// baseline under the configured tolerances, 1 on a quality or latency
// regression, 2 on usage/IO errors, 3 when the documents are not
// comparable (different schema or version).

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "report/diff.hpp"
#include "report/report.hpp"

namespace {

using namespace mebl::report;

void usage() {
  std::cout <<
      "usage: mebl_report <command> [args]\n"
      "  show  REPORT.json                  print a human-readable summary\n"
      "  check REPORT.json                  validate schema/version (exit 3\n"
      "                                     when unknown)\n"
      "  diff  BASELINE.json CANDIDATE.json [--threshold-file FILE]\n"
      "                                     compare run or bench reports;\n"
      "                                     exit 1 on regression, 3 on\n"
      "                                     schema mismatch\n"
      "\n"
      "Threshold file: {\"tolerances\": {\"wirelength\": {\"rel\": 0.05},\n"
      "\"seconds\": {\"ignore\": true}}}. Metrics keep their built-in\n"
      "tolerance unless overridden.\n";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

int load_json(const std::string& path, Json& out) {
  std::string text;
  if (!read_file(path, text)) {
    std::cerr << "cannot read " << path << "\n";
    return kDiffUsage;
  }
  std::optional<Json> json = Json::parse(text);
  if (!json.has_value()) {
    std::cerr << path << ": invalid JSON\n";
    return kDiffUsage;
  }
  out = *std::move(json);
  return kDiffOk;
}

std::string schema_of(const Json& json) {
  const Json* schema = json.get("schema");
  return schema != nullptr && schema->kind() == Json::Kind::kString
             ? schema->as_string()
             : std::string();
}

int cmd_check(const std::string& path) {
  Json json;
  if (const int rc = load_json(path, json); rc != kDiffOk) return rc;
  const std::string schema = schema_of(json);
  if (schema == kRunReportSchema) {
    if (!parse_run_report(json).has_value()) {
      std::cerr << path << ": run report failed validation\n";
      return kDiffSchemaMismatch;
    }
  } else if (schema == kBenchReportSchema) {
    if (!BenchReport::parse(json).has_value()) {
      std::cerr << path << ": bench report failed validation\n";
      return kDiffSchemaMismatch;
    }
  } else {
    std::cerr << path << ": unknown schema '" << schema << "'\n";
    return kDiffSchemaMismatch;
  }
  std::cout << path << ": valid " << schema << " v"
            << (json.get("version") != nullptr ? json.get("version")->as_int()
                                               : -1)
            << "\n";
  return kDiffOk;
}

void show_run_report(const RunReport& report) {
  std::cout << "design   : " << report.design.width << "x"
            << report.design.height << " tracks, "
            << report.design.routing_layers << " layers, "
            << report.design.nets << " nets, " << report.design.stitch_lines
            << " stitching lines\n";
  std::cout << "quality  : routability "
            << format_double(report.metrics.routability_pct()) << "% ("
            << report.metrics.routed_nets << "/" << report.metrics.total_nets
            << "), WL " << report.metrics.wirelength << ", vias "
            << report.metrics.vias << ", #SP "
            << report.metrics.short_polygons << ", #VV "
            << report.metrics.via_violations << ", vertical "
            << report.metrics.vertical_violations << "\n";
  std::cout << "global   : WL " << report.global.wirelength << ", TVOF "
            << report.global.total_vertex_overflow << ", MVOF "
            << report.global.max_vertex_overflow << "\n";
  std::cout << "yield    : " << format_double(report.yield.yield)
            << " (expected defects "
            << format_double(report.yield.expected_defects) << ")\n";
  std::cout << "congest. : H peak "
            << format_double(report.congestion.horizontal_peak) << " mean "
            << format_double(report.congestion.horizontal_mean) << ", V peak "
            << format_double(report.congestion.vertical_peak) << " mean "
            << format_double(report.congestion.vertical_mean) << "\n";
  std::cout << "vias     : " << report.via_density.vias << " total, "
            << report.via_density.unfriendly_vias
            << " in unfriendly regions, peak tile "
            << report.via_density.peak_tile_vias << "\n";
  for (const auto& stage : report.stages) {
    std::cout << "stage    : " << stage.name;
    if (stage.seconds > 0.0)
      std::cout << " (" << format_double(stage.seconds) << " s)";
    std::cout << " — " << stage.counters.counters.size() << " counters\n";
  }
  std::int64_t unrouted = 0, with_bad_ends = 0, with_violations = 0;
  for (const NetAudit& audit : report.nets) {
    if (!audit.routed) ++unrouted;
    if (audit.bad_ends > 0) ++with_bad_ends;
    if (audit.via_violations > 0) ++with_violations;
  }
  std::cout << "nets     : " << report.nets.size() << " audited, " << unrouted
            << " unrouted, " << with_bad_ends << " with bad ends, "
            << with_violations << " with via violations\n";
  if (report.total_seconds > 0.0)
    std::cout << "time     : " << format_double(report.total_seconds)
              << " s total\n";
}

int cmd_show(const std::string& path) {
  Json json;
  if (const int rc = load_json(path, json); rc != kDiffOk) return rc;
  const std::string schema = schema_of(json);
  if (schema == kRunReportSchema) {
    const auto report = parse_run_report(json);
    if (!report.has_value()) {
      std::cerr << path << ": run report failed validation\n";
      return kDiffSchemaMismatch;
    }
    show_run_report(*report);
    return kDiffOk;
  }
  if (schema == kBenchReportSchema) {
    const auto report = BenchReport::parse(json);
    if (!report.has_value()) {
      std::cerr << path << ": bench report failed validation\n";
      return kDiffSchemaMismatch;
    }
    std::cout << "bench    : " << report->bench << ", " << report->rows.size()
              << " rows\n";
    for (const BenchRow& row : report->rows) {
      std::cout << "  " << row.circuit << " / " << row.variant << ":";
      for (const auto& [name, value] : row.metrics) {
        std::cout << " " << name << "=";
        if (value.kind() == Json::Kind::kInt)
          std::cout << value.as_int();
        else if (value.kind() == Json::Kind::kDouble)
          std::cout << format_double(value.as_double());
        else
          std::cout << "?";
      }
      std::cout << "\n";
    }
    return kDiffOk;
  }
  std::cerr << path << ": unknown schema '" << schema << "'\n";
  return kDiffSchemaMismatch;
}

int cmd_diff(const std::string& baseline_path,
             const std::string& candidate_path,
             const std::string& threshold_path) {
  DiffOptions options;
  if (!threshold_path.empty()) {
    std::string text;
    if (!read_file(threshold_path, text)) {
      std::cerr << "cannot read " << threshold_path << "\n";
      return kDiffUsage;
    }
    const auto parsed = parse_thresholds(text);
    if (!parsed.has_value()) {
      std::cerr << threshold_path << ": invalid threshold file\n";
      return kDiffUsage;
    }
    options = *parsed;
  }

  Json baseline, candidate;
  if (const int rc = load_json(baseline_path, baseline); rc != kDiffOk)
    return rc;
  if (const int rc = load_json(candidate_path, candidate); rc != kDiffOk)
    return rc;

  const DiffResult result = diff_reports(baseline, candidate, options);
  print_diff(std::cout, result);
  if (result.exit_code() == kDiffRegression)
    std::cout << "FAIL: candidate regressed vs baseline\n";
  else if (result.exit_code() == kDiffOk)
    std::cout << "PASS: no gated regression\n";
  return result.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return kDiffUsage;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h") {
    usage();
    return kDiffOk;
  }
  if (command == "show" && argc == 3) return cmd_show(argv[2]);
  if (command == "check" && argc == 3) return cmd_check(argv[2]);
  if (command == "diff" && argc >= 4) {
    std::string threshold_path;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--threshold-file" && i + 1 < argc) {
        threshold_path = argv[++i];
      } else {
        std::cerr << "unknown option '" << arg << "'\n";
        return kDiffUsage;
      }
    }
    return cmd_diff(argv[2], argv[3], threshold_path);
  }
  usage();
  return kDiffUsage;
}
