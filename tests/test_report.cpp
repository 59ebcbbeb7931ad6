// mebl::report unit tests: deterministic JSON round-trips, run-report
// serialization, spatial maps vs the RoutingGrid geometry, per-net audits,
// and the `mebl_report diff` regression-gate semantics (exit-code matrix).

#include <algorithm>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "netlist/decompose.hpp"
#include "report/diff.hpp"
#include "report/json.hpp"
#include "report/report.hpp"
#include "report/spatial.hpp"

namespace {

using namespace mebl;
using report::Json;

// ------------------------------------------------------------------ JSON

TEST(ReportJson, DumpParsesBackByteIdentical) {
  Json doc = Json::object();
  doc["int"] = std::int64_t{42};
  doc["negative"] = std::int64_t{-7};
  doc["double"] = 0.1;
  doc["whole_double"] = 2.0;
  doc["bool"] = true;
  doc["null"] = nullptr;
  doc["string"] = "line\nbreak \"quoted\" \\slash\t";
  Json arr = Json::array();
  arr.push_back(std::int64_t{1});
  arr.push_back("two");
  arr.push_back(3.5);
  doc["array"] = std::move(arr);
  doc["nested"]["inner"] = std::int64_t{1};

  const std::string text = doc.dump();
  const auto parsed = Json::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), text);
  EXPECT_EQ(*parsed, doc);
}

TEST(ReportJson, IntAndDoubleAreDistinctKinds) {
  const auto parsed = Json::parse("{\"a\": 2, \"b\": 2.0}");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->get("a")->kind(), Json::Kind::kInt);
  EXPECT_EQ(parsed->get("b")->kind(), Json::Kind::kDouble);
  // A whole-valued double keeps its '.0' marker, so the kind survives a
  // second round-trip too.
  EXPECT_EQ(Json::parse(parsed->dump())->dump(), parsed->dump());
}

TEST(ReportJson, MembersDumpNameSorted) {
  Json doc = Json::object();
  doc["zebra"] = std::int64_t{1};
  doc["alpha"] = std::int64_t{2};
  const std::string text = doc.dump();
  EXPECT_LT(text.find("alpha"), text.find("zebra"));
}

TEST(ReportJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
}

TEST(ReportJson, FormatDoubleRoundTrips) {
  for (const double v : {0.1, 1.0 / 3.0, 1e-30, 12345.6789, 2.0, -0.25}) {
    const std::string text = report::format_double(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
    EXPECT_NE(text.find_first_of(".eE"), std::string::npos) << text;
  }
}

// ----------------------------------------------------- routed run fixture

struct RoutedRun {
  bench_suite::GeneratedCircuit circuit;
  core::RoutingResult result;

  explicit RoutedRun(bench_suite::GeneratedCircuit c)
      : circuit(std::move(c)) {}
};

/// Route the smallest circuit once and share it across tests (routing takes
/// ~1 s; every consumer here is read-only).
const RoutedRun& routed_run() {
  static const RoutedRun* run = [] {
    const auto* spec = bench_suite::find_spec("Struct");
    auto* r = new RoutedRun(bench_suite::generate_circuit(*spec, {}, 1));
    core::StitchAwareRouter router(
        r->circuit.grid, r->circuit.netlist,
        core::RouterConfig::stitch_aware().with_threads(0));
    r->result = router.run();
    return r;
  }();
  return *run;
}

// ------------------------------------------------------------ run report

TEST(RunReport, RecordsEveryStage) {
  const auto& run = routed_run();
  const auto& stages = run.result.stages;
  ASSERT_EQ(stages.size(), 5u);
  EXPECT_EQ(stages[0].name, "global");
  EXPECT_EQ(stages[1].name, "layer_assign");
  EXPECT_EQ(stages[2].name, "track_assign");
  EXPECT_EQ(stages[3].name, "detail");
  EXPECT_EQ(stages[4].name, "metrics");
}

TEST(RunReport, SerializationRoundTripsByteIdentical) {
  const auto& run = routed_run();
  const report::RunReport report = report::build_run_report(
      run.result, run.circuit.grid, run.circuit.netlist);

  for (const bool timing : {true, false}) {
    report::WriteOptions options;
    options.include_timing = timing;
    const std::string text = report::serialize(report, options);
    const auto parsed = report::parse_run_report_text(text);
    ASSERT_TRUE(parsed.has_value()) << "timing=" << timing;
    EXPECT_EQ(report::serialize(*parsed, options), text)
        << "timing=" << timing;
  }
}

TEST(RunReport, CanonicalFormOmitsWallClockData) {
  const auto& run = routed_run();
  const report::RunReport report = report::build_run_report(
      run.result, run.circuit.grid, run.circuit.netlist);
  report::WriteOptions canonical;
  canonical.include_timing = false;
  const std::string text = report::serialize(report, canonical);
  EXPECT_EQ(text.find("_ns"), std::string::npos);
  EXPECT_EQ(text.find("seconds"), std::string::npos);
  EXPECT_NE(report::serialize(report), text);  // timed form differs
}

TEST(RunReport, ZeroCountersAreOmitted) {
  report::RunReport report;
  report.counters.counters.emplace_back("a.zero", 0);
  report.counters.counters.emplace_back("b.nonzero", 3);
  const std::string text = report::serialize(report);
  EXPECT_EQ(text.find("a.zero"), std::string::npos);
  EXPECT_NE(text.find("b.nonzero"), std::string::npos);
}

TEST(RunReport, ParseRejectsWrongSchemaOrVersion) {
  EXPECT_FALSE(
      report::parse_run_report_text("{\"schema\": \"other\"}").has_value());
  EXPECT_FALSE(
      report::parse_run_report_text(
          "{\"schema\": \"mebl.run_report\", \"version\": 999}")
          .has_value());
  EXPECT_FALSE(report::parse_run_report_text("not json").has_value());
}

TEST(RunReport, CapturesDesignAndMetrics) {
  const auto& run = routed_run();
  const report::RunReport report = report::build_run_report(
      run.result, run.circuit.grid, run.circuit.netlist);
  EXPECT_EQ(report.design.width, run.circuit.grid.width());
  EXPECT_EQ(report.design.tiles_x, run.circuit.grid.tiles_x());
  EXPECT_EQ(report.design.nets,
            static_cast<std::int64_t>(run.circuit.netlist.num_nets()));
  EXPECT_EQ(report.metrics.short_polygons,
            run.result.metrics.short_polygons);
  EXPECT_EQ(report.nets.size(), run.circuit.netlist.num_nets());
  EXPECT_GT(report.yield.expected_defects, 0.0);
  EXPECT_GT(report.congestion.vertical_peak, 0.0);
}

// --------------------------------------------------------------- spatial

TEST(Spatial, ViaDensityMatchesGridGeometryAndMetrics) {
  const auto& run = routed_run();
  const auto map = report::measure_via_density(*run.result.grid);
  EXPECT_EQ(map.tiles_x, run.circuit.grid.tiles_x());
  EXPECT_EQ(map.tiles_y, run.circuit.grid.tiles_y());
  EXPECT_EQ(map.vias.size(),
            static_cast<std::size_t>(map.tiles_x) * map.tiles_y);

  const std::int64_t total =
      std::accumulate(map.vias.begin(), map.vias.end(), std::int64_t{0});
  EXPECT_EQ(total, run.result.metrics.vias);
  const std::int64_t unfriendly = std::accumulate(
      map.unfriendly_vias.begin(), map.unfriendly_vias.end(), std::int64_t{0});
  EXPECT_LE(unfriendly, total);
  EXPECT_GT(unfriendly, 0);
}

TEST(Spatial, CsvHeatmapHasTileDimensions) {
  const auto& run = routed_run();
  const auto map = report::measure_via_density(*run.result.grid);
  const std::string csv =
      report::csv_heatmap(map.tiles_x, map.tiles_y, map.vias);
  const auto rows =
      static_cast<int>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, map.tiles_y);
  const std::size_t first_row_end = csv.find('\n');
  const auto commas = static_cast<int>(
      std::count(csv.begin(), csv.begin() + first_row_end, ','));
  EXPECT_EQ(commas, map.tiles_x - 1);
}

TEST(Spatial, NetAuditsAreConsistentWithMetrics) {
  const auto& run = routed_run();
  const auto audits = report::collect_net_audits(
      *run.result.grid, run.circuit.netlist, run.result.plan,
      netlist::decompose_all(run.circuit.netlist), run.result.detail);
  ASSERT_EQ(audits.size(), run.circuit.netlist.num_nets());

  int unrouted = 0, via_violations = 0, bad_ends = 0;
  std::int64_t crossings = 0;
  for (const auto& audit : audits) {
    if (!audit.routed) ++unrouted;
    via_violations += audit.via_violations;
    bad_ends += audit.bad_ends;
    crossings += audit.stitch_crossings;
  }
  EXPECT_EQ(unrouted, run.result.metrics.total_nets -
                          run.result.metrics.routed_nets);
  EXPECT_EQ(via_violations, run.result.metrics.via_violations);
  EXPECT_GT(crossings, 0);

  int plan_bad_ends = 0;
  for (const auto& plan_run : run.result.plan.runs)
    plan_bad_ends += plan_run.bad_ends;
  EXPECT_EQ(bad_ends, plan_bad_ends);
}

TEST(Spatial, SvgOverlayEmbedsHeatRects) {
  const auto& run = routed_run();
  const auto map = report::measure_via_density(*run.result.grid);
  const std::string svg = report::svg_via_overlay(*run.result.grid, map);
  EXPECT_NE(svg.find("unfriendly vias"), std::string::npos);
  EXPECT_EQ(svg.rfind("</svg>"), svg.size() - std::string("</svg>\n").size());
}

// ------------------------------------------------------------ bench report

TEST(BenchReport, RoundTripsByteIdentical) {
  report::BenchReport bench;
  bench.bench = "unit";
  report::Json::Object metrics;
  metrics["short_polygons"] = std::int64_t{12};
  metrics["seconds"] = 1.5;
  bench.rows.push_back({"Struct", "stitch-aware", metrics});
  const std::string text = bench.serialize();
  const auto json = Json::parse(text);
  ASSERT_TRUE(json.has_value());
  const auto parsed = report::BenchReport::parse(*json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->serialize(), text);
  EXPECT_EQ(parsed->rows.size(), 1u);
}

// ------------------------------------------------------------------ diff

Json bench_doc(std::int64_t sp, double wl, double rout, double seconds) {
  Json doc = Json::object();
  doc["schema"] = report::kBenchReportSchema;
  doc["version"] = report::kSchemaVersion;
  doc["bench"] = "unit";
  Json row = Json::object();
  row["circuit"] = "Struct";
  row["variant"] = "stitch-aware";
  row["metrics"]["short_polygons"] = sp;
  row["metrics"]["wirelength"] = wl;
  row["metrics"]["routability_pct"] = rout;
  row["metrics"]["seconds"] = seconds;
  Json rows = Json::array();
  rows.push_back(std::move(row));
  doc["rows"] = std::move(rows);
  return doc;
}

TEST(Diff, NoChangeAndImprovementPass) {
  const Json base = bench_doc(10, 1000.0, 99.0, 5.0);
  EXPECT_EQ(report::diff_reports(base, base).exit_code(), report::kDiffOk);
  // Strictly better on a lower-better metric is fine.
  const Json better = bench_doc(5, 990.0, 99.5, 5.0);
  const auto result = report::diff_reports(base, better);
  EXPECT_EQ(result.exit_code(), report::kDiffOk);
  EXPECT_FALSE(result.deltas.empty());
}

TEST(Diff, RegressionBeyondToleranceFails) {
  const Json base = bench_doc(10, 1000.0, 99.0, 5.0);
  // One extra short polygon: strict tolerance, regression.
  EXPECT_EQ(report::diff_reports(base, bench_doc(11, 1000.0, 99.0, 5.0))
                .exit_code(),
            report::kDiffRegression);
  // +1% wirelength sits inside the 2% default tolerance...
  EXPECT_EQ(report::diff_reports(base, bench_doc(10, 1010.0, 99.0, 5.0))
                .exit_code(),
            report::kDiffOk);
  // ...+3% does not.
  EXPECT_EQ(report::diff_reports(base, bench_doc(10, 1030.0, 99.0, 5.0))
                .exit_code(),
            report::kDiffRegression);
}

TEST(Diff, HigherBetterMetricsGateDownward) {
  const Json base = bench_doc(10, 1000.0, 99.0, 5.0);
  EXPECT_EQ(report::diff_reports(base, bench_doc(10, 1000.0, 98.0, 5.0))
                .exit_code(),
            report::kDiffRegression);
  EXPECT_EQ(report::diff_reports(base, bench_doc(10, 1000.0, 99.9, 5.0))
                .exit_code(),
            report::kDiffOk);
}

TEST(Diff, ExactMetricsGateBothWays) {
  const auto doc = [](std::int64_t skips) {
    Json d = bench_doc(10, 1000.0, 99.0, 5.0);
    d["rows"].items()[0]["metrics"]["memo_skips"] = skips;
    return d;
  };
  const Json base = doc(40);
  EXPECT_EQ(report::diff_reports(base, doc(40)).exit_code(), report::kDiffOk);
  EXPECT_EQ(report::diff_reports(base, doc(41)).exit_code(),
            report::kDiffRegression);
  EXPECT_EQ(report::diff_reports(base, doc(39)).exit_code(),
            report::kDiffRegression);
}

// The ECO bench rows' batch size and dirty closure are deterministic: one
// changed dirty_subnets value fails the gate.
TEST(Diff, EcoClosureCountsGateExactly) {
  const auto doc = [](std::int64_t dirty) {
    Json d = bench_doc(10, 1000.0, 99.0, 5.0);
    d["rows"].items()[0]["metrics"]["batch_nets"] = std::int64_t{10};
    d["rows"].items()[0]["metrics"]["dirty_subnets"] = dirty;
    return d;
  };
  const Json base = doc(18);
  EXPECT_EQ(report::diff_reports(base, doc(18)).exit_code(), report::kDiffOk);
  const auto changed = report::diff_reports(base, doc(19));
  EXPECT_TRUE(changed.regressed());
  EXPECT_EQ(changed.exit_code(), 1);
  EXPECT_EQ(report::metric_direction("batch_nets"), report::Direction::kExact);
  EXPECT_EQ(report::metric_direction("dirty_subnets"),
            report::Direction::kExact);
}

TEST(Diff, DetailRowCountsGateExactly) {
  for (const char* metric : {"astar_searches", "astar_expansions",
                             "sealed_fails", "escalations", "failed_subnets"}) {
    const auto doc = [&](std::int64_t value) {
      Json d = bench_doc(10, 1000.0, 99.0, 5.0);
      d["rows"].items()[0]["metrics"][metric] = value;
      return d;
    };
    const Json base = doc(100);
    EXPECT_EQ(report::diff_reports(base, doc(100)).exit_code(),
              report::kDiffOk)
        << metric;
    // Fewer is a change too: the detailed router no longer does the same.
    EXPECT_TRUE(report::diff_reports(base, doc(99)).regressed()) << metric;
    EXPECT_TRUE(report::diff_reports(base, doc(101)).regressed()) << metric;
  }
}

TEST(Diff, GlobalRowCountsGateExactly) {
  for (const char* metric : {"global_pops", "pattern_hits", "coarse_nets",
                             "corridor_hits", "corridor_fallbacks"}) {
    const auto doc = [&](std::int64_t value) {
      Json d = bench_doc(10, 1000.0, 99.0, 5.0);
      d["rows"].items()[0]["metrics"][metric] = value;
      return d;
    };
    const Json base = doc(100);
    EXPECT_EQ(report::diff_reports(base, doc(100)).exit_code(),
              report::kDiffOk)
        << metric;
    // Fewer is a change too: the global router no longer does the same.
    EXPECT_TRUE(report::diff_reports(base, doc(99)).regressed()) << metric;
    EXPECT_TRUE(report::diff_reports(base, doc(101)).regressed()) << metric;
  }
}

TEST(Diff, SecondsAreLooselyGated) {
  const Json base = bench_doc(10, 1000.0, 99.0, 5.0);
  // +40%: inside the max(2 s abs, 50% rel) slack.
  EXPECT_EQ(report::diff_reports(base, bench_doc(10, 1000.0, 99.0, 7.0))
                .exit_code(),
            report::kDiffOk);
  // 3x: a latency regression.
  EXPECT_EQ(report::diff_reports(base, bench_doc(10, 1000.0, 99.0, 15.0))
                .exit_code(),
            report::kDiffRegression);
}

TEST(Diff, ThresholdOverridesChangeTheGate) {
  const Json base = bench_doc(10, 1000.0, 99.0, 5.0);
  const Json worse = bench_doc(14, 1000.0, 99.0, 5.0);
  EXPECT_EQ(report::diff_reports(base, worse).exit_code(),
            report::kDiffRegression);

  const auto options = report::parse_thresholds(
      "{\"tolerances\": {\"short_polygons\": {\"abs\": 5.0}}}");
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(report::diff_reports(base, worse, *options).exit_code(),
            report::kDiffOk);

  const auto ignore = report::parse_thresholds(
      "{\"short_polygons\": {\"ignore\": true}}");  // wrapper-less form
  ASSERT_TRUE(ignore.has_value());
  EXPECT_EQ(report::diff_reports(base, bench_doc(99, 1000.0, 99.0, 5.0),
                                 *ignore)
                .exit_code(),
            report::kDiffOk);

  EXPECT_FALSE(report::parse_thresholds("[1,2]").has_value());
  EXPECT_FALSE(report::parse_thresholds("{\"a\": 3}").has_value());
}

TEST(Diff, SchemaOrVersionMismatchIsExitThree) {
  const Json bench = bench_doc(10, 1000.0, 99.0, 5.0);
  Json run = Json::object();
  run["schema"] = report::kRunReportSchema;
  run["version"] = report::kSchemaVersion;
  EXPECT_EQ(report::diff_reports(bench, run).exit_code(),
            report::kDiffSchemaMismatch);

  Json other_version = bench;
  other_version["version"] = std::int64_t{2};
  EXPECT_EQ(report::diff_reports(bench, other_version).exit_code(),
            report::kDiffSchemaMismatch);

  Json unknown = bench;
  unknown["schema"] = "who.knows";
  EXPECT_EQ(report::diff_reports(unknown, unknown).exit_code(),
            report::kDiffSchemaMismatch);
}

TEST(Diff, MissingBenchRowIsARegression) {
  const Json base = bench_doc(10, 1000.0, 99.0, 5.0);
  Json missing = base;
  missing["rows"] = Json::array();
  const auto result = report::diff_reports(base, missing);
  EXPECT_EQ(result.exit_code(), report::kDiffRegression);
  ASSERT_EQ(result.missing.size(), 1u);
  EXPECT_NE(result.missing[0].find("Struct/stitch-aware"), std::string::npos);
}

TEST(Diff, RunReportsGateOnQualityBlock) {
  const auto& run = routed_run();
  const report::RunReport report = report::build_run_report(
      run.result, run.circuit.grid, run.circuit.netlist);
  const Json base = report::to_json(report);
  EXPECT_EQ(report::diff_reports(base, base).exit_code(), report::kDiffOk);

  report::RunReport worse = report;
  worse.metrics.short_polygons += 1;
  const auto result = report::diff_reports(base, report::to_json(worse));
  EXPECT_EQ(result.exit_code(), report::kDiffRegression);
  ASSERT_FALSE(result.deltas.empty());
  EXPECT_TRUE(result.deltas.front().regression);
  EXPECT_EQ(result.deltas.front().path, "quality.short_polygons");
}

TEST(Diff, DirectionTableKnowsTheGatedMetrics) {
  EXPECT_EQ(report::metric_direction("short_polygons"),
            report::Direction::kLowerBetter);
  EXPECT_EQ(report::metric_direction("yield"),
            report::Direction::kHigherBetter);
  EXPECT_EQ(report::metric_direction("memo_skips"), report::Direction::kExact);
  EXPECT_FALSE(report::metric_direction("made_up_metric").has_value());
  EXPECT_GT(report::default_tolerance("seconds").abs, 0.0);
  EXPECT_EQ(report::default_tolerance("short_polygons").abs, 0.0);
}

// -------------------------------------------------------- observer fanout

TEST(ObserverFanout, ObserverSeesEveryStage) {
  class CountingObserver final : public core::ProgressObserver {
   public:
    int begins = 0;
    int ends = 0;
    void on_stage_begin(core::Stage) override { ++begins; }
    void on_stage_end(core::Stage, double) override { ++ends; }
  };

  const auto* spec = bench_suite::find_spec("Struct");
  const auto circuit = bench_suite::generate_circuit(*spec, {}, 2);
  core::StitchAwareRouter router(
      circuit.grid, circuit.netlist,
      core::RouterConfig::stitch_aware().with_threads(2));
  CountingObserver observer;
  router.set_observer(&observer);
  const auto result = router.run();
  EXPECT_EQ(observer.begins, 5);
  EXPECT_EQ(observer.ends, 5);
  EXPECT_EQ(result.stages.size(), 5u);
  EXPECT_FALSE(result.cancelled);
}

}  // namespace
