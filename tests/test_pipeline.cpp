#include "core/stitch_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bench_suite/circuit_generator.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"

namespace mebl::core {
namespace {

/// A small but non-trivial circuit for end-to-end pipeline tests.
bench_suite::GeneratedCircuit small_circuit() {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 150;
  spec.pins = 420;
  return bench_suite::generate_circuit(spec, {}, 99);
}

TEST(Pipeline, StitchAwareRunCompletesWithHighRoutability) {
  const auto circuit = small_circuit();
  StitchAwareRouter router(circuit.grid, circuit.netlist,
                           RouterConfig::stitch_aware());
  const auto result = router.run();
  EXPECT_GT(result.metrics.routability_pct(), 90.0);
  EXPECT_EQ(result.metrics.total_nets, 150);
  // Hard constraint: never a vertical wire on a stitching line.
  EXPECT_EQ(result.metrics.vertical_violations, 0);
}

TEST(Pipeline, BaselineRunCompletes) {
  const auto circuit = small_circuit();
  StitchAwareRouter router(circuit.grid, circuit.netlist,
                           RouterConfig::baseline());
  const auto result = router.run();
  EXPECT_GT(result.metrics.routability_pct(), 85.0);
  EXPECT_EQ(result.metrics.vertical_violations, 0);
}

TEST(Pipeline, StitchAwareProducesFewerShortPolygons) {
  const auto circuit = small_circuit();
  StitchAwareRouter aware(circuit.grid, circuit.netlist,
                          RouterConfig::stitch_aware());
  const auto aware_result = aware.run();
  StitchAwareRouter baseline(circuit.grid, circuit.netlist,
                             RouterConfig::baseline());
  const auto baseline_result = baseline.run();
  EXPECT_LE(aware_result.metrics.short_polygons,
            baseline_result.metrics.short_polygons);
}

TEST(Pipeline, DeterministicAcrossRuns) {
  const auto circuit = small_circuit();
  StitchAwareRouter a(circuit.grid, circuit.netlist);
  StitchAwareRouter b(circuit.grid, circuit.netlist);
  const auto ra = a.run();
  const auto rb = b.run();
  EXPECT_EQ(ra.metrics.short_polygons, rb.metrics.short_polygons);
  EXPECT_EQ(ra.metrics.wirelength, rb.metrics.wirelength);
  EXPECT_EQ(ra.metrics.vias, rb.metrics.vias);
  EXPECT_EQ(ra.metrics.routed_nets, rb.metrics.routed_nets);
}

TEST(Pipeline, IlpTrackAssignmentWorksOnTinyCircuit) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "tiny";
  spec.um_width = 60;
  spec.um_height = 60;
  spec.layers = 3;
  spec.nets = 25;
  spec.pins = 60;
  const auto circuit = bench_suite::generate_circuit(spec, {}, 5);
  auto config = RouterConfig::stitch_aware();
  config.track_algorithm = TrackAlgorithm::kIlp;
  config.ilp_panel_seconds = 5.0;
  StitchAwareRouter router(circuit.grid, circuit.netlist, config);
  const auto result = router.run();
  EXPECT_GT(result.metrics.routability_pct(), 85.0);
}

TEST(Pipeline, RunsOnSixLayerStack) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "six";
  spec.um_width = 80;
  spec.um_height = 80;
  spec.layers = 6;
  spec.nets = 120;
  spec.pins = 420;
  const auto circuit = bench_suite::generate_circuit(spec, {}, 11);
  StitchAwareRouter router(circuit.grid, circuit.netlist);
  const auto result = router.run();
  EXPECT_GT(result.metrics.routability_pct(), 90.0);
  EXPECT_EQ(result.metrics.vertical_violations, 0);
}

TEST(Pipeline, StageTimesPopulated) {
  const auto circuit = small_circuit();
  StitchAwareRouter router(circuit.grid, circuit.netlist);
  const auto result = router.run();
  ASSERT_EQ(result.stages.size(), 5u);
  EXPECT_GE(result.stages.front().seconds, 0.0);
  double total = 0.0;
  for (const StageRecord& stage : result.stages) total += stage.seconds;
  EXPECT_GT(total, 0.0);
}

TEST(Pipeline, StatsSnapshotCarriesPerRunCounters) {
  namespace keys = telemetry::keys;
  const auto circuit = small_circuit();
  StitchAwareRouter router(circuit.grid, circuit.netlist);
  const auto result = router.run();

  // The snapshot isolates this run: the failed-subnet counter delta equals
  // the run's own subnets without geometry even though the process counter
  // accumulates.
  const auto unrouted = [](const RoutingResult& run) {
    return std::count_if(run.detail.subnet_nodes.begin(),
                         run.detail.subnet_nodes.end(),
                         [](const auto& nodes) { return nodes.empty(); });
  };
  EXPECT_EQ(result.stats().value(keys::kSubnetsFailed), unrouted(result));
  EXPECT_GT(result.stats().value(keys::kAstarSearches), 0);
  EXPECT_GE(result.stats().value(keys::kAstarExpansions), 0);
  EXPECT_GT(result.stats().value(keys::kLayerPanels), 0);
  EXPECT_GT(result.stats().value(keys::kTrackPanels), 0);
  // Registered even when the run never touched the ILP.
  EXPECT_EQ(result.stats().value(keys::kTrackIlpNodes), 0);

  // A second run's snapshot is again per-run, not cumulative: the same
  // deterministic route counts the same searches, not twice as many.
  StitchAwareRouter again(circuit.grid, circuit.netlist);
  const auto result2 = again.run();
  EXPECT_EQ(result2.stats().value(keys::kSubnetsFailed), unrouted(result2));
  EXPECT_EQ(result2.stats().value(keys::kAstarSearches),
            result.stats().value(keys::kAstarSearches));
}

TEST(Pipeline, TracingEmitsNestedStageSpans) {
  telemetry::Tracer::clear();
  telemetry::Tracer::enable();
  const auto circuit = small_circuit();
  StitchAwareRouter router(circuit.grid, circuit.netlist);
  const auto result = router.run();
  telemetry::Tracer::disable();
  const auto events = telemetry::Tracer::events();
  telemetry::Tracer::clear();

  const auto count_of = [&](const std::string& name) {
    return std::count_if(events.begin(), events.end(),
                         [&](const telemetry::SpanEvent& event) {
                           return name == event.name;
                         });
  };
  // The four top-level pipeline stages, nested under pipeline.run.
  EXPECT_EQ(count_of("pipeline.run"), 1);
  EXPECT_EQ(count_of("pipeline.global"), 1);
  EXPECT_EQ(count_of("pipeline.layer_assign"), 1);
  EXPECT_EQ(count_of("pipeline.track_assign"), 1);
  EXPECT_EQ(count_of("pipeline.detail"), 1);
  // Per-panel and per-subnet spans nest below the stages.
  EXPECT_GT(count_of("assign.track.panel"), 0);
  EXPECT_GT(count_of("detail.subnet"), 0);
  const auto max_depth =
      std::max_element(events.begin(), events.end(),
                       [](const auto& a, const auto& b) {
                         return a.depth < b.depth;
                       })
          ->depth;
  EXPECT_GE(max_depth, 2);
  EXPECT_GT(result.metrics.routed_nets, 0);
}

TEST(Pipeline, GridGeometryMatchesMetrics) {
  const auto circuit = small_circuit();
  StitchAwareRouter router(circuit.grid, circuit.netlist);
  const auto result = router.run();
  ASSERT_NE(result.grid, nullptr);
  EXPECT_EQ(detail::short_polygon_ends(*result.grid).size(),
            static_cast<std::size_t>(result.metrics.short_polygons));
  EXPECT_GT(result.grid->occupied_nodes(), 0);
}

}  // namespace
}  // namespace mebl::core
