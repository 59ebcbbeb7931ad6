// The repo-wide determinism contract, end to end: the full stitch-aware
// pipeline must produce identical routed results for every thread count.
// Parallel phases only read state frozen at a batch/stage boundary and
// write per-index slots merged in index order, so num_threads may change
// wall-clock but never a routed metric (DESIGN.md §7).

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "report/report.hpp"

namespace {

using namespace mebl;

struct Fingerprint {
  eval::RouteMetrics metrics;
  std::int64_t global_wirelength = 0;
  std::int64_t global_overflow = 0;
  std::size_t plan_runs = 0;
};

Fingerprint route_with_threads(const bench_suite::GeneratedCircuit& circuit,
                               int threads) {
  core::StitchAwareRouter router(
      circuit.grid, circuit.netlist,
      core::RouterConfig::stitch_aware().with_threads(threads));
  const auto result = router.run();
  Fingerprint fp;
  fp.metrics = result.metrics;
  fp.global_wirelength = result.global.wirelength;
  fp.global_overflow = result.global.total_vertex_overflow;
  fp.plan_runs = result.plan.runs.size();
  return fp;
}

void expect_identical(const Fingerprint& a, const Fingerprint& b,
                      const std::string& what) {
  EXPECT_EQ(a.metrics.wirelength, b.metrics.wirelength) << what;
  EXPECT_EQ(a.metrics.vias, b.metrics.vias) << what;
  EXPECT_EQ(a.metrics.via_violations, b.metrics.via_violations) << what;
  EXPECT_EQ(a.metrics.vertical_violations, b.metrics.vertical_violations)
      << what;
  EXPECT_EQ(a.metrics.short_polygons, b.metrics.short_polygons) << what;
  EXPECT_EQ(a.metrics.routed_nets, b.metrics.routed_nets) << what;
  EXPECT_EQ(a.metrics.total_nets, b.metrics.total_nets) << what;
  EXPECT_EQ(a.global_wirelength, b.global_wirelength) << what;
  EXPECT_EQ(a.global_overflow, b.global_overflow) << what;
  EXPECT_EQ(a.plan_runs, b.plan_runs) << what;
}

class PipelineDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineDeterminism, MetricsIdenticalAcrossThreadCounts) {
  const auto* spec = bench_suite::find_spec("Struct");
  ASSERT_NE(spec, nullptr);
  const auto circuit =
      bench_suite::generate_circuit(*spec, {}, GetParam());

  const Fingerprint one = route_with_threads(circuit, 1);
  for (const int threads : {2, 8}) {
    const Fingerprint many = route_with_threads(circuit, threads);
    expect_identical(one, many,
                     "threads=1 vs threads=" + std::to_string(threads) +
                         " (seed " + std::to_string(GetParam()) + ")");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDeterminism,
                         ::testing::Values(20130602u, 7u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

/// The stronger form of the contract: not just the headline metrics but the
/// ENTIRE canonical run report — per-stage counter deltas, per-net audits,
/// heatmap summaries, yield — must be byte-identical for every thread
/// count. (Canonical = WriteOptions::include_timing off, which drops the
/// only legitimately thread-dependent data: wall-clock times.)
TEST(PipelineDeterminism, CanonicalReportBytesIdenticalAcrossThreadCounts) {
  const auto* spec = bench_suite::find_spec("Struct");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, 20130602u);

  const auto canonical_report = [&](int threads) {
    core::StitchAwareRouter router(
        circuit.grid, circuit.netlist,
        core::RouterConfig::stitch_aware().with_threads(threads));
    const auto result = router.run();
    report::WriteOptions options;
    options.include_timing = false;
    return report::serialize(
        report::build_run_report(result, circuit.grid, circuit.netlist),
        options);
  };

  const std::string one = canonical_report(1);
  for (const int threads : {2, 8})
    EXPECT_EQ(one, canonical_report(threads)) << "threads=" << threads;
}

}  // namespace
