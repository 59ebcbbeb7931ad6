// Detailed-routing parallelism (DESIGN.md §9): the disjoint-batch gatherer
// never co-schedules overlapping search boxes, and the batch scheduler that
// drives every detail pass is sequential-equivalent — the routed result
// (headline metrics, per-stage detail stats, canonical run-report bytes) is
// bit-identical for every thread count and batch cap, for batch routes and
// ECO reroutes alike.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "detail/batch_schedule.hpp"
#include "exec/thread_pool.hpp"
#include "report/report.hpp"
#include "serve/resident_design.hpp"
#include "telemetry/keys.hpp"
#include "util/rng.hpp"

namespace {

using namespace mebl;
using detail::gather_disjoint_batches;
using geom::Coord;
using geom::Rect;

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

void expect_valid_batching(const std::vector<std::vector<std::size_t>>& batches,
                           const std::vector<std::size_t>& order,
                           const std::vector<Rect>& boxes,
                           std::size_t max_batch) {
  // The concatenation of the batches is exactly the input order (prefix
  // batching reorders nothing), every batch respects the cap, and the
  // boxes inside one batch are pairwise disjoint.
  std::vector<std::size_t> flattened;
  for (const auto& batch : batches) {
    ASSERT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), max_batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      flattened.push_back(batch[i]);
      for (std::size_t j = i + 1; j < batch.size(); ++j)
        EXPECT_FALSE(boxes[batch[i]].overlaps(boxes[batch[j]]))
            << "boxes " << batch[i] << " and " << batch[j]
            << " overlap but were co-scheduled";
    }
  }
  EXPECT_EQ(flattened, order);
}

TEST(GatherDisjointBatches, OverlappingBoxesNeverCoScheduled) {
  // Three clusters: {0,1} overlap, {2,3} overlap, 4 is disjoint from all.
  const std::vector<Rect> boxes = {
      {0, 0, 10, 10}, {5, 5, 15, 15}, {40, 40, 50, 50},
      {45, 45, 55, 55}, {80, 0, 90, 10},
  };
  const auto order = identity_order(boxes.size());
  const auto batches = gather_disjoint_batches(order, boxes, 8, 64);
  expect_valid_batching(batches, order, boxes, 64);
  // Box 1 overlaps box 0, so the first batch must close before it.
  ASSERT_GE(batches.size(), 2u);
  EXPECT_EQ(batches[0][0], 0u);
  for (const auto& batch : batches)
    for (std::size_t i = 0; i < batch.size(); ++i)
      for (std::size_t j = i + 1; j < batch.size(); ++j)
        EXPECT_FALSE((batch[i] == 0 && batch[j] == 1) ||
                     (batch[i] == 2 && batch[j] == 3));
}

TEST(GatherDisjointBatches, DisjointBoxesShareOneBatch) {
  std::vector<Rect> boxes;
  for (Coord i = 0; i < 16; ++i)
    boxes.push_back({i * 100, 0, i * 100 + 20, 20});
  const auto order = identity_order(boxes.size());
  const auto batches = gather_disjoint_batches(order, boxes, 8, 64);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], order);
}

TEST(GatherDisjointBatches, CapClosesBatches) {
  std::vector<Rect> boxes;
  for (Coord i = 0; i < 10; ++i)
    boxes.push_back({i * 100, 0, i * 100 + 20, 20});
  const auto order = identity_order(boxes.size());
  const auto batches = gather_disjoint_batches(order, boxes, 8, 4);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].size(), 4u);
  EXPECT_EQ(batches[1].size(), 4u);
  EXPECT_EQ(batches[2].size(), 2u);
  expect_valid_batching(batches, order, boxes, 4);
}

TEST(GatherDisjointBatches, IdenticalBoxesDegenerateToSingletons) {
  const std::vector<Rect> boxes(5, Rect{10, 10, 30, 30});
  const auto order = identity_order(boxes.size());
  const auto batches = gather_disjoint_batches(order, boxes, 8, 64);
  ASSERT_EQ(batches.size(), 5u);
  for (const auto& batch : batches) EXPECT_EQ(batch.size(), 1u);
}

TEST(GatherDisjointBatches, RandomSweepInvariants) {
  util::Rng rng(20130602u);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Rect> boxes;
    const int n = static_cast<int>(rng.uniform_int(1, 120));
    for (int i = 0; i < n; ++i) {
      const Coord x = static_cast<Coord>(rng.uniform_int(0, 399));
      const Coord y = static_cast<Coord>(rng.uniform_int(0, 399));
      const Coord w = static_cast<Coord>(rng.uniform_int(0, 59));
      const Coord h = static_cast<Coord>(rng.uniform_int(0, 59));
      boxes.push_back({x, y, x + w, y + h});
    }
    const auto order = identity_order(boxes.size());
    const std::size_t cap = static_cast<std::size_t>(rng.uniform_int(1, 32));
    const Coord bin = static_cast<Coord>(rng.uniform_int(1, 40));
    const auto batches = gather_disjoint_batches(order, boxes, bin, cap);
    expect_valid_batching(batches, order, boxes, cap);
  }
}

// ---------------------------------------------------------------- pipeline

/// How the subnets got routed, from the detail counters of one run.
constexpr const char* kDetailTallies[] = {
    telemetry::keys::kSubnetsRealized, telemetry::keys::kSubnetsPattern,
    telemetry::keys::kSubnetsAstar,    telemetry::keys::kSubnetsFailed,
    telemetry::keys::kRipupRescued,    telemetry::keys::kSpCleanupNets};

struct Fingerprint {
  eval::RouteMetrics metrics;
  detail::DetailedResult detail;
  std::vector<std::int64_t> tallies;  ///< kDetailTallies, in order
  std::string canonical_report;
};

Fingerprint route_circuit(const bench_suite::GeneratedCircuit& circuit,
                          const core::RouterConfig& config) {
  core::StitchAwareRouter router(circuit.grid, circuit.netlist, config);
  const auto result = router.run();
  report::WriteOptions options;
  options.include_timing = false;
  Fingerprint fp;
  fp.metrics = result.metrics;
  fp.detail = result.detail;
  for (const char* key : kDetailTallies)
    fp.tallies.push_back(result.stats().value(key));
  fp.canonical_report = report::serialize(
      report::build_run_report(result, circuit.grid, circuit.netlist),
      options);
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
  EXPECT_EQ(a.tallies, b.tallies) << what;
  EXPECT_EQ(a.detail.subnet_nodes, b.detail.subnet_nodes) << what;
  EXPECT_EQ(a.detail.subnet_method, b.detail.subnet_method) << what;
  EXPECT_EQ(a.canonical_report, b.canonical_report) << what;
}

class DetailParallelDeterminism
    : public ::testing::TestWithParam<const char*> {};

TEST_P(DetailParallelDeterminism, IdenticalAcrossThreadCounts) {
  const auto* spec = bench_suite::find_spec(GetParam());
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, 20130602u);

  const auto with_threads = [&](int threads) {
    return route_circuit(
        circuit, core::RouterConfig::stitch_aware().with_threads(threads));
  };
  const Fingerprint one = with_threads(1);
  for (const int threads : {2, 8})
    expect_identical(one, with_threads(threads),
                     std::string(GetParam()) +
                         " threads=" + std::to_string(threads));

  // Batch cap 1 (one subnet at a time, the sequential reference schedule)
  // must reproduce the batched schedule's result exactly: prefix batching
  // is sequential-equivalent by construction.
  auto reference = core::RouterConfig::stitch_aware().with_threads(8);
  reference.detail.parallel_batch_cap = 1;
  const Fingerprint sequential = route_circuit(circuit, reference);
  EXPECT_EQ(one.metrics.wirelength, sequential.metrics.wirelength);
  EXPECT_EQ(one.metrics.vias, sequential.metrics.vias);
  EXPECT_EQ(one.metrics.short_polygons, sequential.metrics.short_polygons);
  EXPECT_EQ(one.detail.subnet_nodes, sequential.detail.subnet_nodes);
  EXPECT_EQ(one.detail.subnet_method, sequential.detail.subnet_method);
  EXPECT_EQ(one.tallies, sequential.tallies);
}

// The ECO path schedules its main pass, rescue and short-polygon cleanup
// through the same scheduler: a 10-net reroute lands on identical geometry
// for every batch cap and thread count.
TEST(DetailEcoDeterminism, RerouteIdenticalAcrossCapsAndThreads) {
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, 20130602u);
  std::vector<netlist::NetId> nets;
  for (const netlist::Net& net : circuit.netlist.nets())
    if (net.degree() >= 2 && nets.size() < 10) nets.push_back(net.id);
  ASSERT_EQ(nets.size(), 10u);

  const auto eco_nodes = [&](int cap, int threads) {
    auto config = core::RouterConfig::stitch_aware();
    config.detail.parallel_batch_cap = cap;
    serve::ResidentDesign resident(
        netlist::Design{circuit.grid, circuit.netlist}, config);
    exec::ThreadPool pool(threads);
    EXPECT_TRUE(resident.route_full(&pool).ok);
    serve::EcoRequest request;
    request.nets = nets;
    const serve::EcoOutcome outcome = resident.eco(request, &pool);
    EXPECT_TRUE(outcome.ok) << outcome.error;
    EXPECT_FALSE(outcome.fallback_full);
    return resident.result().detail.subnet_nodes;
  };
  const int default_cap = detail::DetailedConfig{}.parallel_batch_cap;
  const auto reference = eco_nodes(default_cap, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(eco_nodes(1, 1), reference) << "cap 1, 1 thread";
  EXPECT_EQ(eco_nodes(default_cap, 4), reference) << "default cap, 4 threads";
  EXPECT_EQ(eco_nodes(1, 4), reference) << "cap 1, 4 threads";
}

// The repair memo (DESIGN.md §9) changes no routing output. A resident
// keeps its memo across a 30-ECO stream (every third ECO also moves a pin,
// which changes pin reservations and guard penalties); every ECO's verify
// replays it on a resident rebuilt from the pre-ECO state, whose router
// starts with an empty memo and so re-runs every attempt the resident
// skipped. Every ECO must verify, the stream must be identical at 1 and 4
// threads, and the memo must actually have skipped work.
TEST(DetailRepairMemo, EcoStreamVerifiesAgainstMemoFreeReplay) {
  const auto* spec = bench_suite::find_spec("S5378");
  ASSERT_NE(spec, nullptr);
  const auto circuit = bench_suite::generate_circuit(*spec, {}, 20130602u);
  std::vector<netlist::NetId> candidates;
  for (const netlist::Net& net : circuit.netlist.nets())
    if (net.degree() >= 2) candidates.push_back(net.id);
  ASSERT_GE(candidates.size(), 10u);

  struct Stream {
    std::vector<std::string> blocks;  ///< canonical quality block per ECO
    std::int64_t sp_skips = 0;
    std::int64_t probe_skips = 0;
  };
  const auto run_stream = [&](int threads) {
    serve::ResidentDesign resident(
        netlist::Design{circuit.grid, circuit.netlist},
        core::RouterConfig::stitch_aware());
    exec::ThreadPool pool(threads);
    EXPECT_TRUE(resident.route_full(&pool).ok);
    util::Rng rng(7u);
    const auto last = static_cast<std::int64_t>(candidates.size()) - 1;
    Stream stream;
    for (int eco = 0; eco < 30; ++eco) {
      serve::EcoRequest request;
      while (request.nets.size() < 10) {
        const netlist::NetId net =
            candidates[static_cast<std::size_t>(rng.uniform_int(0, last))];
        if (std::find(request.nets.begin(), request.nets.end(), net) ==
            request.nets.end())
          request.nets.push_back(net);
      }
      if (eco % 3 == 2) {
        // Move the first pin of the first net that has a pin-free
        // neighbour track along x.
        const netlist::Netlist& netlist = resident.design().netlist;
        for (const netlist::NetId net : request.nets) {
          const netlist::PinId pin = netlist.net(net).pins.front();
          const geom::Point to{netlist.pin(pin).pos.x + 1,
                               netlist.pin(pin).pos.y};
          const bool free =
              resident.design().grid.in_bounds(to) &&
              std::none_of(netlist.pins().begin(), netlist.pins().end(),
                           [&](const netlist::Pin& p) { return p.pos == to; });
          if (free) {
            request.pin_moves = {{pin, to}};
            break;
          }
        }
        EXPECT_EQ(request.pin_moves.size(), 1u) << "eco " << eco;
      }
      request.verify = true;
      const serve::EcoOutcome outcome = resident.eco(request, &pool);
      EXPECT_TRUE(outcome.ok) << outcome.error;
      EXPECT_FALSE(outcome.fallback_full) << "eco " << eco;
      EXPECT_TRUE(outcome.verified) << "eco " << eco << " threads " << threads;
      // The ECO's own counter delta: the verify replay runs afterwards.
      stream.sp_skips +=
          outcome.report.counters.value(telemetry::keys::kMemoSpSkips);
      stream.probe_skips +=
          outcome.report.counters.value(telemetry::keys::kMemoProbeSkips);
      stream.blocks.push_back(serve::canonical_quality_block(outcome.report));
    }
    return stream;
  };
  const Stream one = run_stream(1);
  EXPECT_GT(one.sp_skips, 0);
  EXPECT_GT(one.probe_skips, 0);
  const Stream four = run_stream(4);
  EXPECT_EQ(one.sp_skips, four.sp_skips);
  EXPECT_EQ(one.probe_skips, four.probe_skips);
  ASSERT_EQ(one.blocks.size(), four.blocks.size());
  for (std::size_t i = 0; i < one.blocks.size(); ++i)
    EXPECT_EQ(one.blocks[i], four.blocks[i]) << "eco " << i;
}

INSTANTIATE_TEST_SUITE_P(Circuits, DetailParallelDeterminism,
                         ::testing::Values("S5378", "S9234"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
