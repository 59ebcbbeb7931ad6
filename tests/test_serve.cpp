// Serving-layer tests (ctest label `serve`): protocol codec round-trips,
// job-queue ordering/cancellation/deadlines, the incremental-ECO
// bit-identity contract on S5378, and an end-to-end daemon smoke over a
// real AF_UNIX socket.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "netlist/io.hpp"
#include "serve/client.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/resident_design.hpp"
#include "serve/server.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace mebl::serve {
namespace {

// ---------------------------------------------------------------- protocol

TEST(ServeProtocol, RequestRoundTripsEveryField) {
  Request request;
  request.op = Op::kEco;
  request.id = 42;
  request.design = "chip";
  request.design_text = "mebl 1\ngrid 10 10 3 5\n";
  request.path = "/tmp/state.bin";
  request.priority = 3;
  request.deadline_seconds = 1.5;
  request.nets = {4, 17, 23};
  request.net_names = {"clk", "rst"};
  request.moves = {{3, {7, 8}}, {5, {9, 10}}};
  request.verify = true;
  request.cancel_id = 7;

  const std::string line = encode(request);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(line.find('\n'), line.size() - 1) << "wire form must be one line";

  const auto decoded = decode_request(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->op, Op::kEco);
  EXPECT_EQ(decoded->id, 42);
  EXPECT_EQ(decoded->design, "chip");
  EXPECT_EQ(decoded->design_text, request.design_text);
  EXPECT_EQ(decoded->path, "/tmp/state.bin");
  EXPECT_EQ(decoded->priority, 3);
  EXPECT_DOUBLE_EQ(decoded->deadline_seconds, 1.5);
  EXPECT_EQ(decoded->nets, request.nets);
  EXPECT_EQ(decoded->net_names, request.net_names);
  EXPECT_EQ(decoded->moves, request.moves);
  EXPECT_TRUE(decoded->verify);
  EXPECT_EQ(decoded->cancel_id, 7);

  // Pin moves travel only in the `moves` list: the old single-move keys
  // are unknown keys now and add no move.
  const auto legacy = decode_request(
      R"({"op":"eco","id":1,"move_pin":9,"move_to_x":12,"move_to_y":34,)"
      R"("moves":[{"pin":3,"x":7,"y":8}]})");
  ASSERT_TRUE(legacy.has_value());
  const std::vector<PinMoveSpec> expected = {{3, {7, 8}}};
  EXPECT_EQ(legacy->moves, expected);
  const auto keys_only = decode_request(
      R"({"op":"eco","id":2,"move_pin":9,"move_to_x":12,"move_to_y":34})");
  ASSERT_TRUE(keys_only.has_value());
  EXPECT_TRUE(keys_only->moves.empty());
  EXPECT_EQ(encode(*legacy).find("move_pin"), std::string::npos)
      << "encode must emit only the moves list";
}

TEST(ServeProtocol, EscapesControlAndQuoteCharacters) {
  Request request;
  request.op = Op::kLoad;
  request.design = "q\"uo\\te";
  request.design_text = "line one\nline\ttwo\r\x01 end";

  const std::string line = encode(request);
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  const auto decoded = decode_request(line);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->design, request.design);
  EXPECT_EQ(decoded->design_text, request.design_text);
}

TEST(ServeProtocol, ResponseRoundTripsPayload) {
  Response response;
  response.type = "done";
  response.id = 5;
  response.payload["seconds"] = 1.25;
  response.payload["dirty"] = std::int64_t{12};
  response.payload["names"].push_back("a");
  response.payload["names"].push_back("b");
  response.payload["nested"]["flag"] = true;

  const auto decoded = decode_response(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, "done");
  EXPECT_EQ(decoded->id, 5);
  EXPECT_EQ(decoded->payload, response.payload);
}

TEST(ServeProtocol, ErrorResponseCarriesMessage) {
  Response response;
  response.type = "error";
  response.id = 3;
  response.error = "unknown design 'x'";
  const auto decoded = decode_response(encode(response));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->type, "error");
  EXPECT_EQ(decoded->error, "unknown design 'x'");
}

TEST(ServeProtocol, RejectsMalformedLines) {
  EXPECT_FALSE(decode_request("not json").has_value());
  EXPECT_FALSE(decode_request("{\"op\":\"warp\"}").has_value());
  EXPECT_FALSE(decode_response("{").has_value());
}

// One hostile line must not take the daemon's IO thread down: nesting past
// the parser's depth limit is rejected like any other malformed input
// instead of recursing until the stack overflows.
TEST(ServeProtocol, RejectsDeeplyNestedLinesWithoutCrashing) {
  constexpr std::size_t kMegabyte = 1 << 20;
  EXPECT_FALSE(decode_request(std::string(kMegabyte, '[')).has_value());
  std::string objects;
  while (objects.size() < kMegabyte) objects += "{\"a\":";
  EXPECT_FALSE(decode_request(objects).has_value());

  // Moderate nesting still parses.
  const std::string nested =
      R"({"op":"ping","id":5,"extra":)" + std::string(100, '[') +
      std::string(100, ']') + "}";
  const auto decoded = decode_request(nested);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 5);
}

// --------------------------------------------------------------- job queue

Request make_request(Op op, std::int64_t id, int priority = 0) {
  Request request;
  request.op = op;
  request.id = id;
  request.priority = priority;
  return request;
}

TEST(ServeJobQueue, PriorityDescendingThenFifo) {
  JobQueue queue;
  queue.push(1, make_request(Op::kRoute, 1, 0));
  queue.push(1, make_request(Op::kRoute, 2, 5));
  queue.push(1, make_request(Op::kRoute, 3, 0));
  queue.push(1, make_request(Op::kRoute, 4, 5));

  std::vector<std::int64_t> order;
  for (int i = 0; i < 4; ++i) {
    const auto job = queue.pop();
    ASSERT_TRUE(job.has_value());
    order.push_back(job->request.id);
  }
  EXPECT_EQ(order, (std::vector<std::int64_t>{2, 4, 1, 3}));
}

TEST(ServeJobQueue, CancelStopsQueuedJobToken) {
  JobQueue queue;
  queue.push(1, make_request(Op::kRoute, 10));
  EXPECT_TRUE(queue.cancel(1, 10));
  const auto job = queue.pop();
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(job->cancel->stop_requested());
  EXPECT_EQ(job->cancel->reason(), exec::StopReason::kUser);
}

TEST(ServeJobQueue, CancelNeedsMatchingClientAndId) {
  JobQueue queue;
  queue.push(1, make_request(Op::kRoute, 10));
  EXPECT_FALSE(queue.cancel(2, 10)) << "another client's id must not cancel";
  EXPECT_FALSE(queue.cancel(1, 11));
  EXPECT_TRUE(queue.cancel(1, 10));
}

TEST(ServeJobQueue, DeadlineTripsTokenWithDeadlineReason) {
  JobQueue queue;
  Request request = make_request(Op::kRoute, 20);
  request.deadline_seconds = 0.01;
  queue.push(1, request);
  const auto job = queue.pop();
  ASSERT_TRUE(job.has_value());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(job->cancel->stop_requested());
  EXPECT_EQ(job->cancel->reason(), exec::StopReason::kDeadline);
}

TEST(ServeJobQueue, FinishUnregistersCancelTarget) {
  JobQueue queue;
  queue.push(1, make_request(Op::kRoute, 30));
  const auto job = queue.pop();
  ASSERT_TRUE(job.has_value());
  queue.finish(1, 30);
  EXPECT_FALSE(queue.cancel(1, 30));
}

TEST(ServeJobQueue, CancelClientStopsAllItsJobs) {
  JobQueue queue;
  queue.push(1, make_request(Op::kRoute, 1));
  queue.push(1, make_request(Op::kRoute, 2));
  queue.push(2, make_request(Op::kRoute, 1));
  queue.cancel_client(1);
  for (int i = 0; i < 3; ++i) {
    const auto job = queue.pop();
    ASSERT_TRUE(job.has_value());
    EXPECT_EQ(job->cancel->stop_requested(), job->client == 1);
  }
}

TEST(ServeJobQueue, CloseDrainsThenReturnsNullopt) {
  JobQueue queue;
  queue.push(1, make_request(Op::kRoute, 1));
  queue.close();
  EXPECT_TRUE(queue.pop().has_value());
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(ServeJobQueue, PushAfterCloseIsRejected) {
  JobQueue queue;
  EXPECT_TRUE(queue.push(1, make_request(Op::kRoute, 1)));
  queue.close();
  EXPECT_FALSE(queue.push(1, make_request(Op::kRoute, 2)));
  EXPECT_EQ(queue.pending(), 1u) << "a rejected push must not enqueue";
}

Request design_request(Op op, std::int64_t id, std::string design) {
  Request request = make_request(op, id);
  request.design = std::move(design);
  return request;
}

TEST(ServeJobQueue, PopHeadIfNeverSkipsPastANonMatchingHead) {
  JobQueue queue;
  queue.push(1, design_request(Op::kEco, 1, "a"));
  queue.push(1, design_request(Op::kEco, 2, "b"));
  queue.push(1, design_request(Op::kEco, 3, "a"));
  const auto matches_a = [](const Job& job) {
    return job.request.design == "a";
  };

  auto head = queue.pop();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->request.id, 1);
  // Head is now design b: the matcher must come back empty instead of
  // reaching past it for id 3 — coalescing must not reorder a lane.
  EXPECT_FALSE(queue.pop_head_if(matches_a).has_value());
  head = queue.pop();
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->request.id, 2);
  const auto tail = queue.pop_head_if(matches_a);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->request.id, 3);
  EXPECT_FALSE(queue.pop_head_if(matches_a).has_value()) << "queue is empty";
}

// ---------------------------------------------------------- lane scheduler

TEST(ServeLaneScheduler, LaneForIsStableAndInRange) {
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{7}}) {
    for (const char* name : {"chip", "s5378", "mix0", "a", ""}) {
      const std::size_t lane = LaneScheduler::lane_for(name, lanes);
      EXPECT_LT(lane, lanes);
      EXPECT_EQ(lane, LaneScheduler::lane_for(name, lanes))
          << "lane_for must be a pure function of (design, lanes)";
    }
    EXPECT_EQ(LaneScheduler::lane_for("", lanes), 0u)
        << "designless ops (shutdown) must land on lane 0";
  }
  EXPECT_EQ(LaneScheduler::lane_for("anything", 1), 0u);
}

TEST(ServeLaneScheduler, PushRoutesEachDesignToItsLaneInFifoOrder) {
  LaneScheduler scheduler(4);
  const std::size_t lane_a = scheduler.lane_for("design_a");
  std::string other = "design_b";
  for (int i = 0; scheduler.lane_for(other) == lane_a; ++i)
    other = "design_b" + std::to_string(i);
  const std::size_t lane_b = scheduler.lane_for(other);

  EXPECT_TRUE(scheduler.push(1, design_request(Op::kEco, 1, "design_a")));
  EXPECT_TRUE(scheduler.push(1, design_request(Op::kEco, 2, other)));
  EXPECT_TRUE(scheduler.push(1, design_request(Op::kEco, 3, "design_a")));
  EXPECT_EQ(scheduler.pending(), 3u);
  EXPECT_EQ(scheduler.pending(lane_a), 2u);
  EXPECT_EQ(scheduler.pending(lane_b), 1u);

  auto first = scheduler.pop(lane_a);
  auto second = scheduler.pop(lane_a);
  ASSERT_TRUE(first.has_value() && second.has_value());
  EXPECT_EQ(first->request.id, 1);
  EXPECT_EQ(second->request.id, 3) << "per-design order must be FIFO";
  auto cross = scheduler.pop(lane_b);
  ASSERT_TRUE(cross.has_value());
  EXPECT_EQ(cross->request.id, 2);
}

TEST(ServeLaneScheduler, CancelFindsTheJobAcrossLanes) {
  LaneScheduler scheduler(4);
  EXPECT_TRUE(scheduler.push(1, design_request(Op::kEco, 1, "design_a")));
  EXPECT_TRUE(scheduler.push(1, design_request(Op::kEco, 2, "design_b")));
  EXPECT_TRUE(scheduler.cancel(1, 2));
  EXPECT_FALSE(scheduler.cancel(1, 99));
  EXPECT_FALSE(scheduler.cancel(2, 1)) << "ids are client-scoped";
  const std::size_t lane = scheduler.lane_for("design_b");
  const auto job = scheduler.pop(lane);
  ASSERT_TRUE(job.has_value());
  EXPECT_TRUE(job->cancel->stop_requested());
}

TEST(ServeLaneScheduler, CloseRejectsFurtherPushes) {
  LaneScheduler scheduler(2);
  EXPECT_TRUE(scheduler.push(1, design_request(Op::kEco, 1, "design_a")));
  scheduler.close();
  EXPECT_TRUE(scheduler.closed());
  EXPECT_FALSE(scheduler.push(1, design_request(Op::kEco, 2, "design_a")));
  EXPECT_FALSE(scheduler.push(1, design_request(Op::kEco, 3, "design_b")));
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(ServeLaneScheduler, ResolveLanesHonorsConfigAndFloorsAtOne) {
  ServerConfig config;
  config.lanes = 3;
  EXPECT_EQ(resolve_lanes(config), 3u);
  config.lanes = 0;
  EXPECT_GE(resolve_lanes(config), 1u);
  config.lanes = -5;
  EXPECT_GE(resolve_lanes(config), 1u);
}

// ----------------------------------------------------- incremental reroute

constexpr unsigned kSeed = 20130602;

netlist::Design s5378_design() {
  const auto* spec = bench_suite::find_spec("S5378");
  auto circuit = bench_suite::generate_circuit(*spec, {}, kSeed);
  return netlist::Design{circuit.grid, std::move(circuit.netlist)};
}

/// The first `count` nets with at least two pins (single-pin nets have no
/// subnets and nothing to reroute).
std::vector<netlist::NetId> routable_nets(const netlist::Netlist& netlist,
                                          std::size_t count) {
  std::vector<netlist::NetId> nets;
  for (const netlist::Net& net : netlist.nets()) {
    if (net.degree() < 2) continue;
    nets.push_back(net.id);
    if (nets.size() == count) break;
  }
  return nets;
}

TEST(ServeEco, EcoIsBitIdenticalToReplayOnS5378) {
  ResidentDesign resident(s5378_design());
  const EcoOutcome full = resident.route_full();
  ASSERT_TRUE(full.ok);

  EcoRequest request;
  request.nets = routable_nets(resident.design().netlist, 12);
  ASSERT_GE(request.nets.size(), 12u);
  request.verify = true;

  const EcoOutcome outcome = resident.eco(request);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_GE(outcome.dirty_subnets, 10u);
  EXPECT_FALSE(outcome.fallback_full);
  EXPECT_TRUE(outcome.verified)
      << "incremental ECO diverged from the from-scratch replay";
  EXPECT_FALSE(outcome.verify_mismatch);
  // The ECO report carries the detail counters of its own reroute.
  namespace keys = telemetry::keys;
  const auto& counters = outcome.report.counters;
  EXPECT_GT(counters.value(keys::kSubnetsRealized) +
                counters.value(keys::kSubnetsPattern) +
                counters.value(keys::kSubnetsAstar),
            0);
  // The headline acceptance gate: incremental work well under a quarter of
  // the full route.
  EXPECT_LT(outcome.seconds, 0.25 * full.seconds);
}

TEST(ServeEco, EcoReportRecordsItsOwnFiveStages) {
  ResidentDesign resident(s5378_design());
  ASSERT_TRUE(resident.route_full().ok);

  EcoRequest request;
  request.nets = routable_nets(resident.design().netlist, 1);
  ASSERT_EQ(request.nets.size(), 1u);
  const EcoOutcome outcome = resident.eco(request);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_FALSE(outcome.fallback_full);

  // The same five stages as a full route, timed inside the ECO itself.
  const auto& stages = outcome.report.stages;
  ASSERT_EQ(stages.size(), 5u);
  double staged = 0.0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    EXPECT_EQ(stages[i].name, core::stage_name(static_cast<core::Stage>(i)));
    staged += stages[i].seconds;
  }
  EXPECT_LE(staged, outcome.seconds);

  // The detail stage's record carries the ECO's own detailed reroute: its
  // detail.subnets.* deltas are the whole ECO's.
  const telemetry::StatsSnapshot& detail = stages[3].counters;
  std::int64_t subnets = 0;
  for (const auto& [name, value] : outcome.report.counters.counters) {
    if (!name.starts_with("detail.subnets.")) continue;
    EXPECT_EQ(detail.value(name), value) << name;
    subnets += value;
  }
  EXPECT_GT(subnets, 0);
}

TEST(ServeEco, PinMoveReroutesAndStaysConsistent) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 80;
  spec.pins = 220;
  auto circuit = bench_suite::generate_circuit(spec, {}, 11);
  netlist::Design design{circuit.grid, std::move(circuit.netlist)};

  ResidentDesign resident(std::move(design));
  ASSERT_TRUE(resident.route_full().ok);

  // Find a pin and a nearby destination no other pin occupies.
  const netlist::Netlist& netlist = resident.design().netlist;
  netlist::PinId pin = -1;
  geom::Point to;
  for (netlist::PinId candidate = 0;
       candidate < static_cast<netlist::PinId>(netlist.num_pins()) &&
       pin < 0;
       ++candidate) {
    if (netlist.net(netlist.pin(candidate).net).degree() < 2) continue;
    for (geom::Coord dx = 1; dx <= 3 && pin < 0; ++dx) {
      const geom::Point p{netlist.pin(candidate).pos.x + dx,
                          netlist.pin(candidate).pos.y};
      if (!resident.design().grid.in_bounds(p)) continue;
      bool taken = false;
      for (const netlist::Pin& other : netlist.pins())
        if (other.pos == p) {
          taken = true;
          break;
        }
      if (!taken) {
        pin = candidate;
        to = p;
      }
    }
  }
  ASSERT_GE(pin, 0) << "no movable pin found";

  EcoRequest request;
  request.pin_moves = {{pin, to}};
  request.verify = true;
  const EcoOutcome outcome = resident.eco(request);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.verified);
  EXPECT_EQ(resident.design().netlist.pin(pin).pos, to);
}

TEST(ServeEco, MultiPinMoveAppliesMovesInOrder) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 80;
  spec.pins = 220;
  auto circuit = bench_suite::generate_circuit(spec, {}, 11);
  ResidentDesign resident(
      netlist::Design{circuit.grid, std::move(circuit.netlist)});
  ASSERT_TRUE(resident.route_full().ok);

  // Two movable pins of distinct multi-pin nets, each with a free
  // destination no pin (original or already-moved) occupies.
  const netlist::Netlist& netlist = resident.design().netlist;
  std::vector<PinMoveSpec> moves;
  std::vector<geom::Point> taken;
  for (const netlist::Pin& pin : netlist.pins()) taken.push_back(pin.pos);
  for (netlist::PinId candidate = 0;
       candidate < static_cast<netlist::PinId>(netlist.num_pins()) &&
       moves.size() < 2;
       ++candidate) {
    if (netlist.net(netlist.pin(candidate).net).degree() < 2) continue;
    if (!moves.empty() &&
        netlist.pin(candidate).net == netlist.pin(moves.front().pin).net)
      continue;
    for (geom::Coord dx = 1; dx <= 3; ++dx) {
      const geom::Point p{netlist.pin(candidate).pos.x + dx,
                          netlist.pin(candidate).pos.y};
      if (!resident.design().grid.in_bounds(p)) continue;
      if (std::find(taken.begin(), taken.end(), p) != taken.end()) continue;
      moves.push_back({candidate, p});
      taken.push_back(p);
      break;
    }
  }
  ASSERT_EQ(moves.size(), 2u) << "no two movable pins found";

  EcoRequest request;
  request.pin_moves = moves;
  request.verify = true;
  const EcoOutcome outcome = resident.eco(request);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.verified);
  for (const PinMoveSpec& move : moves)
    EXPECT_EQ(resident.design().netlist.pin(move.pin).pos, move.to);
}

TEST(ServeEco, MoveToAnOccupiedPositionFailsCleanly) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 40;
  spec.pins = 120;
  auto circuit = bench_suite::generate_circuit(spec, {}, 13);
  ResidentDesign resident(
      netlist::Design{circuit.grid, std::move(circuit.netlist)});
  ASSERT_TRUE(resident.route_full().ok);

  const netlist::Netlist& netlist = resident.design().netlist;
  EcoRequest request;
  request.pin_moves = {{0, netlist.pin(1).pos}};
  const EcoOutcome outcome = resident.eco(request);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("already carries"), std::string::npos)
      << outcome.error;
  EXPECT_TRUE(resident.routed()) << "a rejected ECO must not corrupt state";
}

// The coalescing dispatcher unions consecutive same-design ECOs into one
// merged request whose single report fans out to every member. That is
// only honest if the merged apply is deterministic: two identically-
// prepared residents given the same merged batch (member lists unioned in
// request order, overlaps and all) must land on byte-identical canonical
// bytes, and the batch must survive the serialized-state verify replay.
// (Coalescing deliberately changes the apply granularity — a merged batch
// is one rip-up of the union, not its members back to back — so the pinned
// contract is batch determinism + replay identity, not sequential
// equivalence.)
TEST(ServeEco, CoalescedBatchIsBitIdenticalAcrossResidentsOnS5378) {
  ResidentDesign lived(s5378_design());
  ASSERT_TRUE(lived.route_full().ok);
  const std::vector<netlist::NetId> all =
      routable_nets(lived.design().netlist, 12);
  ASSERT_GE(all.size(), 12u);

  // The union the dispatcher builds from two overlapping members, kept in
  // request order with the duplicates intact (resolve_nets dedups).
  EcoRequest merged;
  merged.nets.insert(merged.nets.end(), all.begin(), all.begin() + 8);
  merged.nets.insert(merged.nets.end(), all.begin() + 4, all.end());
  merged.verify = true;
  const EcoOutcome outcome = lived.eco(merged);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.verified)
      << "the merged batch diverged from its serialized-state replay";
  EXPECT_FALSE(outcome.verify_mismatch);

  ResidentDesign fresh(s5378_design());
  ASSERT_TRUE(fresh.route_full().ok);
  EcoRequest replay;
  replay.nets = merged.nets;
  const EcoOutcome again = fresh.eco(replay);
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(canonical_quality_block(outcome.report),
            canonical_quality_block(again.report))
      << "the same coalesced batch diverged across residents";
}

// ECO replanning with the exact ILP is only allowed in its deterministic
// node-budget mode (DESIGN.md §12/§13); this pins that such an ECO passes
// the replay gate and that the ILP actually ran (no silent degrade to the
// graph heuristic).
TEST(ServeEco, NodeBudgetedIlpEcoPassesVerifyReplay) {
  auto config = core::RouterConfig::stitch_aware()
                    .with_track_algorithm(core::TrackAlgorithm::kIlp)
                    .with_ilp_node_budget(512);
  ResidentDesign resident(s5378_design(), std::move(config));
  ASSERT_TRUE(resident.route_full().ok);

  EcoRequest request;
  request.nets = routable_nets(resident.design().netlist, 12);
  ASSERT_GE(request.nets.size(), 12u);
  request.verify = true;

  const auto before = telemetry::snapshot_counters();
  const EcoOutcome outcome = resident.eco(request);
  const auto stats = telemetry::delta(before, telemetry::snapshot_counters());

  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.verified)
      << "node-budgeted ILP ECO diverged from the from-scratch replay";
  EXPECT_FALSE(outcome.verify_mismatch);
  // Both the incremental ECO and its replay solve the dirty panels with
  // branch-and-bound; zero nodes would mean the ILP silently degraded.
  EXPECT_GT(stats.value(telemetry::keys::kTrackIlpNodes), 0);
}

// An ECO whose dirty closure passes kEcoFullFallbackFraction reroutes the
// whole design; a verify request must still run the replay check on it.
TEST(ServeEco, FallbackEcoIsVerified) {
  ResidentDesign resident(s5378_design());
  ASSERT_TRUE(resident.route_full().ok);

  EcoRequest request;
  request.nets = routable_nets(resident.design().netlist,
                               resident.design().netlist.num_nets());
  request.verify = true;

  const EcoOutcome outcome = resident.eco(request);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  ASSERT_TRUE(outcome.fallback_full);
  EXPECT_GT(outcome.dirty_subnets, 0u);
  EXPECT_TRUE(outcome.verified)
      << "full-route fallback skipped or failed the replay check";
  EXPECT_FALSE(outcome.verify_mismatch);
}

TEST(ServeEco, UnknownNetNameFailsCleanly) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 20;
  spec.pins = 60;
  auto circuit = bench_suite::generate_circuit(spec, {}, 3);
  ResidentDesign resident(
      netlist::Design{circuit.grid, std::move(circuit.netlist)});
  ASSERT_TRUE(resident.route_full().ok);
  EcoRequest request;
  request.net_names = {"no_such_net"};
  const EcoOutcome outcome = resident.eco(request);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(outcome.error.find("no_such_net"), std::string::npos);
  EXPECT_TRUE(resident.routed()) << "a rejected ECO must not corrupt state";
}

TEST(ServeEco, EcoBeforeRouteFails) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 10;
  spec.pins = 30;
  auto circuit = bench_suite::generate_circuit(spec, {}, 4);
  ResidentDesign resident(
      netlist::Design{circuit.grid, std::move(circuit.netlist)});
  EcoRequest request;
  request.nets = {0};
  EXPECT_FALSE(resident.eco(request).ok);
}

// ----------------------------------------------------------- design cache

TEST(ServeDesignCache, EvictsLeastRecentlyUsed) {
  DesignCache cache(2);
  EXPECT_TRUE(cache.put("a", nullptr).empty());
  EXPECT_TRUE(cache.put("b", nullptr).empty());
  (void)cache.get("a");  // touch: b becomes LRU
  const auto evicted = cache.put("c", nullptr);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted.front(), "b");
  EXPECT_EQ(cache.names(), (std::vector<std::string>{"c", "a"}));
}

// ------------------------------------------------------------- end-to-end

std::string test_socket_path() {
  return "/tmp/mebl_serve_test_" + std::to_string(::getpid()) + ".sock";
}

double payload_seconds(const Response& response) {
  const report::Json* seconds = response.payload.get("seconds");
  return seconds != nullptr ? seconds->as_double() : -1.0;
}

TEST(ServeServer, EndToEndRouteThenEcoOverSocket) {
  ServerConfig config;
  config.socket_path = test_socket_path();
  config.cache_capacity = 2;
  Server server(config);
  ASSERT_TRUE(server.start());

  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  // Liveness.
  auto response = client.call(make_request(Op::kPing, 0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, "ack");

  // Load S5378 as inline design text.
  const netlist::Design design = s5378_design();
  std::ostringstream design_text;
  netlist::write_design(design_text, design);
  Request load = make_request(Op::kLoad, 0);
  load.design = "s5378";
  load.design_text = design_text.str();
  response = client.call(std::move(load));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, "done") << response->error;

  // Full route, with streamed progress.
  int stage_events = 0;
  Request route = make_request(Op::kRoute, 0);
  route.design = "s5378";
  response = client.call(std::move(route),
                         [&stage_events](const Response& event) {
                           if (event.type == "progress") ++stage_events;
                         });
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, "done") << response->error;
  EXPECT_GT(stage_events, 0) << "route must stream progress events";
  const double full_seconds = payload_seconds(*response);
  ASSERT_GT(full_seconds, 0.0);
  ASSERT_NE(response->payload.get("report"), nullptr);

  // Incremental reroute of >= 10 nets with the bit-identity check on.
  Request eco = make_request(Op::kEco, 0);
  eco.design = "s5378";
  eco.nets = routable_nets(design.netlist, 12);
  ASSERT_GE(eco.nets.size(), 10u);
  eco.verify = true;
  response = client.call(std::move(eco));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, "done") << response->error;
  const report::Json* summary = response->payload.get("eco");
  ASSERT_NE(summary, nullptr);
  ASSERT_NE(summary->get("verified"), nullptr);
  EXPECT_TRUE(summary->get("verified")->as_bool());
  const double eco_seconds = payload_seconds(*response);
  ASSERT_GT(eco_seconds, 0.0);
  EXPECT_LT(eco_seconds, 0.25 * full_seconds)
      << "ECO must run well under a quarter of the full route";

  // Status sees the resident design and the finished jobs.
  response = client.call(make_request(Op::kStatus, 0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, "ack");
  const report::Json* designs = response->payload.get("designs");
  ASSERT_NE(designs, nullptr);
  ASSERT_EQ(designs->items().size(), 1u);
  EXPECT_EQ(designs->items().front().as_string(), "s5378");

  // Cancelling an unknown id acks with cancelled=false.
  Request cancel = make_request(Op::kCancel, 0);
  cancel.cancel_id = 9999;
  response = client.call(std::move(cancel));
  ASSERT_TRUE(response.has_value());
  ASSERT_NE(response->payload.get("cancelled"), nullptr);
  EXPECT_FALSE(response->payload.get("cancelled")->as_bool());

  // Drain-and-stop shutdown.
  response = client.call(make_request(Op::kShutdown, 0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, "done");
  server.wait();
  server.stop();
  EXPECT_FALSE(server.running());
}

/// A raw client socket connected to `path` with send/receive timeouts of
/// `seconds`, so a misbehaving daemon fails a test instead of hanging it.
/// -1 on failure.
int connect_raw(const std::string& path, int seconds) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const timeval timeout{seconds, 0};
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout)) !=
          0 ||
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout)) !=
          0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeServer, OverlongRequestLineGetsErrorAndDisconnect) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".long";
  config.lanes = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  const int fd = connect_raw(config.socket_path, 10);
  ASSERT_GE(fd, 0);

  // One byte past the limit, no newline.
  const std::string junk(kMaxLineBytes + 1, 'x');
  std::size_t sent = 0;
  while (sent < junk.size()) {
    const ssize_t n =
        ::send(fd, junk.data() + sent, junk.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;  // the daemon may hang up before the last byte
    sent += static_cast<std::size_t>(n);
  }

  // Exactly one error line, then the daemon closes the connection.
  std::string received;
  char chunk[4096];
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      received.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    // EOF, or a reset because the daemon dropped unread bytes; a timeout
    // (EAGAIN) means the connection was left open.
    closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
    break;
  }
  ::close(fd);
  EXPECT_TRUE(closed) << "daemon kept the connection open";
  ASSERT_FALSE(received.empty()) << "no error line before the close";
  ASSERT_EQ(std::count(received.begin(), received.end(), '\n'), 1)
      << received;
  const auto error = decode_response(received);
  ASSERT_TRUE(error.has_value()) << received;
  EXPECT_EQ(error->type, "error");
  EXPECT_EQ(error->error, "request line too long");

  // The daemon still serves other clients.
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));
  const auto pong = client.call(make_request(Op::kPing, 0));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, "ack");
  server.stop();
}

// A client that floods requests and never reads its replies fills its
// socket buffers; the daemon must give up on it instead of blocking its
// I/O loop, so another client's ping is still answered.
TEST(ServeServer, StalledReaderDoesNotBlockOtherClients) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".stall";
  config.lanes = 1;
  Server server(config);
  ASSERT_TRUE(server.start());

  // Client A sends pings until its own send times out (both socket buffers
  // full) or fails (the daemon dropped it); it never reads.
  const int stalled = connect_raw(config.socket_path, 1);
  ASSERT_GE(stalled, 0);
  std::string pings;
  for (int i = 0; i < 1000; ++i) pings += R"({"op":"ping","id":1})" "\n";
  for (std::size_t total = 0; total < (std::size_t{64} << 20);) {
    const ssize_t n =
        ::send(stalled, pings.data(), pings.size(), MSG_NOSIGNAL);
    if (n <= 0) break;
    total += static_cast<std::size_t>(n);
  }

  // Client B's ping must still come back.
  const int fd = connect_raw(config.socket_path, 20);
  ASSERT_GE(fd, 0);
  const std::string ping = R"({"op":"ping","id":7})" "\n";
  ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  std::string received;
  char chunk[256];
  while (received.find('\n') == std::string::npos) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // timeout: the daemon is stuck on client A
    received.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  // Closing A last unblocks a daemon stuck on it, so stop() can return.
  ::close(stalled);
  const auto pong = decode_response(received);
  ASSERT_TRUE(pong.has_value()) << "no reply to client B: '" << received
                                << "'";
  EXPECT_EQ(pong->type, "ack");
  EXPECT_EQ(pong->id, 7);
  server.stop();
}

// A `load` whose design text declares hostile counts (a stitch-line count
// of 2^62, a two-billion-track extent) gets an error reply; the daemon
// survives it and answers the same client's next ping.
TEST(ServeServer, HostileDesignLoadGetsErrorAndDaemonKeepsServing) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".hostile";
  config.lanes = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  for (const char* text :
       {"mebl 1\ngrid 10 10 2 1\nstitch_lines 0 0 4611686018427387904\n",
        "mebl 1\ngrid 2000000000 10 2 1\nstitch 1 0 0\n"}) {
    Request load = make_request(Op::kLoad, 0);
    load.design = "hostile";
    load.design_text = text;
    const auto reply = client.call(std::move(load));
    ASSERT_TRUE(reply.has_value()) << text;
    EXPECT_EQ(reply->type, "error") << text;
    EXPECT_EQ(reply->error, "cannot parse design") << text;
  }
  const auto pong = client.call(make_request(Op::kPing, 0));
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, "ack");
  server.stop();
}

TEST(ServeServer, SaveAndLoadStateRoundTripOverSocket) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".b";
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 40;
  spec.pins = 120;
  auto circuit = bench_suite::generate_circuit(spec, {}, 5);
  const netlist::Design design{circuit.grid, std::move(circuit.netlist)};
  std::ostringstream design_text;
  netlist::write_design(design_text, design);

  Request load = make_request(Op::kLoad, 0);
  load.design = "unit";
  load.design_text = design_text.str();
  auto response = client.call(std::move(load));
  ASSERT_TRUE(response && response->type == "done");
  Request route = make_request(Op::kRoute, 0);
  route.design = "unit";
  response = client.call(std::move(route));
  ASSERT_TRUE(response && response->type == "done");

  const std::string state_path = config.socket_path + ".state";
  Request save = make_request(Op::kSaveState, 0);
  save.design = "unit";
  save.path = state_path;
  response = client.call(std::move(save));
  ASSERT_TRUE(response && response->type == "done") << response->error;

  Request reload = make_request(Op::kLoadState, 0);
  reload.design = "unit2";
  reload.path = state_path;
  response = client.call(std::move(reload));
  ASSERT_TRUE(response && response->type == "done") << response->error;
  ASSERT_NE(response->payload.get("routed"), nullptr);
  EXPECT_TRUE(response->payload.get("routed")->as_bool());

  // The reloaded resident accepts an ECO directly — no fresh full route.
  Request eco = make_request(Op::kEco, 0);
  eco.design = "unit2";
  eco.nets = routable_nets(design.netlist, 4);
  response = client.call(std::move(eco));
  ASSERT_TRUE(response && response->type == "done") << response->error;

  ::unlink(state_path.c_str());
  server.stop();
}

// ----------------------------------------------------------- observability

netlist::Design small_design(unsigned seed) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 40;
  spec.pins = 120;
  auto circuit = bench_suite::generate_circuit(spec, {}, seed);
  return netlist::Design{circuit.grid, std::move(circuit.netlist)};
}

/// Load `design` onto the daemon as `name` and route it; asserts success.
void load_and_route(Client& client, const std::string& name,
                    const netlist::Design& design) {
  std::ostringstream design_text;
  netlist::write_design(design_text, design);
  Request load = make_request(Op::kLoad, 0);
  load.design = name;
  load.design_text = design_text.str();
  auto response = client.call(std::move(load));
  ASSERT_TRUE(response && response->type == "done") << response->error;
  Request route = make_request(Op::kRoute, 0);
  route.design = name;
  response = client.call(std::move(route));
  ASSERT_TRUE(response && response->type == "done") << response->error;
}

TEST(ServeServer, MetricsRequestRendersValidPrometheusText) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".m";
  config.lanes = 1;  // the gauges below name lane 0 only
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  const netlist::Design design = small_design(5);
  load_and_route(client, "unit", design);

  auto response = client.call(make_request(Op::kMetrics, 0));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, "ack") << response->error;
  const report::Json* content_type = response->payload.get("content_type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_EQ(content_type->as_string(), "text/plain; version=0.0.4");
  const report::Json* text_json = response->payload.get("text");
  ASSERT_NE(text_json, nullptr);
  const std::string text = text_json->as_string();

  // The exposition parses: every line is a `# TYPE mebl_* <kind>` comment
  // or `mebl_name[{labels}] <number>`.
  std::istringstream lines(text);
  int metric_lines = 0;
  for (std::string line; std::getline(lines, line);) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE mebl_", 0), 0u) << line;
      continue;
    }
    EXPECT_EQ(line.rfind("mebl_", 0), 0u) << line;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    char* end = nullptr;
    (void)std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
    ++metric_lines;
  }
  EXPECT_GT(metric_lines, 10);

  // Queue-wait and route-latency summaries with p50/p95/p99 lines, plus the
  // server's own gauges (queue depth, in-flight, per-design residency).
  for (const char* needle :
       {"# TYPE mebl_serve_queue_wait_ns summary",
        "mebl_serve_queue_wait_ns{quantile=\"0.5\"} ",
        "mebl_serve_queue_wait_ns{quantile=\"0.95\"} ",
        "mebl_serve_queue_wait_ns{quantile=\"0.99\"} ",
        "mebl_serve_job_route_ns{quantile=\"0.99\"} ",
        "mebl_serve_job_total_ns_count ",
        "mebl_serve_requests_decoded ",
        "mebl_serve_jobs_route ",
        "mebl_serve_queue_depth 0",
        "mebl_serve_jobs_inflight 0",
        "mebl_serve_lanes 1",
        "mebl_serve_lane_depth{lane=\"0\"} 0",
        "mebl_serve_lane_busy{lane=\"0\"} 0",
        "mebl_serve_lane_jobs{lane=\"0\"} 2",
        "mebl_serve_cache_residents 1",
        "mebl_serve_cache_resident{design=\"unit\"} 1"})
    EXPECT_NE(text.find(needle), std::string::npos)
        << "metrics text lacks: " << needle;

  server.stop();
}

TEST(ServeServer, EcoSpansAllCarryTheRequestId) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".t";
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  const netlist::Design design = small_design(7);
  load_and_route(client, "unit", design);

  // Trace exactly the ECO request's lifetime.
  telemetry::Tracer::enable();
  telemetry::Tracer::clear();
  Request eco = make_request(Op::kEco, 0);
  eco.design = "unit";
  eco.nets = routable_nets(design.netlist, 4);
  ASSERT_GE(eco.nets.size(), 4u);
  auto response = client.call(std::move(eco));
  telemetry::Tracer::disable();
  ASSERT_TRUE(response && response->type == "done") << response->error;
  const std::uint64_t request_id = static_cast<std::uint64_t>(response->id);
  ASSERT_GT(request_id, 0u);

  const auto events = telemetry::Tracer::events();
  ASSERT_FALSE(events.empty());
  bool saw_queue_wait = false;
  bool saw_dispatch = false;
  bool saw_eco = false;
  for (const telemetry::SpanEvent& event : events) {
    EXPECT_EQ(event.req, request_id)
        << "span '" << event.name << "' lost the request tag";
    const std::string name = event.name;
    saw_queue_wait |= name == "serve.queue_wait";
    saw_dispatch |= name == "serve.dispatch";
    saw_eco |= name == "serve.eco";
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_dispatch);
  EXPECT_TRUE(saw_eco);

  telemetry::Tracer::clear();
  server.stop();
}

TEST(ServeServer, SlowEcoWarnCarriesTheEcoStageBreakdown) {
  struct LogCapture {
    std::ostringstream text;
    util::LogLevel saved = util::Log::level();
    LogCapture() {
      util::Log::set_level(util::LogLevel::kWarn);
      util::Log::set_sink(&text);
    }
    ~LogCapture() {
      util::Log::set_sink(nullptr);
      util::Log::set_level(saved);
    }
  } capture;  // outlives the server, which logs until stop()

  ServerConfig config;
  config.socket_path = test_socket_path() + ".w";
  config.slow_job_seconds = 1e-9;  // every job is slow
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));
  const netlist::Design design = small_design(11);
  load_and_route(client, "unit", design);
  Request eco = make_request(Op::kEco, 0);
  eco.design = "unit";
  eco.nets = routable_nets(design.netlist, 1);
  const auto response = client.call(std::move(eco));
  ASSERT_TRUE(response && response->type == "done") << response->error;
  // stop() joins the lanes, so the WARN written after the response is in.
  server.stop();
  util::Log::set_sink(nullptr);

  const std::string text = capture.text.str();
  const std::size_t at = text.find("slow_job op=eco");
  ASSERT_NE(at, std::string::npos) << text;
  const std::string line = text.substr(at, text.find('\n', at) - at);
  EXPECT_NE(line.find(" stages=[global="), std::string::npos) << line;
  for (const core::Stage stage :
       {core::Stage::kLayerAssign, core::Stage::kTrackAssign,
        core::Stage::kDetail, core::Stage::kMetrics})
    EXPECT_NE(line.find(std::string(",") + core::stage_name(stage) + "="),
              std::string::npos)
        << line;
}

TEST(ServeServer, DumpRequestWritesFlightRecorderFile) {
  telemetry::FlightRecorder::enable();
  ServerConfig config;
  config.socket_path = test_socket_path() + ".d";
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  const netlist::Design design = small_design(9);
  load_and_route(client, "unit", design);

  const std::string dump_path = config.socket_path + ".flight";
  Request dump = make_request(Op::kDump, 0);
  dump.path = dump_path;
  auto response = client.call(std::move(dump));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, "ack") << response->error;
  const report::Json* path_json = response->payload.get("path");
  ASSERT_NE(path_json, nullptr);
  EXPECT_EQ(path_json->as_string(), dump_path);
  const report::Json* events_json = response->payload.get("events");
  ASSERT_NE(events_json, nullptr);
  EXPECT_GT(events_json->as_int(), 0);

  std::ifstream in(dump_path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_EQ(text.rfind("# mebl flight recorder v1", 0), 0u);
  EXPECT_NE(text.find(" span serve."), std::string::npos)
      << "dump carries no serve-layer spans";

  telemetry::FlightRecorder::reset_for_testing();
  ::unlink(dump_path.c_str());
  server.stop();
}

// ---------------------------------------------------- lanes and coalescing

/// A design big enough that its route keeps a lane busy for tens of
/// milliseconds — the window the pipelined tests below queue work into.
netlist::Design medium_design(unsigned seed) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 300;
  spec.pins = 900;
  auto circuit = bench_suite::generate_circuit(spec, {}, seed);
  return netlist::Design{circuit.grid, std::move(circuit.netlist)};
}

TEST(ServeServer, EcoBurstCoalescesIntoOneBatchOverSocket) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".c";
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  const netlist::Design design = medium_design(17);
  load_and_route(client, "burst", design);

  // Occupy the design's lane with a full route, then land three ECOs in
  // one socket write: they queue consecutively behind the route and must
  // coalesce into a single batched reroute.
  const auto before = telemetry::snapshot_counters();
  Request route = make_request(Op::kRoute, 0);
  route.design = "burst";
  const std::int64_t route_id = client.send(route);
  ASSERT_GE(route_id, 0);
  std::vector<Request> burst;
  for (int i = 0; i < 3; ++i) {
    Request eco = make_request(Op::kEco, 0);
    eco.design = "burst";
    eco.nets = routable_nets(design.netlist, 4);
    eco.verify = i == 2;
    burst.push_back(std::move(eco));
  }
  const std::vector<std::int64_t> burst_ids =
      client.send_batch(std::move(burst));
  ASSERT_EQ(burst_ids.size(), 3u);

  std::set<std::int64_t> outstanding(burst_ids.begin(), burst_ids.end());
  outstanding.insert(route_id);
  while (!outstanding.empty()) {
    const auto response = client.receive();
    ASSERT_TRUE(response.has_value());
    if (response->type == "ack" || response->type == "progress") continue;
    ASSERT_EQ(outstanding.erase(response->id), 1u);
    ASSERT_EQ(response->type, "done") << response->error;
    if (response->id == route_id) continue;
    // Every batch member's response names the batch it rode in.
    const report::Json* summary = response->payload.get("eco");
    ASSERT_NE(summary, nullptr);
    ASSERT_NE(summary->get("coalesced"), nullptr);
    EXPECT_EQ(summary->get("coalesced")->as_int(), 3);
    if (response->id == burst_ids.back()) {
      ASSERT_NE(summary->get("verified"), nullptr);
      EXPECT_TRUE(summary->get("verified")->as_bool())
          << "the merged batch failed its verify replay";
    } else {
      EXPECT_EQ(summary->get("verified"), nullptr)
          << "verified must only fan out to the member that asked";
    }
  }
  const auto stats = telemetry::delta(before, telemetry::snapshot_counters());
  EXPECT_EQ(stats.value(telemetry::keys::kServeEcoCoalesced), 2)
      << "three consecutive ECOs must absorb two into the batch";
  server.stop();
}

TEST(ServeServer, ExpiredDeadlineRejectedBeforeStart) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".dl";
  config.lanes = 1;
  Server server(config);
  ASSERT_TRUE(server.start());
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));

  const netlist::Design design = medium_design(19);
  load_and_route(client, "busy", design);

  // Occupy the lane, then queue an ECO whose deadline expires while it
  // waits: the lane must reject it with a structured error instead of
  // starting and then cancelling it.
  const auto before = telemetry::snapshot_counters();
  Request route = make_request(Op::kRoute, 0);
  route.design = "busy";
  ASSERT_GE(client.send(route), 0);
  Request eco = make_request(Op::kEco, 0);
  eco.design = "busy";
  eco.nets = routable_nets(design.netlist, 4);
  eco.deadline_seconds = 0.001;
  const auto response = client.call(std::move(eco));
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, "error");
  EXPECT_EQ(response->error, "deadline exceeded");
  const report::Json* code = response->payload.get("code");
  ASSERT_NE(code, nullptr);
  EXPECT_EQ(code->as_string(), "deadline_exceeded");
  const report::Json* rejected = response->payload.get("rejected_before_start");
  ASSERT_NE(rejected, nullptr);
  EXPECT_TRUE(rejected->as_bool());

  // A queued route takes the same path: occupy the lane again, then queue a
  // route whose deadline expires while it waits.
  ASSERT_GE(client.send(route), 0);
  Request late_route = make_request(Op::kRoute, 0);
  late_route.design = "busy";
  late_route.deadline_seconds = 0.001;
  const auto route_response = client.call(std::move(late_route));
  ASSERT_TRUE(route_response.has_value());
  ASSERT_EQ(route_response->type, "error");
  EXPECT_EQ(route_response->error, "deadline exceeded");
  const report::Json* route_rejected =
      route_response->payload.get("rejected_before_start");
  ASSERT_NE(route_rejected, nullptr);
  EXPECT_TRUE(route_rejected->as_bool());

  const auto stats = telemetry::delta(before, telemetry::snapshot_counters());
  EXPECT_EQ(stats.value(telemetry::keys::kServeDeadlineRejected), 2);
  server.stop();
}

TEST(ServeServer, CrossLaneConcurrencySmoke) {
  ServerConfig config;
  config.socket_path = test_socket_path() + ".x";
  config.lanes = 2;
  Server server(config);
  ASSERT_TRUE(server.start());

  // Two designs whose names hash to the two different lanes.
  const std::string name_a = "lane_smoke_a";
  const std::size_t lane_a = LaneScheduler::lane_for(name_a, 2);
  std::string name_b = "lane_smoke_b";
  for (int i = 0; LaneScheduler::lane_for(name_b, 2) == lane_a; ++i)
    name_b = "lane_smoke_b" + std::to_string(i);

  // One client thread per design: load, route, ECO, all overlapping with
  // the other design's jobs on the other lane. Collect the lane index of
  // every enqueue ack; the lane-affinity invariant says each design only
  // ever sees its own lane.
  struct Worker {
    bool ok = false;
    std::string error;
    std::set<std::int64_t> lanes_seen;
  };
  Worker workers[2];
  const std::string names[2] = {name_a, name_b};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&, w] {
      Worker& worker = workers[w];
      Client client;
      if (!client.connect(config.socket_path)) {
        worker.error = "connect failed";
        return;
      }
      const auto lane_collector = [&worker](const Response& event) {
        if (event.type != "ack") return;
        if (const report::Json* lane = event.payload.get("lane"))
          worker.lanes_seen.insert(lane->as_int());
      };
      const netlist::Design design = medium_design(23 + w);
      std::ostringstream design_text;
      netlist::write_design(design_text, design);
      Request load = make_request(Op::kLoad, 0);
      load.design = names[w];
      load.design_text = design_text.str();
      auto response = client.call(std::move(load), lane_collector);
      if (!response || response->type != "done") {
        worker.error = "load failed";
        return;
      }
      Request route = make_request(Op::kRoute, 0);
      route.design = names[w];
      response = client.call(std::move(route), lane_collector);
      if (!response || response->type != "done") {
        worker.error = "route failed";
        return;
      }
      Request eco = make_request(Op::kEco, 0);
      eco.design = names[w];
      eco.nets = routable_nets(design.netlist, 4);
      response = client.call(std::move(eco), lane_collector);
      if (!response || response->type != "done") {
        worker.error = "eco failed";
        return;
      }
      worker.ok = true;
    });
  for (std::thread& thread : threads) thread.join();

  for (int w = 0; w < 2; ++w) {
    EXPECT_TRUE(workers[w].ok) << names[w] << ": " << workers[w].error;
    EXPECT_EQ(workers[w].lanes_seen.size(), 1u)
        << names[w] << " was dispatched on more than one lane";
    EXPECT_EQ(*workers[w].lanes_seen.begin(),
              static_cast<std::int64_t>(LaneScheduler::lane_for(names[w], 2)));
  }
  EXPECT_NE(*workers[0].lanes_seen.begin(), *workers[1].lanes_seen.begin());

  // Status reports the lane count; shutdown drains every lane and stops.
  Client client;
  ASSERT_TRUE(client.connect(config.socket_path));
  auto response = client.call(make_request(Op::kStatus, 0));
  ASSERT_TRUE(response.has_value());
  ASSERT_NE(response->payload.get("lanes"), nullptr);
  EXPECT_EQ(response->payload.get("lanes")->as_int(), 2);
  response = client.call(make_request(Op::kShutdown, 0));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->type, "done");
  server.wait();
  server.stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace mebl::serve
