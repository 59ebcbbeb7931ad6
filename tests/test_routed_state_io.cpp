#include "serve/routed_state.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "serve/resident_design.hpp"

namespace mebl::serve {
namespace {

/// The fields extract_runs derives from the paths (everything but the
/// assignment), with the per-path index.
void expect_same_extraction(const assign::RoutePlan& plan,
                            const assign::RoutePlan& extracted) {
  ASSERT_EQ(plan.runs.size(), extracted.runs.size());
  for (std::size_t i = 0; i < plan.runs.size(); ++i) {
    const assign::GlobalRun& run = plan.runs[i];
    const assign::GlobalRun& want = extracted.runs[i];
    EXPECT_EQ(run.net, want.net) << "run " << i;
    EXPECT_EQ(run.path_index, want.path_index) << "run " << i;
    EXPECT_EQ(run.dir, want.dir) << "run " << i;
    EXPECT_EQ(run.fixed_tile, want.fixed_tile) << "run " << i;
    EXPECT_EQ(run.span, want.span) << "run " << i;
    EXPECT_EQ(run.lo_continuation, want.lo_continuation) << "run " << i;
    EXPECT_EQ(run.hi_continuation, want.hi_continuation) << "run " << i;
  }
  EXPECT_EQ(plan.runs_of_path, extracted.runs_of_path);
}

/// Every assignment field of every run.
void expect_same_assignment(const assign::RoutePlan& a,
                            const assign::RoutePlan& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].layer, b.runs[i].layer) << "run " << i;
    EXPECT_EQ(a.runs[i].ripped, b.runs[i].ripped) << "run " << i;
    EXPECT_EQ(a.runs[i].bad_ends, b.runs[i].bad_ends) << "run " << i;
    EXPECT_EQ(a.runs[i].pieces, b.runs[i].pieces) << "run " << i;
  }
}

/// `text` with the first line starting with `prefix` replaced by `line`.
std::string with_line(const std::string& text, const std::string& prefix,
                      const std::string& line) {
  const std::size_t begin =
      text.rfind(prefix, 0) == 0 ? 0 : text.find("\n" + prefix) + 1;
  const std::size_t end = text.find('\n', begin);
  return text.substr(0, begin) + line + text.substr(end);
}

netlist::Design small_design() {
  bench_suite::BenchmarkSpec spec;
  spec.name = "unit";
  spec.um_width = 100;
  spec.um_height = 100;
  spec.layers = 3;
  spec.nets = 60;
  spec.pins = 170;
  auto circuit = bench_suite::generate_circuit(spec, {}, 7);
  return netlist::Design{circuit.grid, std::move(circuit.netlist)};
}

TEST(RoutedStateIo, RoundTripPreservesRoutedState) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);

  std::stringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const auto loaded = read_routed_state(buffer);
  ASSERT_TRUE(loaded.has_value());

  const core::RoutingResult& result = resident.result();
  ASSERT_EQ(loaded->state.global.paths.size(), result.global.paths.size());
  for (std::size_t i = 0; i < result.global.paths.size(); ++i)
    EXPECT_EQ(loaded->state.global.paths[i].tiles,
              result.global.paths[i].tiles)
        << "path " << i;

  // The loader rebuilds the runs from the paths and lays the saved
  // assignment over them: the whole plan comes back.
  expect_same_extraction(loaded->state.plan, result.plan);
  expect_same_assignment(loaded->state.plan, result.plan);

  EXPECT_EQ(loaded->state.detail.subnet_nodes, result.detail.subnet_nodes);
  EXPECT_EQ(loaded->state.detail.subnet_method, result.detail.subnet_method);
}

// The file stores no global totals; a rebuilt resident recomputes them from
// the reseeded graph and they equal the live route's.
TEST(RoutedStateIo, FromStateRecomputesGlobalTotals) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::stringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const auto rebuilt = ResidentDesign::from_state(buffer);
  ASSERT_NE(rebuilt, nullptr);

  const global::GlobalResult& live = resident.result().global;
  const global::GlobalResult& loaded = rebuilt->result().global;
  EXPECT_GT(live.wirelength, 0);
  EXPECT_EQ(loaded.wirelength, live.wirelength);
  EXPECT_EQ(loaded.total_vertex_overflow, live.total_vertex_overflow);
  EXPECT_EQ(loaded.max_vertex_overflow, live.max_vertex_overflow);
  EXPECT_EQ(loaded.total_edge_overflow, live.total_edge_overflow);
}

// A plan's extraction fields are always extract_runs of the current paths:
// after the full route and after every ECO of a stream (the ECO carries the
// assignment of unchanged paths over onto freshly extracted runs).
TEST(RoutedStateIo, PlanExtractionFollowsThePaths) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  const auto check = [&](const std::string& when) {
    SCOPED_TRACE(when);
    expect_same_extraction(
        resident.result().plan,
        assign::extract_runs(resident.result().global, resident.subnets()));
  };
  check("full route");
  const auto nets = static_cast<netlist::NetId>(
      resident.design().netlist.num_nets());
  for (netlist::NetId eco = 0; eco < 6; ++eco) {
    EcoRequest request;
    for (netlist::NetId k = 0; k < 4; ++k)
      request.nets.push_back((eco * 7 + k * 13) % nets);
    ASSERT_TRUE(resident.eco(request).ok) << "eco " << eco;
    check("eco " + std::to_string(eco));
  }
}

TEST(RoutedStateIo, RejectsVersionOneHeader) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const std::string text = buffer.str();
  ASSERT_EQ(text.rfind("mebl_routed 2\n", 0), 0u);
  std::istringstream old(with_line(text, "mebl_routed ", "mebl_routed 1"));
  EXPECT_FALSE(read_routed_state(old).has_value());
}

// A path must run from the tile of its subnet's pin a to the tile of pin b.
// Reversing a multi-tile path keeps it on the grid and 4-connected, but
// swaps its ends.
TEST(RoutedStateIo, RejectsPathOffItsSubnetsPins) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const std::string text = buffer.str();

  std::size_t index = 0;
  const auto& paths = resident.result().global.paths;
  while (index < paths.size() &&
         (paths[index].tiles.size() < 2 ||
          (paths[index].tiles.front().tx == paths[index].tiles.back().tx &&
           paths[index].tiles.front().ty == paths[index].tiles.back().ty)))
    ++index;
  ASSERT_LT(index, paths.size());
  std::string reversed = "p " + std::to_string(paths[index].tiles.size());
  for (auto it = paths[index].tiles.rbegin(); it != paths[index].tiles.rend();
       ++it)
    reversed += " " + std::to_string(it->tx) + " " + std::to_string(it->ty);

  // Replace the index-th `p` record.
  std::size_t begin = text.find("\npaths ");
  ASSERT_NE(begin, std::string::npos);
  for (std::size_t k = 0; k <= index; ++k) begin = text.find("\np ", begin + 1);
  ++begin;
  const std::size_t end = text.find('\n', begin);
  const std::string tampered =
      text.substr(0, begin) + reversed + text.substr(end);
  std::istringstream parse(tampered);
  EXPECT_FALSE(read_routed_state(parse).has_value());
  std::istringstream load(tampered);
  EXPECT_EQ(ResidentDesign::from_state(load), nullptr);
}

// Saved geometry of two nets on one node is rejected even when the node is
// free on the pin-only grid: the loader claims what it has checked.
TEST(RoutedStateIo, RejectsGeometryOfTwoNetsOnOneNode) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const std::string text = buffer.str();

  // A wire node (layer >= 2, never a pin reservation) of a later subnet j,
  // copied into the record of subnet 0 of another net.
  const auto& subnets = resident.subnets();
  const auto& nodes = resident.result().detail.subnet_nodes;
  std::size_t j = 1;
  geom::Point3 shared{};
  bool found = false;
  for (; j < subnets.size() && !found; ++j)
    if (subnets[j].net != subnets[0].net)
      for (const geom::Point3 p : nodes[j])
        if (p.layer >= 2) {
          shared = p;
          found = true;
          break;
        }
  ASSERT_TRUE(found);

  std::size_t begin = text.find("\nsubnets ");
  ASSERT_NE(begin, std::string::npos);
  begin = text.find("\ns ", begin + 1) + 1;
  const std::size_t end = text.find('\n', begin);
  const std::string record = "s 2 1 " + std::to_string(shared.x) + " " +
                             std::to_string(shared.y) + " " +
                             std::to_string(shared.layer);
  std::istringstream load(text.substr(0, begin) + record + text.substr(end));
  EXPECT_EQ(ResidentDesign::from_state(load), nullptr);
}

// The `runs` count must equal the number of runs the paths extract into;
// the records are positional, so a file with one more or one fewer is
// rejected instead of shifting every later assignment.
TEST(RoutedStateIo, RejectsAssignmentRecordCountMismatch) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const std::string text = buffer.str();
  const std::size_t runs = resident.result().plan.runs.size();
  ASSERT_GT(runs, 0u);
  ASSERT_NE(text.find("\nruns " + std::to_string(runs) + "\n"),
            std::string::npos);

  // One record dropped (and the count to match), then one record added.
  const std::size_t first = text.find("\nr ") + 1;
  const std::size_t first_end = text.find('\n', first) + 1;
  const std::string record = text.substr(first, first_end - first);
  const std::string dropped =
      with_line(text.substr(0, first) + text.substr(first_end), "runs ",
                "runs " + std::to_string(runs - 1));
  const std::string added =
      with_line(text.substr(0, first) + record + text.substr(first), "runs ",
                "runs " + std::to_string(runs + 1));
  for (const std::string& tampered : {dropped, added}) {
    std::istringstream parse(tampered);
    EXPECT_FALSE(read_routed_state(parse).has_value());
  }
}

TEST(RoutedStateIo, SavedBytesAreDeterministic) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream first, second;
  ASSERT_TRUE(resident.save_state(first));
  ASSERT_TRUE(resident.save_state(second));
  EXPECT_EQ(first.str(), second.str());
}

TEST(RoutedStateIo, FromStateRebuildsARoutedResident) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::stringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));

  const auto rebuilt = ResidentDesign::from_state(buffer);
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_TRUE(rebuilt->routed());
  EXPECT_EQ(rebuilt->result().metrics.wirelength,
            resident.result().metrics.wirelength);
  EXPECT_EQ(rebuilt->result().metrics.vias, resident.result().metrics.vias);
  EXPECT_EQ(rebuilt->result().metrics.short_polygons,
            resident.result().metrics.short_polygons);
  EXPECT_EQ(rebuilt->result().metrics.routed_nets,
            resident.result().metrics.routed_nets);

  // The rebuilt resident saves byte-identical state — the strong
  // round-trip the bit-identity contract needs.
  std::ostringstream original, reloaded;
  ASSERT_TRUE(resident.save_state(original));
  ASSERT_TRUE(rebuilt->save_state(reloaded));
  EXPECT_EQ(original.str(), reloaded.str());
}

TEST(RoutedStateIo, RejectsTruncatedDocument) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const std::string text = buffer.str();
  std::istringstream truncated(text.substr(0, text.size() / 2));
  EXPECT_FALSE(read_routed_state(truncated).has_value());
}

TEST(RoutedStateIo, RejectsTamperedDemand) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  std::string text = buffer.str();

  // Bump the first demand_h value; the document still parses, but the
  // integrity check against the reseeded graph must reject it.
  const std::size_t section = text.find("demand_h ");
  ASSERT_NE(section, std::string::npos);
  std::size_t value = text.find(' ', section + 9);  // skip the count
  ASSERT_NE(value, std::string::npos);
  ++value;
  text.insert(value, "9");

  std::istringstream tampered(text);
  EXPECT_EQ(ResidentDesign::from_state(tampered), nullptr);
}

// Reseeding the global demand indexes the edges of every saved tile path,
// so a path that leaves the tile grid, or whose steps are not 4-adjacent,
// is rejected at parse time instead of indexing out of bounds.
TEST(RoutedStateIo, RejectsTilePathOffTheGridOrNotFourConnected) {
  ResidentDesign resident(small_design());
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream buffer;
  ASSERT_TRUE(resident.save_state(buffer));
  const std::string text = buffer.str();

  // The first `p` record with at least two tiles, as tokens.
  std::size_t begin = 0;
  std::vector<std::string> tokens;
  for (std::size_t at = text.find("\np "); at != std::string::npos;
       at = text.find("\np ", at + 1)) {
    begin = at + 1;
    std::istringstream line(
        text.substr(begin, text.find('\n', begin) - begin));
    tokens.clear();
    for (std::string token; line >> token;) tokens.push_back(token);
    if (tokens.size() >= 6) break;  // p n tx ty tx ty
  }
  ASSERT_GE(tokens.size(), 6u);
  const std::size_t end = text.find('\n', begin);

  const auto with_first_tile = [&](const std::string& tx,
                                   const std::string& ty) {
    std::vector<std::string> edited = tokens;
    edited[2] = tx;
    edited[3] = ty;
    std::string line;
    for (const std::string& token : edited)
      line += (line.empty() ? "" : " ") + token;
    return text.substr(0, begin) + line + text.substr(end);
  };
  // Off the grid, and a repeated tile (a step of length zero).
  for (const std::string& tampered :
       {with_first_tile("-1", tokens[3]),
        with_first_tile(tokens[4], tokens[5])}) {
    std::istringstream parse(tampered);
    EXPECT_FALSE(read_routed_state(parse).has_value());
    std::istringstream load(tampered);
    EXPECT_EQ(ResidentDesign::from_state(load), nullptr);
  }
}

}  // namespace
}  // namespace mebl::serve
