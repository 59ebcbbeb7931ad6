#include "serve/routed_state.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "serve/resident_design.hpp"

namespace mebl::serve {
namespace {

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
  for (std::size_t i = 0; i < result.global.paths.size(); ++i) {
    const global::TilePath& saved = loaded->state.global.paths[i];
    const global::TilePath& live = result.global.paths[i];
    EXPECT_EQ(saved.net, live.net);
    EXPECT_EQ(saved.routed, live.routed);
    ASSERT_EQ(saved.tiles.size(), live.tiles.size());
    for (std::size_t t = 0; t < live.tiles.size(); ++t) {
      EXPECT_EQ(saved.tiles[t].tx, live.tiles[t].tx);
      EXPECT_EQ(saved.tiles[t].ty, live.tiles[t].ty);
    }
  }

  ASSERT_EQ(loaded->state.plan.runs.size(), result.plan.runs.size());
  for (std::size_t i = 0; i < result.plan.runs.size(); ++i) {
    const assign::GlobalRun& saved = loaded->state.plan.runs[i];
    const assign::GlobalRun& live = result.plan.runs[i];
    EXPECT_EQ(saved.net, live.net);
    EXPECT_EQ(saved.dir, live.dir);
    EXPECT_EQ(saved.fixed_tile, live.fixed_tile);
    EXPECT_EQ(saved.span.lo, live.span.lo);
    EXPECT_EQ(saved.span.hi, live.span.hi);
    EXPECT_EQ(saved.layer, live.layer);
    EXPECT_EQ(saved.ripped, live.ripped);
    EXPECT_EQ(saved.bad_ends, live.bad_ends);
    EXPECT_EQ(saved.pieces, live.pieces);
  }
  EXPECT_EQ(loaded->state.plan.runs_of_path, result.plan.runs_of_path);

  ASSERT_EQ(loaded->state.detail.subnet_nodes.size(),
            result.detail.subnet_nodes.size());
  for (std::size_t i = 0; i < result.detail.subnet_nodes.size(); ++i) {
    EXPECT_EQ(loaded->state.detail.subnet_routed[i],
              result.detail.subnet_routed[i]);
    EXPECT_EQ(loaded->state.detail.subnet_method[i],
              result.detail.subnet_method[i]);
    ASSERT_EQ(loaded->state.detail.subnet_nodes[i].size(),
              result.detail.subnet_nodes[i].size());
    for (std::size_t n = 0; n < result.detail.subnet_nodes[i].size(); ++n)
      EXPECT_EQ(loaded->state.detail.subnet_nodes[i][n],
                result.detail.subnet_nodes[i][n]);
  }
  EXPECT_EQ(loaded->state.detail.routed, result.detail.routed);
  EXPECT_EQ(loaded->state.detail.failed, result.detail.failed);
  EXPECT_EQ(loaded->state.global.wirelength, result.global.wirelength);
  EXPECT_EQ(loaded->state.global.total_vertex_overflow,
            result.global.total_vertex_overflow);
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
    if (tokens.size() >= 12) break;  // p net ax ay bx by routed n tx ty tx ty
  }
  ASSERT_GE(tokens.size(), 12u);
  const std::size_t end = text.find('\n', begin);

  const auto with_first_tile = [&](const std::string& tx,
                                   const std::string& ty) {
    std::vector<std::string> edited = tokens;
    edited[8] = tx;
    edited[9] = ty;
    std::string line;
    for (const std::string& token : edited)
      line += (line.empty() ? "" : " ") + token;
    return text.substr(0, begin) + line + text.substr(end);
  };
  // Off the grid, and a repeated tile (a step of length zero).
  for (const std::string& tampered :
       {with_first_tile("-1", tokens[9]),
        with_first_tile(tokens[10], tokens[11])}) {
    std::istringstream parse(tampered);
    EXPECT_FALSE(read_routed_state(parse).has_value());
    std::istringstream load(tampered);
    EXPECT_EQ(ResidentDesign::from_state(load), nullptr);
  }
}

}  // namespace
}  // namespace mebl::serve
