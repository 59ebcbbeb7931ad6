#include "netlist/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "bench_suite/circuit_generator.hpp"

namespace mebl::netlist {
namespace {

Design make_design() {
  Design design{grid::RoutingGrid(90, 60, 3, 30, grid::StitchPlan(90, 15)),
                Netlist{}};
  const auto a = design.netlist.add_net("clk");
  design.netlist.add_pin(a, {5, 5});
  design.netlist.add_pin(a, {80, 50});
  const auto b = design.netlist.add_net("d0");
  design.netlist.add_pin(b, {40, 10});
  design.netlist.add_pin(b, {41, 11});
  design.netlist.add_pin(b, {42, 12});
  return design;
}

TEST(NetlistIo, RoundTripUniformPlan) {
  const Design original = make_design();
  std::stringstream buffer;
  write_design(buffer, original);
  const auto loaded = read_design(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->grid.width(), 90);
  EXPECT_EQ(loaded->grid.height(), 60);
  EXPECT_EQ(loaded->grid.num_routing_layers(), 3);
  EXPECT_EQ(loaded->grid.tile_size(), 30);
  EXPECT_EQ(loaded->grid.stitch().lines(), original.grid.stitch().lines());
  ASSERT_EQ(loaded->netlist.num_nets(), original.netlist.num_nets());
  ASSERT_EQ(loaded->netlist.num_pins(), original.netlist.num_pins());
  for (std::size_t i = 0; i < original.netlist.num_pins(); ++i)
    EXPECT_EQ(loaded->netlist.pins()[i].pos, original.netlist.pins()[i].pos);
  EXPECT_EQ(loaded->netlist.net(0).name, "clk");
}

TEST(NetlistIo, RoundTripNonUniformPlan) {
  Design design{
      grid::RoutingGrid(100, 50, 4, 25,
                        grid::StitchPlan::from_lines(100, {13, 40, 41, 77}, 2, 3)),
      Netlist{}};
  const auto a = design.netlist.add_net("x");
  design.netlist.add_pin(a, {1, 1});
  std::stringstream buffer;
  write_design(buffer, design);
  const auto loaded = read_design(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->grid.stitch().lines(),
            (std::vector<geom::Coord>{13, 40, 41, 77}));
  EXPECT_EQ(loaded->grid.stitch().epsilon(), 2);
  EXPECT_EQ(loaded->grid.stitch().escape_halfwidth(), 3);
}

TEST(NetlistIo, RejectsBadHeader) {
  std::stringstream buffer("nope 1\n");
  EXPECT_FALSE(read_design(buffer).has_value());
}

TEST(NetlistIo, RejectsUnsupportedVersion) {
  std::stringstream buffer("mebl 2\ngrid 10 10 3 5\nstitch 5 1 2\n");
  EXPECT_FALSE(read_design(buffer).has_value());
}

TEST(NetlistIo, RejectsTruncatedPins) {
  std::stringstream buffer(
      "mebl 1\ngrid 30 30 3 15\nstitch 15 1 2\nnet a 2 1 1\n");
  EXPECT_FALSE(read_design(buffer).has_value());
}

TEST(NetlistIo, RejectsOutOfBoundsPin) {
  std::stringstream buffer(
      "mebl 1\ngrid 30 30 3 15\nstitch 15 1 2\nnet a 1 99 0\n");
  EXPECT_FALSE(read_design(buffer).has_value());
}

TEST(NetlistIo, RejectsMalformedGrid) {
  std::stringstream buffer("mebl 1\ngrid -5 10 3 15\nstitch 15 1 2\n");
  EXPECT_FALSE(read_design(buffer).has_value());
}

// A few bytes must not make the parser allocate without bound: a
// `stitch_lines` count past the layout width, and an extent or layer count
// past the supported maximum, are structured failures, not exceptions.
TEST(NetlistIo, RejectsHostileCountsAndExtentsWithoutThrowing) {
  for (const char* text :
       {"mebl 1\ngrid 10 10 2 1\nstitch_lines 0 0 4611686018427387904\n",
        "mebl 1\ngrid 10 10 2 1\nstitch_lines 0 0 10 1 2 3 4 5 6 7 8 9 9\n",
        "mebl 1\ngrid 2000000000 10 2 1\nstitch 1 0 0\n",
        "mebl 1\ngrid 10 2000000000 2 1\nstitch 5 1 2\n",
        "mebl 1\ngrid 10 10 1000000 1\nstitch 5 1 2\n",
        "mebl 1\ngrid 10 10 2 1\nstitch 5 1 -1\n",
        // Every extent legal, but billions of tiles and detail nodes.
        "mebl 1\ngrid 65536 65536 16 1\nstitch 15 1 2\nnet n 2 0 0 9 9\n"}) {
    std::stringstream buffer(text);
    std::optional<Design> design;
    EXPECT_NO_THROW(design = read_design(buffer)) << text;
    EXPECT_FALSE(design.has_value()) << text;
  }
  // The largest legal line count still parses.
  std::stringstream buffer(
      "mebl 1\ngrid 10 10 2 5\nstitch_lines 0 0 9 1 2 3 4 5 6 7 8 9\n");
  const auto design = read_design(buffer);
  ASSERT_TRUE(design.has_value());
  EXPECT_EQ(design->grid.stitch().lines().size(), 9u);
}

TEST(NetlistIo, FileRoundTrip) {
  const Design original = make_design();
  const std::string path = ::testing::TempDir() + "/mebl_io_test.mebl";
  ASSERT_TRUE(save_design(path, original));
  const auto loaded = load_design(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->netlist.num_pins(), original.netlist.num_pins());
  std::remove(path.c_str());
}

TEST(NetlistIo, LoadMissingFileFails) {
  EXPECT_FALSE(load_design("/nonexistent/definitely_missing.mebl").has_value());
}

TEST(NetlistIo, GeneratedCircuitRoundTrips) {
  const auto spec = *bench_suite::find_spec("S9234");
  auto circuit = bench_suite::generate_circuit(spec, {}, 3);
  Design design{circuit.grid, std::move(circuit.netlist)};
  std::stringstream buffer;
  write_design(buffer, design);
  const auto loaded = read_design(buffer);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->netlist.num_pins(), design.netlist.num_pins());
  for (std::size_t i = 0; i < design.netlist.num_pins(); ++i) {
    EXPECT_EQ(loaded->netlist.pins()[i].pos, design.netlist.pins()[i].pos);
    EXPECT_EQ(loaded->netlist.pins()[i].net, design.netlist.pins()[i].net);
  }
}

}  // namespace
}  // namespace mebl::netlist
