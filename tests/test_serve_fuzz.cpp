// Seeded mutation fuzz of the serving layer's parsers (ctest label
// `serve`, so both sanitizer presets run it): valid inputs — a MEBL1
// design text, a request wire line and a routed-state file — are mutated
// with util::Rng over a fixed iteration count (byte flips, truncations,
// numbers swapped for 0, -1 or 2^62), and every parse (and every load of a
// routed state that parses) must end in a value or a structured failure.
// No exception may escape and, under the sanitizers, no memory error may
// occur.

#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "netlist/io.hpp"
#include "serve/protocol.hpp"
#include "serve/resident_design.hpp"
#include "serve/routed_state.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace mebl::serve {
namespace {

constexpr std::uint64_t kSeed = 20130602u;
constexpr int kIterations = 600;

/// Byte offsets [begin, end) of every decimal number (with its sign) in
/// `text`.
std::vector<std::pair<std::size_t, std::size_t>> number_spans(
    const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (std::size_t i = 0; i < text.size();) {
    const bool sign = text[i] == '-' && i + 1 < text.size() &&
                      std::isdigit(static_cast<unsigned char>(text[i + 1]));
    if (!sign && !std::isdigit(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    std::size_t end = i + (sign ? 1 : 0);
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end])))
      ++end;
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

/// One to three random edits of `input`: flip one bit of a byte, truncate,
/// or replace a number with 0, -1 or 2^62.
std::string mutate(const std::string& input, util::Rng& rng) {
  static const char* const kHostileNumbers[] = {"0", "-1",
                                                "4611686018427387904"};
  std::string out = input;
  const auto edits = rng.uniform_int(1, 3);
  for (std::int64_t e = 0; e < edits && !out.empty(); ++e) {
    const auto last = static_cast<std::int64_t>(out.size()) - 1;
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        const auto at = static_cast<std::size_t>(rng.uniform_int(0, last));
        out[at] = static_cast<char>(out[at] ^ (1 << rng.uniform_int(0, 7)));
        break;
      }
      case 1:
        out.resize(static_cast<std::size_t>(rng.uniform_int(0, last)));
        break;
      default: {
        const auto spans = number_spans(out);
        if (spans.empty()) break;
        const auto [begin, end] = spans[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(spans.size()) - 1))];
        out.replace(begin, end - begin, kHostileNumbers[rng.uniform_int(0, 2)]);
        break;
      }
    }
  }
  return out;
}

/// Silences the parsers' per-failure warnings for the test's duration.
class QuietLog {
 public:
  QuietLog() : saved_(util::Log::level()) {
    util::Log::set_level(util::LogLevel::kOff);
  }
  ~QuietLog() { util::Log::set_level(saved_); }
  QuietLog(const QuietLog&) = delete;
  QuietLog& operator=(const QuietLog&) = delete;

 private:
  util::LogLevel saved_;
};

netlist::Design fuzz_design(bool explicit_lines) {
  bench_suite::BenchmarkSpec spec;
  spec.name = "fuzz";
  spec.um_width = 60;
  spec.um_height = 60;
  spec.layers = 3;
  spec.nets = 12;
  spec.pins = 30;
  auto circuit = bench_suite::generate_circuit(spec, {}, kSeed);
  netlist::Design design{circuit.grid, std::move(circuit.netlist)};
  if (explicit_lines) {
    // A non-uniform plan serializes as a `stitch_lines` record.
    std::vector<geom::Coord> lines = design.grid.stitch().lines();
    if (!lines.empty()) lines.pop_back();
    const auto& grid = design.grid;
    design.grid = grid::RoutingGrid(
        grid.width(), grid.height(), grid.num_routing_layers(),
        grid.tile_size(),
        grid::StitchPlan::from_lines(grid.width(), std::move(lines)));
  }
  return design;
}

std::string design_text(const netlist::Design& design) {
  std::ostringstream out;
  netlist::write_design(out, design);
  return out.str();
}

TEST(ServeFuzz, MutatedDesignTextsParseOrFailCleanly) {
  const QuietLog quiet;
  util::Rng rng(kSeed);
  // Two generated designs (uniform `stitch` and explicit `stitch_lines`
  // plans) and a hand-written one whose few numbers are mostly header
  // fields, so the number swaps hit the counts and extents often.
  const std::string tiny =
      "mebl 1\ngrid 30 30 3 15\nstitch_lines 1 2 2 10 20\nnet a 2 1 1 5 5\n";
  for (const std::string& valid : {design_text(fuzz_design(false)),
                                   design_text(fuzz_design(true)), tiny}) {
    {
      std::istringstream in(valid);
      ASSERT_TRUE(netlist::read_design(in).has_value());
    }
    for (int i = 0; i < kIterations; ++i) {
      const std::string text = mutate(valid, rng);
      std::istringstream in(text);
      EXPECT_NO_THROW((void)netlist::read_design(in))
          << "iteration " << i << ":\n" << text;
    }
  }
}

TEST(ServeFuzz, MutatedRequestLinesDecodeOrFailCleanly) {
  const QuietLog quiet;
  Request eco;
  eco.op = Op::kEco;
  eco.id = 42;
  eco.design = "chip";
  eco.priority = 3;
  eco.deadline_seconds = 1.5;
  eco.nets = {4, 17, 23};
  eco.net_names = {"clk", "rst"};
  eco.moves = {{3, {7, 8}}, {5, {9, 10}}};
  eco.verify = true;
  Request load;
  load.op = Op::kLoad;
  load.id = 7;
  load.design = "chip";
  load.design_text = design_text(fuzz_design(false));

  util::Rng rng(kSeed);
  for (const Request& request : {eco, load}) {
    const std::string valid = encode(request);
    ASSERT_TRUE(decode_request(valid).has_value());
    for (int i = 0; i < kIterations; ++i) {
      const std::string line = mutate(valid, rng);
      EXPECT_NO_THROW((void)decode_request(line))
          << "iteration " << i << ":\n" << line;
    }
  }
}

/// Every mutated state that still parses is also loaded into a resident,
/// the path a daemon `load_state` request takes: reseeding the global
/// demand and restoring the detail geometry must reject what does not fit.
TEST(ServeFuzz, MutatedRoutedStatesLoadOrFailCleanly) {
  const QuietLog quiet;
  ResidentDesign resident(fuzz_design(false), core::RouterConfig{});
  ASSERT_TRUE(resident.route_full().ok);
  std::ostringstream saved;
  ASSERT_TRUE(resident.save_state(saved));
  const std::string valid = saved.str();
  {
    std::istringstream in(valid);
    ASSERT_TRUE(read_routed_state(in).has_value());
  }

  util::Rng rng(kSeed);
  for (int i = 0; i < kIterations; ++i) {
    const std::string text = mutate(valid, rng);
    std::istringstream parse(text);
    std::optional<LoadedState> parsed;
    EXPECT_NO_THROW(parsed = read_routed_state(parse)) << "iteration " << i;
    if (!parsed) continue;
    std::istringstream load(text);
    EXPECT_NO_THROW((void)ResidentDesign::from_state(load))
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace mebl::serve
