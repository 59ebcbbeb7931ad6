#include "assign/panel.hpp"

#include <gtest/gtest.h>

namespace mebl::assign {
namespace {

using geom::Orientation;
using grid::GCellId;

global::GlobalResult make_result(std::vector<std::vector<GCellId>> paths) {
  global::GlobalResult result;
  for (auto& tiles : paths) result.paths.push_back({std::move(tiles)});
  return result;
}

/// One subnet per path, of net = path index (extract_runs reads only the
/// net).
std::vector<netlist::Subnet> subnets_for(const global::GlobalResult& result) {
  std::vector<netlist::Subnet> subnets(result.paths.size());
  for (std::size_t i = 0; i < subnets.size(); ++i)
    subnets[i].net = static_cast<netlist::NetId>(i);
  return subnets;
}

TEST(Panel, ExtractsSingleHorizontalRun) {
  const auto result = make_result({{{0, 2}, {1, 2}, {2, 2}}});
  const auto plan = extract_runs(result, subnets_for(result));
  ASSERT_EQ(plan.runs.size(), 1u);
  EXPECT_EQ(plan.runs[0].dir, Orientation::kHorizontal);
  EXPECT_EQ(plan.runs[0].fixed_tile, 2);
  EXPECT_EQ(plan.runs[0].span, (geom::Interval{0, 2}));
}

TEST(Panel, ExtractsLShape) {
  // Right two tiles, then down two tiles.
  const auto result = make_result({{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}}});
  const auto plan = extract_runs(result, subnets_for(result));
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].dir, Orientation::kHorizontal);
  EXPECT_EQ(plan.runs[1].dir, Orientation::kVertical);
  EXPECT_EQ(plan.runs[1].fixed_tile, 2);
  EXPECT_EQ(plan.runs[1].span, (geom::Interval{0, 2}));
  // The vertical run's upper (lo) end connects to a wire that came from the
  // left (continuation toward smaller x); its lower end is terminal.
  EXPECT_EQ(plan.runs[1].lo_continuation, -1);
  EXPECT_EQ(plan.runs[1].hi_continuation, 0);
}

TEST(Panel, ZShapeContinuations) {
  // down, right, down: the middle horizontal run joins two vertical runs.
  const auto result = make_result(
      {{{0, 0}, {0, 1}, {1, 1}, {2, 1}, {2, 2}}});
  const auto plan = extract_runs(result, subnets_for(result));
  ASSERT_EQ(plan.runs.size(), 3u);
  const auto& v1 = plan.runs[0];
  const auto& v2 = plan.runs[2];
  EXPECT_EQ(v1.dir, Orientation::kVertical);
  EXPECT_EQ(v1.span, (geom::Interval{0, 1}));
  EXPECT_EQ(v1.lo_continuation, 0);    // starts at the pin
  EXPECT_EQ(v1.hi_continuation, +1);   // wire leaves to larger x
  EXPECT_EQ(v2.dir, Orientation::kVertical);
  EXPECT_EQ(v2.lo_continuation, -1);   // wire arrives from smaller x
  EXPECT_EQ(v2.hi_continuation, 0);
}

TEST(Panel, UpwardVerticalRunMapsEndsCorrectly) {
  // Path going up (decreasing ty), then right.
  const auto result = make_result({{{1, 3}, {1, 2}, {1, 1}, {2, 1}}});
  const auto plan = extract_runs(result, subnets_for(result));
  ASSERT_EQ(plan.runs.size(), 2u);
  const auto& run = plan.runs[0];
  EXPECT_EQ(run.dir, Orientation::kVertical);
  EXPECT_EQ(run.span, (geom::Interval{1, 3}));
  // Path-start (pin) end is at ty=3 (span hi); the wire continues to larger
  // x at the ty=1 (span lo) end.
  EXPECT_EQ(run.hi_continuation, 0);
  EXPECT_EQ(run.lo_continuation, +1);
}

TEST(Panel, UnroutedAndTrivialPathsYieldNoRuns) {
  auto result = make_result({{{0, 0}}});
  result.paths.emplace_back();  // unrouted: no tiles
  const auto plan = extract_runs(result, subnets_for(result));
  EXPECT_TRUE(plan.runs.empty());
  EXPECT_EQ(plan.runs_of_path.size(), 2u);
  EXPECT_TRUE(plan.runs_of_path[0].empty());
}

TEST(Panel, PanelLookups) {
  const auto result = make_result({
      {{0, 0}, {0, 1}},          // vertical in column 0
      {{2, 0}, {2, 1}, {2, 2}},  // vertical in column 2
      {{0, 3}, {1, 3}},          // horizontal in row 3
  });
  const auto plan = extract_runs(result, subnets_for(result));
  EXPECT_EQ(runs_in_column_panel(plan, 0).size(), 1u);
  EXPECT_EQ(runs_in_column_panel(plan, 1).size(), 0u);
  EXPECT_EQ(runs_in_column_panel(plan, 2).size(), 1u);
  EXPECT_EQ(runs_in_row_panel(plan, 3).size(), 1u);
}

TEST(Panel, RunsOfPathPreserveOrder) {
  const auto result =
      make_result({{{0, 0}, {1, 0}, {1, 1}, {2, 1}, {2, 2}, {3, 2}}});
  const auto plan = extract_runs(result, subnets_for(result));
  ASSERT_EQ(plan.runs_of_path[0].size(), plan.runs.size());
  // Alternating H/V runs in path order.
  const auto& ids = plan.runs_of_path[0];
  for (std::size_t i = 0; i + 1 < ids.size(); ++i)
    EXPECT_NE(plan.runs[ids[i]].dir, plan.runs[ids[i + 1]].dir);
}

TEST(Panel, RunNetIsItsSubnets) {
  const auto result = make_result({{{0, 0}, {0, 1}}, {{1, 0}, {2, 0}}});
  std::vector<netlist::Subnet> subnets = subnets_for(result);
  subnets[0].net = 7;
  subnets[1].net = 3;
  const auto plan = extract_runs(result, subnets);
  ASSERT_EQ(plan.runs.size(), 2u);
  EXPECT_EQ(plan.runs[0].net, 7);
  EXPECT_EQ(plan.runs[0].path_index, 0u);
  EXPECT_EQ(plan.runs[1].net, 3);
  EXPECT_EQ(plan.runs[1].path_index, 1u);
}

TEST(Panel, CopyAssignmentCopiesOnlyTheAssignmentFields) {
  const auto result = make_result({{{0, 0}, {0, 1}, {0, 2}}, {{3, 0}, {3, 1}}});
  const auto plan = extract_runs(result, subnets_for(result));
  ASSERT_EQ(plan.runs.size(), 2u);
  GlobalRun from = plan.runs[1];
  from.layer = 2;
  from.pieces = {{{0, 1}, 95}};
  from.ripped = true;
  from.bad_ends = 1;
  GlobalRun to = plan.runs[0];
  copy_assignment(from, to);
  EXPECT_EQ(to.layer, 2);
  EXPECT_EQ(to.pieces, from.pieces);
  EXPECT_TRUE(to.ripped);
  EXPECT_EQ(to.bad_ends, 1);
  // The extraction fields stay those of the destination run.
  EXPECT_EQ(to.net, plan.runs[0].net);
  EXPECT_EQ(to.fixed_tile, 0);
  EXPECT_EQ(to.span, (geom::Interval{0, 2}));
}

}  // namespace
}  // namespace mebl::assign
