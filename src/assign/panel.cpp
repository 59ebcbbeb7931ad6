#include "assign/panel.hpp"

#include <cassert>

namespace mebl::assign {

using geom::Orientation;
using grid::GCellId;

RoutePlan extract_runs(const global::GlobalResult& result,
                       const std::vector<netlist::Subnet>& subnets) {
  assert(subnets.size() == result.paths.size());
  RoutePlan plan;
  plan.runs_of_path.resize(result.paths.size());

  for (std::size_t p = 0; p < result.paths.size(); ++p) {
    const auto& path = result.paths[p];
    if (path.tiles.size() < 2) continue;
    const auto& tiles = path.tiles;

    std::size_t i = 0;
    while (i + 1 < tiles.size()) {
      const bool vertical = tiles[i].tx == tiles[i + 1].tx;
      const std::size_t run_start = i;
      while (i + 1 < tiles.size() &&
             (tiles[i].tx == tiles[i + 1].tx) == vertical)
        ++i;
      GlobalRun run;
      run.net = subnets[p].net;
      run.path_index = p;
      run.dir = vertical ? Orientation::kVertical : Orientation::kHorizontal;
      if (vertical) {
        run.fixed_tile = tiles[run_start].tx;
        const int y0 = tiles[run_start].ty;
        const int y1 = tiles[i].ty;
        run.span = {std::min(y0, y1), std::max(y0, y1)};
        // Continuations: the tile adjacent to each end of the run along the
        // path tells us where the connected horizontal wire goes.
        const auto continuation_at = [&](std::size_t end_index,
                                         bool is_first) -> int {
          if (is_first) {
            if (end_index == 0) return 0;  // terminal (pin via)
            return tiles[end_index - 1].tx > tiles[end_index].tx ? +1 : -1;
          }
          if (end_index + 1 >= tiles.size()) return 0;
          return tiles[end_index + 1].tx > tiles[end_index].tx ? +1 : -1;
        };
        const int first_cont = continuation_at(run_start, true);
        const int last_cont = continuation_at(i, false);
        // Map path-order ends to span lo/hi ends.
        if (tiles[run_start].ty <= tiles[i].ty) {
          run.lo_continuation = first_cont;
          run.hi_continuation = last_cont;
        } else {
          run.lo_continuation = last_cont;
          run.hi_continuation = first_cont;
        }
      } else {
        run.fixed_tile = tiles[run_start].ty;
        const int x0 = tiles[run_start].tx;
        const int x1 = tiles[i].tx;
        run.span = {std::min(x0, x1), std::max(x0, x1)};
      }
      plan.runs_of_path[p].push_back(plan.runs.size());
      plan.runs.push_back(std::move(run));
    }
  }
  return plan;
}

void copy_assignment(const GlobalRun& from, GlobalRun& to) {
  to.layer = from.layer;
  to.pieces = from.pieces;
  to.ripped = from.ripped;
  to.bad_ends = from.bad_ends;
}

std::vector<std::size_t> runs_in_column_panel(const RoutePlan& plan, int tx) {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < plan.runs.size(); ++r)
    if (plan.runs[r].dir == Orientation::kVertical &&
        plan.runs[r].fixed_tile == tx)
      out.push_back(r);
  return out;
}

std::vector<std::size_t> runs_in_row_panel(const RoutePlan& plan, int ty) {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < plan.runs.size(); ++r)
    if (plan.runs[r].dir == Orientation::kHorizontal &&
        plan.runs[r].fixed_tile == ty)
      out.push_back(r);
  return out;
}

}  // namespace mebl::assign
