#include "detail/batch_schedule.hpp"

#include <algorithm>
#include <cassert>

namespace mebl::detail {

using geom::Coord;
using geom::Orientation;
using geom::Rect;

Rect subnet_search_box(const netlist::Subnet& subnet,
                       const assign::RoutePlan& plan, std::size_t idx,
                       const grid::RoutingGrid& rg, Coord margin) {
  Rect box = subnet.bbox().inflated(margin);
  if (idx < plan.runs_of_path.size()) {
    for (const std::size_t id : plan.runs_of_path[idx]) {
      const assign::GlobalRun& run = plan.runs[id];
      if (run.dir == Orientation::kVertical) {
        // The realizer rides the run's assigned tracks: cover every piece's
        // x column (doglegs jog between piece tracks, never beyond them).
        for (const auto& [rows, x] : run.pieces)
          box = box.hull(Rect{x, subnet.a.y, x, subnet.a.y});
      } else {
        // Horizontal legs run at rows clamped into the run's panel; their x
        // extents are bounded by the piece tracks and pins covered above.
        const geom::Interval ys = rg.tile_y_span(run.fixed_tile);
        box = box.hull(Rect{subnet.a.x, ys.lo, subnet.a.x, ys.hi});
      }
    }
  }
  return box.intersect(rg.extent());
}

std::vector<std::vector<std::size_t>> gather_disjoint_batches(
    const std::vector<std::size_t>& order, const std::vector<Rect>& boxes,
    Coord bin_size, std::size_t max_batch) {
  assert(bin_size > 0);
  if (max_batch == 0) max_batch = 1;

  // Uniform-bin conservative overlap test: a batch stamps the bins its
  // boxes touch; a candidate conflicts when any of its bins is stamped.
  // Rect overlap implies bin-range overlap, so an unstamped candidate is
  // guaranteed disjoint from the whole batch (the converse may spuriously
  // close a batch early, which costs parallelism but never correctness).
  // The bin grid covers only the hull of the boxes.
  assert(boxes.size() == order.size());
  const auto bin_of = [bin_size](Coord c) {
    return c <= 0 ? Coord{0} : c / bin_size;
  };
  Rect hull;
  for (const Rect& r : boxes)
    if (!r.empty()) hull = hull.hull(r);
  const Coord bin_x0 = bin_of(hull.xlo);
  const Coord bin_y0 = bin_of(hull.ylo);
  const auto bins_x = static_cast<std::size_t>(bin_of(hull.xhi) - bin_x0) + 1;
  const auto bins_y = static_cast<std::size_t>(bin_of(hull.yhi) - bin_y0) + 1;
  std::vector<std::uint32_t> bin_stamp(bins_x * bins_y, 0);
  std::uint32_t epoch = 0;

  const auto scan = [&](const Rect& r, bool mark) {
    // mark=false: return true on conflict. mark=true: stamp the bins. An
    // empty box touches no bin.
    if (r.empty()) return false;
    const auto bx0 = static_cast<std::size_t>(bin_of(r.xlo) - bin_x0);
    const auto bx1 = static_cast<std::size_t>(bin_of(r.xhi) - bin_x0);
    const auto by0 = static_cast<std::size_t>(bin_of(r.ylo) - bin_y0);
    const auto by1 = static_cast<std::size_t>(bin_of(r.yhi) - bin_y0);
    for (std::size_t by = by0; by <= by1; ++by)
      for (std::size_t bx = bx0; bx <= bx1; ++bx) {
        std::uint32_t& s = bin_stamp[by * bins_x + bx];
        if (mark)
          s = epoch;
        else if (s == epoch)
          return true;
      }
    return false;
  };

  std::vector<std::vector<std::size_t>> batches;
  std::size_t pos = 0;
  while (pos < order.size()) {
    ++epoch;
    std::vector<std::size_t> batch;
    batch.push_back(order[pos]);
    scan(boxes[pos], /*mark=*/true);
    ++pos;
    while (pos < order.size() && batch.size() < max_batch) {
      const Rect& candidate = boxes[pos];
      if (scan(candidate, /*mark=*/false)) break;
      scan(candidate, /*mark=*/true);
      batch.push_back(order[pos]);
      ++pos;
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

}  // namespace mebl::detail
