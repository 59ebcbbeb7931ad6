#include "global/search_scratch.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace mebl::global {

using geom::Rect;
using grid::GCellId;

namespace {

/// Min-heap order on f, exactly the comparator of the old
/// std::priority_queue<HeapEntry, vector, std::greater<>> (which compared
/// only f), so pop order — ties included — is bit-for-bit unchanged.
constexpr auto kHeapGreater = [](const GlobalSearchScratch::HeapEntry& a,
                                 const GlobalSearchScratch::HeapEntry& b) {
  return a.f > b.f;
};

}  // namespace

bool GlobalSearchScratch::begin(std::size_t num_states) {
  const bool reused = stamp.size() >= num_states;
  if (!reused) {
    stamp.assign(num_states, 0);
    dist.resize(num_states);
    parent.resize(num_states);
    epoch = 0;
  }
  if (++epoch == 0) {  // wrap-around: stamps from epoch 2^32 ago are stale
    std::fill(stamp.begin(), stamp.end(), 0);
    epoch = 1;
  }
  heap.clear();
  last_pops = 0;
  last_reused = reused;
  return reused;
}

void GlobalSearchScratch::begin_corridor(std::size_t num_tiles) {
  if (corridor_stamp.size() < num_tiles) {
    corridor_stamp.assign(num_tiles, 0);
    corridor_epoch = 0;
  }
  if (++corridor_epoch == 0) {  // wrap-around, as in begin()
    std::fill(corridor_stamp.begin(), corridor_stamp.end(), 0);
    corridor_epoch = 1;
  }
}

bool search_tiles_astar(const RoutingGraph& graph,
                        const GlobalSearchParams& params, GCellId from,
                        GCellId to, const Rect& region,
                        GlobalSearchScratch& scratch, double* cost,
                        bool corridor) {
  scratch.path.clear();
  if (from == to) {
    scratch.path.push_back(from);
    if (cost != nullptr) *cost = 0.0;
    return true;
  }
  const int tiles_x = graph.tiles_x();
  const auto in_region = [&](int tx, int ty) {
    return tx >= region.xlo && tx <= region.xhi && ty >= region.ylo &&
           ty <= region.yhi &&
           (!corridor ||
            scratch.in_corridor(static_cast<std::size_t>(ty) * tiles_x + tx));
  };
  assert(in_region(from.tx, from.ty) && in_region(to.tx, to.ty));

  // Full-grid state indexing, so region searches and the full-grid fallback
  // share one epoch-stamped allocation.
  const auto state_of = [&](int tx, int ty, int dir) {
    return (ty * tiles_x + tx) * 3 + dir;
  };
  const std::size_t num_states =
      static_cast<std::size_t>(tiles_x) * graph.tiles_y() * 3;
  scratch.begin(num_states);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto dist_of = [&](int s) {
    const auto i = static_cast<std::size_t>(s);
    return scratch.stamp[i] == scratch.epoch ? scratch.dist[i] : kInf;
  };
  const auto relax = [&](int s, double g, int par) {
    const auto i = static_cast<std::size_t>(s);
    scratch.stamp[i] = scratch.epoch;
    scratch.dist[i] = g;
    scratch.parent[i] = static_cast<std::int32_t>(par);
  };

  const auto heuristic = [&](int tx, int ty) {
    return static_cast<double>(std::abs(tx - to.tx) + std::abs(ty - to.ty));
  };
  const int start = state_of(from.tx, from.ty, kDirStart);
  relax(start, 0.0, -1);
  auto& heap = scratch.heap;
  heap.push_back({heuristic(from.tx, from.ty), 0.0, start});

  static constexpr int kDx[4] = {1, -1, 0, 0};
  static constexpr int kDy[4] = {0, 0, 1, -1};

  std::int64_t pops = 0;
  int goal_state = -1;
  while (!heap.empty()) {
    const GlobalSearchScratch::HeapEntry top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), kHeapGreater);
    heap.pop_back();
    ++pops;
    if (top.g > dist_of(top.state)) continue;
    const int cell = top.state / 3;
    const int dir = top.state % 3;
    const int tx = cell % tiles_x;
    const int ty = cell / tiles_x;
    if (tx == to.tx && ty == to.ty) {
      goal_state = top.state;
      if (cost != nullptr) *cost = top.g;
      break;
    }
    for (int m = 0; m < 4; ++m) {
      const int nx = tx + kDx[m];
      const int ny = ty + kDy[m];
      if (!in_region(nx, ny)) continue;
      const bool horizontal = m < 2;
      const double step = step_cost(graph, params, tx, ty, dir, nx, ny, to);
      const int next = state_of(nx, ny, horizontal ? kDirH : kDirV);
      const double ng = top.g + step;
      if (ng < dist_of(next)) {
        relax(next, ng, top.state);
        heap.push_back({ng + heuristic(nx, ny), ng, next});
        std::push_heap(heap.begin(), heap.end(), kHeapGreater);
      }
    }
  }
  scratch.last_pops = pops;
  if (goal_state < 0) return false;

  for (int s = goal_state; s != -1;
       s = scratch.parent[static_cast<std::size_t>(s)]) {
    const int cell = s / 3;
    const GCellId id{cell % tiles_x, cell / tiles_x};
    if (scratch.path.empty() || !(scratch.path.back() == id))
      scratch.path.push_back(id);
  }
  std::reverse(scratch.path.begin(), scratch.path.end());
  return true;
}

}  // namespace mebl::global
