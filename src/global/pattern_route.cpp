#include "global/pattern_route.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace mebl::global {

using grid::GCellId;

namespace {

/// Guard against double-summation slop: an alternative path's A*-computed
/// cost can round below its real-number lower bound by at most ~n·ulp,
/// orders of magnitude under this margin for any realistic tile grid.
constexpr double kFloatMargin = 1e-6;

int step_toward(int cur, int target) { return target > cur ? 1 : -1; }

/// Walk one axis-aligned leg from (tx,ty) to `target`, accumulating the
/// kernel's step_cost into `cost` and tracking the entry direction.
/// Passes `goal` for the vertical-arrival line-end charge. When `emit` is
/// non-null the traversed tiles (excluding the leg's start) are appended.
void walk_leg(const RoutingGraph& graph, const GlobalSearchParams& params,
              int& tx, int& ty, int& dir, GCellId target, GCellId goal,
              double& cost, std::vector<GCellId>* emit) {
  while (tx != target.tx || ty != target.ty) {
    const bool horizontal = tx != target.tx;
    const int nx = horizontal ? tx + step_toward(tx, target.tx) : tx;
    const int ny = horizontal ? ty : ty + step_toward(ty, target.ty);
    cost = cost + step_cost(graph, params, tx, ty, dir, nx, ny, goal);
    tx = nx;
    ty = ny;
    dir = horizontal ? kDirH : kDirV;
    if (emit != nullptr) emit->push_back({tx, ty});
  }
}

double candidate_cost(const RoutingGraph& graph,
                      const GlobalSearchParams& params, GCellId from,
                      GCellId corner, GCellId to,
                      std::vector<GCellId>* emit) {
  double cost = 0.0;
  int tx = from.tx;
  int ty = from.ty;
  int dir = kDirStart;
  if (emit != nullptr) emit->push_back(from);
  walk_leg(graph, params, tx, ty, dir, corner, to, cost, emit);
  walk_leg(graph, params, tx, ty, dir, to, to, cost, emit);
  return cost;
}

}  // namespace

double pattern_candidate_cost(const RoutingGraph& graph,
                              const GlobalSearchParams& params, GCellId from,
                              GCellId corner, GCellId to) {
  return candidate_cost(graph, params, from, corner, to, nullptr);
}

bool try_pattern_route(const RoutingGraph& graph,
                       const GlobalSearchParams& params, GCellId from,
                       GCellId to, std::vector<GCellId>& out, double* cost) {
  if (from == to) return false;
  // The optimality argument needs every cost term non-negative.
  if (params.turn_cost < 0.0 ||
      (params.vertex_cost && params.vertex_weight < 0.0))
    return false;
  const double manhattan = static_cast<double>(
      std::abs(from.tx - to.tx) + std::abs(from.ty - to.ty));

  if (from.tx == to.tx || from.ty == to.ty) {
    // Unique monotone path; every alternative takes >= 2 extra unit steps.
    const double straight =
        pattern_candidate_cost(graph, params, from, from, to);
    if (!(straight < manhattan + 2.0 - kFloatMargin)) return false;
    out.clear();
    candidate_cost(graph, params, from, from, to, &out);
    if (cost != nullptr) *cost = straight;
    return true;
  }

  const GCellId corner_hv{to.tx, from.ty};  // horizontal leg first
  const GCellId corner_vh{from.tx, to.ty};  // vertical leg first
  const double cost_hv =
      pattern_candidate_cost(graph, params, from, corner_hv, to);
  const double cost_vh =
      pattern_candidate_cost(graph, params, from, corner_vh, to);
  // Any path other than these two L-shapes either is a monotone staircase
  // with >= 2 bends or detours with >= 2 extra steps and >= 1 bend.
  const double bound =
      manhattan +
      std::min(2.0 * params.turn_cost, 2.0 + params.turn_cost) - kFloatMargin;
  const bool hv_wins = cost_hv < cost_vh && cost_hv < bound;
  const bool vh_wins = cost_vh < cost_hv && cost_vh < bound;
  if (!hv_wins && !vh_wins) return false;  // tie or not provably optimal
  out.clear();
  const GCellId corner = hv_wins ? corner_hv : corner_vh;
  candidate_cost(graph, params, from, corner, to, &out);
  if (cost != nullptr) *cost = hv_wins ? cost_hv : cost_vh;
  return true;
}

}  // namespace mebl::global
