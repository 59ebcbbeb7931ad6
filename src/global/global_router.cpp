#include "global/global_router.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "exec/cancellation.hpp"
#include "exec/thread_pool.hpp"
#include "global/pattern_route.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace mebl::global {

using geom::Rect;
using grid::GCellId;

namespace {

/// One scratch per pool worker (and one for the calling thread): searches of
/// a batch run concurrently, each on its own thread's scratch, against the
/// congestion rows frozen at the batch barrier.
thread_local GlobalSearchScratch tl_scratch;  // NOLINT(cert-err58-cpp)

/// Rip-up & reroute passes over subnets crossing overflowed resources.
constexpr int kReroutePasses = 6;

/// Subnets per batch of the batch-synchronous schedule (DESIGN.md §7): each
/// batch is searched in parallel against the congestion state frozen at the
/// batch start, then its demands are merged in index order at the batch
/// barrier. The value changes the routed result (staler congestion within a
/// larger batch) but never its determinism, so it is part of the
/// determinism contract: never derive it from the thread count.
constexpr std::size_t kNetBatchSize = 32;

/// Tile of pin position `p`.
GCellId pin_tile(const grid::RoutingGrid& grid, geom::Point p) {
  return {grid.tile_of_x(p.x), grid.tile_of_y(p.y)};
}

}  // namespace

// ---------------------------------------------------------------------------
// CongestionIndex

void CongestionIndex::reset(const RoutingGraph& graph, std::size_t num_subnets,
                            bool track_vertices) {
  tiles_x_ = graph.tiles_x();
  tiles_y_ = graph.tiles_y();
  h_count_ = static_cast<std::size_t>(std::max(0, tiles_x_ - 1)) * tiles_y_;
  v_count_ = static_cast<std::size_t>(tiles_x_) * std::max(0, tiles_y_ - 1);
  track_vertices_ = track_vertices;
  const std::size_t vert_count =
      static_cast<std::size_t>(tiles_x_) * tiles_y_;
  overflowed_.assign(h_count_ + v_count_ + vert_count, 0);
  crossers_.assign(overflowed_.size(), {});
  hits_.assign(num_subnets, 0);
  for (int ty = 0; ty < tiles_y_; ++ty)
    for (int tx = 0; tx + 1 < tiles_x_; ++tx)
      overflowed_[h_id(tx, ty)] =
          graph.h_demand(tx, ty) > graph.h_capacity(tx, ty) ? 1 : 0;
  for (int ty = 0; ty + 1 < tiles_y_; ++ty)
    for (int tx = 0; tx < tiles_x_; ++tx)
      overflowed_[v_id(tx, ty)] =
          graph.v_demand(tx, ty) > graph.v_capacity(tx, ty) ? 1 : 0;
  for (int ty = 0; ty < tiles_y_; ++ty)
    for (int tx = 0; tx < tiles_x_; ++tx)
      overflowed_[vert_id(tx, ty)] =
          graph.vertex_demand(tx, ty) > graph.vertex_capacity(tx, ty) ? 1 : 0;
}

void CongestionIndex::set_overflowed(std::size_t resource, bool now) {
  if (static_cast<bool>(overflowed_[resource]) == now) return;
  overflowed_[resource] = now ? 1 : 0;
  // Every entry is one crossing (a path crossing twice appears twice), so
  // hit counts stay exact under multiplicity.
  for (const std::int32_t subnet : crossers_[resource])
    hits_[static_cast<std::size_t>(subnet)] += now ? 1 : -1;
}

void CongestionIndex::set_membership(std::size_t idx,
                                     const std::vector<GCellId>& tiles,
                                     bool member) {
  const auto visit = [&](std::size_t r) {
    auto& list = crossers_[r];
    if (member) {
      list.push_back(static_cast<std::int32_t>(idx));
    } else {
      const auto it = std::find(list.begin(), list.end(),
                                static_cast<std::int32_t>(idx));
      assert(it != list.end());
      *it = list.back();  // order is irrelevant: hits_ is a pure count
      list.pop_back();
    }
    if (overflowed_[r] != 0) hits_[idx] += member ? 1 : -1;
  };
  for_each_demand(
      tiles,
      [&](bool horizontal, int tx, int ty) {
        visit(horizontal ? h_id(tx, ty) : v_id(tx, ty));
      },
      [](int, int) {});
  // The rescan tested vertex overflow on *every* tile of the path (not just
  // the line-end tiles where demand was added), so membership covers them
  // all — pass-through tiles included.
  if (track_vertices_)
    for (const GCellId t : tiles) visit(vert_id(t.tx, t.ty));
}

void CongestionIndex::commit(RoutingGraph& graph, std::size_t idx,
                             const std::vector<GCellId>& tiles, int sign) {
  // Rip-up drops membership first so the overflow transitions below no
  // longer touch this subnet's own hit count.
  if (sign < 0) set_membership(idx, tiles, false);
  // Edge demand per step; line-end demand at both end tiles of every
  // maximal vertical run.
  for_each_demand(
      tiles,
      [&](bool horizontal, int tx, int ty) {
        if (horizontal) {
          graph.add_h_demand(tx, ty, sign);
          set_overflowed(h_id(tx, ty),
                         graph.h_demand(tx, ty) > graph.h_capacity(tx, ty));
        } else {
          graph.add_v_demand(tx, ty, sign);
          set_overflowed(v_id(tx, ty),
                         graph.v_demand(tx, ty) > graph.v_capacity(tx, ty));
        }
      },
      [&](int tx, int ty) {
        graph.add_vertex_demand(tx, ty, sign);
        set_overflowed(
            vert_id(tx, ty),
            graph.vertex_demand(tx, ty) > graph.vertex_capacity(tx, ty));
      });
  if (sign > 0) set_membership(idx, tiles, true);
}

// ---------------------------------------------------------------------------
// GlobalRouter

GlobalRouter::GlobalRouter(const grid::RoutingGrid& grid,
                           GlobalRouterConfig config)
    : grid_(&grid),
      config_(config),
      graph_(grid, config.stitch_aware_capacity),
      pops_counter_(&telemetry::counter(telemetry::keys::kGlobalSearchPops)),
      pattern_hits_counter_(
          &telemetry::counter(telemetry::keys::kGlobalPatternHits)),
      scratch_reuses_counter_(
          &telemetry::counter(telemetry::keys::kGlobalScratchReuses)),
      ml_coarse_counter_(&telemetry::counter(telemetry::keys::kMlCoarseNets)),
      ml_corridor_hits_counter_(
          &telemetry::counter(telemetry::keys::kMlCorridorHits)),
      ml_corridor_fallbacks_counter_(
          &telemetry::counter(telemetry::keys::kMlCorridorFallbacks)) {}

std::vector<GCellId> GlobalRouter::search(
    GCellId from, GCellId to, const Rect& region, double vertex_weight,
    const std::vector<GCellId>* corridor) const {
  if (from == to) return {from};
  GlobalSearchScratch& scratch = tl_scratch;
  const GlobalSearchParams params{kTurnCost, config_.vertex_cost,
                                  vertex_weight};
  // Fast path: a provably-optimal one-bend candidate skips the heap (and
  // the scratch) entirely. An accepted candidate is a *whole-grid* optimum,
  // so neither the corridor nor the region needs to reject it.
  if (try_pattern_route(graph_, params, from, to, scratch.path)) {
    pattern_hits_counter_->add(1);
    if (corridor != nullptr) ml_corridor_hits_counter_->add(1);
    return {scratch.path.begin(), scratch.path.end()};
  }
  const auto astar = [&](const Rect& box, bool in_corridor) {
    const bool ok = search_tiles_astar(graph_, params, from, to, box, scratch,
                                       nullptr, in_corridor);
    pops_counter_->add(scratch.last_pops);
    if (scratch.last_reused) scratch_reuses_counter_->add(1);
    return ok;
  };
  if (corridor != nullptr) {
    // Multilevel refinement: stamp the corridor into this thread's scratch
    // (the mask lives there, like the search arrays) and search inside it.
    const Rect corridor_box =
        stamp_corridor(*corridor, kCoarsenFactor, kCorridorMargin,
                       graph_.tiles_x(), graph_.tiles_y(), scratch);
    if (astar(corridor_box, /*in_corridor=*/true)) {
      ml_corridor_hits_counter_->add(1);
      return {scratch.path.begin(), scratch.path.end()};
    }
    ml_corridor_fallbacks_counter_->add(1);
  }
  const Rect full{0, 0, graph_.tiles_x() - 1, graph_.tiles_y() - 1};
  if (!astar(region, false) && !astar(full, false)) return {};
  return {scratch.path.begin(), scratch.path.end()};
}

std::vector<std::vector<GCellId>> GlobalRouter::plan_coarse(
    const std::vector<netlist::Subnet>& subnets,
    const std::vector<Rect>& tile_bboxes) const {
  TELEMETRY_SPAN("global.ml.coarse");
  std::vector<std::vector<GCellId>> corridors(subnets.size());
  RoutingGraph coarse = coarsen_graph(graph_, kCoarsenFactor);
  const Rect coarse_full{0, 0, coarse.tiles_x() - 1, coarse.tiles_y() - 1};
  const GlobalSearchParams params{kTurnCost, config_.vertex_cost,
                                  kVertexCostWeight};
  GlobalSearchScratch scratch;
  std::int64_t coarse_nets = 0;
  for (std::size_t idx = 0; idx < subnets.size(); ++idx) {
    const Rect& bbox = tile_bboxes[idx];
    const auto span =
        std::max(bbox.xhi - bbox.xlo, bbox.yhi - bbox.ylo);
    if (span < kMinCoarseSpan) continue;
    const GCellId from = pin_tile(*grid_, subnets[idx].a);
    const GCellId to = pin_tile(*grid_, subnets[idx].b);
    const GCellId cfrom{from.tx / kCoarsenFactor, from.ty / kCoarsenFactor};
    const GCellId cto{to.tx / kCoarsenFactor, to.ty / kCoarsenFactor};
    std::vector<GCellId> cells;
    if (try_pattern_route(coarse, params, cfrom, cto, scratch.path)) {
      cells.assign(scratch.path.begin(), scratch.path.end());
    } else if (search_tiles_astar(coarse, params, cfrom, cto, coarse_full,
                                  scratch)) {
      cells.assign(scratch.path.begin(), scratch.path.end());
    }
    if (cells.empty()) continue;
    commit_coarse_path(coarse, cells, +1);
    corridors[idx] = std::move(cells);
    ++coarse_nets;
  }
  ml_coarse_counter_->add(coarse_nets);
  return corridors;
}

void GlobalRouter::commit(std::size_t idx, const TilePath& path, int sign) {
  congestion_.commit(graph_, idx, path.tiles, sign);
}

std::size_t GlobalRouter::route_batches(
    std::span<const std::size_t> order, bool rip_first, GlobalResult& result,
    exec::ThreadPool* pool, const exec::Cancellation* cancel,
    const std::function<std::vector<GCellId>(std::size_t)>& find,
    const std::function<void(std::size_t)>& after_batch) {
  const auto stop_requested = [&] {
    return cancel != nullptr && cancel->stop_requested();
  };
  std::size_t committed = 0;
  for (std::size_t lo = 0; lo < order.size() && !stop_requested();
       lo += kNetBatchSize) {
    const auto batch = order.subspan(lo, std::min(kNetBatchSize,
                                                  order.size() - lo));
    if (rip_first)
      for (const std::size_t idx : batch) commit(idx, result.paths[idx], -1);
    // The searches only read the congestion graph (frozen until the
    // barrier) and write their own path slot, so the outcome is identical
    // for any thread count.
    const auto search_one = [&](std::size_t i) {
      result.paths[batch[i]].tiles = find(batch[i]);
    };
    if (pool != nullptr) {
      pool->parallel_for(0, batch.size(), search_one, cancel);
    } else {
      for (std::size_t i = 0; i < batch.size() && !stop_requested(); ++i)
        search_one(i);
    }
    // Batch barrier: merge the batch's demands in index order.
    std::size_t batch_committed = 0;
    for (const std::size_t idx : batch)
      if (!result.paths[idx].tiles.empty()) {
        commit(idx, result.paths[idx], +1);
        ++batch_committed;
      }
    committed += batch_committed;
    if (after_batch) after_batch(batch_committed);
  }
  return committed;
}

void GlobalRouter::run_reroute_passes(GlobalResult& result,
                                      exec::ThreadPool* pool,
                                      const exec::Cancellation* cancel) {
  // Rip-up & reroute subnets crossing overflowed edges or vertices. The
  // congestion weight escalates each pass (negotiated-congestion style) so
  // stubborn overflows eventually justify longer detours.
  const auto stop_requested = [&] {
    return cancel != nullptr && cancel->stop_requested();
  };
  const Rect full{0, 0, graph_.tiles_x() - 1, graph_.tiles_y() - 1};
  telemetry::Counter& rerouted_counter =
      telemetry::counter(telemetry::keys::kGlobalRerouted);
  telemetry::Counter& passes_counter =
      telemetry::counter(telemetry::keys::kGlobalReroutePasses);

  for (int pass = 0; pass < kReroutePasses && !stop_requested();
       ++pass) {
    if (graph_.total_edge_overflow() == 0 &&
        graph_.total_vertex_overflow() == 0)
      break;
    TELEMETRY_SPAN("global.reroute_pass");
    passes_counter.add(1);
    // Escalate the line-end price per pass as a local, not by mutating
    // config_: search() runs concurrently within a batch, and an in-place
    // write would also leak a stale weight on early exit.
    const double pass_vertex_weight = kVertexCostWeight * (1 << (pass + 1));
    const auto reroute = [&](std::size_t idx) {
      const TilePath& path = result.paths[idx];
      // Search within the current path's neighbourhood; detours of a few
      // tiles suffice to move line ends out of hot tiles.
      const GCellId seed = path.tiles.front();
      Rect region{seed.tx, seed.ty, seed.tx, seed.ty};
      for (const GCellId t : path.tiles)
        region = region.hull(Rect{t.tx, t.ty, t.tx, t.ty});
      region = region.inflated(4).intersect(full);
      auto tiles = search(path.tiles.front(), path.tiles.back(), region,
                          pass_vertex_weight);
      // No path at all: keep (and re-commit) the current one.
      if (tiles.empty()) return path.tiles;
      return tiles;
    };
    std::size_t rerouted = 0;
    // Batch-synchronous rip-up & reroute: walk the paths in index order,
    // gathering the next kNetBatchSize subnets that are congested against
    // the *live* demand state (an O(1) dirty-set lookup: the congestion
    // index tracks overflow transitions as earlier batches commit); the
    // batch loop rips the gathered batch up, searches its replacements in
    // parallel against the post-rip-up state, and merges the new demands in
    // index order at the barrier.
    std::size_t cursor = 0;
    std::vector<std::size_t> gathered;
    while (cursor < result.paths.size() && !stop_requested()) {
      gathered.clear();
      while (cursor < result.paths.size() && gathered.size() < kNetBatchSize) {
        if (!result.paths[cursor].tiles.empty() &&
            congestion_.congested(cursor))
          gathered.push_back(cursor);
        ++cursor;
      }
      rerouted += route_batches(gathered, /*rip_first=*/true, result, pool,
                                cancel, reroute);
    }
    rerouted_counter.add(static_cast<std::int64_t>(rerouted));
    util::log_info() << "global reroute pass " << pass << ": " << rerouted
                     << " subnets";
    if (rerouted == 0) break;
  }
}

void GlobalRouter::finalize_totals(GlobalResult& result) const {
  result.wirelength = 0;
  for (const auto& path : result.paths)
    if (!path.tiles.empty())
      result.wirelength += static_cast<std::int64_t>(path.tiles.size()) - 1;
  result.total_vertex_overflow = graph_.total_vertex_overflow();
  result.max_vertex_overflow = graph_.max_vertex_overflow();
  result.total_edge_overflow = graph_.total_edge_overflow();
}

GlobalResult GlobalRouter::route(const std::vector<netlist::Subnet>& subnets,
                                 exec::ThreadPool* pool,
                                 const exec::Cancellation* cancel,
                                 const ProgressFn& progress) {
  TELEMETRY_SPAN("global.route");
  GlobalResult result;
  result.paths.resize(subnets.size());
  congestion_.reset(graph_, subnets.size(), config_.vertex_cost);

  const auto stop_requested = [&] {
    return cancel != nullptr && cancel->stop_requested();
  };

  // Bottom-up multilevel schedule: bucket subnets by the level at which
  // they become local, then route level by level.
  std::vector<Rect> tile_bboxes;
  tile_bboxes.reserve(subnets.size());
  for (const auto& subnet : subnets) {
    const Rect bbox = subnet.bbox();
    tile_bboxes.push_back(Rect{grid_->tile_of_x(bbox.xlo),
                               grid_->tile_of_y(bbox.ylo),
                               grid_->tile_of_x(bbox.xhi),
                               grid_->tile_of_y(bbox.yhi)});
  }
  const MultilevelScheduler scheduler(graph_.tiles_x(), graph_.tiles_y());
  const auto buckets = scheduler.schedule(tile_bboxes);

  // Coarsen–route–refine (DESIGN.md §15): plan corridors for long subnets
  // on the coarsened graph before the fine schedule starts. The fine pass
  // below refines each planned subnet inside its corridor (full-grid
  // fallback on failure), which bounds the searched area independently of
  // grid extent.
  std::vector<std::vector<GCellId>> corridors;
  if (config_.multilevel && !stop_requested())
    corridors = plan_coarse(subnets, tile_bboxes);

  const Rect full{0, 0, graph_.tiles_x() - 1, graph_.tiles_y() - 1};
  std::size_t committed = 0;
  const auto report_progress = [&](std::size_t batch_committed) {
    committed += batch_committed;
    if (progress) progress(committed, subnets.size());
  };
  for (int level = 0; level < scheduler.num_levels() && !stop_requested();
       ++level) {
    TELEMETRY_SPAN("global.level");
    const auto route_one = [&](std::size_t idx) {
      // Allow one tile of margin around the cluster for detours.
      const Rect region = scheduler.cluster_region(tile_bboxes[idx], level)
                              .inflated(1)
                              .intersect(full);
      const bool planned = !corridors.empty() && !corridors[idx].empty();
      return search(pin_tile(*grid_, subnets[idx].a),
                    pin_tile(*grid_, subnets[idx].b), region,
                    kVertexCostWeight, planned ? &corridors[idx] : nullptr);
    };
    route_batches(buckets[static_cast<std::size_t>(level)],
                  /*rip_first=*/false, result, pool, cancel, route_one,
                  report_progress);
  }

  run_reroute_passes(result, pool, cancel);
  finalize_totals(result);
  // Storage telemetry (DESIGN.md §15). Every tile is resident, so
  // tiles_materialized equals tiles_total; it stays as a key because
  // benchmark tooling reads it.
  telemetry::counter(telemetry::keys::kGridTilesMaterialized)
      .add(static_cast<std::int64_t>(graph_.tiles_total()));
  telemetry::counter(telemetry::keys::kGridTilesTotal)
      .add(static_cast<std::int64_t>(graph_.tiles_total()));
  telemetry::counter(telemetry::keys::kGridStorageBytes)
      .add(static_cast<std::int64_t>(graph_.storage_bytes()));
  return result;
}

void GlobalRouter::seed(GlobalResult& result) {
  TELEMETRY_SPAN("global.seed");
  // Fresh capacities, then replay every committed path in index order. The
  // demand state (and the psi memo it feeds) afterwards is exactly what a
  // route() ending in `result` left behind, which is what makes a reloaded
  // resident design bit-identical to a long-lived one.
  graph_ = RoutingGraph(*grid_, config_.stitch_aware_capacity);
  congestion_.reset(graph_, result.paths.size(), config_.vertex_cost);
  for (std::size_t idx = 0; idx < result.paths.size(); ++idx)
    if (!result.paths[idx].tiles.empty())
      congestion_.commit(graph_, idx, result.paths[idx].tiles, +1);
  finalize_totals(result);
}

std::vector<std::size_t> GlobalRouter::rip_dirty_closure(
    GlobalResult& result, const std::vector<std::size_t>& targets) {
  TELEMETRY_SPAN("global.rip_closure");
  std::vector<std::uint8_t> in_closure(result.paths.size(), 0);
  for (const std::size_t idx : targets) {
    if (idx >= result.paths.size() || in_closure[idx] != 0) continue;
    in_closure[idx] = 1;
    if (!result.paths[idx].tiles.empty()) commit(idx, result.paths[idx], -1);
  }
  // One ascending scan: ripping the targets only lowered demand, so any
  // subnet still congested now stays congested until *it* is ripped —
  // which happens right here, keeping the scan exact without iterating to
  // a fixed point. Ripping a survivor can relieve later subnets; they are
  // then correctly skipped.
  std::vector<std::size_t> closure;
  for (std::size_t idx = 0; idx < result.paths.size(); ++idx) {
    if (in_closure[idx] != 0) {
      closure.push_back(idx);
      continue;
    }
    if (!result.paths[idx].tiles.empty() && congestion_.congested(idx)) {
      in_closure[idx] = 1;
      commit(idx, result.paths[idx], -1);
      closure.push_back(idx);
    }
  }
  return closure;
}

void GlobalRouter::reroute_subset(const std::vector<netlist::Subnet>& subnets,
                                  GlobalResult& result,
                                  const std::vector<std::size_t>& dirty,
                                  exec::ThreadPool* pool,
                                  const exec::Cancellation* cancel) {
  TELEMETRY_SPAN("global.eco");
  const Rect full{0, 0, graph_.tiles_x() - 1, graph_.tiles_y() - 1};
  // Batch-synchronous initial routing of the closure, in ascending index
  // order against the live demand of the untouched remainder. The region is
  // the pin tiles' bbox plus a 4-tile margin, with a full-grid fallback (the
  // reroute passes instead search the hull of the path's current tiles);
  // both ECO compare paths run this same code, which is all the
  // bit-identity check needs.
  route_batches(dirty, /*rip_first=*/false, result, pool, cancel,
                [&](std::size_t idx) {
                  const GCellId from = pin_tile(*grid_, subnets[idx].a);
                  const GCellId to = pin_tile(*grid_, subnets[idx].b);
                  const Rect region =
                      Rect{std::min(from.tx, to.tx), std::min(from.ty, to.ty),
                           std::max(from.tx, to.tx), std::max(from.ty, to.ty)}
                          .inflated(4)
                          .intersect(full);
                  return search(from, to, region, kVertexCostWeight);
                });
  run_reroute_passes(result, pool, cancel);
  finalize_totals(result);
}

}  // namespace mebl::global
