#include "detail/detailed_router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_set>

#include "detail/batch_schedule.hpp"
#include "detail/net_ordering.hpp"
#include "exec/thread_pool.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"

namespace mebl::detail {

using geom::Coord;
using geom::LayerId;
using geom::Orientation;
using geom::Point;
using geom::Point3;
using geom::Rect;

namespace {

/// Margin in tracks added around a subnet's bbox for the first A* attempt.
constexpr Coord kBaseMargin = 8;
/// Each retry multiplies the margin by 4; after the last retry the subnet
/// goes to the rip-up pass.
constexpr int kMaxRetries = 1;
/// Rip-up & reroute rounds for subnets that could not be routed — part of
/// the second bottom-up pass of the framework (Fig. 6).
constexpr int kRipupMaxRounds = 2;
/// Maximum number of blocking nets ripped to rescue one failed subnet.
constexpr int kRipupMaxBlockers = 4;
/// Per-node price of crossing a foreign wire in the rip-up probe.
constexpr double kRipupForeignPenalty = 40.0;
/// Short-polygon cleanup iterations: nets owning short polygons are ripped
/// and rerouted with a stricter (beta scaled by kSpCleanupBetaScale) cost.
/// Runs only when the stitch costs are enabled.
constexpr int kSpCleanupMaxRounds = 3;
constexpr double kSpCleanupBetaScale = 8.0;

/// A* scratch borrowed for one search from a process-wide free list: the
/// smallest free scratch that already fits the box, else the largest free
/// one (the search grows it). Scratch memory is thereby bounded by the boxes
/// searched at the same time. A scratch per thread would keep each thread
/// at the largest box it ever searched: the calling thread outlives a
/// run's pool, so a large box that lands on a fresh worker while the
/// calling thread still holds an equally large scratch from an earlier
/// run would double the footprint.
class BorrowedScratch {
 public:
  BorrowedScratch(const grid::RoutingGrid& rg, const Rect& box) {
    const std::size_t states = static_cast<std::size_t>(box.width()) *
                               box.height() * rg.num_layers();
    const std::lock_guard<std::mutex> lock(mutex_);
    auto best = free_.end();
    for (auto it = free_.begin(); it != free_.end(); ++it)
      if (best == free_.end() ||
          serves_better((*it)->stamp.size(), (*best)->stamp.size(), states))
        best = it;
    if (best == free_.end()) {
      // Room for every scratch ever made, so returning one never allocates.
      free_.reserve(++made_);
      scratch_ = std::make_unique<SearchScratch>();
    } else {
      scratch_ = std::move(*best);
      free_.erase(best);
    }
  }
  ~BorrowedScratch() {
    const std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(scratch_));
  }
  BorrowedScratch(const BorrowedScratch&) = delete;
  BorrowedScratch& operator=(const BorrowedScratch&) = delete;

  SearchScratch& operator*() const { return *scratch_; }
  SearchScratch* operator->() const { return scratch_.get(); }

 private:
  /// A scratch of `a` states serves a search of `states` better than one of
  /// `b`: it fits and is smaller, or neither fits and it is larger.
  static bool serves_better(std::size_t a, std::size_t b, std::size_t states) {
    if ((a >= states) != (b >= states)) return a >= states;
    return a >= states ? a < b : a > b;
  }

  static inline std::mutex mutex_;
  static inline std::vector<std::unique_ptr<SearchScratch>> free_;
  static inline std::size_t made_ = 0;
  std::unique_ptr<SearchScratch> scratch_;
};

/// A detail counter, looked up once (registry entries have stable
/// addresses); commits bump these on every subnet.
template <const char* Key>
telemetry::Counter& detail_counter() {
  static telemetry::Counter& counter = telemetry::counter(Key);
  return counter;
}

/// The line-column nodes guarded for a pin inside a stitch unfriendly
/// region (claim_pins installs penalties there; move_pin_claims removes
/// them again, so both walk the identical node set).
template <typename Fn>
void for_each_pin_guard_node(const grid::RoutingGrid& rg, Point pos, Fn&& fn) {
  const auto& stitch = rg.stitch();
  const Coord d = stitch.distance_to_line(pos.x);
  if (d <= 0 || d > stitch.epsilon()) return;
  for (const Coord line : stitch.lines()) {
    if (std::abs(line - pos.x) != d) continue;
    for (const LayerId l : rg.layers_with(Orientation::kHorizontal))
      fn(Point3{line, pos.y, l});
  }
}

}  // namespace

DetailedRouter::DetailedRouter(GridGraph& grid, DetailedConfig config)
    : grid_(&grid), config_(config), astar_(grid, config.astar) {}

void DetailedRouter::reserve_pin(netlist::NetId net, Point pos) {
  const Point3 pad{pos.x, pos.y, 0};
  const Point3 access{pos.x, pos.y, 1};
  grid_->claim(pad, net);
  // Reserve the via-access node on the first routing layer: a foreign
  // wire crossing it would permanently seal the pin off.
  grid_->claim(access, net);
  pin_nodes_.set(grid_->index(pad));
  pin_nodes_.set(grid_->index(access));
  // The pin set and the guards are read with the grid (rescue probe, A*
  // costs), so their changes go into the change log too.
  grid_->touch(pad);
  grid_->touch(access);

  // Short-polygon guard: the pin's via is fixed. If the pin sits inside a
  // stitch unfriendly region, a horizontal wire leaving it *across* the
  // adjacent line becomes a short polygon — penalize the line-column
  // nodes in the pin's row so the search prefers leaving the other way.
  // The guard must beat the typical avoidance detour (a via pair plus a
  // few tracks), so it is priced well above a single beta.
  for_each_pin_guard_node(grid_->routing_grid(), pos, [&](Point3 p) {
    astar_.add_node_penalty(p, 4.0 * config_.astar.beta);
    grid_->touch(p);
  });
}

void DetailedRouter::release_pin(Point pos) {
  const Point3 pad{pos.x, pos.y, 0};
  const Point3 access{pos.x, pos.y, 1};
  grid_->release(pad);
  grid_->release(access);
  pin_nodes_.unset(grid_->index(pad));
  pin_nodes_.unset(grid_->index(access));
  grid_->touch(pad);
  grid_->touch(access);
  // Penalties are cumulative, so the negative exactly cancels the guard.
  for_each_pin_guard_node(grid_->routing_grid(), pos, [&](Point3 p) {
    astar_.add_node_penalty(p, -4.0 * config_.astar.beta);
    grid_->touch(p);
  });
}

void DetailedRouter::claim_pins(const netlist::Netlist& netlist) {
  pin_nodes_.reset(grid_->index_space());
  for (const auto& pin : netlist.pins()) reserve_pin(pin.net, pin.pos);
}

void DetailedRouter::move_pin_claims(netlist::NetId net, Point from, Point to) {
  release_pin(from);
  reserve_pin(net, to);
}

namespace {

/// True when a horizontal wire running from `from_x` to `end_x` (with a via
/// landing at `end_x`) would be a short polygon: it crosses a stitching line
/// whose unfriendly region contains `end_x`.
bool leg_end_is_bad(Coord end_x, Coord from_x, const grid::StitchPlan& stitch) {
  if (end_x == from_x) return false;
  const Coord d = stitch.distance_to_line(end_x);
  if (d == 0 || d > stitch.epsilon()) return false;
  for (const Coord line : stitch.lines()) {
    if (std::abs(line - end_x) != d) continue;
    // Crossing: the line lies strictly between the leg's endpoints.
    if ((from_x < line && line < end_x) || (end_x < line && line < from_x))
      return true;
  }
  return false;
}

/// Collects the nodes of a planned route, validating availability and the
/// hard stitch constraints; the caller claims them only if every leg fits.
/// Horizontal legs whose via-landing endpoints would create short polygons
/// abort the realization (the A* fallback's cost model avoids them).
class LegBuilder {
 public:
  LegBuilder(const GridGraph& grid, netlist::NetId net, Point a, Point b,
             bool check_bad_ends)
      : grid_(&grid),
        net_(net),
        pin_a_(a),
        pin_b_(b),
        check_bad_ends_(check_bad_ends) {}

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::vector<Point3>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::vector<Point3> take_nodes() noexcept {
    return std::move(nodes_);
  }

  void add(Point3 p) {
    if (!ok_) return;
    if (!grid_->routing_grid().in_bounds(p) || !grid_->is_free_or(p, net_))
      ok_ = false;
    else
      nodes_.push_back(p);
  }

  /// Horizontal wire from x0 to x1; both endpoints land vias (junctions,
  /// stacks, or pins). `check` asks for the short-polygon test — used only
  /// for legs whose position the *realizer* chose; legs dictated by the
  /// track assignment are followed verbatim so the assignment's quality
  /// (good or bad) flows through to the final geometry, as in the paper's
  /// flow where detailed routing never overrides assigned tracks.
  void add_horizontal(Coord x0, Coord x1, Coord y, LayerId layer,
                      bool check = false) {
    if (check_bad_ends_ && x0 != x1) {
      const auto& stitch = grid_->routing_grid().stitch();
      // Leg ends landing on the subnet's pins are always checked: the pin
      // via is fixed, but the *approach direction* is the realizer's
      // choice (a search can reach the pin without crossing the line).
      const auto end_checked = [&](Coord end, Coord from) {
        const bool at_pin = (end == pin_a_.x && y == pin_a_.y) ||
                            (end == pin_b_.x && y == pin_b_.y);
        return (check || at_pin) && leg_end_is_bad(end, from, stitch);
      };
      if (end_checked(x0, x1) || end_checked(x1, x0)) {
        ok_ = false;
        return;
      }
    }
    for (Coord x = std::min(x0, x1); x <= std::max(x0, x1) && ok_; ++x)
      add({x, y, layer});
  }

  void add_vertical(Coord y0, Coord y1, Coord x, LayerId layer) {
    if (y0 != y1 && !grid_->vertical_move_allowed(x)) {
      ok_ = false;
      return;
    }
    for (Coord y = std::min(y0, y1); y <= std::max(y0, y1) && ok_; ++y)
      add({x, y, layer});
  }

  /// Via stack between two layers at (x, y). Stacks on stitching columns
  /// are legal only at this subnet's pins (tolerated via violations).
  void add_stack(Coord x, Coord y, LayerId l0, LayerId l1) {
    if (l0 == l1) return;
    const bool at_pin = (x == pin_a_.x && y == pin_a_.y) ||
                        (x == pin_b_.x && y == pin_b_.y);
    if (!grid_->via_allowed(x) && !at_pin) {
      ok_ = false;
      return;
    }
    for (LayerId l = std::min(l0, l1); l <= std::max(l0, l1) && ok_; ++l)
      add({x, y, l});
  }

 private:
  const GridGraph* grid_;
  netlist::NetId net_;
  Point pin_a_;
  Point pin_b_;
  bool check_bad_ends_;
  std::vector<Point3> nodes_;
  bool ok_ = true;
};

/// Track of a vertical run at a given tile row (rows outside the run's span
/// clamp to the nearest piece).
Coord piece_track(const assign::GlobalRun& run, Coord row) {
  assert(!run.pieces.empty());
  for (const auto& [rows, x] : run.pieces)
    if (rows.contains(row)) return x;
  return row < run.pieces.front().first.lo ? run.pieces.front().second
                                           : run.pieces.back().second;
}

/// Nearest routing layer with the given orientation to `layer`.
/// `prefer_high` breaks ties upward (layer 1 carries the pin via-access
/// reservations, so routing above it conflicts less); the realizer retries
/// with the opposite preference when the first attempt is blocked.
LayerId nearest_layer(const grid::RoutingGrid& rg, LayerId layer,
                      Orientation dir, bool prefer_high = true) {
  LayerId best = -1;
  for (const LayerId l : rg.layers_with(dir)) {
    if (best == -1) {
      best = l;
      continue;
    }
    const int dl = std::abs(l - layer);
    const int db = std::abs(best - layer);
    if (dl < db || (dl == db && prefer_high)) best = l;
  }
  return best;
}

}  // namespace

bool DetailedRouter::collect_realize(std::size_t idx, bool prefer_high,
                                     std::vector<Point3>& out) const {
  out.clear();
  const assign::RoutePlan& plan = *plan_;
  const netlist::Subnet& subnet = (*subnets_)[idx];
  if (idx >= plan.runs_of_path.size()) return false;
  const auto& run_ids = plan.runs_of_path[idx];
  if (run_ids.empty()) return false;
  for (const std::size_t id : run_ids) {
    const auto& run = plan.runs[id];
    if (run.layer < 1) return false;  // layer assignment incomplete
    if (run.dir == Orientation::kVertical && (run.ripped || run.pieces.empty()))
      return false;  // ripped segment: route directly with A*
  }

  const auto& rg = grid_->routing_grid();
  LegBuilder legs(*grid_, subnet.net, subnet.a, subnet.b,
                  config_.astar.stitch_cost);
  Point cur = subnet.a;
  LayerId cur_layer = 0;

  for (std::size_t i = 0; i < run_ids.size() && legs.ok(); ++i) {
    const auto& run = plan.runs[run_ids[i]];
    if (run.dir == Orientation::kVertical) {
      const LayerId lv = run.layer;
      const Coord entry_row = std::clamp<Coord>(rg.tile_of_y(cur.y),
                                                run.span.lo, run.span.hi);
      const Coord x_entry = piece_track(run, entry_row);
      if (cur.x != x_entry) {
        const LayerId lh =
            nearest_layer(rg, lv, Orientation::kHorizontal, prefer_high);
        legs.add_stack(cur.x, cur.y, cur_layer, lh);
        legs.add_horizontal(cur.x, x_entry, cur.y, lh);
        cur_layer = lh;
        cur.x = x_entry;
      }
      legs.add_stack(cur.x, cur.y, cur_layer, lv);
      cur_layer = lv;

      // Exit row: toward the next horizontal run's panel, or the pin.
      Coord y_exit;
      if (i + 1 < run_ids.size()) {
        const auto& next = plan.runs[run_ids[i + 1]];
        const geom::Interval span = rg.tile_y_span(next.fixed_tile);
        y_exit = std::clamp(subnet.b.y, span.lo, span.hi);
      } else {
        y_exit = subnet.b.y;
      }
      const int step = y_exit > cur.y ? 1 : -1;
      while (cur.y != y_exit && legs.ok()) {
        const Coord ny = cur.y + step;
        const Coord nx = piece_track(
            run, std::clamp<Coord>(rg.tile_of_y(ny), run.span.lo, run.span.hi));
        if (nx != cur.x) {
          // Dogleg: jog horizontally on the nearest horizontal layer.
          const LayerId lh =
              nearest_layer(rg, lv, Orientation::kHorizontal, prefer_high);
          legs.add_stack(cur.x, cur.y, lv, lh);
          legs.add_horizontal(cur.x, nx, cur.y, lh);
          legs.add_stack(nx, cur.y, lh, lv);
          cur.x = nx;
        }
        legs.add_vertical(cur.y, ny, cur.x, lv);
        cur.y = ny;
      }
    } else {
      const LayerId lh = run.layer;
      Coord x_target;
      if (i + 1 < run_ids.size()) {
        const auto& next = plan.runs[run_ids[i + 1]];  // vertical
        const Coord row =
            std::clamp<Coord>(run.fixed_tile, next.span.lo, next.span.hi);
        x_target = piece_track(next, row);
      } else {
        x_target = subnet.b.x;
      }
      legs.add_stack(cur.x, cur.y, cur_layer, lh);
      legs.add_horizontal(cur.x, x_target, cur.y, lh);
      cur_layer = lh;
      cur.x = x_target;
    }
  }

  // Final L to the target pin: horizontal first, then vertical at b.x.
  // These legs are the realizer's own choice, so they are SP-checked.
  if (legs.ok() && cur.x != subnet.b.x) {
    const LayerId lh =
        nearest_layer(rg, cur_layer, Orientation::kHorizontal, prefer_high);
    legs.add_stack(cur.x, cur.y, cur_layer, lh);
    legs.add_horizontal(cur.x, subnet.b.x, cur.y, lh, /*check=*/true);
    cur_layer = lh;
    cur.x = subnet.b.x;
  }
  if (legs.ok() && cur.y != subnet.b.y) {
    const LayerId lv =
        nearest_layer(rg, cur_layer, Orientation::kVertical, prefer_high);
    legs.add_stack(cur.x, cur.y, cur_layer, lv);
    legs.add_vertical(cur.y, subnet.b.y, cur.x, lv);
    cur_layer = lv;
    cur.y = subnet.b.y;
  }
  if (legs.ok()) legs.add_stack(subnet.b.x, subnet.b.y, cur_layer, 0);
  if (!legs.ok()) {
    out.clear();
    return false;
  }
  out = legs.take_nodes();
  return true;
}

bool DetailedRouter::collect_pattern(std::size_t idx,
                                     std::vector<Point3>& out) const {
  out.clear();
  const auto& subnet = (*subnets_)[idx];
  const auto& rg = grid_->routing_grid();
  const LayerId lh = nearest_layer(rg, 2, Orientation::kHorizontal);
  const LayerId lv = nearest_layer(rg, lh, Orientation::kVertical);

  for (const bool horizontal_first : {true, false}) {
    LegBuilder legs(*grid_, subnet.net, subnet.a, subnet.b,
                    config_.astar.stitch_cost);
    if (horizontal_first) {
      legs.add_stack(subnet.a.x, subnet.a.y, 0, lh);
      legs.add_horizontal(subnet.a.x, subnet.b.x, subnet.a.y, lh,
                          /*check=*/true);
      if (subnet.a.y != subnet.b.y) {
        legs.add_stack(subnet.b.x, subnet.a.y, lh, lv);
        legs.add_vertical(subnet.a.y, subnet.b.y, subnet.b.x, lv);
        legs.add_stack(subnet.b.x, subnet.b.y, lv, 0);
      } else {
        legs.add_stack(subnet.b.x, subnet.b.y, lh, 0);
      }
    } else {
      legs.add_stack(subnet.a.x, subnet.a.y, 0, lv);
      legs.add_vertical(subnet.a.y, subnet.b.y, subnet.a.x, lv);
      if (subnet.a.x != subnet.b.x) {
        legs.add_stack(subnet.a.x, subnet.b.y, lv, lh);
        legs.add_horizontal(subnet.a.x, subnet.b.x, subnet.b.y, lh,
                            /*check=*/true);
        legs.add_stack(subnet.b.x, subnet.b.y, lh, 0);
      } else {
        legs.add_stack(subnet.b.x, subnet.b.y, lv, 0);
      }
    }
    if (!legs.ok()) continue;
    out = legs.take_nodes();
    return true;
  }
  return false;
}

DetailedRouter::Attempt DetailedRouter::compute_first_attempt(
    std::size_t idx, bool allow_realize) const {
  TELEMETRY_SPAN("detail.subnet");
  Attempt attempt;
  if (allow_realize &&
      (collect_realize(idx, /*prefer_high=*/true, attempt.nodes) ||
       collect_realize(idx, /*prefer_high=*/false, attempt.nodes))) {
    attempt.kind = Attempt::Kind::kRealized;
    return attempt;
  }
  // Cheap L-shape pattern attempt before the full search (the LegBuilder
  // enforces every hard constraint and rejects would-be short polygons).
  if (collect_pattern(idx, attempt.nodes)) {
    attempt.kind = Attempt::Kind::kPattern;
    return attempt;
  }
  const auto& subnet = (*subnets_)[idx];
  const Rect box = subnet.bbox()
                       .inflated(kBaseMargin)
                       .intersect(grid_->routing_grid().extent());
  const BorrowedScratch scratch(grid_->routing_grid(), box);
  if (astar_.search(*scratch, subnet.net, subnet.a, subnet.b, box)) {
    attempt.kind = Attempt::Kind::kAstar;
    attempt.nodes = scratch->path;
  }
  return attempt;
}

void DetailedRouter::commit_attempt(std::size_t idx, Attempt&& attempt) {
  assert(attempt.kind != Attempt::Kind::kNone);
  // A routed subnet is one with nodes (DetailedResult::subnet_nodes).
  assert(!attempt.nodes.empty());
  const netlist::NetId net = (*subnets_)[idx].net;
  for (const Point3 p : attempt.nodes) grid_->claim(p, net);
  result_->subnet_nodes[idx] = std::move(attempt.nodes);
  namespace keys = telemetry::keys;
  switch (attempt.kind) {
    case Attempt::Kind::kRealized:
      result_->subnet_method[idx] = RouteMethod::kRealized;
      detail_counter<keys::kSubnetsRealized>().add(1);
      break;
    case Attempt::Kind::kPattern:
      result_->subnet_method[idx] = RouteMethod::kSearch;
      detail_counter<keys::kSubnetsPattern>().add(1);
      break;
    default:
      result_->subnet_method[idx] = RouteMethod::kSearch;
      detail_counter<keys::kSubnetsAstar>().add(1);
      break;
  }
}

bool DetailedRouter::route_subnet_escalated(std::size_t idx) {
  const auto& subnet = (*subnets_)[idx];
  const Rect extent = grid_->routing_grid().extent();
  Coord margin = kBaseMargin;
  for (int retry = 1; retry <= kMaxRetries; ++retry) {
    margin *= 4;
    const Rect box = subnet.bbox().inflated(margin).intersect(extent);
    const BorrowedScratch scratch(grid_->routing_grid(), box);
    if (astar_.search(*scratch, subnet.net, subnet.a, subnet.b, box)) {
      commit_attempt(idx, Attempt{Attempt::Kind::kAstar, scratch->path});
      return true;
    }
  }
  return false;
}

void DetailedRouter::route_batches(const std::vector<std::size_t>& order,
                                   bool realized_only, exec::ThreadPool* pool,
                                   const exec::Cancellation* cancel,
                                   const ProgressFn& progress) {
  const auto& rg = grid_->routing_grid();
  namespace keys = telemetry::keys;

  // Conservative first-attempt boxes, by position in the order.
  std::vector<Rect> boxes;
  boxes.reserve(order.size());
  for (const std::size_t idx : order)
    boxes.push_back(subnet_search_box((*subnets_)[idx], *plan_, idx, rg,
                                      kBaseMargin));
  const auto batches = gather_disjoint_batches(
      order, boxes, std::max<Coord>(rg.tile_size(), 1),
      static_cast<std::size_t>(std::max(config_.parallel_batch_cap, 1)));

  // Schedule-shape telemetry. Everything here is a pure function of the
  // order and the boxes, so the canonical run-report deltas stay identical
  // for every thread count.
  detail_counter<keys::kDetailBatches>().add(
      static_cast<std::int64_t>(batches.size()));
  std::int64_t batched = 0;
  for (const auto& batch : batches)
    if (batch.size() > 1) batched += static_cast<std::int64_t>(batch.size());
  detail_counter<keys::kDetailBatchedSubnets>().add(batched);
  detail_counter<keys::kDetailSequentialSubnets>().add(
      static_cast<std::int64_t>(order.size()) - batched);
  telemetry::Counter& escalations = detail_counter<keys::kDetailEscalations>();
  telemetry::Counter& recomputed = detail_counter<keys::kDetailRecomputed>();
  telemetry::Histogram& batch_ns = telemetry::histogram(keys::kDetailBatchNs);

  const auto first_attempt = [&](std::size_t idx) {
    const bool allow_realize =
        !realized_only ||
        result_->subnet_method[idx] == RouteMethod::kRealized;
    return compute_first_attempt(idx, allow_realize);
  };

  std::vector<Attempt> attempts;
  std::size_t done = 0;
  for (const auto& batch : batches) {
    if (cancel != nullptr && cancel->stop_requested()) return;
    TELEMETRY_SPAN("detail.batch");
    const std::uint64_t t0 = telemetry::now_ns();

    // Parallel phase: first attempts only, read-only against the grid
    // frozen at the batch start. Box disjointness makes each attempt
    // independent of its siblings, so any execution order gives the same
    // per-index results as the strictly sequential schedule.
    attempts.assign(batch.size(), Attempt{});
    if (pool != nullptr && batch.size() > 1) {
      pool->parallel_for(
          0, batch.size(),
          [&](std::size_t i) { attempts[i] = first_attempt(batch[i]); },
          cancel);
    } else {
      for (std::size_t i = 0; i < batch.size(); ++i)
        attempts[i] = first_attempt(batch[i]);
    }

    // Barrier: commit in batch (= sequential) order. A member that failed
    // its first attempt escalates *here*, at its exact sequential position;
    // its widened search box may spill outside its disjointness box, so
    // later members whose boxes the spill touches recompute their first
    // attempt against the now-current grid instead of using the frozen one.
    Rect spill;  // hull of escalated claims so far (empty = none)
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const std::size_t idx = batch[i];
      if (cancel != nullptr && cancel->stop_requested()) return;
      if (!spill.empty() && spill.overlaps(boxes[done + i])) {
        recomputed.add(1);
        attempts[i] = first_attempt(idx);
      }
      if (attempts[i].kind != Attempt::Kind::kNone) {
        commit_attempt(idx, std::move(attempts[i]));
        continue;
      }
      escalations.add(1);
      if (route_subnet_escalated(idx)) {
        for (const Point3 p : result_->subnet_nodes[idx])
          spill = spill.hull(Rect{p.x, p.y, p.x, p.y});
      }
    }

    done += batch.size();
    batch_ns.record_ns(telemetry::now_ns() - t0);
    if (progress) progress(done, order.size());
  }
}

std::vector<std::size_t> DetailedRouter::rip_net(netlist::NetId net) {
  std::vector<std::size_t> ripped;
  for (const std::size_t idx :
       subnets_of_net_[static_cast<std::size_t>(net)]) {
    for (const Point3 p : result_->subnet_nodes[idx])
      if (!pin_nodes_.test(grid_->index(p))) grid_->release(p);
    result_->subnet_nodes[idx].clear();
    ripped.push_back(idx);
  }
  return ripped;
}

Rect DetailedRouter::probe_box(std::size_t idx) const {
  return (*subnets_)[idx]
      .bbox()
      .inflated(kBaseMargin * 8)
      .intersect(grid_->routing_grid().extent());
}

void DetailedRouter::rescue_failed(exec::ThreadPool* pool, bool incremental) {
  TELEMETRY_SPAN("detail.rescue");
  namespace keys = telemetry::keys;
  telemetry::Counter& rescued = telemetry::counter(keys::kRipupRescued);
  telemetry::Counter& victims_count = telemetry::counter(keys::kRipupVictims);
  telemetry::Counter& probe_skips = telemetry::counter(keys::kMemoProbeSkips);
  telemetry::Counter& probe_ns =
      telemetry::counter(keys::kDetailPhaseRescueProbeNs);
  const auto& subnets = *subnets_;
  // One transaction over the whole phase: a rescue that a later one undoes
  // (the limit cycle of two subnets that keep trading places) leaves no
  // trace in the change log.
  if (incremental) grid_->begin_transaction();
  std::vector<std::size_t> probed;  // memos recorded inside the transaction
  for (int round = 0; round < kRipupMaxRounds; ++round) {
    std::vector<std::size_t> failed;
    for (std::size_t i = 0; i < subnets.size(); ++i)
      if (result_->subnet_nodes[i].empty()) failed.push_back(i);
    if (failed.empty()) break;

    bool progress = false;
    for (const std::size_t idx : failed) {
      if (!result_->subnet_nodes[idx].empty())
        continue;  // rescued as a rip victim
      const auto& subnet = subnets[idx];
      const Rect box = probe_box(idx);
      ProbeMemo& memo = probe_memo_[idx];
      if (memo.valid && memo.a == subnet.a && memo.b == subnet.b &&
          grid_->last_change(box) <= memo.seq) {
        probe_skips.add(1);
        continue;
      }
      // A probe reads only the owners, pin set and guards inside its box:
      // the same inputs give the same path and the same blockers.
      memo = {true, grid_->seq(), subnet.a, subnet.b};
      probed.push_back(idx);
      std::vector<Point3> path;
      {
        const std::uint64_t t0 = telemetry::now_ns();
        const BorrowedScratch scratch(grid_->routing_grid(), box);
        const bool found =
            astar_.search(*scratch, subnet.net, subnet.a, subnet.b, box,
                          kRipupForeignPenalty, &pin_nodes_);
        if (found) path = scratch->path;
        probe_ns.add(static_cast<std::int64_t>(telemetry::now_ns() - t0));
        if (!found) continue;
      }
      std::unordered_set<netlist::NetId> blockers;
      for (const Point3 p : path) {
        const netlist::NetId owner = grid_->owner(p);
        if (owner != -1 && owner != subnet.net) blockers.insert(owner);
      }
      if (blockers.empty() ||
          static_cast<int>(blockers.size()) > kRipupMaxBlockers)
        continue;
      memo.valid = false;  // this probe changes the grid

      std::vector<std::size_t> victims;
      for (const netlist::NetId net : blockers) {
        const auto ripped = rip_net(net);
        victims.insert(victims.end(), ripped.begin(), ripped.end());
      }
      for (const Point3 p : path) grid_->claim(p, subnet.net);
      result_->subnet_nodes[idx] = std::move(path);
      result_->subnet_method[idx] = RouteMethod::kSearch;
      rescued.add(1);
      victims_count.add(static_cast<std::int64_t>(victims.size()));
      progress = true;
      // Reroute the victims immediately, smallest first.
      std::stable_sort(victims.begin(), victims.end(),
                       [&](std::size_t a, std::size_t b) {
                         return subnets[a].bbox().area() <
                                subnets[b].bbox().area();
                       });
      route_batches(victims, /*realized_only=*/false, pool, nullptr, {});
    }
    if (!progress) break;
  }
  if (!incremental) return;
  // A memo taken inside the transaction stays valid past its end only if
  // nothing in its box changed after it (see end_transaction()).
  for (const std::size_t idx : probed) {
    ProbeMemo& memo = probe_memo_[idx];
    if (memo.valid && grid_->last_change(probe_box(idx)) > memo.seq)
      memo.valid = false;
  }
  grid_->end_transaction();
}

std::vector<DetailedRouter::SubnetKey> DetailedRouter::sp_key(
    netlist::NetId net) const {
  std::vector<SubnetKey> key;
  for (const std::size_t idx :
       subnets_of_net_[static_cast<std::size_t>(net)]) {
    const netlist::Subnet& subnet = (*subnets_)[idx];
    SubnetKey& entry = key.emplace_back();
    entry.a = subnet.a;
    entry.b = subnet.b;
    entry.method = result_->subnet_method[idx];
    entry.nodes = result_->subnet_nodes[idx];
    if (idx < plan_->runs_of_path.size())
      for (const std::size_t id : plan_->runs_of_path[idx]) {
        const assign::GlobalRun& run = plan_->runs[id];
        entry.runs.push_back({run.dir, run.fixed_tile, run.span, run.layer,
                              run.ripped, run.pieces});
      }
  }
  return key;
}

std::vector<Rect> DetailedRouter::sp_read_set(netlist::NetId net) const {
  const auto& rg = grid_->routing_grid();
  Coord escalated = kBaseMargin;
  for (int retry = 1; retry <= kMaxRetries; ++retry) escalated *= 4;
  std::vector<Rect> boxes;
  for (const std::size_t idx :
       subnets_of_net_[static_cast<std::size_t>(net)]) {
    const netlist::Subnet& subnet = (*subnets_)[idx];
    boxes.push_back(
        subnet_search_box(subnet, *plan_, idx, rg, kBaseMargin)
            .hull(subnet.bbox().inflated(escalated).intersect(rg.extent())));
  }
  return boxes;
}

bool DetailedRouter::sp_memo_hit(netlist::NetId net) const {
  const SpMemo& memo = sp_memo_[static_cast<std::size_t>(net)];
  if (!memo.valid || memo.key != sp_key(net)) return false;
  const std::vector<Rect> boxes = sp_read_set(net);
  return std::all_of(boxes.begin(), boxes.end(), [&](const Rect& box) {
    return grid_->last_change(box) <= memo.seq;
  });
}

bool DetailedRouter::reroute_offender(netlist::NetId net,
                                      exec::ThreadPool* pool) {
  // The net's state before the reroute: a failed reroute is undone from it,
  // and a reroute that ends on it changed nothing.
  std::vector<SubnetKey> before = sp_key(net);
  const auto& mine = subnets_of_net_[static_cast<std::size_t>(net)];

  // One transaction per offender: a reroute that lands on its old geometry
  // leaves no trace in the change log.
  grid_->begin_transaction();
  // Realized subnets re-realize their assigned geometry verbatim; only the
  // search-routed ones get a fresh, stricter search. rip_net leaves
  // subnet_method alone, so the scheduler reads the prior method.
  const auto victims = rip_net(net);
  route_batches(victims, /*realized_only=*/true, pool, nullptr, {});
  const bool ok =
      std::all_of(victims.begin(), victims.end(),
                  [&](std::size_t idx) {
                    return !result_->subnet_nodes[idx].empty();
                  });
  if (!ok) {
    // Restore the original geometry and bookkeeping.
    rip_net(net);
    for (std::size_t k = 0; k < mine.size(); ++k) {
      if (before[k].nodes.empty()) continue;
      const std::size_t idx = mine[k];
      for (const Point3 p : before[k].nodes) grid_->claim(p, net);
      result_->subnet_nodes[idx] = before[k].nodes;
      result_->subnet_method[idx] = before[k].method;
    }
  }
  grid_->end_transaction();

  bool geometry_changed = false;
  bool method_changed = false;
  for (std::size_t k = 0; k < mine.size(); ++k) {
    const std::size_t idx = mine[k];
    geometry_changed =
        geometry_changed || before[k].nodes != result_->subnet_nodes[idx];
    method_changed =
        method_changed || before[k].method != result_->subnet_method[idx];
  }
  namespace keys = telemetry::keys;
  if (geometry_changed) {
    detail_counter<keys::kSpCleanupNets>().add(1);
  } else {
    detail_counter<keys::kSpCleanupNoopReroutes>().add(1);
  }
  const bool changed = geometry_changed || method_changed;
  SpMemo& memo = sp_memo_[static_cast<std::size_t>(net)];
  memo.valid = !changed;
  if (!changed) {
    memo.seq = grid_->seq();
    memo.key = std::move(before);
  }
  return changed;
}

void DetailedRouter::cleanup_short_polygons(exec::ThreadPool* pool) {
  if (!config_.astar.stitch_cost) return;
  TELEMETRY_SPAN("detail.sp_cleanup");
  namespace keys = telemetry::keys;
  telemetry::Counter& rounds = telemetry::counter(keys::kSpCleanupRounds);
  telemetry::Counter& sp_skips = telemetry::counter(keys::kMemoSpSkips);
  for (int round = 0; round < kSpCleanupMaxRounds; ++round) {
    const auto sites = short_polygon_ends(*grid_);
    if (sites.empty()) return;
    // A net is cleaned only when at least one of its short-polygon ends
    // lies on *search-routed* geometry. Realized geometry follows the track
    // assignment verbatim; the detailed stage does not override it (its
    // quality is the assignment stage's responsibility, as in the paper).
    std::unordered_set<netlist::NetId> eligible;
    for (const ShortPolygonEnd& site : sites) {
      for (const std::size_t idx :
           subnets_of_net_[static_cast<std::size_t>(site.net)]) {
        if (result_->subnet_method[idx] != RouteMethod::kSearch) continue;
        const auto& nodes = result_->subnet_nodes[idx];
        if (std::find(nodes.begin(), nodes.end(), site.end) != nodes.end()) {
          eligible.insert(site.net);
          break;
        }
      }
    }
    if (eligible.empty()) return;
    std::vector<netlist::NetId> offenders(eligible.begin(), eligible.end());
    std::sort(offenders.begin(), offenders.end());  // deterministic order
    rounds.add(1);
    bool round_changed = false;
    astar_.set_beta_scale(kSpCleanupBetaScale);
    for (const netlist::NetId net : offenders) {
      // The reroute reads only the key inputs and the grid inside its read
      // set: when neither changed since a run that changed nothing, it
      // would change nothing again.
      if (sp_memo_hit(net)) {
        sp_skips.add(1);
        continue;
      }
      if (reroute_offender(net, pool)) round_changed = true;
    }
    astar_.set_beta_scale(1.0);
    // A round that changed nothing leaves the state it started from, so the
    // next round would repeat it exactly.
    if (!round_changed) return;
  }
}

void DetailedRouter::bind(const std::vector<netlist::Subnet>& subnets,
                          const assign::RoutePlan& plan,
                          DetailedResult& result) {
  subnets_ = &subnets;
  plan_ = &plan;
  result_ = &result;
  netlist::NetId max_net = -1;
  for (const auto& subnet : subnets) max_net = std::max(max_net, subnet.net);
  subnets_of_net_.assign(static_cast<std::size_t>(max_net + 1), {});
  for (std::size_t i = 0; i < subnets.size(); ++i)
    subnets_of_net_[static_cast<std::size_t>(subnets[i].net)].push_back(i);
  sp_memo_.assign(subnets_of_net_.size(), {});
  probe_memo_.assign(subnets.size(), {});
}

void DetailedRouter::restore(const std::vector<netlist::Subnet>& subnets,
                             const assign::RoutePlan& plan,
                             DetailedResult& result) {
  bind(subnets, plan, result);
  result.subnet_nodes.resize(subnets.size());
  result.subnet_method.resize(subnets.size(), RouteMethod::kNone);
  // Re-claim the committed geometry. Claims are idempotent per net, so a
  // grid that already carries it (the long-lived resident) is untouched and
  // a freshly-loaded grid ends up in the identical occupancy state.
  for (std::size_t i = 0; i < subnets.size(); ++i)
    for (const Point3 p : result.subnet_nodes[i])
      grid_->claim(p, subnets[i].net);
}

void DetailedRouter::reroute_nets(const std::vector<netlist::NetId>& nets,
                                  exec::ThreadPool* pool,
                                  const exec::Cancellation* cancel,
                                  const ProgressFn& progress,
                                  const std::vector<PinMove>& pin_moves) {
  TELEMETRY_SPAN("detail.eco");
  assert(subnets_ != nullptr && result_ != nullptr);
  // Rip whole nets, never single subnets: subnets of one net share junction
  // nodes, so per-subnet rip-up could release a sibling's geometry.
  std::vector<netlist::NetId> order_nets = nets;
  std::sort(order_nets.begin(), order_nets.end());
  order_nets.erase(std::unique(order_nets.begin(), order_nets.end()),
                   order_nets.end());
  // The rip, the pin moves and the main pass form one transaction: a net
  // that reroutes onto its old geometry leaves no trace in the change log,
  // so the repair memo of everything around it stays valid.
  grid_->begin_transaction();
  std::vector<std::uint8_t> ripped(subnets_->size(), 0);
  for (const netlist::NetId net : order_nets) {
    if (net < 0 || static_cast<std::size_t>(net) >= subnets_of_net_.size())
      continue;
    for (const std::size_t idx : rip_net(net)) ripped[idx] = 1;
  }
  // Pin claims move only after every involved net's geometry is off the
  // grid, so the destination nodes are free to reserve.
  for (const PinMove& move : pin_moves)
    move_pin_claims(move.net, move.from, move.to);
  // The ripped subnets route in their positions of the *full* deterministic
  // order — the same relative schedule on every ECO compare path.
  const auto full_order =
      order_subnets(*subnets_, *plan_, config_.stitch_net_ordering);
  std::vector<std::size_t> order;
  for (const std::size_t idx : full_order)
    if (ripped[idx] != 0) order.push_back(idx);
  main_pass(order, pool, cancel, progress);
  grid_->end_transaction();
  repair(pool, cancel, /*incremental=*/true);
}

namespace {

/// Run `phase` and add its wall time to the counter `key`.
template <typename Fn>
void timed_phase(const char* key, Fn&& phase) {
  const std::uint64_t t0 = telemetry::now_ns();
  phase();
  telemetry::counter(key).add(
      static_cast<std::int64_t>(telemetry::now_ns() - t0));
}

}  // namespace

void DetailedRouter::main_pass(const std::vector<std::size_t>& order,
                               exec::ThreadPool* pool,
                               const exec::Cancellation* cancel,
                               const ProgressFn& progress) {
  TELEMETRY_SPAN("detail.main_pass");
  timed_phase(telemetry::keys::kDetailPhaseMainPassNs, [&] {
    route_batches(order, /*realized_only=*/false, pool, cancel, progress);
  });
}

void DetailedRouter::repair(exec::ThreadPool* pool,
                            const exec::Cancellation* cancel,
                            bool incremental) {
  namespace keys = telemetry::keys;
  if (cancel == nullptr || !cancel->stop_requested()) {
    timed_phase(keys::kDetailPhaseRescueNs,
                [&] { rescue_failed(pool, incremental); });
    timed_phase(keys::kDetailPhaseSpCleanupNs,
                [&] { cleanup_short_polygons(pool); });
  }
  // Storage telemetry (execution-dependent by prefix; see keys.hpp).
  const auto record = [](const char* key, std::size_t value) {
    telemetry::counter(key).add(static_cast<std::int64_t>(value));
  };
  record(keys::kDetailOwnerReservedBytes, grid_->owner_reserved_bytes());
  record(keys::kDetailOwnerBlocksTouched, grid_->owner_blocks_touched());
  record(keys::kDetailPinSetBytes, pin_nodes_.bytes());
  record(keys::kDetailGuardNodes, astar_.guard_nodes());
  record(keys::kDetailScratchPeakBytes, astar_.scratch_peak_bytes());
}

DetailedResult DetailedRouter::route_all(
    const std::vector<netlist::Subnet>& subnets, const assign::RoutePlan& plan,
    exec::ThreadPool* pool, const exec::Cancellation* cancel,
    const ProgressFn& progress) {
  TELEMETRY_SPAN("detail.route_all");
  DetailedResult result;
  result.subnet_nodes.assign(subnets.size(), {});
  result.subnet_method.assign(subnets.size(), RouteMethod::kNone);
  bind(subnets, plan, result);

  main_pass(order_subnets(subnets, plan, config_.stitch_net_ordering), pool,
            cancel, progress);
  repair(pool, cancel, /*incremental=*/false);

  const auto failed = std::count_if(
      result.subnet_nodes.begin(), result.subnet_nodes.end(),
      [](const std::vector<Point3>& nodes) { return nodes.empty(); });
  telemetry::counter(telemetry::keys::kSubnetsFailed).add(failed);
  util::log_info() << "detailed routing: "
                   << static_cast<std::int64_t>(subnets.size()) - failed
                   << "/" << subnets.size() << " subnets";
  return result;
}

}  // namespace mebl::detail
