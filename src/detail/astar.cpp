#include "detail/astar.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "telemetry/keys.hpp"

namespace mebl::detail {

using geom::Coord;
using geom::Orientation;
using geom::Point;
using geom::Point3;
using geom::Rect;

namespace {

/// Wirelength weight (the paper's alpha).
constexpr double kAlpha = 1.0;
/// Wirelength equivalent of one layer hop (via).
constexpr double kViaLength = 2.0;
/// Cost of stepping along nodes the net already owns (wire reuse).
constexpr double kOwnNetStep = 0.01;

/// Dense numbering of the (x, y, layer) states of a search box, layer-major.
struct BoxStates {
  explicit BoxStates(const Rect& r) : box(r), w(r.width()), h(r.height()) {}

  [[nodiscard]] std::int32_t state(Point3 p) const {
    return static_cast<std::int32_t>(
        (static_cast<std::size_t>(p.layer) * h + (p.y - box.ylo)) * w +
        (p.x - box.xlo));
  }
  [[nodiscard]] Point3 point(std::int32_t s) const {
    const auto u = static_cast<std::size_t>(s);
    return Point3{
        static_cast<Coord>(box.xlo + u % w),
        static_cast<Coord>(box.ylo + (u / w) % h),
        static_cast<geom::LayerId>(u / (static_cast<std::size_t>(w) * h))};
  }

  Rect box;
  int w;
  int h;
};

}  // namespace

AStarRouter::AStarRouter(const GridGraph& grid, AStarConfig config)
    : grid_(&grid),
      config_(config),
      searches_counter_(&telemetry::counter(telemetry::keys::kAstarSearches)),
      expansions_counter_(
          &telemetry::counter(telemetry::keys::kAstarExpansions)),
      sealed_fails_counter_(
          &telemetry::counter(telemetry::keys::kAstarSealedFails)),
      search_ns_histogram_(
          &telemetry::histogram(telemetry::keys::kAstarSearchNs)) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();

  // Per-column cost/legality table: everything the expansion loop asks about
  // a neighbor's column is a pure function of x, so precompute it once and
  // make the inner loop straight array indexing.
  columns_.resize(static_cast<std::size_t>(rg.width()));
  for (Coord x = 0; x < rg.width(); ++x) {
    Column& col = columns_[static_cast<std::size_t>(x)];
    const bool on_line = stitch.is_stitch_column(x);
    col.via_ok = on_line ? 0 : 1;
    col.vmove_ok = on_line ? 0 : 1;
    if (config_.stitch_cost) {
      col.escape_cost = stitch.in_escape_region(x) ? config_.gamma : 0.0;
      col.unfriendly = stitch.in_unfriendly_region(x) ? 1.0 : 0.0;
    }
  }

  layer_horizontal_.resize(static_cast<std::size_t>(rg.num_layers()), 0);
  for (geom::LayerId l = 1; l < rg.num_layers(); ++l)
    layer_horizontal_[static_cast<std::size_t>(l)] =
        rg.layer_dir(l) == Orientation::kHorizontal ? 1 : 0;

  // Prefix sums of escape columns: any route from x1 to x2 must enter at
  // least one node in every escape column strictly between them (stitching
  // lines span the full layout height), paying gamma each — an admissible
  // heuristic term that keeps A* focused despite the escape costs.
  escape_prefix_.assign(static_cast<std::size_t>(rg.width()) + 1, 0);
  for (Coord x = 0; x < rg.width(); ++x)
    escape_prefix_[static_cast<std::size_t>(x) + 1] =
        escape_prefix_[static_cast<std::size_t>(x)] +
        (stitch.in_escape_region(x) ? 1 : 0);
}

double AStarRouter::escape_between(Coord x1, Coord x2) const {
  const Coord lo = std::min(x1, x2);
  const Coord hi = std::max(x1, x2);
  if (hi - lo <= 1) return 0.0;
  return static_cast<double>(escape_prefix_[static_cast<std::size_t>(hi)] -
                             escape_prefix_[static_cast<std::size_t>(lo) + 1]);
}

namespace {

/// Min-f ordering with an admissibility-preserving tie-break on *higher* g:
/// among equal-f entries the deeper node (smaller heuristic remainder) pops
/// first, which reaches the goal before re-expanding shallow plateaus.
struct HeapWorse {
  bool operator()(const SearchScratch::HeapEntry& a,
                  const SearchScratch::HeapEntry& b) const {
    return a.f > b.f || (a.f == b.f && a.g < b.g);
  }
};

}  // namespace

void AStarRouter::add_node_penalty(Point3 node, double penalty) {
  columns_[static_cast<std::size_t>(node.x)].guarded = 1;
  // Accumulate from 0.0 exactly as a dense per-node array would, so every
  // search cost is bit-identical; an entry that cancels to zero reads as
  // absent, as the dense zero did.
  const auto it = guards_.try_emplace(grid_->index(node), 0.0).first;
  it->second += penalty;
  if (it->second == 0.0) guards_.erase(it);
}

template <typename Fn>
void AStarRouter::for_each_move(Point3 p, const Rect& box, Point a, Point b,
                                Fn&& fn) const {
  Point3 next[4];
  int count = 0;
  const Column& pc = columns_[static_cast<std::size_t>(p.x)];
  if (p.layer >= 1) {
    if (layer_horizontal_[static_cast<std::size_t>(p.layer)] != 0) {
      next[count++] = {static_cast<Coord>(p.x - 1), p.y, p.layer};
      next[count++] = {static_cast<Coord>(p.x + 1), p.y, p.layer};
    } else if (pc.vmove_ok != 0) {
      next[count++] = {p.x, static_cast<Coord>(p.y - 1), p.layer};
      next[count++] = {p.x, static_cast<Coord>(p.y + 1), p.layer};
    }
  }
  // Layer hops (vias) keep the column. Vias on a stitching column are
  // allowed only at the fixed pin positions (tolerated via violations).
  const auto is_pin_xy = [&](Coord x, Coord y) {
    return (x == a.x && y == a.y) || (x == b.x && y == b.y);
  };
  if (pc.via_ok != 0 || is_pin_xy(p.x, p.y)) {
    if (static_cast<std::size_t>(p.layer) + 1 < layer_horizontal_.size())
      next[count++] = {p.x, p.y, static_cast<geom::LayerId>(p.layer + 1)};
    if (p.layer >= 1)
      next[count++] = {p.x, p.y, static_cast<geom::LayerId>(p.layer - 1)};
  }
  // One call site for fn, so each caller's body inlines here as a loop.
  for (int m = 0; m < count; ++m) {
    const Point3 q = next[m];
    if (q.x < box.xlo || q.x > box.xhi || q.y < box.ylo || q.y > box.yhi)
      continue;
    // The pin layer is only enterable at this subnet's own pins.
    if (q.layer == 0 && !is_pin_xy(q.x, q.y)) continue;
    fn(q);
  }
}

bool AStarRouter::goal_sealed(netlist::NetId net, Point a, Point b,
                              const Rect& box) const {
  const BoxStates states(box);
  const Point3 start{a.x, a.y, 0};
  // Visited set: open addressing over a power-of-two table at least four
  // times the cap, so probes stay short; -1 marks a free slot.
  constexpr int kSlotBits = 12;
  constexpr std::size_t kSlots = std::size_t{1} << kSlotBits;
  static_assert(kSlots >= 4 * kSealCap);
  std::array<std::int32_t, kSlots> seen;
  seen.fill(-1);
  const auto insert = [&](std::int32_t s) {  // true when s is new
    std::size_t i =  // Fibonacci hashing: the product's top bits
        (static_cast<std::uint32_t>(s) * 2654435761u) >> (32 - kSlotBits);
    for (; seen[i] != -1; i = (i + 1) & (kSlots - 1))
      if (seen[i] == s) return false;
    seen[i] = s;
    return true;
  };
  std::array<std::int32_t, kSealCap> queue;  // every visited node, BFS order
  std::size_t head = 0;
  std::size_t tail = 0;
  queue[tail++] = states.state({b.x, b.y, 0});
  insert(queue[0]);
  bool open = false;  // met the start pin, or outgrew the cap
  while (!open && head < tail)
    for_each_move(states.point(queue[head++]), box, a, b, [&](Point3 q) {
      if (open) return;
      // The search never tests its start node's owner, so neither does
      // the flood: meeting the start pin means a path may exist.
      if (q == start) {
        open = true;
        return;
      }
      const netlist::NetId owner = grid_->owner(q);
      if (owner != -1 && owner != net) return;  // foreign: blocked
      const std::int32_t s = states.state(q);
      if (!insert(s)) return;
      if (tail == kSealCap) {  // too large to decide
        open = true;
        return;
      }
      queue[tail++] = s;
    });
  return !open;
}

bool AStarRouter::search(SearchScratch& scratch, netlist::NetId net, Point a,
                         Point b, const Rect& box, double foreign_penalty,
                         const NodeBitmap* hard) const {
  TELEMETRY_SPAN("detail.astar");
  const std::uint64_t start_ns = telemetry::now_ns();
  const auto& rg = grid_->routing_grid();
  assert(box.contains(a) && box.contains(b));
  const BoxStates states(box);

  const std::size_t num_states = static_cast<std::size_t>(states.w) *
                                 states.h *
                                 static_cast<std::size_t>(rg.num_layers());
  if (scratch.stamp.size() < num_states) {
    scratch.stamp.assign(num_states, 0);
    scratch.g_cost.resize(num_states);
    scratch.parent.resize(num_states);
    scratch.epoch = 0;
  }
  std::size_t peak = scratch_peak_states_.load(std::memory_order_relaxed);
  while (scratch.stamp.size() > peak &&
         !scratch_peak_states_.compare_exchange_weak(
             peak, scratch.stamp.size(), std::memory_order_relaxed)) {
  }
  if (++scratch.epoch == 0) {  // wrap-around: stamps from 2^32 ago are stale
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), 0);
    scratch.epoch = 1;
  }
  const std::uint32_t epoch = scratch.epoch;
  std::uint32_t* const stamp = scratch.stamp.data();
  double* const g_cost = scratch.g_cost.data();
  std::int32_t* const parent = scratch.parent.data();

  const auto heuristic = [&](Point3 p) {
    double est =
        kAlpha *
        (manhattan(p.xy(), b) + kViaLength * static_cast<double>(p.layer));
    if (config_.stitch_cost)
      est += config_.gamma * escape_between(p.x, b.x);
    return est;
  };

  const Point3 start{a.x, a.y, 0};
  const Point3 goal{b.x, b.y, 0};

  auto& heap = scratch.heap;
  heap.clear();
  const HeapWorse worse;
  const std::int32_t start_state = states.state(start);
  stamp[static_cast<std::size_t>(start_state)] = epoch;
  g_cost[static_cast<std::size_t>(start_state)] = 0.0;
  parent[static_cast<std::size_t>(start_state)] = -1;
  heap.push_back({heuristic(start), 0.0, start_state});

  const Column* const columns = columns_.data();
  // Static node penalties apply only with the stitch costs on (they guard
  // short-polygon sites, a stitch-only concern).
  const bool guards = config_.stitch_cost && !guards_.empty();
  const double via_step = kAlpha * kViaLength;
  const double wire_step = kAlpha;
  const double beta_scaled = beta_scale_ * config_.beta;
  // Normal mode blocks foreign nodes and has no expansion cap, which is
  // what makes the sealed-goal check exact.
  const bool normal_mode = foreign_penalty < 0.0;

  // Hot-node plateau bypass. The heuristic is consistent, so a child whose
  // f does not exceed the just-popped f is guaranteed to be the next pop:
  // no heap entry has smaller f, and among equal-f entries the child's g
  // (parent g + a positive step) is strictly the largest, which is exactly
  // what the tie-break prefers. Carrying that child in a register instead
  // of pushing it makes plateau walks heap-free — without this, the
  // higher-g tie-break would sift every plateau child to the heap root.
  std::int64_t expanded = 0;
  std::int32_t goal_state = -1;
  bool sealed = false;
  SearchScratch::HeapEntry hot{};
  bool have_hot = false;
  while (have_hot || !heap.empty()) {
    SearchScratch::HeapEntry top;
    if (have_hot) {
      top = hot;
      have_hot = false;
    } else {
      std::pop_heap(heap.begin(), heap.end(), worse);
      top = heap.back();
      heap.pop_back();
    }
    if (top.g > g_cost[static_cast<std::size_t>(top.state)]) continue;
    ++expanded;
    const Point3 p = states.point(top.state);
    if (p == goal) {
      goal_state = top.state;
      break;
    }
    // Lazy, so searches that succeed early never pay for the flood.
    if (expanded == kSealTrigger && normal_mode &&
        goal_sealed(net, a, b, box)) {
      sealed = true;
      break;
    }

    for_each_move(p, box, a, b, [&](const Point3 q) {
      const netlist::NetId owner = grid_->owner(q);
      const bool foreign = owner != -1 && owner != net;
      if (foreign) {
        if (normal_mode) return;  // blocked
        // Probe mode: pin-layer nodes and designated hard nodes stay
        // blocked; everything else is rip-up-able at a price.
        if (q.layer == 0) return;
        if (hard != nullptr && hard->test(grid_->index(q))) return;
      }

      const bool z_move = q.layer != p.layer;
      double step;
      if (owner == net) {
        step = kOwnNetStep;  // ride existing wire
      } else {
        const Column& qc = columns[q.x];
        step = z_move ? via_step + beta_scaled * qc.unfriendly  // C_vsu
                      : wire_step;
        step += qc.escape_cost;  // C_esc
        if (guards && qc.guarded != 0) {
          const auto it = guards_.find(grid_->index(q));
          if (it != guards_.end()) step += beta_scale_ * it->second;
        }
        if (foreign) step += foreign_penalty;
      }

      const std::int32_t qs = states.state(q);
      const auto uqs = static_cast<std::size_t>(qs);
      const double ng = top.g + step;
      if (stamp[uqs] != epoch || ng < g_cost[uqs]) {
        stamp[uqs] = epoch;
        g_cost[uqs] = ng;
        parent[uqs] = top.state;
        const SearchScratch::HeapEntry entry{ng + heuristic(q), ng, qs};
        if (entry.f <= top.f && (!have_hot || worse(hot, entry))) {
          if (have_hot) {
            heap.push_back(hot);
            std::push_heap(heap.begin(), heap.end(), worse);
          }
          hot = entry;
          have_hot = true;
        } else {
          heap.push_back(entry);
          std::push_heap(heap.begin(), heap.end(), worse);
        }
      }
    });
  }

  searches_counter_->add(1);
  expansions_counter_->add(expanded);
  if (sealed) sealed_fails_counter_->add(1);
  search_ns_histogram_->record_ns(telemetry::now_ns() - start_ns);

  if (goal_state < 0) return false;

  scratch.path.clear();
  for (std::int32_t s = goal_state; s != -1;
       s = parent[static_cast<std::size_t>(s)])
    scratch.path.push_back(states.point(s));
  std::reverse(scratch.path.begin(), scratch.path.end());
  return true;
}

}  // namespace mebl::detail
