#pragma once

#include <functional>

#include "assign/panel.hpp"
#include "detail/astar.hpp"
#include "detail/node_bitmap.hpp"

namespace mebl::exec {
class ThreadPool;
class Cancellation;
}  // namespace mebl::exec

namespace mebl::detail {

/// Detailed-routing stage configuration (Table VIII ablations toggle the
/// stitch pieces).
struct DetailedConfig {
  AStarConfig astar;
  /// Order subnets by planned bad ends (paper SIII-D2). Off = baseline
  /// bottom-up (smallest bbox first) ordering.
  bool stitch_net_ordering = true;
  /// Upper bound on one batch of subnets with pairwise-disjoint search
  /// boxes, routed concurrently on the caller's thread pool (bounds commit
  /// latency and progress granularity; must never depend on the thread
  /// count). Prefix batching is sequential-equivalent, so the routed result
  /// is the same for every cap and thread count; cap 1 is the
  /// one-subnet-at-a-time reference schedule (DESIGN.md §9).
  int parallel_batch_cap = 64;
};

/// How one subnet's committed geometry was produced. kRealized geometry
/// follows the track assignment verbatim; kSearch geometry came from the
/// pattern probe, the A* search, or a rescue.
enum class RouteMethod : std::uint8_t { kNone, kRealized, kSearch };

/// The per-subnet geometry of a detailed-routing run — the state a resident
/// design needs to rip up and reroute nets incrementally (and what
/// routed-state serialization saves). How the subnets got routed is counted
/// by the `detail.subnets.*`, `detail.ripup.rescued` and
/// `detail.sp_cleanup.nets` counters (telemetry/keys.hpp).
struct DetailedResult {
  /// Committed grid nodes per subnet. A subnet is routed exactly when its
  /// list is non-empty: a committed path always holds at least one node.
  std::vector<std::vector<geom::Point3>> subnet_nodes;
  /// Per-subnet provenance; the short-polygon cleanup only reroutes
  /// search-routed geometry.
  std::vector<RouteMethod> subnet_method;
};

/// Second-pass detailed router: realizes each subnet's assigned segments as
/// grid geometry when conflict-free, falls back to the stitch-aware A*
/// search, rescues failed subnets by ripping up and rerouting blocking nets,
/// and finally reroutes nets that still own short polygons with a stricter
/// cost (the framework's failed-net rip-up/reroute pass).
///
/// Every pass routes its subnets through one batch-parallel scheduler:
/// subnets whose conservative search boxes are pairwise disjoint are searched
/// concurrently against the grid state frozen at the batch start, then
/// claimed in order at the batch barrier. Disjointness makes the schedule
/// sequential-equivalent, so the routed result is identical to the
/// one-subnet-at-a-time loop for every thread count (including the no-pool
/// fallback).
///
/// The repair passes keep a memo across calls (DESIGN.md §9): a
/// short-polygon reroute or a rescue probe whose last run changed nothing is
/// skipped while its key inputs are unchanged and the grid's change log
/// shows no change inside the boxes it reads. A skipped attempt would have
/// reproduced the same bytes, so the memo changes no routing output.
class DetailedRouter {
 public:
  DetailedRouter(GridGraph& grid, DetailedConfig config = {});

  /// Reports batch completion during the main pass: (subnets processed so
  /// far, total subnets).
  using ProgressFn = std::function<void(std::size_t, std::size_t)>;

  /// Claim every pin's pin-layer node and its via-access node on layer 1,
  /// and install the short-polygon guard penalties for pins inside stitch
  /// unfriendly regions. Call once before routing.
  void claim_pins(const netlist::Netlist& netlist);

  /// Route all subnets. `plan` carries the layer/track assignment; runs
  /// without assignment (or with ripped tracks) are routed directly.
  ///
  /// `pool` parallelizes the disjoint-batch searches of every pass (null =
  /// run them on the calling thread; the routed result is identical either
  /// way). `cancel` stops the scheduling of further batches and
  /// skips the rescue/cleanup passes; already-committed subnets are kept.
  /// `progress` fires after every committed batch.
  DetailedResult route_all(const std::vector<netlist::Subnet>& subnets,
                           const assign::RoutePlan& plan,
                           exec::ThreadPool* pool = nullptr,
                           const exec::Cancellation* cancel = nullptr,
                           const ProgressFn& progress = {});

  // --- incremental (ECO) rerouting -----------------------------------------

  /// Bind this router to a previously-routed result and claim the result's
  /// geometry onto the grid. Pins must be claimed first (claim_pins); grid
  /// claims are idempotent per net, so restoring onto a grid that already
  /// carries the geometry (the long-lived resident case) is a no-op there
  /// and only rebinds the pointers. `subnets`, `plan`, and `result` must
  /// outlive subsequent reroute_nets() calls.
  void restore(const std::vector<netlist::Subnet>& subnets,
               const assign::RoutePlan& plan, DetailedResult& result);

  /// One pin relocation applied between the rip and route phases of
  /// reroute_nets. The owning net — and any net whose wires occupy the
  /// destination nodes — must be in the reroute set, so the destination is
  /// free by the time the claims move.
  struct PinMove {
    netlist::NetId net = -1;
    geom::Point from;
    geom::Point to;
  };

  /// Incremental reroute of whole nets against the untouched remainder: rip
  /// every listed net's geometry, apply the pin moves, route the ripped
  /// subnets through the ordinary deterministic main pass (the full
  /// stitch-aware order filtered to the ripped set), then run the rescue
  /// and short-polygon cleanup passes. Requires a prior restore(). Updates
  /// the bound result's geometry in place.
  void reroute_nets(const std::vector<netlist::NetId>& nets,
                    exec::ThreadPool* pool = nullptr,
                    const exec::Cancellation* cancel = nullptr,
                    const ProgressFn& progress = {},
                    const std::vector<PinMove>& pin_moves = {});

  /// Move one pin's reservations from `from` to `to`: release the old pad
  /// and via-access nodes and their short-polygon guards, then claim and
  /// guard the new location. The caller must rip the owning net first (its
  /// geometry may pass through the old nodes) and any foreign net whose
  /// wires occupy the new nodes.
  void move_pin_claims(netlist::NetId net, geom::Point from, geom::Point to);

  [[nodiscard]] const GridGraph& grid() const noexcept { return *grid_; }

 private:
  /// One computed (not yet committed) routing attempt for a subnet.
  struct Attempt {
    enum class Kind : std::uint8_t { kNone, kRealized, kPattern, kAstar };
    Kind kind = Kind::kNone;
    std::vector<geom::Point3> nodes;
  };

  /// Collect the nodes of the planned runs of subnet `idx` without claiming
  /// anything. Returns false (and clears `out`) when any needed node is
  /// blocked, the plan is incomplete, or the geometry would create a short
  /// polygon the A* cost model could avoid.
  bool collect_realize(std::size_t idx, bool prefer_high,
                       std::vector<geom::Point3>& out) const;

  /// L-shape pattern probe: collect one of the two one-bend routes on fixed
  /// layers without claiming. Returns false when neither fits.
  bool collect_pattern(std::size_t idx, std::vector<geom::Point3>& out) const;

  /// First attempt of one subnet (realize, pattern, A* at the base margin)
  /// against the current grid, read-only. Used concurrently by the batch
  /// phase.
  Attempt compute_first_attempt(std::size_t idx, bool allow_realize) const;

  /// Claim a successful attempt's nodes and update the per-subnet
  /// bookkeeping and stage counters.
  void commit_attempt(std::size_t idx, Attempt&& attempt);

  /// Escalating A* retries after a failed first attempt (margin *= 4 per
  /// retry); commits on success.
  bool route_subnet_escalated(std::size_t idx);

  /// The scheduler — the only way subnets get routed: the disjoint-batch
  /// pass over `order` (see class comment). With `realized_only`, a subnet
  /// may realize its plan only when its recorded method is kRealized (the
  /// short-polygon cleanup's rule: search-routed geometry is searched
  /// again, never re-realized); otherwise every subnet may.
  void route_batches(const std::vector<std::size_t>& order, bool realized_only,
                     exec::ThreadPool* pool, const exec::Cancellation* cancel,
                     const ProgressFn& progress);

  /// The main pass over `order` (route_all and reroute_nets).
  void main_pass(const std::vector<std::size_t>& order, exec::ThreadPool* pool,
                 const exec::Cancellation* cancel, const ProgressFn& progress);

  /// The tail shared by route_all and reroute_nets after the main pass:
  /// (unless cancelled) rescue and short-polygon cleanup, then the storage
  /// counters. `incremental` as for rescue_failed.
  void repair(exec::ThreadPool* pool, const exec::Cancellation* cancel,
              bool incremental);

  /// Release all geometry of `net` (sparing pin reservations), leaving its
  /// subnets unrouted. Returns the ripped subnet indices.
  std::vector<std::size_t> rip_net(netlist::NetId net);

  /// Rip-up & reroute pass for currently failed subnets. `incremental`
  /// runs the whole pass as one grid transaction, which pays off only for
  /// memos recorded before it — an ECO's; a full route has none yet, and
  /// its rescue phase would log hundreds of thousands of writes.
  void rescue_failed(exec::ThreadPool* pool, bool incremental);

  /// Reroute nets owning short polygons with scaled beta.
  void cleanup_short_polygons(exec::ThreadPool* pool);

  /// Rip and reroute one short-polygon offender (restoring it when a subnet
  /// fails). Returns whether the net's geometry or methods changed; counts the reroute as cleaned or as a no-op, and memoizes a
  /// reroute that changed nothing.
  bool reroute_offender(netlist::NetId net, exec::ThreadPool* pool);

  // --- repair memo (DESIGN.md §9) ------------------------------------------

  /// The plan-run fields the realizer and subnet_search_box read.
  struct RunKey {
    geom::Orientation dir;
    int fixed_tile;
    geom::Interval span;
    geom::LayerId layer;
    bool ripped;
    std::vector<std::pair<geom::Interval, geom::Coord>> pieces;
    bool operator==(const RunKey&) const = default;
  };
  /// What an offender reroute reads of one subnet besides the grid around
  /// it, including its own committed nodes (which the rip releases).
  struct SubnetKey {
    geom::Point a;
    geom::Point b;
    RouteMethod method;
    std::vector<RunKey> runs;
    std::vector<geom::Point3> nodes;
    bool operator==(const SubnetKey&) const = default;
  };
  /// An offender reroute that changed nothing, by net.
  struct SpMemo {
    bool valid = false;
    GridGraph::Seq seq = 0;  ///< grid_->seq() after the reroute
    std::vector<SubnetKey> key;
  };
  /// A rescue probe that changed nothing, by subnet.
  struct ProbeMemo {
    bool valid = false;
    GridGraph::Seq seq = 0;  ///< grid_->seq() at the probe
    geom::Point a;
    geom::Point b;
  };

  [[nodiscard]] std::vector<SubnetKey> sp_key(netlist::NetId net) const;
  /// Boxes an offender reroute of `net` reads: per subnet its first-attempt
  /// box hulled with its last escalation box.
  [[nodiscard]] std::vector<geom::Rect> sp_read_set(netlist::NetId net) const;
  [[nodiscard]] bool sp_memo_hit(netlist::NetId net) const;
  /// The rip-up probe's search box of subnet `idx`.
  [[nodiscard]] geom::Rect probe_box(std::size_t idx) const;

  /// Point the working pointers at a (subnets, plan, result) triple and
  /// rebuild the net -> subnet index.
  void bind(const std::vector<netlist::Subnet>& subnets,
            const assign::RoutePlan& plan, DetailedResult& result);

  /// Claim (or release) one pin's pad and via-access nodes together with
  /// its short-polygon guard penalties.
  void reserve_pin(netlist::NetId net, geom::Point pos);
  void release_pin(geom::Point pos);

  GridGraph* grid_;
  DetailedConfig config_;
  AStarRouter astar_;

  const std::vector<netlist::Subnet>* subnets_ = nullptr;
  const assign::RoutePlan* plan_ = nullptr;
  /// Owns the per-subnet geometry/method state the router mutates; bound by
  /// route_all() (to its own local) or restore() (to a resident result).
  DetailedResult* result_ = nullptr;
  std::vector<std::vector<std::size_t>> subnets_of_net_;
  /// Pin pad / via-access reservations, by grid node index.
  NodeBitmap pin_nodes_;
  /// Repair memo, cleared by bind(): by net and by subnet.
  std::vector<SpMemo> sp_memo_;
  std::vector<ProbeMemo> probe_memo_;
};

}  // namespace mebl::detail
