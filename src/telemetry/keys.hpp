#pragma once

// Canonical telemetry counter / histogram names used by the routing
// pipeline, so producers (stages) and consumers (stats dumps, benches,
// tests) agree on spelling. Stage code may still mint ad-hoc names; the
// ones here are the documented, stable surface.

#include <string_view>

namespace mebl::telemetry::keys {

// global routing
inline constexpr char kGlobalRerouted[] = "global.reroute.subnets";
inline constexpr char kGlobalReroutePasses[] = "global.reroute.passes";
inline constexpr char kGlobalWirelength[] = "global.wirelength";
inline constexpr char kGlobalVertexOverflow[] = "global.overflow.vertex_total";
inline constexpr char kGlobalVertexOverflowMax[] = "global.overflow.vertex_max";
inline constexpr char kGlobalEdgeOverflow[] = "global.overflow.edge_total";

// global-routing search kernel (DESIGN.md §10). Pops and pattern hits are
// functions of the routing order and congestion state alone — never of the
// thread count — so they stay byte-identical in canonical run reports
// across --threads. Scratch reuses count per-worker warm starts and DO vary
// with the thread count; execution_dependent() below excludes them from the
// canonical report form alongside the *_ns timings.
inline constexpr char kGlobalSearchPops[] = "global.search.pops";
inline constexpr char kGlobalPatternHits[] = "global.search.pattern_hits";
inline constexpr char kGlobalScratchReuses[] = "global.search.scratch_reuses";

// multilevel coarsen–route–refine pass (DESIGN.md §15). All three are
// functions of the subnet set and congestion state alone — the coarse pass
// is sequential and each corridor outcome is per-subnet deterministic — so
// they stay in canonical reports across --threads.
inline constexpr char kMlCoarseNets[] = "global.ml.coarse_nets";
inline constexpr char kMlCorridorHits[] = "global.ml.corridor_hits";
inline constexpr char kMlCorridorFallbacks[] = "global.ml.corridor_fallbacks";

// grid storage (DESIGN.md §15). Describes the congestion graph's
// *representation* (tiles held, resident bytes), not the routed result.
// Every tile is resident, so tiles_materialized equals tiles_total. The
// prefix stays execution-dependent: byte counts follow allocator capacity,
// and canonical report bytes must not move with the representation.
inline constexpr char kGridTilesMaterialized[] = "grid.tiles_materialized";
inline constexpr char kGridTilesTotal[] = "grid.tiles_total";
inline constexpr char kGridStorageBytes[] = "grid.storage_bytes";

// layer assignment
inline constexpr char kLayerPanels[] = "assign.layer.panels";

// track assignment. Panel counts, bad ends and rip-ups are functions of the
// routing decisions alone and stay in canonical reports. The ILP *search
// effort* counters are not: where a wall-clock deadline cuts a solve off is
// machine-dependent (fallbacks, budget hits), and under cross-subproblem
// incumbent sharing the node count varies with thread interleaving even
// though the solution does not. execution_dependent() below excludes all
// three so canonical report bytes keep their cross-thread identity.
inline constexpr char kTrackPanels[] = "assign.track.panels";
inline constexpr char kTrackIlpNodes[] = "assign.track.ilp_nodes";
inline constexpr char kTrackIlpNs[] = "assign.track.ilp_ns";
inline constexpr char kTrackIlpFallbacks[] = "assign.track.ilp_fallbacks";
inline constexpr char kTrackIlpBudgetHits[] = "assign.track.ilp_budget_hits";
inline constexpr char kTrackBadEnds[] = "assign.track.bad_ends";
inline constexpr char kTrackRipped[] = "assign.track.ripped";

// detailed routing
inline constexpr char kAstarSearches[] = "detail.astar.searches";
inline constexpr char kAstarExpansions[] = "detail.astar.expansions";
inline constexpr char kRipupRescued[] = "detail.ripup.rescued";
inline constexpr char kRipupVictims[] = "detail.ripup.victims";
/// Short-polygon cleanup reroutes that changed the net's geometry; the ones
/// that ran and left it as it was count as noop_reroutes. Rounds counts the
/// cleanup rounds that reached their offender loop.
inline constexpr char kSpCleanupNets[] = "detail.sp_cleanup.nets";
inline constexpr char kSpCleanupNoopReroutes[] =
    "detail.sp_cleanup.noop_reroutes";
inline constexpr char kSpCleanupRounds[] = "detail.sp_cleanup.rounds";
inline constexpr char kSubnetsRealized[] = "detail.subnets.realized";
inline constexpr char kSubnetsPattern[] = "detail.subnets.pattern";
inline constexpr char kSubnetsAstar[] = "detail.subnets.astar";
inline constexpr char kSubnetsFailed[] = "detail.subnets.failed";

// detailed-routing scheduler (DESIGN.md §9). They count every scheduled
// pass — the main pass, rescue victims and short-polygon cleanup victims.
// All are functions of the routing orders and search boxes alone — never of
// the thread count — so they stay byte-identical in canonical run reports
// across --threads.
inline constexpr char kDetailBatches[] = "detail.parallel.batches";
inline constexpr char kDetailBatchedSubnets[] = "detail.parallel.batched_subnets";
inline constexpr char kDetailSequentialSubnets[] =
    "detail.parallel.sequential_subnets";
inline constexpr char kDetailEscalations[] = "detail.parallel.escalations";
inline constexpr char kDetailRecomputed[] = "detail.parallel.recomputed";

// detail repair memo (DESIGN.md §9): offender reroutes and rescue probes
// skipped because their last run changed nothing and nothing they read has
// changed since. Change stamps are written at the commit barriers in the
// sequential order, so both are thread-count invariant and canonical.
inline constexpr char kMemoSpSkips[] = "detail.memo.sp_skips";
inline constexpr char kMemoProbeSkips[] = "detail.memo.probe_skips";

// detail phase wall time: main pass, rescue and short-polygon cleanup, in
// the detail stage's counter block (execution-dependent by the _ns suffix).
inline constexpr char kDetailPhaseMainPassNs[] = "detail.phase.main_pass_ns";
inline constexpr char kDetailPhaseRescueNs[] = "detail.phase.rescue_ns";
inline constexpr char kDetailPhaseSpCleanupNs[] =
    "detail.phase.sp_cleanup_ns";

// detail-stage storage (DESIGN.md §15). Like grid.*, these describe the
// *representation* — bytes reserved for the owner slots, how many of their
// 4 KiB blocks were ever written, the pin-set bitmap, the guarded nodes and
// the largest per-thread A* scratch — not the routed result. A thread keeps
// its scratch at the largest box it ever searched, so the scratch peak also
// depends on what the process routed before. The whole prefix is
// execution-dependent, and canonical report bytes stay invariant under
// storage changes that route identically.
inline constexpr char kDetailOwnerReservedBytes[] =
    "detail.storage.owner_reserved_bytes";
inline constexpr char kDetailOwnerBlocksTouched[] =
    "detail.storage.owner_blocks_touched";
inline constexpr char kDetailPinSetBytes[] = "detail.storage.pin_set_bytes";
inline constexpr char kDetailGuardNodes[] = "detail.storage.guard_nodes";
inline constexpr char kDetailScratchPeakBytes[] =
    "detail.storage.astar_scratch_peak_bytes";

// evaluation — the paper's quality metrics as stable counter names, recorded
// inside the metrics stage so stage-boundary observers (report builders) see
// them in that stage's delta and in RoutingResult::stats().
inline constexpr char kShortPolygons[] = "eval.short_polygons";
inline constexpr char kViaViolations[] = "eval.via_violations";
inline constexpr char kVerticalViolations[] = "eval.vertical_violations";
inline constexpr char kWirelength[] = "eval.wirelength";
inline constexpr char kVias[] = "eval.vias";
inline constexpr char kRoutedNets[] = "eval.routed_nets";
inline constexpr char kTotalNets[] = "eval.total_nets";

// histograms
inline constexpr char kAstarSearchNs[] = "detail.astar.search_ns";
inline constexpr char kDetailBatchNs[] = "detail.parallel.batch_ns";
inline constexpr char kTrackPanelNs[] = "assign.track.panel_ns";

// serving layer (DESIGN.md §14). All serve.* keys describe daemon traffic —
// how many requests arrived, how long jobs waited and ran — never routing
// decisions, so every one of them is execution-dependent and excluded from
// canonical report bytes by prefix below.
inline constexpr char kServeRequests[] = "serve.requests.decoded";
inline constexpr char kServeMalformed[] = "serve.requests.malformed";
inline constexpr char kServeJobsRoute[] = "serve.jobs.route";
inline constexpr char kServeJobsEco[] = "serve.jobs.eco";
inline constexpr char kServeEcoFallbackFull[] = "serve.jobs.eco_fallback_full";
inline constexpr char kServeJobsFailed[] = "serve.jobs.failed";
inline constexpr char kServeJobsCancelled[] = "serve.jobs.cancelled";
inline constexpr char kServeSlowJobs[] = "serve.jobs.slow";
/// Jobs whose deadline had already expired when a lane picked them up:
/// rejected with a structured deadline_exceeded error, never started.
inline constexpr char kServeDeadlineRejected[] =
    "serve.jobs.deadline_rejected";
/// ECO requests absorbed into a coalesced batch (batch size minus one per
/// batch): how many rip-up/reroute applies lane batching saved.
inline constexpr char kServeEcoCoalesced[] = "serve.eco.coalesced";
// serving-layer histograms (queue wait + per-kind job latency)
inline constexpr char kServeQueueWaitNs[] = "serve.queue.wait_ns";
inline constexpr char kServeJobNs[] = "serve.job.total_ns";
inline constexpr char kServeRouteNs[] = "serve.job.route_ns";
inline constexpr char kServeEcoNs[] = "serve.job.eco_ns";

// exec pool. Steal counts and idle wake-ups are scheduling accidents —
// pure functions of thread timing, never of routing output — so the whole
// exec.pool.* prefix is execution-dependent.
inline constexpr char kExecSteals[] = "exec.pool.steals";
inline constexpr char kExecChunksRun[] = "exec.pool.chunks_run";
inline constexpr char kExecIdleWakeups[] = "exec.pool.idle_wakeups";

// telemetry self-observation
inline constexpr char kTraceDroppedSpans[] = "telemetry.trace.dropped_spans";
inline constexpr char kFlightDroppedEvents[] =
    "telemetry.flight.dropped_events";

/// Counters that measure the execution environment (wall-clock timings,
/// per-worker cache warm starts, where a deadline or a shared-incumbent
/// search happened to be cut off, serving-layer traffic, pool scheduling,
/// global and detail storage representation, telemetry self-observation)
/// rather than routing decisions: their values legitimately vary with the
/// thread count, the machine, or the storage mode, so the canonical
/// (include_timing = false) run-report form excludes them to keep its
/// cross-thread / cross-representation byte-identity contract (DESIGN.md
/// §8, §15).
[[nodiscard]] inline bool execution_dependent(std::string_view name) {
  return name.ends_with("_ns") || name == kGlobalScratchReuses ||
         name == kTrackIlpNodes || name == kTrackIlpFallbacks ||
         name == kTrackIlpBudgetHits || name.starts_with("serve.") ||
         name.starts_with("exec.pool.") || name.starts_with("grid.") ||
         name.starts_with("detail.storage.") ||
         name.starts_with("telemetry.");
}

}  // namespace mebl::telemetry::keys
