#include "serve/resident_design.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "assign/stage.hpp"
#include "eval/metrics.hpp"
#include "exec/thread_pool.hpp"
#include "netlist/decompose.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace mebl::serve {

using geom::LayerId;
using geom::Orientation;
using geom::Point;
using geom::Point3;

std::string canonical_quality_block(const report::RunReport& report) {
  report::WriteOptions options;
  options.include_timing = false;
  const auto json = report::Json::parse(report::serialize(report, options));
  report::Json block = report::Json::object();
  if (json) {
    for (const char* key : {"design", "quality", "heatmaps", "nets"})
      if (const report::Json* member = json->get(key)) block[key] = *member;
  }
  return block.dump();
}

ResidentDesign::ResidentDesign(netlist::Design design,
                               core::RouterConfig config)
    : design_(std::move(design)), config_(std::move(config)) {
  subnets_ = netlist::decompose_all(design_.netlist);
}

void ResidentDesign::adopt_residency() {
  subnets_ = netlist::decompose_all(design_.netlist);
  global_ = std::make_unique<global::GlobalRouter>(design_.grid,
                                                   config_.global);
  global_->seed(result_.global);
  detailed_ =
      std::make_unique<detail::DetailedRouter>(*result_.grid, config_.detail);
  detailed_->claim_pins(design_.netlist);
  detailed_->restore(subnets_, result_.plan, result_.detail);
  routed_ = true;
}

std::unique_ptr<ResidentDesign> ResidentDesign::from_state(
    std::istream& in, core::RouterConfig config) {
  auto loaded = read_routed_state(in);
  if (!loaded) return nullptr;

  auto resident = std::make_unique<ResidentDesign>(
      std::move(loaded->state.design), std::move(config));
  resident->result_.global = std::move(loaded->state.global);
  resident->result_.plan = std::move(loaded->state.plan);
  resident->result_.detail = std::move(loaded->state.detail);
  // read_routed_state sized the paths and the geometry to the design's
  // subnets, which the constructor decomposed into resident->subnets_.
  const auto& detail = resident->result_.detail;

  // Reseed the global demand (and the global totals) from the paths; the
  // saved arrays are the integrity check that the paths and the demand
  // agree.
  resident->global_ = std::make_unique<global::GlobalRouter>(
      resident->design_.grid, resident->config_.global);
  resident->global_->seed(resident->result_.global);
  if (!verify_demand(*loaded, resident->global_->graph())) {
    util::log_warn() << "from_state: demand integrity check failed";
    return nullptr;
  }

  resident->result_.grid =
      std::make_shared<detail::GridGraph>(resident->design_.grid);
  resident->detailed_ = std::make_unique<detail::DetailedRouter>(
      *resident->result_.grid, resident->config_.detail);
  resident->detailed_->claim_pins(resident->design_.netlist);

  // Reject geometry the grid cannot carry (out of bounds or conflicting
  // claims) before restore() asserts on it. Each checked node is claimed
  // at once, so two nets saved on one node conflict too; restore() then
  // re-claims the same nodes in the same order, a no-op.
  const auto& rg = resident->design_.grid;
  for (std::size_t i = 0; i < resident->subnets_.size(); ++i)
    for (const Point3 p : detail.subnet_nodes[i]) {
      if (p.x < 0 || p.x >= rg.width() || p.y < 0 || p.y >= rg.height() ||
          p.layer < 0 || p.layer >= rg.num_layers()) {
        util::log_warn() << "from_state: node out of bounds";
        return nullptr;
      }
      const netlist::NetId net = resident->subnets_[i].net;
      if (!resident->result_.grid->is_free_or(p, net)) {
        util::log_warn() << "from_state: conflicting geometry claims";
        return nullptr;
      }
      resident->result_.grid->claim(p, net);
    }
  resident->detailed_->restore(resident->subnets_, resident->result_.plan,
                               resident->result_.detail);
  resident->result_.metrics =
      eval::compute_metrics(*resident->result_.grid, resident->design_.netlist,
                            resident->subnets_, resident->result_.detail);
  resident->routed_ = true;
  return resident;
}

EcoOutcome ResidentDesign::route_full(exec::ThreadPool* pool,
                                      exec::Cancellation* cancel,
                                      core::ProgressObserver* observer) {
  EcoOutcome out;
  TELEMETRY_SPAN("serve.route_full");
  util::Timer timer;
  core::StitchAwareRouter router(design_.grid, design_.netlist, config_);
  router.set_observer(observer);
  router.set_pool(pool);
  router.set_cancellation(cancel);
  result_ = router.run();
  out.seconds = timer.seconds();
  out.cancelled = result_.cancelled;
  out.stop_reason = result_.stop_reason;
  if (result_.cancelled || result_.grid == nullptr) {
    routed_ = false;
    out.error = "run cancelled";
  } else {
    adopt_residency();
    out.ok = true;
  }
  out.report = report::build_run_report(result_, design_.grid,
                                        design_.netlist);
  return out;
}

std::vector<netlist::NetId> ResidentDesign::resolve_nets(
    const EcoRequest& request, std::string& error) const {
  std::vector<netlist::NetId> nets = request.nets;
  for (const std::string& name : request.net_names) {
    netlist::NetId found = -1;
    for (const netlist::Net& net : design_.netlist.nets())
      if (net.name == name) {
        found = net.id;
        break;
      }
    if (found < 0) {
      error = "unknown net name '" + name + "'";
      return {};
    }
    nets.push_back(found);
  }
  for (const netlist::NetId net : nets)
    if (net < 0 ||
        static_cast<std::size_t>(net) >= design_.netlist.num_nets()) {
      error = "net id " + std::to_string(net) + " out of range";
      return {};
    }
  std::sort(nets.begin(), nets.end());
  nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  return nets;
}

EcoOutcome ResidentDesign::eco(const EcoRequest& request,
                               exec::ThreadPool* pool,
                               exec::Cancellation* cancel) {
  EcoOutcome out;
  TELEMETRY_SPAN("serve.eco");
  if (!routed_) {
    out.error = "design is not routed; run a full route first";
    return out;
  }
  std::vector<netlist::NetId> nets = resolve_nets(request, out.error);
  if (!out.error.empty()) return out;

  // --- pin-move validation (before any mutation) ---------------------------
  // Validate every move against sequentially-simulated pin positions, so a
  // rejected request leaves the resident untouched and a coalesced batch
  // behaves exactly like its member requests back to back.
  std::vector<detail::DetailedRouter::PinMove> pin_moves;
  std::map<netlist::PinId, Point> moved_to;  ///< simulated final positions
  if (!request.pin_moves.empty()) {
    std::set<std::pair<geom::Coord, geom::Coord>> occupied;
    for (const netlist::Pin& pin : design_.netlist.pins())
      occupied.insert({pin.pos.x, pin.pos.y});
    for (const PinMoveSpec& move : request.pin_moves) {
      if (move.pin < 0 || static_cast<std::size_t>(move.pin) >=
                              design_.netlist.num_pins()) {
        out.error = "pin id out of range";
        return out;
      }
      const netlist::Pin& pin = design_.netlist.pin(move.pin);
      const auto sim = moved_to.find(move.pin);
      const Point from = sim != moved_to.end() ? sim->second : pin.pos;
      if (!design_.grid.in_bounds(move.to)) {
        out.error = "pin destination out of bounds";
        return out;
      }
      nets.push_back(pin.net);
      if (move.to == from) continue;  // no-op move: just reroute the net
      if (occupied.count({move.to.x, move.to.y}) != 0) {
        out.error = "pin destination already carries a pin";
        return out;
      }
      occupied.erase({from.x, from.y});
      occupied.insert({move.to.x, move.to.y});
      moved_to[move.pin] = move.to;
      // Nets whose wires occupy the destination nodes must reroute so the
      // pin reservation can claim them.
      for (const LayerId layer : {LayerId{0}, LayerId{1}}) {
        const netlist::NetId owner =
            result_.grid->owner({move.to.x, move.to.y, layer});
        if (owner != -1 && owner != pin.net) nets.push_back(owner);
      }
      pin_moves.push_back({pin.net, from, move.to});
    }
    std::sort(nets.begin(), nets.end());
    nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
  }
  if (nets.empty()) {
    out.error = "nothing to reroute";
    return out;
  }

  // --- bit-identity snapshot (the pre-ECO state) ---------------------------
  std::string snapshot;
  if (request.verify) {
    std::ostringstream snap;
    if (!save_state(snap)) {
      out.error = "cannot snapshot state for verification";
      return out;
    }
    snapshot = snap.str();
  }
  // Every outcome past this point, the full-route fallback included, goes
  // through the replay check: rebuild a resident from the snapshot, run the
  // same ECO on it, and compare canonical quality blocks.
  const auto verified = [&](EcoOutcome result) {
    if (!request.verify || !result.ok) return result;
    std::istringstream snap(snapshot);
    auto rebuilt = from_state(snap, config_);
    bool matched = false;
    if (rebuilt != nullptr) {
      EcoRequest replay = request;
      replay.verify = false;
      const EcoOutcome replayed = rebuilt->eco(replay, pool, nullptr);
      matched = replayed.ok && canonical_quality_block(result.report) ==
                                   canonical_quality_block(replayed.report);
    }
    result.verified = matched;
    result.verify_mismatch = !matched;
    if (!matched)
      util::log_warn()
          << "eco verify: incremental result diverged from the replay on "
             "the reloaded pre-ECO state";
    return result;
  };

  exec::Cancellation local_cancel;
  exec::Cancellation& stop = cancel != nullptr ? *cancel : local_cancel;
  // The ECO records the batch route's five stages (no observer: an ECO
  // streams no progress events).
  core::RoutingResult::Recorder recorder(result_, nullptr, stop);
  util::Timer timer;

  // --- apply the pin moves to the netlist and the subnet list --------------
  if (!pin_moves.empty()) {
    for (const auto& [pin, to] : moved_to) design_.netlist.move_pin(pin, to);
    // Refresh the decomposition of every net that lost or gained a pin
    // position, once per net even when a batch moved several of its pins.
    std::vector<netlist::NetId> moved_nets;
    for (const detail::DetailedRouter::PinMove& move : pin_moves)
      moved_nets.push_back(move.net);
    std::sort(moved_nets.begin(), moved_nets.end());
    moved_nets.erase(std::unique(moved_nets.begin(), moved_nets.end()),
                     moved_nets.end());
    for (const netlist::NetId net : moved_nets) {
      const auto fresh = netlist::decompose_net(design_.netlist, net);
      std::vector<std::size_t> slots;
      for (std::size_t i = 0; i < subnets_.size(); ++i)
        if (subnets_[i].net == net) slots.push_back(i);
      if (slots.size() != fresh.size()) {
        // Decomposition is pin-count-preserving, so this cannot happen on a
        // consistent resident; bail out rather than corrupt state.
        out.error = "pin move changed the subnet count";
        routed_ = false;
        return out;
      }
      for (std::size_t k = 0; k < slots.size(); ++k)
        subnets_[slots[k]] = fresh[k];
    }
  }

  // --- global: rip the dirty closure, reroute only it ----------------------
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < subnets_.size(); ++i)
    if (std::binary_search(nets.begin(), nets.end(), subnets_[i].net))
      targets.push_back(i);
  std::vector<std::size_t> closure;
  bool fallback = false;
  recorder.stage(core::Stage::kGlobal, [&] {
    {
      TELEMETRY_SPAN("serve.eco.global");
      closure = global_->rip_dirty_closure(result_.global, targets);
    }
    // The closure no longer pays for itself past this size.
    fallback = static_cast<double>(closure.size()) >
               kEcoFullFallbackFraction * static_cast<double>(subnets_.size());
    if (fallback) return;
    TELEMETRY_SPAN("serve.eco.global");
    global_->reroute_subset(subnets_, result_.global, closure, pool, &stop);
  });
  out.dirty_subnets = closure.size();
  if (fallback) {
    // Reroute the whole design through the ordinary pipeline (which
    // rebuilds all resident state and records its own run).
    EcoOutcome full = route_full(pool, cancel, nullptr);
    full.fallback_full = true;
    full.dirty_subnets = closure.size();
    return verified(std::move(full));
  }

  // --- assignment: replan only the panels the closure touches --------------
  {
    TELEMETRY_SPAN("serve.eco.assign");
    assign::RoutePlan plan;
    std::set<int> dirty_columns, dirty_rows;
    recorder.stage(core::Stage::kLayerAssign, [&] {
      std::vector<std::uint8_t> changed(result_.global.paths.size(), 0);
      for (const std::size_t idx : closure) changed[idx] = 1;
      const assign::RoutePlan old_plan = std::move(result_.plan);
      plan = assign::extract_runs(result_.global, subnets_);

      // Unchanged paths produce identical runs, positionally; carry their
      // layer/track assignment over so only dirty panels replan.
      for (std::size_t p = 0; p < plan.runs_of_path.size(); ++p) {
        if (p < changed.size() && changed[p] != 0) continue;
        if (p >= old_plan.runs_of_path.size()) continue;
        const auto& old_runs = old_plan.runs_of_path[p];
        const auto& new_runs = plan.runs_of_path[p];
        if (old_runs.size() != new_runs.size()) continue;
        for (std::size_t j = 0; j < new_runs.size(); ++j)
          assign::copy_assignment(old_plan.runs[old_runs[j]],
                                  plan.runs[new_runs[j]]);
      }

      // Dirty panels: every panel holding a run of a changed path, in the
      // old or the new plan (a rerouted path may leave one panel and enter
      // another).
      const auto collect_panels = [&](const assign::RoutePlan& from) {
        for (std::size_t p = 0; p < from.runs_of_path.size(); ++p) {
          if (p >= changed.size() || changed[p] == 0) continue;
          for (const std::size_t run_id : from.runs_of_path[p]) {
            const assign::GlobalRun& run = from.runs[run_id];
            (run.dir == Orientation::kVertical ? dirty_columns : dirty_rows)
                .insert(run.fixed_tile);
          }
        }
      };
      collect_panels(old_plan);
      collect_panels(plan);
    });

    recorder.stage(core::Stage::kTrackAssign, [&] {
      // ECO only runs solvers whose result is a pure function of the
      // instance: a wall-clock ILP budget would break the bit-identity /
      // replay contract, so TrackAlgorithm::kIlp runs here only in its
      // deterministic node-budget mode (RouterConfig::ilp_node_budget > 0,
      // no clock consulted anywhere) and degrades to the graph heuristic
      // otherwise (DESIGN.md §12). The panel pass is deterministic at any
      // pool size, so ECO ILP reroutes still pass the verify replay gate.
      assign::StageConfig stage = config_.stage_config();
      if (stage.track == assign::TrackMethod::kIlp &&
          stage.ilp.node_budget <= 0)
        stage.track = assign::TrackMethod::kGraph;
      std::optional<exec::ThreadPool> inline_pool;
      assign::assign_panels(
          plan, design_.grid,
          {{dirty_columns.begin(), dirty_columns.end()},
           {dirty_rows.begin(), dirty_rows.end()}},
          stage, pool != nullptr ? *pool : inline_pool.emplace(1));
      result_.plan = std::move(plan);
    });
  }

  // --- detail: rip and reroute exactly the affected nets -------------------
  recorder.stage(core::Stage::kDetail, [&] {
    TELEMETRY_SPAN("serve.eco.detail");
    detailed_->reroute_nets(nets, pool, &stop, {}, pin_moves);
  });

  // --- refresh metrics and the run record ----------------------------------
  recorder.stage(core::Stage::kMetrics, [&] {
    result_.metrics = eval::compute_metrics(*result_.grid, design_.netlist,
                                            subnets_, result_.detail);
  });
  recorder.finish(stop.stop_requested());
  out.cancelled = result_.cancelled;
  out.stop_reason = result_.stop_reason;
  // A cancelled ECO leaves ripped-but-unrouted paths behind; the resident
  // must be re-routed from scratch before the next ECO.
  if (out.cancelled) routed_ = false;
  out.seconds = timer.seconds();
  out.report = report::build_run_report(result_, design_.grid,
                                        design_.netlist);
  out.ok = !out.cancelled;
  return verified(std::move(out));
}

bool ResidentDesign::save_state(std::ostream& out) const {
  if (!routed_ || global_ == nullptr) return false;
  RoutedState state{design_, result_.global, result_.plan, result_.detail};
  write_routed_state(out, state, global_->graph());
  return static_cast<bool>(out);
}

bool ResidentDesign::save_state(const std::string& path) const {
  std::ofstream out(path);
  return out && save_state(out);
}

// ------------------------------------------------------------- DesignCache

std::shared_ptr<ResidentDesign> DesignCache::get(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (it->first == name) {
      entries_.splice(entries_.begin(), entries_, it);
      return entries_.front().second;
    }
  return nullptr;
}

std::vector<std::string> DesignCache::put(
    const std::string& name, std::shared_ptr<ResidentDesign> design) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (it->first == name) {
      entries_.erase(it);
      break;
    }
  entries_.emplace_front(name, std::move(design));
  std::vector<std::string> evicted;
  while (capacity_ > 0 && entries_.size() > capacity_) {
    evicted.push_back(entries_.back().first);
    entries_.pop_back();
  }
  return evicted;
}

void DesignCache::erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (it->first == name) {
      entries_.erase(it);
      return;
    }
}

std::vector<std::string> DesignCache::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.first);
  return out;
}

std::size_t DesignCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace mebl::serve
