#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "assign/track_assign.hpp"
#include "ilp/solver.hpp"
#include "telemetry/telemetry.hpp"

namespace mebl::assign {

namespace {

using geom::Coord;
using geom::Interval;

/// Maximum dogleg jump between adjacent tile rows, in tracks. Bounds the
/// track-edge count (the paper's model is O(T^2) per row gap; real panels
/// never need jumps wider than a few tracks).
constexpr int kMaxDogleg = 3;
/// Weight of a source/target edge that creates a bad end. The paper removes
/// such edges; a large finite penalty keeps the model feasible in
/// over-dense panels while still minimizing bad ends first.
constexpr double kBadEndPenalty = 1000.0;

/// Builder for the multicommodity-flow ILP of paper SIII-C1 (Fig. 10,
/// eqs. 5-9) over one (panel, layer) instance.
class IlpBuilder {
 public:
  IlpBuilder(const TrackAssignInstance& instance, const IlpTrackOptions& options)
      : instance_(instance), options_(options) {
    // Usable tracks: panel columns not occupied by a stitching line
    // (forbidden vertices in the paper's model).
    for (Coord x = instance.x_span.lo; x <= instance.x_span.hi; ++x)
      if (!instance.stitch->is_stitch_column(x)) xs_.push_back(x);
  }

  TrackAssignResult run() {
    TrackAssignResult result;
    result.tracks.resize(instance_.segments.size());
    if (instance_.segments.empty()) return result;
    if (xs_.empty()) {
      for (auto& t : result.tracks) t.ripped = true;
      result.total_ripped = static_cast<int>(result.tracks.size());
      return result;
    }

    build();

    ilp::SolveOptions solve_options;
    solve_options.time_limit_seconds = options_.time_limit_seconds;
    solve_options.max_nodes = options_.max_nodes;
    solve_options.deadline = options_.deadline;
    solve_options.node_budget = options_.node_budget;
    solve_options.split_target = options_.split_target;
    if (options_.warm_start) seed_warm_start(solve_options);

    // One Solver per worker thread: panel solves are synchronous, so the
    // per-worker instance is never re-entered, and its search scratch
    // persists across the panels that worker processes.
    static thread_local ilp::Solver solver;
    solver.set_pool(options_.pool);
    const ilp::Solution solution = solver.solve(model_, solve_options);
    result.ilp_nodes = solution.nodes_explored;
    result.budget_hit = solution.limit_hit;

    if (solution.values.empty()) {
      result.solved = false;  // limit hit or proven infeasible: caller falls back
      return result;
    }
    result.optimal = solution.status == ilp::SolveStatus::kOptimal;
    extract(solution.values, result);
    return result;
  }

 private:
  [[nodiscard]] std::size_t num_tracks() const { return xs_.size(); }

  /// Penalty on a source/target edge whose track makes that end bad.
  [[nodiscard]] double end_weight(std::size_t t, int continuation) const {
    return is_bad_end(xs_[t], continuation, *instance_.stitch)
               ? kBadEndPenalty
               : 0.0;
  }

  /// Map the graph heuristic's assignment onto the model as the initial
  /// incumbent plus branching hint. Embedding can fail — a ripped segment, a
  /// dogleg wider than kMaxDogleg, or (defensively) a constraint violation —
  /// in which case `out` is left cold and the solve starts from +inf.
  void seed_warm_start(ilp::SolveOptions& out) const {
    const TrackAssignResult heur = track_assign_graph(instance_);
    const auto T = num_tracks();
    const auto track_at = [&](Coord x) -> std::size_t {
      const auto it = std::lower_bound(xs_.begin(), xs_.end(), x);
      if (it == xs_.end() || *it != x) return T;  // stitch column or off-panel
      return static_cast<std::size_t>(it - xs_.begin());
    };

    std::vector<std::uint8_t> values(model_.num_vars(), 0);
    for (std::size_t k = 0; k < instance_.segments.size(); ++k) {
      const auto& seg = instance_.segments[k];
      const SegmentTrack& tr = heur.tracks[k];
      if (tr.ripped || tr.pieces.empty()) return;
      std::size_t cur = track_at(tr.pieces.front().second);
      if (cur == T) return;
      values[static_cast<std::size_t>(src_[k][cur])] = 1;
      if (tgt_[k].empty()) continue;  // single-row: occupancy var only
      std::size_t piece = 0;
      for (Coord r = seg.rows.lo + 1; r <= seg.rows.hi; ++r) {
        while (tr.pieces[piece].first.hi < r) {
          ++piece;
          if (piece >= tr.pieces.size()) return;
        }
        const std::size_t next = track_at(tr.pieces[piece].second);
        if (next == T) return;
        const auto g = static_cast<std::size_t>(r - seg.rows.lo - 1);
        ilp::VarId var = -1;
        for (const auto& [j, v] : edge_[k][g][cur])
          if (j == next) {
            var = v;
            break;
          }
        if (var < 0) return;  // dogleg wider than the model allows
        values[static_cast<std::size_t>(var)] = 1;
        cur = next;
      }
      values[static_cast<std::size_t>(tgt_[k][cur])] = 1;
    }
    if (!model_.is_feasible(values)) return;

    out.branch_hint.clear();
    for (std::size_t v = 0; v < values.size(); ++v)
      if (values[v] != 0) out.branch_hint.push_back(static_cast<ilp::VarId>(v));
    out.warm_start = std::move(values);
  }

  void build() {
    const auto T = num_tracks();
    const auto& segments = instance_.segments;

    // Variables. For multi-row segment k: src_[k][t], tgt_[k][t], and
    // edge_[k][r - rows.lo][t][j] for doglegs to nearby tracks. For
    // single-row segments only src_ (occupancy) exists.
    src_.resize(segments.size());
    tgt_.resize(segments.size());
    edge_.resize(segments.size());
    for (std::size_t k = 0; k < segments.size(); ++k) {
      const auto& seg = segments[k];
      src_[k].resize(T);
      const bool single = seg.rows.lo == seg.rows.hi;
      for (std::size_t t = 0; t < T; ++t) {
        double w = end_weight(t, seg.lo_continuation);
        if (single) w += end_weight(t, seg.hi_continuation);
        src_[k][t] = model_.add_binary(w);
      }
      if (single) continue;
      tgt_[k].resize(T);
      for (std::size_t t = 0; t < T; ++t)
        tgt_[k][t] = model_.add_binary(end_weight(t, seg.hi_continuation));
      const auto gaps = static_cast<std::size_t>(seg.rows.length() - 1);
      edge_[k].resize(gaps);
      for (std::size_t g = 0; g < gaps; ++g) {
        edge_[k][g].resize(T);
        for (std::size_t t = 0; t < T; ++t) {
          for (std::size_t j = 0; j < T; ++j) {
            const Coord jump = std::abs(xs_[t] - xs_[j]);
            if (jump > kMaxDogleg) continue;
            edge_[k][g][t].push_back(
                {j, model_.add_binary(static_cast<double>(jump))});
          }
        }
      }
    }

    // (5)/(6): each segment picks exactly one source and one target edge.
    for (std::size_t k = 0; k < segments.size(); ++k) {
      model_.add_sum_constraint(src_[k], ilp::Sense::kEq, 1.0);
      if (!tgt_[k].empty())
        model_.add_sum_constraint(tgt_[k], ilp::Sense::kEq, 1.0);
      // Redundant strengthening: a path uses exactly one track edge per row
      // gap. Implied by (5)-(7), but stated explicitly these become
      // "choose one" constraints that guide the branch-and-bound's cover
      // branching and tighten its disjoint lower bound.
      for (const auto& gap : edge_[k]) {
        std::vector<ilp::VarId> vars;
        for (const auto& from : gap)
          for (const auto& [j, var] : from) {
            (void)j;
            vars.push_back(var);
          }
        model_.add_sum_constraint(vars, ilp::Sense::kEq, 1.0);
      }
    }

    // (7): flow conservation at every track vertex of every segment.
    for (std::size_t k = 0; k < segments.size(); ++k) {
      if (tgt_[k].empty()) continue;  // single-row: nothing to conserve
      const auto gaps = edge_[k].size();
      for (std::size_t t = 0; t < T; ++t) {
        // Source row: src var feeds the first gap's outgoing edges.
        std::vector<ilp::Term> terms{{src_[k][t], 1.0}};
        for (const auto& [j, var] : edge_[k][0][t]) {
          (void)j;
          terms.push_back({var, -1.0});
        }
        model_.add_constraint(std::move(terms), ilp::Sense::kEq, 0.0);
      }
      for (std::size_t g = 1; g < gaps; ++g) {
        for (std::size_t t = 0; t < T; ++t) {
          // in(previous gap -> t) == out(this gap from t).
          std::vector<ilp::Term> terms;
          for (std::size_t from = 0; from < T; ++from)
            for (const auto& [j, var] : edge_[k][g - 1][from])
              if (j == t) terms.push_back({var, 1.0});
          for (const auto& [j, var] : edge_[k][g][t]) {
            (void)j;
            terms.push_back({var, -1.0});
          }
          model_.add_constraint(std::move(terms), ilp::Sense::kEq, 0.0);
        }
      }
      for (std::size_t t = 0; t < T; ++t) {
        // Target row: last gap's incoming edges feed the target var.
        std::vector<ilp::Term> terms;
        for (std::size_t from = 0; from < T; ++from)
          for (const auto& [j, var] : edge_[k][gaps - 1][from])
            if (j == t) terms.push_back({var, 1.0});
        terms.push_back({tgt_[k][t], -1.0});
        model_.add_constraint(std::move(terms), ilp::Sense::kEq, 0.0);
      }
    }

    // (8): each track vertex hosts at most one segment. The occupancy of
    // (r, t) by segment k is its incoming flow at that vertex.
    Coord row_lo = segments[0].rows.lo, row_hi = segments[0].rows.hi;
    for (const auto& seg : segments) {
      row_lo = std::min(row_lo, seg.rows.lo);
      row_hi = std::max(row_hi, seg.rows.hi);
    }
    for (Coord r = row_lo; r <= row_hi; ++r) {
      for (std::size_t t = 0; t < T; ++t) {
        std::vector<ilp::Term> terms;
        for (std::size_t k = 0; k < segments.size(); ++k) {
          const auto& seg = segments[k];
          if (!seg.rows.contains(r)) continue;
          if (r == seg.rows.lo) {
            terms.push_back({src_[k][t], 1.0});
          } else {
            const auto g = static_cast<std::size_t>(r - seg.rows.lo - 1);
            for (std::size_t from = 0; from < T; ++from)
              for (const auto& [j, var] : edge_[k][g][from])
                if (j == t) terms.push_back({var, 1.0});
          }
        }
        if (terms.size() > 1)
          model_.add_constraint(std::move(terms), ilp::Sense::kLe, 1.0);
      }
    }

    // (9): crossing track-edge pairs are mutually exclusive. Two edges
    // (t1 -> j1) and (t2 -> j2) in the same row gap cross when t1 < t2 but
    // j1 > j2. The constraint sums over every segment covering that gap.
    for (Coord r = row_lo; r < row_hi; ++r) {
      // Segments covering the gap r -> r+1.
      std::vector<std::size_t> active;
      for (std::size_t k = 0; k < segments.size(); ++k)
        if (segments[k].rows.lo <= r && r + 1 <= segments[k].rows.hi &&
            !tgt_[k].empty())
          active.push_back(k);
      if (active.size() < 2) continue;
      for (std::size_t t1 = 0; t1 < T; ++t1) {
        for (std::size_t t2 = t1 + 1; t2 < T; ++t2) {
          if (xs_[t2] - xs_[t1] > 2 * kMaxDogleg) break;
          for (std::size_t j2 = 0; j2 < T; ++j2) {
            if (std::abs(xs_[t2] - xs_[j2]) > kMaxDogleg) continue;
            for (std::size_t j1 = j2 + 1; j1 < T; ++j1) {
              if (std::abs(xs_[t1] - xs_[j1]) > kMaxDogleg) continue;
              // Edge pair (t1->j1, t2->j2) with t1 < t2, j1 > j2: crossing.
              std::vector<ilp::Term> terms;
              for (const std::size_t k : active) {
                const auto g = static_cast<std::size_t>(r - segments[k].rows.lo);
                for (const auto& [j, var] : edge_[k][g][t1])
                  if (j == j1) terms.push_back({var, 1.0});
                for (const auto& [j, var] : edge_[k][g][t2])
                  if (j == j2) terms.push_back({var, 1.0});
              }
              if (terms.size() > 1)
                model_.add_constraint(std::move(terms), ilp::Sense::kLe, 1.0);
            }
          }
        }
      }
    }
  }

  void extract(const std::vector<std::uint8_t>& values,
               TrackAssignResult& result) {
    const auto T = num_tracks();
    for (std::size_t k = 0; k < instance_.segments.size(); ++k) {
      const auto& seg = instance_.segments[k];
      SegmentTrack& out = result.tracks[k];
      std::size_t t = T;
      for (std::size_t i = 0; i < T; ++i)
        if (values[static_cast<std::size_t>(src_[k][i])] != 0) {
          t = i;
          break;
        }
      assert(t < T);
      Coord r = seg.rows.lo;
      out.pieces.emplace_back(Interval{r, r}, xs_[t]);
      for (std::size_t g = 0; g < edge_[k].size(); ++g) {
        std::size_t next = T;
        for (const auto& [j, var] : edge_[k][g][t])
          if (values[static_cast<std::size_t>(var)] != 0) {
            next = j;
            break;
          }
        assert(next < T);
        ++r;
        if (xs_[next] == out.pieces.back().second)
          out.pieces.back().first.hi = r;
        else
          out.pieces.emplace_back(Interval{r, r}, xs_[next]);
        t = next;
      }
      out.bad_ends = count_bad_ends(seg, out, *instance_.stitch);
      result.total_bad_ends += out.bad_ends;
    }
  }

  const TrackAssignInstance& instance_;
  const IlpTrackOptions& options_;
  std::vector<Coord> xs_;
  ilp::Model model_;
  std::vector<std::vector<ilp::VarId>> src_;
  std::vector<std::vector<ilp::VarId>> tgt_;
  // edge_[k][gap][from] = list of (to_track, var).
  std::vector<std::vector<std::vector<std::vector<std::pair<std::size_t, ilp::VarId>>>>>
      edge_;
};

}  // namespace

TrackAssignResult track_assign_ilp(const TrackAssignInstance& instance,
                                   const IlpTrackOptions& options) {
  TELEMETRY_SPAN("assign.track.ilp");
  assert(instance.stitch != nullptr);
  return IlpBuilder(instance, options).run();
}

}  // namespace mebl::assign
