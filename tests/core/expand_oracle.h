// Scalar reference oracle for the beam-expansion kernel and the decoder's
// beam prune. Test-only.
// polarlint: hot-path -- no node-based hash maps in the decode loop.
//
// ExpandOracle is the historical StreamingDecoder::step scoring loop with
// its arithmetic unchanged: per-candidate annulus test, per-cell
// hyperbola-term memo in a generation scoreboard, one log per accepted
// candidate, and a first-touch best-slot table that appends a cell the
// first time any parent reaches it and replaces its score only on a
// strictly greater log-prob.
// Its output was pinned bit-identical to the golden decode tests before the
// production kernel (core/expand_kernel.h) replaced it, so it is the
// semantics that kernel is held to.
//
// oracle_rank is the historical index-indirect prune comparator, and
// OracleDecoder the historical fixed-lag forward pass built from both
// (seeding, starvation hold, per-window renormalization, pruning, greedy
// ablation and fixed-lag commit), without arena compaction -- which never
// changes emitted positions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/angles.h"
#include "common/vec.h"
#include "core/config.h"
#include "core/expand_kernel.h"
#include "core/hmm_tracker.h"
#include "core/phase_field.h"
#include "scoreboard.h"

namespace polardraw::core {

class ExpandOracle {
 public:
  ExpandOracle(const PolarDrawConfig& cfg, const PhaseField& field)
      : cfg_(cfg),
        field_(field),
        best_slot_(field.cells()),
        hyper_term_(field.cells()) {}

  /// Same contract as ExpandKernel::expand. `stats.hyper_cells` counts
  /// memo misses (the cells this path evaluated).
  void expand(const TrackObservation& o,
              const std::vector<std::int32_t>& node_cell,
              const std::vector<float>& node_logp, std::size_t prev_begin,
              std::size_t prev_end, std::vector<std::int32_t>& cand_cell,
              std::vector<float>& cand_logp,
              std::vector<std::int32_t>& cand_parent, ExpandStats& stats) {
    constexpr double kWeightFloor = 1e-6;
    const PhaseField& field = field_;
    const int cols = field.cols(), rows = field.rows();
    cand_cell.clear();
    cand_logp.clear();
    cand_parent.clear();
    best_slot_.clear();
    hyper_term_.clear();

    const double lower_m = o.distance.valid ? o.distance.lower_m : 0.0;
    const double upper_m =
        std::max({o.distance.upper_m, lower_m, cfg_.block_m * 0.5});
    const int reach =
        std::max(1, static_cast<int>(std::ceil(upper_m / cfg_.block_m)));
    const double out_thresh_m = upper_m + 0.5 * cfg_.block_m;
    const double quarter_block_m = 0.25 * cfg_.block_m;
    const bool use_hyper =
        cfg_.use_hyperbola_constraint && o.has_phase && o.distance.valid;
    const double meas_rad = use_hyper ? wrap_2pi(o.distance.dtheta21) : 0.0;
    const bool use_dir = o.direction.type != MotionType::kIdle &&
                         o.direction.direction.norm_sq() > 0.0;
    Vec2 dir = o.direction.direction;
    if (use_dir) {
      const double n2 = dir.norm_sq();
      if (std::fabs(n2 - 1.0) > 1e-9) dir = dir / std::sqrt(n2);
    }
    const double dmax_m = std::max(o.distance.upper_m, cfg_.block_m);
    const double back_thresh_m = -0.25 * cfg_.block_m;
    const bool idle_step_penalty =
        o.direction.type == MotionType::kIdle && upper_m > 0.0;

    std::vector<int> dc_lim(static_cast<std::size_t>(reach) + 1, 0);
    const double r_blocks = out_thresh_m / cfg_.block_m;
    for (int dr = 0; dr <= reach; ++dr) {
      const double rem = r_blocks * r_blocks - static_cast<double>(dr) * dr;
      dc_lim[static_cast<std::size_t>(dr)] =
          rem <= 0.0 ? 0
                     : std::min(reach, static_cast<int>(std::sqrt(rem)) + 1);
    }

    for (std::size_t a = prev_begin; a < prev_end; ++a) {
      const std::int32_t pcell = node_cell[a];
      const int pr = pcell / cols;
      const int pc = pcell % cols;
      const float plp = node_logp[a];
      const double fx = field.center_x(pc);
      const double fy = field.center_y(pr);
      const int dr_lo = std::max(-reach, -pr);
      const int dr_hi = std::min(reach, rows - 1 - pr);
      for (int dr = dr_lo; dr <= dr_hi; ++dr) {
        const int nr = pr + dr;
        const double ty = field.center_y(nr);
        const double ddy = fy - ty;
        const int lim = dc_lim[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
        const int dc_lo = std::max(-lim, -pc);
        const int dc_hi = std::min(lim, cols - 1 - pc);
        const std::int32_t row_base = nr * cols;
        for (int dc = dc_lo; dc <= dc_hi; ++dc) {
          const int nc = pc + dc;
          const double tx = field.center_x(nc);
          const double ddx = fx - tx;
          const double step_m = std::sqrt(ddx * ddx + ddy * ddy);
          if (step_m > out_thresh_m ||
              step_m + quarter_block_m < lower_m) {
            ++stats.annulus_rejected;
            continue;
          }
          ++stats.expansions;

          const std::size_t ncell = static_cast<std::size_t>(row_base + nc);
          double weight = 1.0;
          if (use_hyper) {
            if (hyper_term_.contains(ncell)) {
              weight = hyper_term_.get(ncell);
            } else {
              ++stats.hyper_cells;
              const double mismatch =
                  angle_dist(field.phase_at_cell(ncell), meas_rad);
              const double term =
                  std::max(1.0 - mismatch / (4.0 * kPi), kWeightFloor);
              weight = cfg_.hyperbola_sharpness == 1.0
                           ? term
                           : std::pow(term, cfg_.hyperbola_sharpness);
              hyper_term_.put(ncell, weight);
            }
          }
          if (use_dir) {
            const double rx = tx - fx;
            const double ry = ty - fy;
            const double perp = std::fabs(rx * dir.y - ry * dir.x);
            double term = std::max(1.0 - perp / dmax_m, kWeightFloor);
            if (rx * dir.x + ry * dir.y < back_thresh_m) term *= 0.25;
            weight *= term;
          }
          if (idle_step_penalty) {
            const double frac = step_m / upper_m;
            weight *= std::exp(-cfg_.unobserved_step_penalty * frac * frac);
          }

          const float lp =
              plp +
              static_cast<float>(std::log(std::max(weight, kWeightFloor)));
          if (!best_slot_.contains(ncell)) {
            best_slot_.put(ncell,
                           static_cast<std::int32_t>(cand_cell.size()));
            cand_cell.push_back(static_cast<std::int32_t>(ncell));
            cand_logp.push_back(lp);
            cand_parent.push_back(static_cast<std::int32_t>(a));
          } else {
            const auto slot =
                static_cast<std::size_t>(best_slot_.get(ncell));
            if (lp > cand_logp[slot]) {
              cand_logp[slot] = lp;
              cand_parent[slot] = static_cast<std::int32_t>(a);
            }
          }
        }
      }
    }
  }

 private:
  const PolarDrawConfig cfg_;
  const PhaseField& field_;
  GenerationScoreboard<std::int32_t> best_slot_;
  GenerationScoreboard<double> hyper_term_;
};

/// The historical prune: the best `keep` candidate indices, ordered by the
/// index-indirect comparator (log-prob descending, index ascending).
inline std::vector<std::int32_t> oracle_rank(const std::vector<float>& logp,
                                             std::size_t keep) {
  std::vector<std::int32_t> order(logp.size());
  std::iota(order.begin(), order.end(), 0);
  const auto better = [&](std::int32_t x, std::int32_t y) {
    const float lx = logp[static_cast<std::size_t>(x)];
    const float ly = logp[static_cast<std::size_t>(y)];
    return lx > ly || (lx == ly && x < y);
  };
  keep = std::min(keep, order.size());
  const auto kept = order.begin() + static_cast<std::ptrdiff_t>(keep);
  std::nth_element(order.begin(), kept, order.end(), better);
  std::sort(order.begin(), kept, better);
  order.resize(keep);
  return order;
}

/// The historical fixed-lag forward pass over ExpandOracle + oracle_rank.
/// push()/finish() follow the StreamingDecoder contract; finish() returns
/// every committed position in order.
class OracleDecoder {
 public:
  OracleDecoder(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2,
                double antenna_z, std::size_t lag_windows,
                const Vec2* initial_hint)
      : cfg_(cfg),
        field_(cfg, a1, a2, antenna_z),
        oracle_(cfg_, field_),
        lag_(std::max<std::size_t>(lag_windows, 1)) {
    if (initial_hint != nullptr) seed_at(*initial_hint, 0);
  }

  void push(const TrackObservation& o) {
    ++n_pushed_;
    if (!seeded_) {
      if (!o.has_phase) {
        prefix_.push_back(o);
        return;
      }
      seed_at(initial_location_on_field(cfg_, field_, o.distance.dtheta21),
              prefix_.size());
      prefix_.clear();
    }
    step(o);
    if (n_pushed_ + 1 > lag_) commit_upto(n_pushed_ + 1 - lag_);
  }

  std::vector<Vec2> finish() {
    if (!seeded_) {
      if (n_pushed_ == 0) return out_;
      seed_at(Vec2{cfg_.board_width_m / 2.0, cfg_.board_height_m / 2.0}, 0);
      for (const TrackObservation& o : prefix_) step(o);
    }
    commit_upto(n_pushed_ + 1);
    return out_;
  }

  [[nodiscard]] bool seeded() const { return seeded_; }
  [[nodiscard]] float last_window_logp_max() const { return last_max_; }
  [[nodiscard]] const ExpandStats& stats() const { return stats_; }

 private:
  void seed_at(Vec2 start, std::size_t prefix_windows) {
    const int c0 = std::clamp(static_cast<int>(start.x / cfg_.block_m), 0,
                              field_.cols() - 1);
    const int r0 = std::clamp(static_cast<int>(start.y / cfg_.block_m), 0,
                              field_.rows() - 1);
    seed_center_ = field_.block_center(c0, r0);
    cell_.push_back(r0 * field_.cols() + c0);
    logp_.push_back(0.0f);
    parent_.push_back(-1);
    prev_begin_ = 0;
    prev_end_ = 1;
    base_out_ = prefix_windows;
    seeded_ = true;
  }

  std::size_t best_front() const {
    std::size_t best = prev_begin_;
    for (std::size_t a = prev_begin_ + 1; a < prev_end_; ++a) {
      if (logp_[a] > logp_[best]) best = a;
    }
    return best;
  }

  void step(const TrackObservation& o) {
    oracle_.expand(o, cell_, logp_, prev_begin_, prev_end_, c_cell_, c_logp_,
                   c_parent_, stats_);
    if (c_cell_.empty()) {  // starved: hold the most probable state
      const std::size_t best = best_front();
      c_cell_.push_back(cell_[best]);
      c_logp_.push_back(logp_[best]);
      c_parent_.push_back(static_cast<std::int32_t>(best));
    }
    last_max_ = *std::max_element(c_logp_.begin(), c_logp_.end());
    for (float& lp : c_logp_) lp -= last_max_;

    const std::size_t new_begin = cell_.size();
    std::vector<std::int32_t> order;
    if (c_cell_.size() > cfg_.beam_width) {
      order = oracle_rank(c_logp_, cfg_.beam_width);
    } else {
      order.resize(c_cell_.size());
      std::iota(order.begin(), order.end(), 0);
    }
    for (const std::int32_t s : order) {
      cell_.push_back(c_cell_[static_cast<std::size_t>(s)]);
      logp_.push_back(c_logp_[static_cast<std::size_t>(s)]);
      parent_.push_back(c_parent_[static_cast<std::size_t>(s)]);
    }
    prev_begin_ = new_begin;
    prev_end_ = cell_.size();
    if (!cfg_.use_viterbi && prev_end_ - prev_begin_ > 1) {
      const std::size_t best = best_front();
      cell_[new_begin] = cell_[best];
      logp_[new_begin] = logp_[best];
      parent_[new_begin] = parent_[best];
      cell_.resize(new_begin + 1);
      logp_.resize(new_begin + 1);
      parent_.resize(new_begin + 1);
      prev_end_ = new_begin + 1;
    }
  }

  void commit_upto(std::size_t target) {
    if (target <= out_.size()) return;
    std::vector<Vec2> path;
    for (auto a = static_cast<std::int32_t>(best_front()); a >= 0;
         a = parent_[static_cast<std::size_t>(a)]) {
      const std::int32_t cell = cell_[static_cast<std::size_t>(a)];
      path.push_back(
          field_.block_center(cell % field_.cols(), cell / field_.cols()));
    }
    std::reverse(path.begin(), path.end());
    for (std::size_t i = out_.size(); i < target; ++i) {
      out_.push_back(i < base_out_ ? seed_center_ : path[i - base_out_]);
    }
  }

  const PolarDrawConfig cfg_;
  const PhaseField field_;
  ExpandOracle oracle_;
  const std::size_t lag_;
  bool seeded_ = false;
  Vec2 seed_center_;
  std::size_t base_out_ = 0, n_pushed_ = 0;
  std::vector<TrackObservation> prefix_;
  std::vector<std::int32_t> cell_, parent_, c_cell_, c_parent_;
  std::vector<float> logp_, c_logp_;
  std::size_t prev_begin_ = 0, prev_end_ = 0;
  float last_max_ = 0.0f;
  ExpandStats stats_;
  std::vector<Vec2> out_;
};

}  // namespace polardraw::core
