// Grid beam-search shared by the baseline trackers.
//
// Both Tagoram's differential augmented hologram and RF-IDraw's
// AoA-intersection tracking reduce, in discrete form, to the same engine:
// a grid of candidate blocks, a motion constraint (speed limit annulus)
// and a per-step scoring model. The trackers differ only in how they
// score a candidate move from the measured phases (DESIGN.md section 18).
//
// A scoring model is any type providing
//
//   std::size_t features() const;
//       number of doubles describing one cell (e.g. per-antenna link
//       lengths);
//   void cell_features(const Vec2& center, double* f) const;
//       fills f[0..features()) for the cell whose block center is `center`;
//   double cell_term(std::size_t t, const double* to_f) const;
//       the part of step t's score that depends only on the destination;
//   double move_score(std::size_t t, const double* from_f,
//                     const double* to_f, double acc) const;
//       the log-score of moving from `from_f` to `to_f` at step t, summed
//       onward from `acc` (the destination's cell_term). Return -inf-ish
//       values (e.g. -50) to veto a move;
//   double move_bound(std::size_t t, double acc) const;
//       an upper bound on move_score(t, *, *, acc) over all moves, or
//       +infinity when the model knows none.
//
// The engine evaluates features and cell terms once per cell per step, on
// the cell's first touch, and move_score once per in-reach candidate that
// its bound does not rule out.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/vec.h"
#include "em/antenna.h"

namespace polardraw::baselines {

struct GridConfig {
  double board_width_m = 1.0;
  double board_height_m = 0.6;
  double block_m = 0.004;
  double vmax_mps = 0.2;
  double window_s = 0.05;
  std::size_t beam_width = 600;
};

/// Work counters of one decode, accumulated into by grid_beam_decode.
struct GridDecodeStats {
  std::size_t windows = 0;     // decoded steps
  std::size_t candidates = 0;  // in-reach moves onto the board
  std::size_t scored = 0;      // move_score calls (the rest were bounded out)
};

/// Tag-to-antenna link length of a board point: the antennas hang
/// `position.z` above the board plane. Both baseline models score with it.
inline double link_len(const Vec2& p, const em::ReaderAntenna& ant) {
  const double dx = p.x - ant.position.x;
  const double dy = p.y - ant.position.y;
  const double dz = ant.position.z;
  return std::sqrt(dx * dx + dy * dy + dz * dz);
}

namespace detail {

/// One in-reach move of the speed-limit annulus, in blocks. A knife-edge
/// move lies on the annulus radius to within rounding, so whether it is
/// inside depends on the block centers' rounding and is decided per
/// candidate with the exact center-distance test.
struct Displacement {
  int dr = 0;
  int dc = 0;
  bool knife_edge = false;
};

/// Board grid, start cell and the annulus of one decode.
struct GridFrame {
  int cols = 1;
  int rows = 1;
  int c0 = 0;
  int r0 = 0;
  double block_m = 0.0;
  double radius_m = 0.0;  // a move is in reach iff its length <= radius_m
  /// In-reach moves in row-major (dr, dc) order: the scan order decides
  /// which parent claims a cell first, and so tie-breaks equal scores.
  std::vector<Displacement> moves;

  Vec2 center(int c, int r) const {
    return {(static_cast<double>(c) + 0.5) * block_m,
            (static_cast<double>(r) + 0.5) * block_m};
  }
};

GridFrame make_frame(const GridConfig& cfg, const Vec2& start);

}  // namespace detail

/// Viterbi beam decode of `steps` moves starting at `start`, scored by
/// `model` (see the file comment). Returns steps + 1 positions (block
/// centers).
template <typename Model>
std::vector<Vec2> grid_beam_decode(const GridConfig& cfg, const Vec2& start,
                                   std::size_t steps, const Model& model,
                                   GridDecodeStats* stats = nullptr) {
  const detail::GridFrame g = detail::make_frame(cfg, start);
  const std::size_t nf = model.features();
  const std::size_t keep = std::max<std::size_t>(1, cfg.beam_width);

  // Beam history: the pruned nodes of every step; parent indexes the
  // previous step's nodes.
  struct Node {
    std::int32_t col;
    std::int32_t row;
    std::int32_t parent;
  };
  // A cell reached this step: its best score so far and which parent
  // gave it.
  struct Candidate {
    std::int32_t col;
    std::int32_t row;
    float log_prob;
    std::int32_t parent;
  };

  std::vector<std::vector<Node>> beams;
  beams.reserve(steps + 1);
  beams.push_back({Node{g.c0, g.r0, -1}});
  std::vector<float> beam_lp{0.0f};
  std::vector<double> beam_f(nf);
  model.cell_features(g.center(g.c0, g.r0), beam_f.data());

  // Generation-stamped scoreboard: slot[cell] is valid for this step iff
  // stamp[cell] == the step's generation, so no per-step clear is needed.
  const std::size_t cells =
      static_cast<std::size_t>(g.cols) * static_cast<std::size_t>(g.rows);
  std::vector<std::uint32_t> stamp(cells, 0);
  std::vector<std::int32_t> slot(cells, 0);
  // Per-slot side arrays of this step's touched cells.
  std::vector<Candidate> next;
  std::vector<double> next_f;
  std::vector<double> next_term;
  std::vector<std::int32_t> order;
  std::size_t candidates = 0;
  std::size_t scored = 0;

  for (std::size_t t = 0; t < steps; ++t) {
    const auto gen = static_cast<std::uint32_t>(t + 1);
    const std::vector<Node>& prev = beams.back();
    next.clear();
    next_f.clear();
    next_term.clear();

    const auto parents = static_cast<std::int32_t>(prev.size());
    for (std::int32_t pi = 0; pi < parents; ++pi) {
      const Node& p = prev[static_cast<std::size_t>(pi)];
      const float plp = beam_lp[static_cast<std::size_t>(pi)];
      const double* from_f = beam_f.data() + static_cast<std::size_t>(pi) * nf;
      const Vec2 from = g.center(p.col, p.row);
      for (const detail::Displacement& m : g.moves) {
        const int nr = p.row + m.dr;
        if (nr < 0 || nr >= g.rows) continue;
        const int nc = p.col + m.dc;
        if (nc < 0 || nc >= g.cols) continue;
        if (m.knife_edge && from.dist(g.center(nc, nr)) > g.radius_m) continue;
        const std::size_t cell = static_cast<std::size_t>(nr) *
                                     static_cast<std::size_t>(g.cols) +
                                 static_cast<std::size_t>(nc);
        ++candidates;
        const bool fresh = stamp[cell] != gen;
        if (fresh) {
          stamp[cell] = gen;
          slot[cell] = static_cast<std::int32_t>(next.size());
          next_f.resize(next_f.size() + nf);
          double* f = next_f.data() + next_f.size() - nf;
          model.cell_features(g.center(nc, nr), f);
          next_term.push_back(model.cell_term(t, f));
        }
        const auto s = static_cast<std::size_t>(slot[cell]);
        // Rounding is monotone, so score <= bound implies lp <= plp +
        // float(bound): a move whose bound cannot strictly beat the
        // cell's best would not replace it either, and is not scored.
        if (!fresh &&
            plp + static_cast<float>(model.move_bound(t, next_term[s])) <=
                next[s].log_prob) {
          continue;
        }
        const double score =
            model.move_score(t, from_f, next_f.data() + s * nf, next_term[s]);
        ++scored;
        const float lp = plp + static_cast<float>(score);
        if (fresh) {
          next.push_back({nc, nr, lp, pi});
        } else if (lp > next[s].log_prob) {
          next[s].log_prob = lp;
          next[s].parent = pi;
        }
      }
    }
    // `next` is never empty: the stay-put move has length 0, always in
    // reach, and lands on the parent's own (on-board) cell.

    order.resize(next.size());
    std::iota(order.begin(), order.end(), 0);
    if (order.size() > keep) {
      // Ties partition as std::nth_element leaves them: it moves elements
      // by comparison outcomes alone, so over indices it picks the same
      // survivors in the same order as over the candidates themselves.
      // An index tie-break would move the pinned baseline trajectories.
      const auto nth = order.begin() + static_cast<std::ptrdiff_t>(keep);
      // polarlint-allow(R6): tie order pinned by BaselineGolden + perfbench
      std::nth_element(order.begin(), nth, order.end(),
                       [&](std::int32_t a, std::int32_t b) {
                         return next[static_cast<std::size_t>(a)].log_prob >
                                next[static_cast<std::size_t>(b)].log_prob;
                       });
      order.resize(keep);
    }

    std::vector<Node> survivors;
    survivors.reserve(order.size());
    beam_lp.resize(order.size());
    beam_f.resize(order.size() * nf);
    for (std::size_t k = 0; k < order.size(); ++k) {
      const auto s = static_cast<std::size_t>(order[k]);
      const Candidate& c = next[s];
      survivors.push_back({c.col, c.row, c.parent});
      beam_lp[k] = c.log_prob;
      std::copy_n(next_f.data() + s * nf, nf, beam_f.data() + k * nf);
    }
    beams.push_back(std::move(survivors));
  }
  if (stats != nullptr) {
    stats->windows += steps;
    stats->candidates += candidates;
    stats->scored += scored;
  }

  // Backtrace from the first best-scoring survivor.
  std::size_t idx = 0;
  for (std::size_t i = 1; i < beam_lp.size(); ++i) {
    if (beam_lp[i] > beam_lp[idx]) idx = i;
  }
  std::vector<Vec2> path(beams.size());
  for (std::size_t step = beams.size(); step-- > 0;) {
    const Node& n = beams[step][idx];
    path[step] = g.center(n.col, n.row);
    idx = static_cast<std::size_t>(std::max(n.parent, 0));
  }
  return path;
}

}  // namespace polardraw::baselines
