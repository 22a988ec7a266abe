#include "baselines/rfidraw.h"

#include <cmath>
#include <limits>

#include "baselines/windowing.h"
#include "common/angles.h"

namespace polardraw::baselines {

namespace {

/// One array's calibrated spatial phase difference in one window, as its
/// unit phasor (cos, sin) for trig-free scoring.
struct PairDiff {
  std::size_t i = 0;
  std::size_t j = 0;
  double cos_diff = 1.0;
  double sin_diff = 0.0;
};

/// Grid-decode scoring model of AoA intersection plus a temporal
/// stabilizer. A cell's features are its per-antenna link phasors; the
/// AoA term depends on the destination only, so it is the cell term, and
/// a move continues the sum with the per-port differential coherence.
class RfIdrawModel {
 public:
  RfIdrawModel(const RfIdrawConfig& cfg,
               const std::vector<em::ReaderAntenna>& antennas,
               std::vector<std::vector<PairDiff>> pairs,
               std::vector<std::vector<PortDelta>> deltas)
      : cfg_(cfg),
        antennas_(antennas),
        k_(4.0 * kPi / cfg.wavelength_m),
        pairs_(std::move(pairs)),
        deltas_(std::move(deltas)) {}

  std::size_t features() const { return 2 * antennas_.size(); }

  void cell_features(const Vec2& center, double* f) const {
    link_phasors(center, antennas_, k_, f);
  }

  // AoA / hyperbola term: the candidate must lie where each array's
  // spatial phase difference matches. The cosine handles the 2k*pi
  // ambiguity exactly the way grating lobes do; the fine/coarse pairing
  // plus temporal continuity selects among lobes. The predicted
  // difference is k * (d_j - d_i): antenna j plays the destination.
  double cell_term(std::size_t t, const double* to_f) const {
    double score = 0.0;
    for (const PairDiff& p : pairs_[t]) {
      score += coherence_term(cfg_.coherence_weight, p.cos_diff, p.sin_diff,
                              to_f + 2 * p.j, to_f + 2 * p.i);
    }
    return score;
  }

  // Every move term is weight * (cos - 1) <= 0 for a non-negative
  // weight, and the blind-step -0.1 is below the cell term 0.
  double move_bound(std::size_t, double acc) const {
    return cfg_.temporal_weight >= 0.0
               ? acc
               : std::numeric_limits<double>::infinity();
  }

  // Temporal stabilizer: per-port differential coherence (as in any phase
  // tracker; RF-IDraw's virtual-touch-screen demo also tracks continuously
  // rather than re-localizing from scratch).
  double move_score(std::size_t t, const double* from_f, const double* to_f,
                    double acc) const {
    const std::vector<PortDelta>& deltas = deltas_[t];
    if (deltas.empty() && pairs_[t].empty()) return -0.1;
    for (const PortDelta& d : deltas) {
      acc += coherence_term(cfg_.temporal_weight, d.cos_delta, d.sin_delta,
                            to_f + 2 * d.port, from_f + 2 * d.port);
    }
    return acc;
  }

 private:
  const RfIdrawConfig& cfg_;
  const std::vector<em::ReaderAntenna>& antennas_;
  double k_;  // round-trip wavenumber 4 pi / lambda
  std::vector<std::vector<PairDiff>> pairs_;
  std::vector<std::vector<PortDelta>> deltas_;
};

}  // namespace

RfIdrawTracker::RfIdrawTracker(RfIdrawConfig cfg,
                               std::vector<em::ReaderAntenna> antennas,
                               std::vector<std::pair<int, int>> pairs,
                               std::vector<double> port_phase_offsets)
    : cfg_(cfg),
      antennas_(std::move(antennas)),
      pairs_(std::move(pairs)),
      offsets_(std::move(port_phase_offsets)) {}

std::vector<Vec2> RfIdrawTracker::track(const rfid::TagReportStream& reports,
                                        GridDecodeStats* stats) const {
  const int ports = static_cast<int>(antennas_.size());
  const auto windows =
      window_reports(reports, ports, cfg_.grid.window_s, &offsets_);
  if (windows.size() < 2) return {};

  // Per-step spatial pair differences (calibrated), for the arrays with
  // both ports read in the step's destination window.
  std::vector<std::vector<PairDiff>> pair_steps;
  pair_steps.reserve(windows.size() - 1);
  for (std::size_t w = 1; w < windows.size(); ++w) {
    std::vector<PairDiff>& diffs = pair_steps.emplace_back();
    for (const auto& [i, j] : pairs_) {
      const auto ii = static_cast<std::size_t>(i);
      const auto jj = static_cast<std::size_t>(j);
      if (windows[w].phase_valid[ii] && windows[w].phase_valid[jj]) {
        const double diff = windows[w].phase_rad[jj] - windows[w].phase_rad[ii];
        diffs.push_back({ii, jj, std::cos(diff), std::sin(diff)});
      }
    }
  }

  // Initial fix: grid argmax of the spatial (AoA) coherence on the first
  // window with all pairs observed -- RF-IDraw localizes before tracking.
  Vec2 start{cfg_.grid.board_width_m / 2.0, cfg_.grid.board_height_m / 2.0};
  for (const MultiWindow& w : windows) {
    bool pairs_ok = true;
    for (const auto& [i, j] : pairs_) {
      if (!w.phase_valid[static_cast<std::size_t>(i)] ||
          !w.phase_valid[static_cast<std::size_t>(j)]) {
        pairs_ok = false;
        break;
      }
    }
    if (!pairs_ok) continue;
    double best = -1e18;
    const double step = cfg_.grid.block_m * 2.0;  // coarse scan suffices
    for (double y = step / 2.0; y < cfg_.grid.board_height_m; y += step) {
      for (double x = step / 2.0; x < cfg_.grid.board_width_m; x += step) {
        const Vec2 p{x, y};
        double s = 0.0;
        for (const auto& [i, j] : pairs_) {
          const auto ii = static_cast<std::size_t>(i);
          const auto jj = static_cast<std::size_t>(j);
          const double meas = w.phase_rad[jj] - w.phase_rad[ii];
          const double expected = 4.0 * kPi *
                                  (link_len(p, antennas_[jj]) -
                                   link_len(p, antennas_[ii])) /
                                  cfg_.wavelength_m;
          s += std::cos(meas - expected);
        }
        if (s > best) {
          best = s;
          start = p;
        }
      }
    }
    break;
  }

  const RfIdrawModel model(cfg_, antennas_, std::move(pair_steps),
                           adjacent_phase_deltas(windows));
  return grid_beam_decode(cfg_.grid, start, windows.size() - 1, model, stats);
}

}  // namespace polardraw::baselines
