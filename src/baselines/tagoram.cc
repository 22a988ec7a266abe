#include "baselines/tagoram.h"

#include <limits>

#include "baselines/windowing.h"
#include "common/angles.h"

namespace polardraw::baselines {

namespace {

/// Grid-decode scoring model of the differential hologram. A cell's
/// features are its per-antenna link phasors; a move scores the coherence
/// of each port's measured phase change with the change the move predicts.
class TagoramModel {
 public:
  TagoramModel(const TagoramConfig& cfg,
               const std::vector<em::ReaderAntenna>& antennas,
               std::vector<std::vector<PortDelta>> steps)
      : cfg_(cfg),
        antennas_(antennas),
        k_(4.0 * kPi / cfg.wavelength_m),
        steps_(std::move(steps)) {}

  std::size_t features() const { return 2 * antennas_.size(); }

  void cell_features(const Vec2& center, double* f) const {
    link_phasors(center, antennas_, k_, f);
  }

  double cell_term(std::size_t, const double*) const { return 0.0; }

  // Every move term is weight * (cos - 1) <= 0 for a non-negative
  // weight, and the blind-step -0.1 is below the cell term 0.
  double move_bound(std::size_t, double acc) const {
    return cfg_.coherence_weight >= 0.0
               ? acc
               : std::numeric_limits<double>::infinity();
  }

  double move_score(std::size_t t, const double* from_f, const double* to_f,
                    double acc) const {
    const std::vector<PortDelta>& deltas = steps_[t];
    if (deltas.empty()) return -0.1;  // mild penalty: drift only on blind steps
    for (const PortDelta& d : deltas) {
      // Coherence of measured vs predicted phase change; differential, so
      // port offsets cancel.
      acc += coherence_term(cfg_.coherence_weight, d.cos_delta, d.sin_delta,
                            to_f + 2 * d.port, from_f + 2 * d.port);
    }
    return acc;
  }

 private:
  const TagoramConfig& cfg_;
  const std::vector<em::ReaderAntenna>& antennas_;
  double k_;  // round-trip wavenumber 4 pi / lambda
  std::vector<std::vector<PortDelta>> steps_;
};

}  // namespace

TagoramTracker::TagoramTracker(TagoramConfig cfg,
                               std::vector<em::ReaderAntenna> antennas)
    : cfg_(cfg), antennas_(std::move(antennas)) {}

std::vector<Vec2> TagoramTracker::track(const rfid::TagReportStream& reports,
                                        GridDecodeStats* stats) const {
  const int ports = static_cast<int>(antennas_.size());
  const auto windows =
      window_reports(reports, ports, cfg_.grid.window_s, nullptr);
  if (windows.size() < 2) return {};
  const TagoramModel model(cfg_, antennas_, adjacent_phase_deltas(windows));

  // Start at the board center: with phase-only measurements the absolute
  // position is resolvable only up to hologram ambiguities, and the
  // evaluation metrics are translation-invariant.
  const Vec2 start{cfg_.grid.board_width_m / 2.0,
                   cfg_.grid.board_height_m / 2.0};
  return grid_beam_decode(cfg_.grid, start, windows.size() - 1, model, stats);
}

}  // namespace polardraw::baselines
