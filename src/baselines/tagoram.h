// Tagoram baseline (Yang et al., MobiCom 2014) -- differential augmented
// hologram (DAH) tracking, reimplemented from the published description.
//
// Tagoram localizes a moving tag by treating the board as a hologram: each
// candidate position predicts a phase at every antenna; the likelihood of
// a position is how coherently the measured phases agree with the
// predictions. The *differential* form scores position pairs using phase
// changes between consecutive windows, which cancels per-port phase
// offsets and the tag's unknown reflection phase. We decode the most
// likely block sequence with the same Viterbi beam engine PolarDraw uses,
// so the comparison isolates the measurement model (4 circular antennas,
// phase only) rather than the search machinery.
#pragma once

#include <vector>

#include "baselines/grid_search.h"
#include "common/vec.h"
#include "em/antenna.h"
#include "rfid/tag_report.h"

namespace polardraw::baselines {

struct TagoramConfig {
  GridConfig grid;
  double wavelength_m = 0.3276;
  /// Sharpness of the per-antenna coherence term.
  double coherence_weight = 2.0;
};

class TagoramTracker {
 public:
  TagoramTracker(TagoramConfig cfg, std::vector<em::ReaderAntenna> antennas);

  /// Recovers the trajectory from a raw report stream. `stats`, when
  /// non-null, accumulates the grid decode's work counters.
  std::vector<Vec2> track(const rfid::TagReportStream& reports,
                          GridDecodeStats* stats = nullptr) const;

  const TagoramConfig& config() const { return cfg_; }

 private:
  TagoramConfig cfg_;
  std::vector<em::ReaderAntenna> antennas_;
};

}  // namespace polardraw::baselines
