// N-antenna window aggregation shared by the baseline trackers.
//
// Unlike PolarDraw's two-antenna preprocessing (core/preprocess.h), the
// baselines run with 2-8 antenna ports, so this module aggregates reports
// into fixed windows for an arbitrary port count and unwraps each port's
// phase across windows.
#pragma once

#include <vector>

#include "rfid/tag_report.h"

namespace polardraw::baselines {

struct MultiWindow {
  double t_s = 0.0;
  std::vector<double> phase_rad;   // unwrapped, per port
  std::vector<double> rss_dbm;     // per port
  std::vector<bool> phase_valid;   // per port
  std::vector<bool> rss_valid;     // per port

  bool all_phase_valid() const {
    for (bool v : phase_valid)
      if (!v) return false;
    return !phase_valid.empty();
  }
};

/// Aggregates a report stream into windows of `window_s` seconds across
/// `num_ports` antenna ports. Optional per-port phase offsets (calibration)
/// are subtracted before unwrapping. Reports with an antenna id outside
/// [0, num_ports), a non-finite timestamp, phase or RSS, a window index
/// that does not fit in an int, or a timestamp before the first kept
/// report are dropped, with the same result as deleting them from the
/// stream; window w covers [t0 + w * window_s, t0 + (w + 1) * window_s) from
/// the first kept report's time t0. Drops are counted
/// in the metrics registry as baselines.rejected_reports.{antenna,
/// non_finite,window_index,before_start}.
std::vector<MultiWindow> window_reports(
    const rfid::TagReportStream& reports, int num_ports, double window_s,
    const std::vector<double>* port_offsets = nullptr);

/// One port's unwrapped phase change across a pair of adjacent windows,
/// with its unit phasor e^{i delta_rad} for trig-free scoring.
struct PortDelta {
  std::size_t port = 0;
  double delta_rad = 0.0;
  double cos_delta = 1.0;
  double sin_delta = 0.0;
};

/// For each step w-1 -> w (windows.size() - 1 of them), the ports read in
/// both windows with their phase change, in ascending port order. Only
/// adjacent-window differentials count: a delta spanning a read gap covers
/// several moves and cannot be scored against one transition.
std::vector<std::vector<PortDelta>> adjacent_phase_deltas(
    const std::vector<MultiWindow>& windows);

}  // namespace polardraw::baselines
