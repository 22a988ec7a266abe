#include "baselines/windowing.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/angles.h"

namespace polardraw::baselines {

std::vector<MultiWindow> window_reports(
    const rfid::TagReportStream& reports, int num_ports, double window_s,
    const std::vector<double>* port_offsets) {
  std::vector<MultiWindow> out;
  if (reports.empty() || num_ports <= 0 || window_s <= 0.0) return out;

  // A report with an out-of-range antenna or a non-finite field is dropped
  // exactly as if it had never been read: it neither anchors t0 nor lands
  // in a window.
  const auto usable = [num_ports](const rfid::TagReport& r) {
    return r.antenna_id >= 0 && r.antenna_id < num_ports &&
           std::isfinite(r.timestamp_s) && std::isfinite(r.phase_rad) &&
           std::isfinite(r.rss_dbm);
  };
  const auto first = std::find_if(reports.begin(), reports.end(), usable);
  if (first == reports.end()) return out;
  const double t0 = first->timestamp_s;
  struct Acc {
    std::vector<std::vector<double>> phase;
    std::vector<std::vector<double>> rss;
  };
  std::map<int, Acc> buckets;
  for (const auto& r : reports) {
    if (!usable(r)) continue;
    const int w = static_cast<int>((r.timestamp_s - t0) / window_s);
    auto& acc = buckets[w];
    if (acc.phase.empty()) {
      acc.phase.resize(static_cast<std::size_t>(num_ports));
      acc.rss.resize(static_cast<std::size_t>(num_ports));
    }
    double phase = r.phase_rad;
    if (port_offsets != nullptr &&
        static_cast<std::size_t>(r.antenna_id) < port_offsets->size()) {
      phase = wrap_2pi(phase - (*port_offsets)[r.antenna_id]);
    }
    acc.phase[r.antenna_id].push_back(phase);
    acc.rss[r.antenna_id].push_back(r.rss_dbm);
  }
  if (buckets.empty()) return out;

  const int last = buckets.rbegin()->first;
  out.reserve(static_cast<std::size_t>(last) + 1);
  std::vector<PhaseUnwrapper> unwrappers(static_cast<std::size_t>(num_ports));
  for (int w = 0; w <= last; ++w) {
    MultiWindow win;
    win.t_s = t0 + (static_cast<double>(w) + 0.5) * window_s;
    win.phase_rad.assign(static_cast<std::size_t>(num_ports), 0.0);
    win.rss_dbm.assign(static_cast<std::size_t>(num_ports), -150.0);
    win.phase_valid.assign(static_cast<std::size_t>(num_ports), false);
    win.rss_valid.assign(static_cast<std::size_t>(num_ports), false);

    const auto it = buckets.find(w);
    if (it != buckets.end() && !it->second.phase.empty()) {
      for (int a = 0; a < num_ports; ++a) {
        const auto& ph = it->second.phase[static_cast<std::size_t>(a)];
        if (!ph.empty()) {
          double sx = 0.0, sy = 0.0;
          for (double p : ph) {
            sx += std::cos(p);
            sy += std::sin(p);
          }
          const double mean = wrap_2pi(std::atan2(sy, sx));
          win.phase_rad[static_cast<std::size_t>(a)] =
              unwrappers[static_cast<std::size_t>(a)].push(mean);
          win.phase_valid[static_cast<std::size_t>(a)] = true;
        }
        const auto& rs = it->second.rss[static_cast<std::size_t>(a)];
        if (!rs.empty()) {
          double s = 0.0;
          for (double v : rs) s += v;
          win.rss_dbm[static_cast<std::size_t>(a)] =
              s / static_cast<double>(rs.size());
          win.rss_valid[static_cast<std::size_t>(a)] = true;
        }
      }
    }
    out.push_back(std::move(win));
  }
  return out;
}

std::vector<std::vector<PortDelta>> adjacent_phase_deltas(
    const std::vector<MultiWindow>& windows) {
  std::vector<std::vector<PortDelta>> steps;
  for (std::size_t w = 1; w < windows.size(); ++w) {
    const MultiWindow& prev = windows[w - 1];
    const MultiWindow& cur = windows[w];
    std::vector<PortDelta>& deltas = steps.emplace_back();
    for (std::size_t a = 0; a < cur.phase_valid.size(); ++a) {
      if (cur.phase_valid[a] && prev.phase_valid[a]) {
        deltas.push_back({a, cur.phase_rad[a] - prev.phase_rad[a]});
      }
    }
  }
  return steps;
}

}  // namespace polardraw::baselines
