#include "baselines/windowing.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "common/angles.h"
#include "obs/metrics.h"

namespace polardraw::baselines {

std::vector<MultiWindow> window_reports(
    const rfid::TagReportStream& reports, int num_ports, double window_s,
    const std::vector<double>* port_offsets) {
  std::vector<MultiWindow> out;
  if (reports.empty() || num_ports <= 0 || window_s <= 0.0) return out;

  // A report with an out-of-range antenna or a non-finite field is dropped
  // exactly as if it had never been read: it neither anchors t0 nor lands
  // in a window. Every dropped report is counted by reason.
  enum Reason { kAntenna, kNonFinite, kWindowIndex, kBeforeStart, kUsable };
  const auto classify = [num_ports](const rfid::TagReport& r) {
    if (r.antenna_id < 0 || r.antenna_id >= num_ports) return kAntenna;
    if (!std::isfinite(r.timestamp_s) || !std::isfinite(r.phase_rad) ||
        !std::isfinite(r.rss_dbm)) {
      return kNonFinite;
    }
    return kUsable;
  };
  std::uint64_t rejected[kUsable] = {};
  const auto first =
      std::find_if(reports.begin(), reports.end(),
                   [&](const auto& r) { return classify(r) == kUsable; });
  const double t0 = first == reports.end() ? 0.0 : first->timestamp_s;
  struct Acc {
    std::vector<std::vector<double>> phase;
    std::vector<std::vector<double>> rss;
  };
  std::map<int, Acc> buckets;
  for (const auto& r : reports) {
    const Reason reason = classify(r);
    if (reason != kUsable) {
      ++rejected[reason];
      continue;
    }
    // The index is floored in double first: a finite but huge timestamp
    // would overflow the int conversion. A report whose index does not fit
    // is dropped; it is never the first one (which has index 0), so this
    // equals deleting it. So is a report timestamped before the first one,
    // whose window precedes window 0 = [t0, t0 + window_s).
    const double wd = std::floor((r.timestamp_s - t0) / window_s);
    if (!(wd >= static_cast<double>(std::numeric_limits<int>::min()) &&
          wd <= static_cast<double>(std::numeric_limits<int>::max()))) {
      ++rejected[kWindowIndex];
      continue;
    }
    const int w = static_cast<int>(wd);
    if (w < 0) {
      ++rejected[kBeforeStart];
      continue;
    }
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
  static const obs::Counter rejected_counters[kUsable] = {
      obs::Counter("baselines.rejected_reports.antenna"),
      obs::Counter("baselines.rejected_reports.non_finite"),
      obs::Counter("baselines.rejected_reports.window_index"),
      obs::Counter("baselines.rejected_reports.before_start")};
  for (int i = 0; i < kUsable; ++i) rejected_counters[i].add(rejected[i]);
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
        const double delta = cur.phase_rad[a] - prev.phase_rad[a];
        deltas.push_back({a, delta, std::cos(delta), std::sin(delta)});
      }
    }
  }
  return steps;
}

}  // namespace polardraw::baselines
