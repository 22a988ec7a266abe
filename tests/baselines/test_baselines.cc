#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>

#include "baselines/grid_search.h"
#include "baselines/rfidraw.h"
#include "baselines/tagoram.h"
#include "baselines/windowing.h"
#include "common/angles.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace polardraw::baselines {
namespace {

rfid::TagReport report(double t, int ant, double phase_rad, double rss_dbm = -40.0) {
  rfid::TagReport r;
  r.timestamp_s = t;
  r.antenna_id = ant;
  r.phase_rad = wrap_2pi(phase_rad);
  r.rss_dbm = rss_dbm;
  return r;
}

TEST(Windowing, AggregatesPerPort) {
  rfid::TagReportStream reports;
  for (int w = 0; w < 4; ++w) {
    for (int a = 0; a < 3; ++a) {
      reports.push_back(report(w * 0.05 + a * 0.01, a, 0.5 + 0.1 * w));
    }
  }
  const auto windows = window_reports(reports, 3, 0.05);
  ASSERT_EQ(windows.size(), 4u);
  for (const auto& w : windows) {
    EXPECT_TRUE(w.all_phase_valid());
    EXPECT_EQ(w.phase_rad.size(), 3u);
  }
}

TEST(Windowing, UnwrapsPerPort) {
  rfid::TagReportStream reports;
  for (int w = 0; w < 40; ++w) {
    reports.push_back(report(w * 0.05, 0, 0.5 * w));
  }
  const auto windows = window_reports(reports, 1, 0.05);
  double prev = -1e9;
  for (const auto& w : windows) {
    EXPECT_GT(w.phase_rad[0], prev);
    prev = w.phase_rad[0];
  }
}

TEST(Windowing, OffsetsSubtracted) {
  rfid::TagReportStream reports{report(0.0, 0, 1.7)};
  const std::vector<double> offsets{0.7};
  const auto windows = window_reports(reports, 1, 0.05, &offsets);
  EXPECT_NEAR(wrap_2pi(windows[0].phase_rad[0]), 1.0, 1e-9);
}

TEST(Windowing, MissingPortMarkedInvalid) {
  rfid::TagReportStream reports{report(0.0, 0, 1.0)};
  const auto windows = window_reports(reports, 2, 0.05);
  EXPECT_TRUE(windows[0].phase_valid[0]);
  EXPECT_FALSE(windows[0].phase_valid[1]);
  EXPECT_FALSE(windows[0].all_phase_valid());
}

TEST(Windowing, DegenerateInputs) {
  EXPECT_TRUE(window_reports({}, 2, 0.05).empty());
  EXPECT_TRUE(window_reports({report(0, 0, 1)}, 0, 0.05).empty());
  EXPECT_TRUE(window_reports({report(0, 0, 1)}, 2, 0.0).empty());
}

/// Bitwise equality of two window sequences (NaN-safe: compares bits).
void expect_same_windows(const std::vector<MultiWindow>& a,
                         const std::vector<MultiWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[w].t_s),
              std::bit_cast<std::uint64_t>(b[w].t_s));
    EXPECT_EQ(a[w].phase_valid, b[w].phase_valid);
    EXPECT_EQ(a[w].rss_valid, b[w].rss_valid);
    ASSERT_EQ(a[w].phase_rad.size(), b[w].phase_rad.size());
    for (std::size_t p = 0; p < a[w].phase_rad.size(); ++p) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[w].phase_rad[p]),
                std::bit_cast<std::uint64_t>(b[w].phase_rad[p]));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a[w].rss_dbm[p]),
                std::bit_cast<std::uint64_t>(b[w].rss_dbm[p]));
    }
  }
}

TEST(Windowing, CorruptingReportsEqualsDeletingThem) {
  // Metamorphic: a report with a non-finite field or an out-of-range
  // antenna must give exactly the windows of the stream without it,
  // including when it is the first report (which anchors t0).
  constexpr int kPorts = 4;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(2016);
  rfid::TagReportStream clean;
  for (int i = 0; i < 400; ++i) {
    clean.push_back(report(0.013 + i * 0.004, i % kPorts,
                           0.3 * i + rng.gaussian(0.0, 0.2),
                           -45.0 + rng.gaussian(0.0, 2.0)));
  }
  const std::vector<double> offsets{0.1, -0.4, 2.0, 0.0};
  for (int trial = 0; trial < 40; ++trial) {
    const int k = 1 + trial % 6;
    std::vector<bool> hit(clean.size(), false);
    if (trial % 4 == 0) hit[0] = true;
    for (int j = 0; j < k; ++j) {
      hit[static_cast<std::size_t>(rng.uniform_int(0, 399))] = true;
    }
    rfid::TagReportStream corrupted, deleted;
    for (std::size_t i = 0; i < clean.size(); ++i) {
      if (!hit[i]) {
        corrupted.push_back(clean[i]);
        deleted.push_back(clean[i]);
        continue;
      }
      rfid::TagReport r = clean[i];
      switch (rng.uniform_int(0, 5)) {
        case 0: r.timestamp_s = nan; break;
        case 1: r.timestamp_s = rng.chance(0.5) ? inf : -inf; break;
        case 2: r.phase_rad = nan; break;
        case 3: r.phase_rad = inf; break;
        case 4: r.rss_dbm = rng.chance(0.5) ? nan : -inf; break;
        default: r.antenna_id = rng.chance(0.5) ? -1 : kPorts; break;
      }
      corrupted.push_back(r);
    }
    SCOPED_TRACE(trial);
    expect_same_windows(window_reports(corrupted, kPorts, 0.05),
                        window_reports(deleted, kPorts, 0.05));
    expect_same_windows(window_reports(corrupted, kPorts, 0.05, &offsets),
                        window_reports(deleted, kPorts, 0.05, &offsets));
  }
}

TEST(Windowing, HugeTimestampEqualsDeletingIt) {
  // A finite timestamp so far from the first report that its window index
  // does not fit in an int is dropped like any unusable report.
  constexpr int kPorts = 2;
  rfid::TagReportStream clean;
  for (int i = 0; i < 60; ++i) {
    clean.push_back(report(0.002 + i * 0.01, i % kPorts, 0.2 * i));
  }
  const double huge[] = {1e12, -1e12, 1e300, -1e300};
  for (const double t : huge) {
    SCOPED_TRACE(t);
    rfid::TagReportStream corrupted = clean;
    corrupted.insert(corrupted.begin() + 17, report(t, 1, 0.4));
    corrupted.push_back(report(t, 0, 1.3));
    expect_same_windows(window_reports(corrupted, kPorts, 0.05),
                        window_reports(clean, kPorts, 0.05));
  }
}

TEST(Windowing, AllReportsUnusableGivesNoWindows) {
  rfid::TagReport r = report(0.0, 0, 1.0);
  r.phase_rad = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(window_reports({r, report(0.01, 5, 1.0)}, 2, 0.05).empty());
}

TEST(Windowing, RejectedReportsCountedByReason) {
  // Each dropped report lands in exactly one reason's counter; a report
  // with several faults counts under the first check it fails (antenna,
  // then non-finite fields).
  obs::Registry& registry = obs::Registry::global();
  registry.set_enabled(true);
  registry.reset();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rfid::TagReportStream reports{
      report(0.0, 5, 1.0),           // antenna, before the first kept one
      report(nan, 0, 1.0),           // non-finite, before the first kept one
      report(0.10, 0, 1.0),          // first kept report: t0
      report(0.12, 1, 1.1),
      report(0.13, -1, 1.2),         // antenna
      report(0.14, 2, nan),          // antenna (also non-finite)
      report(0.15, 0, inf),          // non-finite phase
      report(0.16, 1, 1.3, nan),     // non-finite RSS
      report(1e12, 0, 1.4),          // window index past int
      report(0.04, 1, 1.5),          // before the first kept report
      report(0.099, 0, 1.6),         // before it, though less than a window
      report(0.20, 1, 1.7)};
  const auto windows = window_reports(reports, 2, 0.05);
  const obs::Snapshot snap = registry.snapshot();
  registry.reset();
  registry.set_enabled(false);
  EXPECT_EQ(snap.counter("baselines.rejected_reports.antenna"), 3u);
  EXPECT_EQ(snap.counter("baselines.rejected_reports.non_finite"), 3u);
  EXPECT_EQ(snap.counter("baselines.rejected_reports.window_index"), 1u);
  EXPECT_EQ(snap.counter("baselines.rejected_reports.before_start"), 2u);
  // Kept: t = 0.10, 0.12 (window 0) and 0.20 (window 2).
  ASSERT_EQ(windows.size(), 3u);
  EXPECT_TRUE(windows[0].all_phase_valid());
  EXPECT_FALSE(windows[1].phase_valid[0] || windows[1].phase_valid[1]);
  EXPECT_TRUE(windows[2].phase_valid[1]);
}

TEST(Windowing, AdjacentPhaseDeltasSkipReadGaps) {
  // Port 0 read in windows 0, 1 and 3; port 1 in windows 0-3.
  rfid::TagReportStream reports{report(0.00, 0, 0.1), report(0.01, 1, 0.5),
                                report(0.05, 0, 0.3), report(0.06, 1, 0.6),
                                report(0.11, 1, 0.8), report(0.17, 0, 0.7),
                                report(0.18, 1, 0.9)};
  const auto steps = adjacent_phase_deltas(window_reports(reports, 2, 0.05));
  ASSERT_EQ(steps.size(), 3u);
  ASSERT_EQ(steps[0].size(), 2u);
  EXPECT_NEAR(steps[0][0].delta_rad, 0.2, 1e-12);
  EXPECT_EQ(steps[0][1].port, 1u);
  ASSERT_EQ(steps[1].size(), 1u);  // port 0 missed window 2
  EXPECT_EQ(steps[1][0].port, 1u);
  ASSERT_EQ(steps[2].size(), 1u);  // window 2 -> 3 spans port 0's gap
  EXPECT_EQ(steps[2][0].port, 1u);
  EXPECT_NEAR(steps[2][0].delta_rad, 0.1, 1e-12);
}

/// Scoring model over cell centers: a cell's features are its center
/// (x, y), and `Move` scores a step from the two centers. move_bound is
/// acc + `bound`; the default +inf rules nothing out.
template <typename Move>
struct CenterModel {
  Move move;
  double bound = std::numeric_limits<double>::infinity();
  std::size_t features() const { return 2; }
  void cell_features(const Vec2& c, double* f) const {
    f[0] = c.x;
    f[1] = c.y;
  }
  double cell_term(std::size_t, const double*) const { return 0.0; }
  double move_bound(std::size_t, double acc) const { return acc + bound; }
  double move_score(std::size_t, const double* from_f, const double* to_f,
                    double acc) const {
    return acc + move(Vec2{from_f[0], from_f[1]}, Vec2{to_f[0], to_f[1]});
  }
};

template <typename Move>
CenterModel<Move> center_model(Move move) {
  return {move};
}

TEST(GridBeam, MoveBoundSkipsScoringWithoutChangingTheDecode) {
  // Moves that only penalize (score <= 0 = bound) may be skipped when
  // their bound cannot beat a cell's best; the decode must not notice.
  GridConfig cfg;
  cfg.board_width_m = 0.3;
  cfg.board_height_m = 0.2;
  cfg.beam_width = 50;
  const auto penalty = [](const Vec2& from, const Vec2& to) {
    // Prefer a slow counter-clockwise drift around (0.15, 0.1); quantized so
    // that ties are common.
    const Vec2 want{-(from.y - 0.1), from.x - 0.15};
    const Vec2 step = to - from;
    return -std::round(40.0 * (step - want * 0.05).norm() / 0.004) / 8.0;
  };
  auto unbounded = center_model(penalty);
  auto bounded = center_model(penalty);
  bounded.bound = 0.0;
  GridDecodeStats su, sb;
  const auto a = grid_beam_decode(cfg, {0.2, 0.1}, 40, unbounded, &su);
  const auto b = grid_beam_decode(cfg, {0.2, 0.1}, 40, bounded, &sb);
  EXPECT_EQ(a, b);
  EXPECT_EQ(su.candidates, sb.candidates);
  EXPECT_EQ(su.scored, su.candidates);
  EXPECT_LT(sb.scored, sb.candidates);
}

TEST(GridBeam, FollowsScoreGradient) {
  GridConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  // Reward moving right.
  const auto model = center_model(
      [](const Vec2& from, const Vec2& to) { return (to.x - from.x) * 100.0; });
  const auto traj = grid_beam_decode(cfg, {0.05, 0.15}, 20, model);
  ASSERT_EQ(traj.size(), 21u);
  EXPECT_GT(traj.back().x, traj.front().x + 0.1);
}

TEST(GridBeam, RespectsSpeedLimit) {
  GridConfig cfg;
  cfg.block_m = 0.01;
  // Run right as fast as possible.
  const auto model =
      center_model([](const Vec2&, const Vec2& to) { return to.x; });
  const auto traj = grid_beam_decode(cfg, {0.05, 0.15}, 10, model);
  const double max_step = cfg.vmax_mps * cfg.window_s + cfg.block_m;
  for (std::size_t i = 1; i < traj.size(); ++i) {
    EXPECT_LE(traj[i].dist(traj[i - 1]), max_step);
  }
}

TEST(GridBeam, ZeroStepsJustStart) {
  GridConfig cfg;
  const auto traj = grid_beam_decode(
      cfg, {0.2, 0.2}, 0,
      center_model([](const Vec2&, const Vec2&) { return 0.0; }));
  ASSERT_EQ(traj.size(), 1u);
  EXPECT_NEAR(traj[0].x, 0.2, cfg.block_m);
}

TEST(GridBeam, ZeroSpeedLimitStaysPut) {
  // With vmax = 0 the stay-put move is the only one in reach, so every
  // step has exactly one candidate even though the score begs to move.
  GridConfig cfg;
  cfg.vmax_mps = 0.0;
  GridDecodeStats stats;
  const auto traj = grid_beam_decode(
      cfg, {0.3, 0.2}, 12,
      center_model([](const Vec2&, const Vec2& to) { return to.x; }), &stats);
  ASSERT_EQ(traj.size(), 13u);
  for (const Vec2& p : traj) EXPECT_EQ(p, traj.front());
  EXPECT_EQ(stats.windows, 12u);
  EXPECT_EQ(stats.candidates, 12u);
  EXPECT_EQ(stats.scored, 12u);
}

TEST(GridBeam, KnifeEdgeMovesKeepExactTest) {
  // Default board: reach 0.2 m/s * 50 ms = 1 cm plus half a 4 mm block is
  // 1.2 cm, so the axis moves of exactly 3 blocks sit on the radius and
  // must be decided per candidate; diagonals (2, 2) are strictly inside.
  const detail::GridFrame g = detail::make_frame(GridConfig{}, {0.5, 0.3});
  int knife = 0;
  for (const auto& m : g.moves) {
    const int r2 = m.dr * m.dr + m.dc * m.dc;
    EXPECT_LE(r2, 9);
    EXPECT_EQ(m.knife_edge, r2 == 9) << m.dr << "," << m.dc;
    knife += m.knife_edge ? 1 : 0;
  }
  EXPECT_EQ(knife, 4);
  EXPECT_EQ(g.moves.size(), 29u);
}

TEST(GridBeam, KnifeEdgeMatchesCenterDistanceEverywhere) {
  // The displacement table plus the knife-edge test admits exactly the
  // moves the center-distance test admits, from every cell of the board.
  GridConfig cfg;
  cfg.board_width_m = 0.2;
  cfg.board_height_m = 0.12;
  const detail::GridFrame g = detail::make_frame(cfg, {0.1, 0.06});
  const int reach = 3;
  for (int r = 0; r < g.rows; ++r) {
    for (int c = 0; c < g.cols; ++c) {
      const Vec2 from = g.center(c, r);
      for (int dr = -reach - 1; dr <= reach + 1; ++dr) {
        for (int dc = -reach - 1; dc <= reach + 1; ++dc) {
          const bool exact = from.dist(g.center(c + dc, r + dr)) <= g.radius_m;
          bool table = false;
          for (const auto& m : g.moves) {
            if (m.dr == dr && m.dc == dc) {
              table = !m.knife_edge ||
                      from.dist(g.center(c + dc, r + dr)) <= g.radius_m;
            }
          }
          ASSERT_EQ(table, exact) << c << "," << r << " + " << dc << "," << dr;
        }
      }
    }
  }
}

TEST(GridBeam, CarriedFeaturesMatchTheirCell) {
  // A cell touched in consecutive steps gets its features copied from the
  // step before instead of recomputed. Each cell carries a checksum of its
  // center as a third feature, and every move must join two intact rows
  // within reach of each other. The score pulls the track two blocks right
  // per step, so the decode has exactly one best path.
  GridConfig cfg;
  cfg.board_width_m = 0.3;
  cfg.board_height_m = 0.2;
  cfg.beam_width = 50;
  const Vec2 start{0.05, 0.098};
  const detail::GridFrame g = detail::make_frame(cfg, start);
  struct ChecksumModel {
    const detail::GridFrame* g;
    mutable std::size_t first_touches = 0;
    mutable std::size_t bad_rows = 0;
    static double checksum(double x, double y) { return 3.0 * x - 7.0 * y; }
    std::size_t features() const { return 3; }
    void cell_features(const Vec2& c, double* f) const {
      f[0] = c.x;
      f[1] = c.y;
      f[2] = checksum(c.x, c.y);
    }
    double cell_term(std::size_t, const double*) const {
      ++first_touches;  // once per cell per step
      return 0.0;
    }
    double move_bound(std::size_t, double) const {
      return std::numeric_limits<double>::infinity();
    }
    double move_score(std::size_t t, const double* from_f, const double* to_f,
                      double acc) const {
      const Vec2 from{from_f[0], from_f[1]};
      const Vec2 to{to_f[0], to_f[1]};
      if (from_f[2] != checksum(from.x, from.y) ||
          to_f[2] != checksum(to.x, to.y) || from.dist(to) > g->radius_m) {
        ++bad_rows;
      }
      const int step = static_cast<int>(t) + 1;
      return acc - 100.0 * to.dist(g->center(g->c0 + 2 * step, g->r0));
    }
  };
  const ChecksumModel model{&g};
  constexpr std::size_t kSteps = 30;
  GridDecodeStats stats;
  const auto path = grid_beam_decode(cfg, start, kSteps, model, &stats);
  EXPECT_EQ(model.bad_rows, 0u);
  ASSERT_EQ(path.size(), kSteps + 1);
  for (std::size_t t = 0; t <= kSteps; ++t) {
    EXPECT_EQ(path[t], g.center(g.c0 + 2 * static_cast<int>(t), g.r0)) << t;
  }
  EXPECT_EQ(stats.scored, stats.candidates);
  EXPECT_GT(stats.featured, 0u);
  EXPECT_LT(stats.featured, model.first_touches);
}

TEST(PhasorScoring, CoherenceTermMatchesTheCosineOfTheDifference) {
  // The trig-free term equals w * (cos(delta - k * (d_to - d_from)) - 1)
  // over random geometry: link phases k * d up to about 40 rad and
  // measured changes of both signs, beyond one turn.
  Rng rng(16);
  const double lambda = 0.3276;
  const double k = 4.0 * kPi / lambda;
  std::vector<em::ReaderAntenna> rig;
  for (int a = 0; a < 4; ++a) {
    rig.push_back(em::make_circular_antenna(
        Vec3{rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.6),
             rng.uniform(0.05, 0.5)}));
  }
  double max_phase = 0.0;
  for (int trial = 0; trial < 2000; ++trial) {
    const Vec2 from{rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.6)};
    const Vec2 to = trial % 4 == 0 ? from
                                   : Vec2{rng.uniform(0.0, 1.0),
                                          rng.uniform(0.0, 0.6)};
    double ff[8], tf[8];
    link_phasors(from, rig, k, ff);
    link_phasors(to, rig, k, tf);
    const double w = rng.uniform(0.0, 3.0);
    for (std::size_t a = 0; a < rig.size(); ++a) {
      const double d_from = link_len(from, rig[a]);
      const double d_to = link_len(to, rig[a]);
      max_phase = std::max(max_phase, k * std::max(d_from, d_to));
      // Every fourth delta is the predicted change itself (full coherence)
      // shifted by whole turns.
      const double delta = trial % 4 == 1
                               ? k * (d_to - d_from) + kTwoPi * rng.uniform_int(-3, 3)
                               : rng.uniform(-20.0, 20.0);
      const double want =
          w * (std::cos(delta - k * (d_to - d_from)) - 1.0);
      const double got = coherence_term(w, std::cos(delta), std::sin(delta),
                                        tf + 2 * a, ff + 2 * a);
      ASSERT_NEAR(got, want, 1e-12) << trial << " port " << a;
      ASSERT_LE(got, 0.0);
    }
  }
  EXPECT_GT(max_phase, 30.0);
}

TEST(GridBeam, IndexPruneMatchesNodePrune) {
  // The engine prunes an index array with the node comparator; the
  // partition depends only on comparison outcomes, so it keeps the same
  // survivors in the same order as nth_element over the nodes -- ties
  // included (a blind step scores every move -0.1).
  struct Node {
    int id;
    float log_prob;
  };
  const auto check = [](const std::vector<float>& lps, std::size_t keep) {
    std::vector<Node> nodes;
    for (std::size_t i = 0; i < lps.size(); ++i) {
      nodes.push_back({static_cast<int>(i), lps[i]});
    }
    std::vector<std::int32_t> order(nodes.size());
    std::iota(order.begin(), order.end(), 0);
    const auto cut = static_cast<std::ptrdiff_t>(keep);
    std::nth_element(nodes.begin(), nodes.begin() + cut, nodes.end(),
                     [](const Node& a, const Node& b) {
                       return a.log_prob > b.log_prob;
                     });
    std::nth_element(order.begin(), order.begin() + cut, order.end(),
                     [&](std::int32_t a, std::int32_t b) {
                       return lps[static_cast<std::size_t>(a)] >
                              lps[static_cast<std::size_t>(b)];
                     });
    for (std::size_t k = 0; k < keep; ++k) {
      ASSERT_EQ(order[k], nodes[k].id) << "rank " << k;
    }
  };
  // All ties: every move of a blind step from a uniform beam.
  check(std::vector<float>(5400, -0.1f), 600);
  // A few distinct values, heavily tied.
  std::vector<float> coarse;
  for (int i = 0; i < 5400; ++i) {
    coarse.push_back(static_cast<float>((i * 7919) % 13) * -0.5f);
  }
  check(coarse, 600);
  // Distinct values, plus a tied band straddling the cut.
  std::vector<float> mixed;
  for (int i = 0; i < 3000; ++i) {
    mixed.push_back(i % 3 == 0
                        ? -1.0f
                        : -static_cast<float>((i * 104729) % 3001) / 1000.0f);
  }
  check(mixed, 600);
  check(mixed, 2999);
}

/// Synthesizes ideal (noise-free) phase reports for a tag gliding right,
/// observed by `antennas`, and checks the tracker recovers the motion.
template <typename MakeTracker>
void run_synthetic_track(int ports, MakeTracker make_tracker) {
  std::vector<em::ReaderAntenna> rig;
  for (int a = 0; a < ports; ++a) {
    // Two ports: a well-conditioned pair above the block. More ports:
    // alternate above/below for 2-D diversity.
    const double y = ports <= 2 ? 0.55 : (a % 2 == 0 ? 0.55 : -0.05);
    em::ReaderAntenna ant = em::make_circular_antenna(
        Vec3{0.2 + 0.6 * a / std::max(1, ports - 1), y, 1.0});
    ant.boresight = Vec3{0.0, 0.0, -1.0};
    rig.push_back(ant);
  }
  const double lambda = 0.3276;
  rfid::TagReportStream reports;
  // Tag glides right 20 cm over 2 s; reads at 100 Hz round-robin. The
  // glide must cover at least a grid block per window or per-window
  // differential trackers legitimately prefer standing still.
  for (int i = 0; i < 200; ++i) {
    const double t = i * 0.01;
    const Vec2 tag{0.30 + 0.10 * t, 0.25};
    const int port = i % ports;
    const auto& ant = rig[static_cast<std::size_t>(port)];
    const double dx = tag.x - ant.position.x;
    const double dy = tag.y - ant.position.y;
    const double l = std::sqrt(dx * dx + dy * dy + ant.position.z * ant.position.z);
    reports.push_back(report(t, port, 4.0 * kPi * l / lambda));
  }
  const auto traj = make_tracker(rig)(reports);
  ASSERT_GT(traj.size(), 10u);
  const double dx = traj.back().x - traj.front().x;
  const double dy = traj.back().y - traj.front().y;
  EXPECT_NEAR(dx, 0.20, 0.06);
  EXPECT_NEAR(dy, 0.0, 0.08);
}

TEST(Tagoram, TracksGlidingTagFourAntennas) {
  run_synthetic_track(4, [](const std::vector<em::ReaderAntenna>& rig) {
    return [rig](const rfid::TagReportStream& reports) {
      TagoramConfig cfg;
      TagoramTracker tracker(cfg, rig);
      return tracker.track(reports);
    };
  });
}

TEST(Tagoram, TwoAntennasRecoverHorizontalMotion) {
  // With two antennas in a horizontal line, the differential phases pin
  // lateral motion well but leave the vertical component ill-conditioned
  // when tracking starts from a wrong absolute anchor -- the 2-antenna
  // weakness the paper's cost comparison trades against. Assert only the
  // well-conditioned axis.
  std::vector<em::ReaderAntenna> rig;
  for (int a = 0; a < 2; ++a) {
    em::ReaderAntenna ant =
        em::make_circular_antenna(Vec3{0.2 + 0.6 * a, 0.55, 1.0});
    ant.boresight = Vec3{0.0, 0.0, -1.0};
    rig.push_back(ant);
  }
  const double lambda = 0.3276;
  rfid::TagReportStream reports;
  for (int i = 0; i < 200; ++i) {
    const double t = i * 0.01;
    const Vec2 tag{0.30 + 0.10 * t, 0.25};
    const int port = i % 2;
    const auto& ant = rig[static_cast<std::size_t>(port)];
    const double dx = tag.x - ant.position.x;
    const double dy = tag.y - ant.position.y;
    const double l =
        std::sqrt(dx * dx + dy * dy + ant.position.z * ant.position.z);
    reports.push_back(report(t, port, 4.0 * kPi * l / lambda));
  }
  TagoramConfig cfg;
  TagoramTracker tracker(cfg, rig);
  const auto traj = tracker.track(reports);
  ASSERT_GT(traj.size(), 10u);
  EXPECT_NEAR(traj.back().x - traj.front().x, 0.20, 0.07);
}

TEST(Tagoram, EmptyStreamEmptyTrajectory) {
  TagoramConfig cfg;
  TagoramTracker tracker(cfg, {em::make_circular_antenna(Vec3{0, 0, 1})});
  EXPECT_TRUE(tracker.track({}).empty());
}

TEST(RfIdraw, TracksGlidingTag) {
  run_synthetic_track(4, [](const std::vector<em::ReaderAntenna>& rig) {
    return [rig](const rfid::TagReportStream& reports) {
      RfIdrawConfig cfg;
      RfIdrawTracker tracker(cfg, rig, {{0, 1}, {2, 3}},
                             std::vector<double>(4, 0.0));
      return tracker.track(reports);
    };
  });
}

TEST(RfIdraw, EmptyStreamEmptyTrajectory) {
  RfIdrawConfig cfg;
  RfIdrawTracker tracker(cfg,
                         {em::make_circular_antenna(Vec3{0, 0, 1}),
                          em::make_circular_antenna(Vec3{0.2, 0, 1})},
                         {{0, 1}}, {0.0, 0.0});
  EXPECT_TRUE(tracker.track({}).empty());
}

}  // namespace
}  // namespace polardraw::baselines
