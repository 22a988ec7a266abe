// Parity suite for the beam-expansion kernel (core/expand_kernel.h) and
// the decoder's packed-key prune, against the scalar reference oracle
// (expand_oracle.h).
//
// The contract under test:
//   * one expansion step: the kernel emits the oracle's candidate cells
//     with the oracle's parents in the oracle's first-touch order, scores
//     them within FP-reassociation tolerance, and tallies expansions /
//     annulus rejections identically -- mid-board, on all four board
//     edges, on knife-edge displacements, on exact log-prob ties, on an
//     empty beam and on a starved window;
//   * the prune: packed-key ranking selects and orders exactly what the
//     index-tie-broken comparator does, ties and +-0.0f included;
//   * whole decodes: the production decoder commits the oracle decoder's
//     trajectories on the golden seed set and across fuzzed seeds and lags,
//     with per-window best scores within FP-reassociation tolerance;
//   * end-to-end recognition accuracy (the fig. 13/18 metric) equals the
//     scalar reference's.
//
// Plus the supporting units: the kernel-level direction-normalization
// contract (a non-unit MotionEstimate::direction must decode exactly like
// its normalized self) and the oracle's GenerationScoreboard.
#include "core/expand_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/decode_testbed.h"
#include "core/hmm_tracker.h"
#include "core/streaming_decoder.h"
#include "eval/harness.h"
#include "expand_oracle.h"
#include "scoreboard.h"

namespace polardraw::core {
namespace {

struct GoldenCase {
  PolarDrawConfig cfg;
  int n_windows;
  std::uint64_t seed;
  bool use_hint;
};

/// Same seed set as tests/core/test_hmm_golden.cc pins bit-exactly.
std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  cases.push_back({PolarDrawConfig{}, 100, 1, true});
  cases.push_back({PolarDrawConfig{}, 100, 2, false});
  PolarDrawConfig small;
  small.board_width_m = 0.5;
  small.board_height_m = 0.4;
  small.block_m = 0.005;
  small.beam_width = 200;
  small.hyperbola_sharpness = 1.0;
  cases.push_back({small, 80, 3, true});
  PolarDrawConfig greedy;
  greedy.use_viterbi = false;
  cases.push_back({greedy, 60, 4, true});
  return cases;
}

void expect_bit_identical(const std::vector<Vec2>& a,
                          const std::vector<Vec2>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "position " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "position " << i;
  }
}

/// One beam front: arena cells and log-probs, expanded as nodes [0, n).
struct Beam {
  std::vector<std::int32_t> cell;
  std::vector<float> logp;
  void add(const PhaseField& field, int row, int col, float lp) {
    cell.push_back(row * field.cols() + col);
    logp.push_back(lp);
  }
};

/// Candidates of one expansion step.
struct Expansion {
  std::vector<std::int32_t> cell, parent;
  std::vector<float> logp;
  ExpandStats stats;
};

/// Runs one step through the kernel and the oracle, checks the parity
/// contract, and returns the kernel's candidates.
Expansion expect_kernel_matches_oracle(const PolarDrawConfig& cfg,
                                       const PhaseField& field,
                                       const TrackObservation& o,
                                       const Beam& beam) {
  ExpandKernel kernel(cfg, field);
  ExpandOracle oracle(cfg, field);
  Expansion k, r;
  kernel.expand(o, beam.cell, beam.logp, 0, beam.cell.size(), k.cell,
                k.logp, k.parent, k.stats);
  oracle.expand(o, beam.cell, beam.logp, 0, beam.cell.size(), r.cell,
                r.logp, r.parent, r.stats);
  EXPECT_EQ(k.cell.size(), r.cell.size());
  EXPECT_EQ(k.logp.size(), k.cell.size());
  EXPECT_EQ(k.parent.size(), k.cell.size());
  for (std::size_t i = 0; i < std::min(k.cell.size(), r.cell.size()); ++i) {
    EXPECT_EQ(k.cell[i], r.cell[i]) << "candidate " << i;
    EXPECT_EQ(k.parent[i], r.parent[i]) << "candidate " << i;
    EXPECT_NEAR(k.logp[i], r.logp[i], 1e-4f) << "candidate " << i;
  }
  EXPECT_EQ(k.stats.expansions, r.stats.expansions);
  EXPECT_EQ(k.stats.annulus_rejected, r.stats.annulus_rejected);
  return k;
}

TEST(ExpandKernelParity, VectorCommitsIdenticalTrajectoriesOnGoldenSeeds) {
  for (const GoldenCase& gc : golden_cases()) {
    const auto tb = make_decode_testbed(gc.cfg, gc.n_windows, gc.seed);
    const Vec2* hint = gc.use_hint ? &tb.start : nullptr;
    const HmmTracker hmm(gc.cfg, tb.a1, tb.a2, tb.antenna_z);
    OracleDecoder oracle(gc.cfg, tb.a1, tb.a2, tb.antenna_z,
                         tb.obs.size() + 1, hint);
    for (const TrackObservation& o : tb.obs) oracle.push(o);
    expect_bit_identical(hmm.decode(tb.obs, hint), oracle.finish());
  }
}

TEST(ExpandKernelParity, KernelsAgreeOnCandidateSetAndStats) {
  // A small beam front somewhere mid-board, expanded under every window of
  // a testbed stream.
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 4, 11);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  Beam beam;
  const int r0 = field.rows() / 2, c0 = field.cols() / 2;
  beam.add(field, r0, c0, 0.0f);
  beam.add(field, r0, c0 + 3, -0.25f);
  beam.add(field, r0 + 2, c0 + 1, -1.5f);
  for (const TrackObservation& o : tb.obs) {
    EXPECT_FALSE(expect_kernel_matches_oracle(cfg, field, o, beam)
                     .cell.empty());
  }
}

TEST(ExpandKernelParity, EdgeParentsOnAllFourBoardEdges) {
  // Parents whose reach the board clips take the kernel's per-lane path;
  // every edge and corner must expand exactly like the oracle's clipped
  // walk, next to interior parents that take the displacement sweep.
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 6, 5);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  const int rows = field.rows(), cols = field.cols();
  Beam beam;
  beam.add(field, 0, 0, -0.5f);
  beam.add(field, 0, cols - 1, -0.25f);
  beam.add(field, rows - 1, 0, 0.0f);
  beam.add(field, rows - 1, cols - 1, -1.0f);
  beam.add(field, 1, cols / 2, -0.75f);
  beam.add(field, rows / 2, cols - 2, -0.125f);
  beam.add(field, rows - 2, cols / 3, -2.0f);
  beam.add(field, rows / 3, 1, -0.5f);
  beam.add(field, rows / 2, cols / 2, -0.375f);
  for (const TrackObservation& o : tb.obs) {
    const Expansion k = expect_kernel_matches_oracle(cfg, field, o, beam);
    bool top = false, bottom = false, left = false, right = false;
    for (const std::int32_t c : k.cell) {
      top |= c / cols == 0;
      bottom |= c / cols == rows - 1;
      left |= c % cols == 0;
      right |= c % cols == cols - 1;
    }
    EXPECT_TRUE(top && bottom && left && right);
  }
}

TEST(ExpandKernelParity, KnifeEdgeDisplacementsMatchExactAnnulusTest) {
  // When an annulus threshold sits exactly on a lattice distance, the
  // oracle's position-dependent center-difference rounding decides each
  // lane; the kernel must re-test those displacements exactly.
  const PolarDrawConfig cfg;  // block_m = 4 mm
  const auto tb = make_decode_testbed(cfg, 1, 3);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  Beam beam;
  Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    beam.add(field, 10 + static_cast<int>(rng.uniform() * 120.0),
             10 + static_cast<int>(rng.uniform() * 220.0),
             -static_cast<float>(rng.uniform()));
  }
  // Every observation below puts a threshold on the lattice:
  //   upper 12 mm (3 blocks), lower 9 mm: 8 mm + quarter block == lower;
  //   upper 18 mm: outer threshold 20 mm == |(3, 4)| and |(5, 0)| blocks;
  //   upper 10 mm (the default vmax * window): outer 12 mm == 3 blocks.
  const double uppers[] = {0.012, 0.018, 0.010};
  const double lowers[] = {0.009, 0.0, 0.004};
  for (int k = 0; k < 3; ++k) {
    TrackObservation o = tb.obs[0];
    o.distance.upper_m = uppers[k];
    o.distance.lower_m = lowers[k];
    o.distance.valid = true;
    const double out_m = uppers[k] + 0.5 * cfg.block_m;
    bool on_lattice = false;
    for (int dr = 0; dr <= 6; ++dr) {
      for (int dc = 0; dc <= 6; ++dc) {
        const double step = std::hypot(dc * cfg.block_m, dr * cfg.block_m);
        on_lattice |= std::fabs(step - out_m) < 1e-12 ||
                      std::fabs(step + 0.25 * cfg.block_m - lowers[k]) <
                          1e-12;
      }
    }
    ASSERT_TRUE(on_lattice) << "window " << k;
    expect_kernel_matches_oracle(cfg, field, o, beam);
  }
}

TEST(ExpandKernelParity, IdleTiesResolveToLowestParent) {
  // A phaseless idle window scores a lane by its step length alone, so a
  // cell equidistant from two equal-scored parents ties exactly; the
  // reference keeps the earliest parent in arena order (not the leftmost
  // or first-visited one).
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 1, 3);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  TrackObservation idle;
  idle.direction.type = MotionType::kIdle;
  idle.has_phase = false;
  idle.distance.valid = false;
  idle.distance.upper_m = cfg.vmax_mps * cfg.window_s;
  const int r = 70, c = 120, cols = field.cols();
  Beam beam;
  beam.add(field, r, c + 2, 0.0f);  // parent 0, right of the tie cells
  beam.add(field, r, c, 0.0f);      // parent 1
  beam.add(field, r + 2, c, 0.0f);  // parent 2
  const Expansion k = expect_kernel_matches_oracle(cfg, field, idle, beam);
  // (r+1, c+1) is sqrt(2) blocks from all three parents; (r+1, c) is one
  // block from parents 1 and 2.
  int checked = 0;
  for (std::size_t i = 0; i < k.cell.size(); ++i) {
    if (k.cell[i] == (r + 1) * cols + c + 1) {
      EXPECT_EQ(k.parent[i], 0);
      ++checked;
    }
    if (k.cell[i] == (r + 1) * cols + c) {
      EXPECT_EQ(k.parent[i], 1);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 2);
}

TEST(ExpandKernelParity, EmptyBeamAndStarvedWindow) {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.1;
  cfg.board_height_m = 0.1;
  cfg.block_m = 0.01;
  const auto tb = make_decode_testbed(cfg, 8, 2);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);

  const Expansion empty =
      expect_kernel_matches_oracle(cfg, field, tb.obs[0], Beam{});
  EXPECT_TRUE(empty.cell.empty());
  EXPECT_EQ(empty.stats.expansions + empty.stats.annulus_rejected, 0u);

  // A minimum motion longer than the board: every lane is rejected.
  TrackObservation far = tb.obs[0];
  far.distance.lower_m = 0.5;
  far.distance.upper_m = 0.5;
  far.distance.valid = true;
  Beam beam;
  beam.add(field, 4, 4, 0.0f);
  beam.add(field, 0, 9, -1.0f);
  const Expansion starved = expect_kernel_matches_oracle(cfg, field, far, beam);
  EXPECT_TRUE(starved.cell.empty());
  EXPECT_EQ(starved.stats.expansions, 0u);
  EXPECT_GT(starved.stats.annulus_rejected, 0u);

  // The decoders hold the best state through the starved window.
  std::vector<TrackObservation> obs = tb.obs;
  obs[3] = far;
  const HmmTracker hmm(cfg, tb.a1, tb.a2, tb.antenna_z);
  OracleDecoder oracle(cfg, tb.a1, tb.a2, tb.antenna_z, obs.size() + 1,
                       &tb.start);
  for (const TrackObservation& o : obs) oracle.push(o);
  const auto traj = hmm.decode(obs, &tb.start);
  expect_bit_identical(traj, oracle.finish());
  EXPECT_EQ(traj[4].x, traj[3].x);
  EXPECT_EQ(traj[4].y, traj[3].y);
}

/// Cells whose hyperbola log-weight the kernel evaluates, by brute force:
/// every parent touches, in each on-board row pr + dr (|dr| <= reach), the
/// on-board columns within the integer annulus bound lim(|dr|) of its
/// column, and each row is evaluated over the hull of its touched columns.
std::uint64_t brute_force_hyper_cells(const PolarDrawConfig& cfg,
                                      const PhaseField& field,
                                      const TrackObservation& o,
                                      const Beam& beam) {
  const double lower = o.distance.valid ? o.distance.lower_m : 0.0;
  const double upper =
      std::max({o.distance.upper_m, lower, cfg.block_m * 0.5});
  const int reach =
      std::max(1, static_cast<int>(std::ceil(upper / cfg.block_m)));
  const double r_blocks = (upper + 0.5 * cfg.block_m) / cfg.block_m;
  const auto lim = [&](int dr) {
    const double rem = r_blocks * r_blocks - static_cast<double>(dr) * dr;
    return rem <= 0.0 ? 0
                      : std::min(reach, static_cast<int>(std::sqrt(rem)) + 1);
  };
  const int rows = field.rows(), cols = field.cols();
  std::vector<int> lo(static_cast<std::size_t>(rows), cols);
  std::vector<int> hi(static_cast<std::size_t>(rows), -1);
  for (const std::int32_t cell : beam.cell) {
    const int pr = cell / cols, pc = cell % cols;
    for (int dr = -reach; dr <= reach; ++dr) {
      const int r = pr + dr;
      if (r < 0 || r >= rows) continue;
      const int l = lim(std::abs(dr));
      auto& rl = lo[static_cast<std::size_t>(r)];
      auto& rh = hi[static_cast<std::size_t>(r)];
      rl = std::min(rl, std::max(0, pc - l));
      rh = std::max(rh, std::min(cols - 1, pc + l));
    }
  }
  std::uint64_t n = 0;
  for (int r = 0; r < rows; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (lo[i] <= hi[i]) n += static_cast<std::uint64_t>(hi[i] - lo[i] + 1);
  }
  return n;
}

TEST(ExpandKernelParity, HyperCellsEqualBruteForceSpanUnion) {
  // The kernel derives each box row's column span from its neighbouring
  // parent rows' extents; the count must equal the per-parent union, for
  // beams on all four edges, two far-apart clusters (on disjoint rows and
  // sharing rows), and filled and ring annuli of several reaches.
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 1, 9);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  const int rows = field.rows(), cols = field.cols();
  Rng rng(31);
  std::vector<Beam> beams(3);
  // All four edges and corners, next to a mid-board parent.
  beams[0].add(field, 0, 0, 0.0f);
  beams[0].add(field, 0, cols / 2, -0.5f);
  beams[0].add(field, rows - 1, cols - 1, -0.25f);
  beams[0].add(field, rows / 2, 0, -1.0f);
  beams[0].add(field, rows - 1, 3, -0.75f);
  beams[0].add(field, 2, cols - 1, -0.125f);
  beams[0].add(field, rows / 2, cols / 2, -2.0f);
  // Two clusters, far apart in rows and columns.
  for (int i = 0; i < 40; ++i) {
    beams[1].add(field, 20 + static_cast<int>(rng.uniform() * 8.0),
                 30 + static_cast<int>(rng.uniform() * 12.0),
                 -static_cast<float>(rng.uniform()));
    beams[1].add(field, rows - 25 + static_cast<int>(rng.uniform() * 6.0),
                 cols - 40 + static_cast<int>(rng.uniform() * 10.0),
                 -static_cast<float>(rng.uniform()));
  }
  // Two clusters sharing rows: each row's span bridges the gap.
  for (int i = 0; i < 40; ++i) {
    const int r = 60 + static_cast<int>(rng.uniform() * 10.0);
    beams[2].add(field, r, 10 + static_cast<int>(rng.uniform() * 5.0),
                 -static_cast<float>(rng.uniform()));
    beams[2].add(field, r + 1,
                 cols - 15 + static_cast<int>(rng.uniform() * 5.0),
                 -static_cast<float>(rng.uniform()));
  }
  const double uppers[] = {0.001, 0.010, 0.012, 0.018, 0.030};
  const double lowers[] = {0.0, 0.0, 0.009, 0.008, 0.020};
  for (std::size_t b = 0; b < beams.size(); ++b) {
    for (int k = 0; k < 5; ++k) {
      SCOPED_TRACE(testing::Message() << "beam " << b << " window " << k);
      TrackObservation o = tb.obs[0];
      o.has_phase = true;
      o.distance.valid = true;
      o.distance.upper_m = uppers[k];
      o.distance.lower_m = lowers[k];
      const Expansion e = expect_kernel_matches_oracle(cfg, field, o, beams[b]);
      const std::uint64_t want =
          brute_force_hyper_cells(cfg, field, o, beams[b]);
      EXPECT_EQ(e.stats.hyper_cells, want);
      EXPECT_GE(want, e.cell.size());
    }
  }
}

TEST(ExpandKernelParity, DuplicateCellsSpillToTheExactWalk) {
  // The dense rows hold one parent per cell; a second beam node on a taken
  // interior cell takes the exact per-lane walk. Whether the later node
  // scores above, equal to or below the first, the merge must match the
  // oracle (a tie keeps the earlier parent).
  const PolarDrawConfig cfg;
  const auto tb = make_decode_testbed(cfg, 3, 21);
  const PhaseField field(cfg, tb.a1, tb.a2, tb.antenna_z);
  const int r = field.rows() / 2, c = field.cols() / 2;
  Beam beam;
  beam.add(field, r, c, -1.0f);
  beam.add(field, r, c + 1, -0.5f);
  beam.add(field, r, c, -0.25f);  // better than its twin
  beam.add(field, r, c + 1, -0.5f);  // ties its twin
  beam.add(field, r + 1, c, -2.0f);
  beam.add(field, r + 1, c, -3.0f);  // worse than its twin
  for (const TrackObservation& o : tb.obs) {
    const Expansion k = expect_kernel_matches_oracle(cfg, field, o, beam);
    EXPECT_FALSE(k.cell.empty());
    for (const std::int32_t p : k.parent) {
      EXPECT_NE(p, 3);  // never wins: it only ever ties parent 1
      EXPECT_NE(p, 5);  // never wins: parent 4 beats it on every lane
    }
  }
}

/// One row-kernel input: parent slots, destination slots and an optional
/// knife-edge mask, all owned here.
struct RowCase {
  std::vector<double> plp, hyper, cx_src, cx_dst;
  std::vector<std::uint32_t> parent, first;
  std::vector<std::uint64_t> key;
  double disp_logw = 0.0;
  KnifeEdge knife;

  /// Runs `kernel` on a copy of the destination rows.
  std::uint32_t run(MergeRowFn kernel, bool masked,
                    std::vector<std::uint64_t>& key_out,
                    std::vector<std::uint32_t>& first_out) const {
    key_out = key;
    first_out = first;
    const MergeRow row{plp.data(),     parent.data(),    hyper.data(),
                       key_out.data(), first_out.data(), plp.size(),
                       disp_logw};
    KnifeEdge k = knife;
    k.cx_src = cx_src.data();
    k.cx_dst = cx_dst.data();
    return kernel(row, masked ? &k : nullptr);
  }
};

constexpr std::uint64_t kRowCases = 7;
/// Lane cases the knife-edge mask rejects.
bool knife_rejects(std::uint64_t lane_case) {
  return lane_case == 4 || lane_case == 5;
}

/// A crafted row of `n` lanes cycling through the hard cases: a hole with
/// a NaN log-prob, +0.0 and -0.0 scores, a score equal to another
/// parent's already in the destination, and knife-edge steps exactly on
/// both thresholds and just past each.
RowCase crafted_row(std::size_t n, std::uint64_t seed) {
  RowCase rc;
  rc.disp_logw = -0.0;
  // |(3, 4)| = 5 exactly: on the outer threshold, and on the inner one
  // once the quarter block is added (5 + 0.25 == 5.25).
  rc.knife.ddy = 4.0;
  rc.knife.out_thresh_m = 5.0;
  rc.knife.quarter_block_m = 0.25;
  rc.knife.lower_m = 5.25;
  Rng rng(seed);
  // The nearest column offsets whose step lands past either threshold.
  const auto step = [](double ddx) { return std::sqrt(ddx * ddx + 16.0); };
  const double on = 3.0;
  double past_out = on, short_in = on;
  while (!(step(past_out) > 5.0)) past_out = std::nextafter(past_out, 4.0);
  while (!(step(short_in) + 0.25 < 5.25)) {
    short_in = std::nextafter(short_in, 2.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    double plp = -static_cast<double>(static_cast<float>(rng.uniform()));
    double hyper = -rng.uniform();
    auto parent = static_cast<std::uint32_t>(10 + j);
    double ddx = on;
    std::uint64_t key = 0;
    std::uint32_t first = kNoParent;
    switch ((j + seed) % kRowCases) {
      case 0:  // hole
        parent = kNoParent;
        plp = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:  // +0.0 + +0.0
        plp = 0.0;
        hyper = 0.0;
        break;
      case 2:  // -0.0 + -0.0 -> -0.0f, which must key like +0.0f
        plp = -0.0;
        hyper = -0.0;
        key = (std::uint64_t{ordered_float_bits(0.0f)} << 32) |
              (kNoParent - 40u);
        first = 40;
        break;
      case 3: {  // equal score already merged from an earlier parent
        const float lp =
            static_cast<float>(plp + std::max(hyper, std::log(1e-6)));
        key = (std::uint64_t{ordered_float_bits(lp)} << 32) |
              (kNoParent - 2u);
        first = 2;
        break;
      }
      case 4:  // just past the outer threshold
        ddx = past_out;
        break;
      case 5:  // just short of the inner threshold
        ddx = short_in;
        break;
      default:  // a later, better parent already merged
        key = (std::uint64_t{ordered_float_bits(-2.0f)} << 32) |
              (kNoParent - 50u);
        first = 50;
        break;
    }
    rc.plp.push_back(plp);
    rc.hyper.push_back(hyper);
    rc.parent.push_back(parent);
    rc.key.push_back(key);
    rc.first.push_back(first);
    rc.cx_dst.push_back(1.0);
    rc.cx_src.push_back(1.0 + ddx);
  }
  return rc;
}

TEST(RowKernel, Avx2AndPortableBuildsMergeIdentically) {
  // The portable build against the lane rules, then the AVX2 build against
  // the portable one, key for key, on every length that exercises a
  // vector body and remainder.
  const RowKernel portable = portable_row_kernel();
  const RowKernel avx2 = avx2_row_kernel();
  ASSERT_NE(portable.fn, nullptr);
  EXPECT_STREQ(chosen_row_kernel().name,
               avx2.fn != nullptr ? "avx2" : "portable");
  std::vector<std::uint64_t> key_p, key_v;
  std::vector<std::uint32_t> first_p, first_v;
  for (std::size_t n = 0; n <= 9; ++n) {
    for (std::uint64_t seed = 0; seed < kRowCases; ++seed) {
      const RowCase rc = crafted_row(n, seed);
      for (const bool masked : {false, true}) {
        SCOPED_TRACE(testing::Message() << "n " << n << " seed " << seed
                                        << " masked " << masked);
        const std::uint32_t ok_p = rc.run(portable.fn, masked, key_p, first_p);
        // Holes never merge, and under the knife-edge mask exactly the
        // lanes past a threshold fail; a masked lane leaves its
        // destination unchanged.
        std::uint32_t want = 0;
        for (std::size_t j = 0; j < n; ++j) {
          const bool dead = rc.parent[j] == kNoParent ||
                            (masked && knife_rejects((j + seed) % kRowCases));
          want += dead ? 0u : 1u;
          if (dead) {
            EXPECT_EQ(key_p[j], rc.key[j]) << "masked lane " << j;
            EXPECT_EQ(first_p[j], rc.first[j]) << "masked lane " << j;
          }
        }
        EXPECT_EQ(ok_p, want);
        if (avx2.fn == nullptr) continue;
        const std::uint32_t ok_v = rc.run(avx2.fn, masked, key_v, first_v);
        EXPECT_EQ(ok_v, ok_p);
        EXPECT_EQ(key_v, key_p);
        EXPECT_EQ(first_v, first_p);
      }
    }
  }
  if (avx2.fn == nullptr) {
    GTEST_SKIP() << "AVX2 side not run: the CPU lacks AVX2 or the target is "
                    "not x86, so this binary has no runnable AVX2 build";
  }
}

/// rank_beam against the comparator oracle: the kept count, the kept
/// indices in rank order, and each key's rank word.
void expect_rank_matches_oracle(const std::vector<float>& logp,
                                std::size_t keep,
                                std::vector<std::uint64_t>& keys,
                                std::vector<std::uint64_t>& scratch) {
  const std::vector<std::int32_t> want = oracle_rank(logp, keep);
  rank_beam(logp, keep, keys, scratch);
  ASSERT_EQ(keys.size(), want.size())
      << "n " << logp.size() << " keep " << keep;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(static_cast<std::int32_t>(keys[i] & 0xFFFFFFFFu), want[i])
        << "n " << logp.size() << " keep " << keep << " rank " << i;
    ASSERT_EQ(static_cast<std::uint32_t>(keys[i] >> 32),
              ~ordered_float_bits(logp[static_cast<std::size_t>(want[i])]));
  }
}

TEST(RankBeam, PackedKeysMatchComparatorOnAdversarialTies) {
  // Heavy ties, signed zeros, extremes and subnormals: the packed-key
  // ranking must keep and order exactly what the index-tie-broken
  // comparator does, for every cut.
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {0.0f,
                        -0.0f,
                        -1.0f,
                        -1.0f,
                        1.0f,
                        -inf,
                        -std::numeric_limits<float>::max(),
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(),
                        -0.5f};
  Rng rng(2024);
  std::vector<std::uint64_t> keys, scratch;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform() * 300.0);
    std::vector<float> logp(n);
    for (float& lp : logp) {
      lp = pool[static_cast<std::size_t>(rng.uniform() * 10.0) % 10];
    }
    SCOPED_TRACE(trial);
    for (std::size_t keep = 1; keep < n; keep += 1 + n / 7) {
      expect_rank_matches_oracle(logp, keep, keys, scratch);
    }
  }
  // Signed zeros are one value: the index alone breaks the tie.
  rank_beam({-0.0f, 0.0f, -0.0f}, 2, keys, scratch);
  EXPECT_EQ(keys[0] & 0xFFFFFFFFu, 0u);
  EXPECT_EQ(keys[1] & 0xFFFFFFFFu, 1u);
  EXPECT_EQ(ordered_float_bits(-0.0f), ordered_float_bits(0.0f));
  EXPECT_EQ(float_from_ordered_bits(ordered_float_bits(-1.5f)), -1.5f);
}

TEST(RankBeam, RadixDigitPatternsAndCutsMatchComparator) {
  // The radix sort moves keys one 8-bit digit of the rank word at a time
  // and skips a digit every key shares. Each score family below exercises
  // a different set of live digits: none (all equal), only the lowest
  // (scores at most 199 ulps apart), all four (scores spanning signs and
  // exponents), and the decoder's own regime (renormalized log-probs in
  // [-40, 0]). Every family runs at sizes up to ~5000 and at the cuts 1,
  // n - 1, n and past n.
  const std::size_t sizes[] = {1, 2, 3, 255, 256, 257, 850, 4999};
  std::vector<std::uint64_t> keys, scratch;
  Rng rng(14);
  const std::uint32_t base = std::bit_cast<std::uint32_t>(-3.0f);
  for (const std::size_t n : sizes) {
    std::vector<std::vector<float>> families(4, std::vector<float>(n));
    for (std::size_t i = 0; i < n; ++i) {
      families[0][i] = -2.75f;
      families[1][i] = std::bit_cast<float>(
          base + static_cast<std::uint32_t>(rng.uniform() * 200.0));
      const int exponent = static_cast<int>(rng.uniform() * 200.0) - 100;
      families[2][i] = static_cast<float>((rng.chance(0.5) ? 1.0 : -1.0) *
                                          std::ldexp(rng.uniform(), exponent));
      families[3][i] = -static_cast<float>(rng.uniform() * 40.0);
    }
    // Duplicates within the wide families, so ties meet live digits.
    for (std::size_t i = 1; i < n; i += 7) {
      families[2][i] = families[2][i - 1];
      families[3][i] = families[3][i / 2];
    }
    for (std::size_t f = 0; f < families.size(); ++f) {
      SCOPED_TRACE(f);
      for (const std::size_t keep : {std::size_t{1}, n - 1, n, n + 5}) {
        if (keep == 0) continue;
        expect_rank_matches_oracle(families[f], keep, keys, scratch);
      }
    }
  }
  // The low-byte family really differs only in its lowest digit, and the
  // wide one in its highest.
  const std::uint32_t a = ~ordered_float_bits(-3.0f);
  const std::uint32_t b =
      ~ordered_float_bits(std::bit_cast<float>(base + 199u));
  EXPECT_EQ(a >> 8, b >> 8);
  EXPECT_NE(~ordered_float_bits(1e-20f) >> 24,
            ~ordered_float_bits(-1e20f) >> 24);
}

TEST(RankBeam, KeepPastSizeAndEmptyInputReturnEverythingRanked) {
  std::vector<std::uint64_t> keys{7, 8, 9}, scratch;
  rank_beam({}, 600, keys, scratch);
  EXPECT_TRUE(keys.empty());
  rank_beam({-1.0f, 0.0f, -1.0f, -0.5f}, 600, keys, scratch);
  ASSERT_EQ(keys.size(), 4u);
  const std::uint32_t want[] = {1, 3, 0, 2};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(static_cast<std::uint32_t>(keys[i]), want[i]) << "rank " << i;
  }
  rank_beam({-1.0f, 0.0f, -1.0f, -0.5f}, 4, keys, scratch);
  EXPECT_EQ(keys.size(), 4u);
  rank_beam({-1.0f, 0.0f, -1.0f, -0.5f}, 0, keys, scratch);
  EXPECT_TRUE(keys.empty());
}

TEST(ExpandKernelParity, FuzzWindowScoresAndTrajectoriesAcrossSeedsAndLags) {
  // Random testbed seeds and commit lags, the production decoder and the
  // oracle decoder side by side: the per-window best score (the
  // renormalization offset) must stay within FP-reassociation tolerance
  // every single window, and the committed trajectories must agree
  // everywhere.
  const std::size_t lags[] = {1, 3, 7, 16, 61};
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const std::size_t lag = lags[seed % 5];
    const PolarDrawConfig cfg;
    const auto tb = make_decode_testbed(cfg, 60, seed);
    StreamingConfig scfg;
    scfg.lag_windows = lag;
    const Vec2* hint = seed % 2 == 0 ? &tb.start : nullptr;
    StreamingDecoder dec(cfg, tb.a1, tb.a2, tb.antenna_z, scfg, nullptr,
                         hint);
    OracleDecoder oracle(cfg, tb.a1, tb.a2, tb.antenna_z, lag, hint);
    std::vector<Vec2> out;
    for (const auto& o : tb.obs) {
      dec.push(o);
      oracle.push(o);
      if (dec.seeded()) {
        EXPECT_NEAR(dec.last_window_logp_max(), oracle.last_window_logp_max(),
                    1e-3f)
            << "seed " << seed << " lag " << lag;
        // Renormalization invariant: the front max is exactly zero after
        // every decoded window.
        EXPECT_EQ(dec.front_logp_max(), 0.0f);
      }
      dec.poll(out);
    }
    dec.finish(out);
    const std::vector<Vec2> want = oracle.finish();
    ASSERT_EQ(out.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].x, want[i].x) << "seed " << seed << " pos " << i;
      EXPECT_EQ(out[i].y, want[i].y) << "seed " << seed << " pos " << i;
    }
  }
}

TEST(ExpandKernelParity, RecognitionAccuracyEqualUnderBothKernels) {
  // The fig. 13 (letters) / fig. 18 (words) metric end to end, small reps:
  // the full pipeline -- synthesis, RFID sim, tracking, classification --
  // must score exactly what the scalar reference scored on these trials
  // (5/8 letters, 9/10 words; recorded with the reference kernel in the
  // decode path, which the pipeline has no seam to swap back in).
  eval::TrialConfig cfg;
  cfg.seed = 99;
  eval::apply_system_layout(cfg);
  EXPECT_EQ(eval::letter_accuracy("AOXU", 2, cfg), 0.625);
  EXPECT_EQ(eval::word_accuracy(2, 1, cfg), 0.9);
}

TEST(ExpandKernel, NonUnitDirectionDecodesLikeItsNormalizedSelf) {
  // The emission's half-plane threshold and perpendicular-distance scale
  // are in meters, so MotionEstimate::direction must be unit length; the
  // kernel enforces it. Scaling every direction by 4 (a power of two, so
  // the renormalization is FP-exact) must change nothing -- in the
  // production decoder and in the oracle alike.
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  cfg.beam_width = 200;
  TrackObservation right;
  right.direction.type = MotionType::kTranslational;
  right.direction.direction = Vec2{1.0, 0.0};
  right.distance.lower_m = 0.004;
  right.distance.upper_m = 0.01;
  right.distance.valid = true;
  right.has_phase = false;
  TrackObservation up = right;
  up.direction.direction = Vec2{0.0, 1.0};
  std::vector<TrackObservation> unit_obs;
  for (int i = 0; i < 12; ++i) unit_obs.push_back(i % 3 == 2 ? up : right);
  std::vector<TrackObservation> scaled_obs = unit_obs;
  for (auto& o : scaled_obs) {
    o.direction.direction =
        Vec2{o.direction.direction.x * 4.0, o.direction.direction.y * 4.0};
  }

  const Vec2 a1{0.1, 0.35}, a2{0.3, 0.35};
  const Vec2 start{0.1, 0.15};
  const HmmTracker hmm(cfg, a1, a2, 0.12);
  const auto decoded = hmm.decode(unit_obs, &start);
  expect_bit_identical(hmm.decode(scaled_obs, &start), decoded);
  OracleDecoder unit_oracle(cfg, a1, a2, 0.12, 64, &start);
  OracleDecoder scaled_oracle(cfg, a1, a2, 0.12, 64, &start);
  for (std::size_t i = 0; i < unit_obs.size(); ++i) {
    unit_oracle.push(unit_obs[i]);
    scaled_oracle.push(scaled_obs[i]);
  }
  const auto oracle_decoded = unit_oracle.finish();
  expect_bit_identical(scaled_oracle.finish(), oracle_decoded);
  expect_bit_identical(decoded, oracle_decoded);
}

// ---------------------------------------------------------------------------
// GenerationScoreboard (the oracle's per-cell tables)
// ---------------------------------------------------------------------------
TEST(Scoreboard, PutGetContains) {
  GenerationScoreboard<std::int32_t> board(8);
  EXPECT_EQ(board.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(board.contains(i));
  board.put(3, 42);
  EXPECT_TRUE(board.contains(3));
  EXPECT_EQ(board.get(3), 42);
  EXPECT_FALSE(board.contains(2));
  board.put(3, 7);
  EXPECT_EQ(board.get(3), 7);
}

TEST(Scoreboard, ClearInvalidatesWithoutTouchingStorage) {
  GenerationScoreboard<std::int32_t> board(64);
  for (std::size_t i = 0; i < 64; ++i) board.put(i, static_cast<int>(i));
  board.clear();
  for (std::size_t i = 0; i < 64; ++i) EXPECT_FALSE(board.contains(i));
  // Re-population after clear behaves like a fresh board.
  board.put(10, 5);
  EXPECT_TRUE(board.contains(10));
  EXPECT_EQ(board.get(10), 5);
  EXPECT_FALSE(board.contains(11));
}

TEST(Scoreboard, ManyGenerationsStayIsolated) {
  GenerationScoreboard<std::int32_t> board(4);
  for (int gen = 0; gen < 10000; ++gen) {
    const std::size_t cell = static_cast<std::size_t>(gen) % 4;
    board.put(cell, gen);
    EXPECT_TRUE(board.contains(cell));
    EXPECT_EQ(board.get(cell), gen);
    board.clear();
    EXPECT_FALSE(board.contains(cell));
  }
}

TEST(Scoreboard, ResizeResetsEverything) {
  GenerationScoreboard<double> board(2);
  board.put(0, 1.5);
  board.resize(16);
  EXPECT_EQ(board.size(), 16u);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FALSE(board.contains(i));
  board.put(15, 2.5);
  EXPECT_DOUBLE_EQ(board.get(15), 2.5);
}

TEST(GenerationScoreboard, CounterWrapFallsBackToFullWipe) {
  GenerationScoreboard<std::int32_t> sb(8);
  sb.put(3, 42);
  EXPECT_TRUE(sb.contains(3));

  // Jump to the last pre-wrap generation: entries written now carry the
  // max stamp, and the next clear() wraps the counter to 0 -- which must
  // trigger the full stamp wipe, or those entries would alias as live
  // once the counter climbs back to their stamp value.
  sb.debug_set_generation(0xFFFFFFFFu);
  sb.put(5, 7);
  EXPECT_TRUE(sb.contains(5));
  EXPECT_EQ(sb.get(5), 7);

  sb.clear();  // wraps: ++gen == 0 -> wipe, gen = 1
  for (std::size_t cell = 0; cell < sb.size(); ++cell) {
    EXPECT_FALSE(sb.contains(cell)) << "cell " << cell;
  }
  // The scoreboard is fully usable after the wipe.
  sb.put(5, 9);
  EXPECT_TRUE(sb.contains(5));
  EXPECT_EQ(sb.get(5), 9);
  sb.clear();
  EXPECT_FALSE(sb.contains(5));
}

}  // namespace
}  // namespace polardraw::core
