// Beam-expansion kernel: per-window candidate scoring for the Viterbi
// decode (Eq. 8 annulus transition + Eq. 11 hyperbola/direction emission).
//
// Extracted from StreamingDecoder::step so the scoring loop -- the
// throughput ceiling for batch eval, the session server, and batched
// multi-pen decode -- has one branch-free SoA implementation (DESIGN.md
// section 14). Two per-window precomputations make the inner loop
// transcendental-free: (1) the hyperbola log-weight is evaluated once per
// touched cell against contiguous PhaseField rows (log of the clamped term,
// so pow(term, sharpness) becomes sharpness * log(term)); (2) every
// displacement-dependent factor -- the exact annulus test, the direction
// line/half-plane terms, and the idle step penalty -- depends only on the
// integer block displacement (dc, dr), so it collapses into a
// (2*reach+1)^2 log-weight table with a per-displacement verdict.
//
// The sweep is displacement-major: for each (dr, dc) it scores every
// interior beam parent (whose whole reach lies on the board) in one
// contiguous pass, and skips displacements the table rejects outright.
// Edge parents and knife-edge displacements (lattice distance on an
// annulus threshold) take an exact per-lane path. Lanes merge into a dense
// box of packed uint64 keys, (ordered logp bits << 32) | ~parent, whose
// max is the best-per-cell rule "strictly greater wins, ties go to the
// earliest parent" in any visiting order; a counting sort on each cell's
// first-touch parent then emits candidates in the historical first-touch
// order (ascending parent, then row, then column).
//
// Tolerance (enforced against the scalar reference oracle in
// tests/core/expand_oracle.h): the candidate cells, parents, order and
// expansion/rejection counts are identical; log-probs agree up to FP
// reassociation of the log-weight sum (the oracle multiplies weights and
// takes one log per candidate).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/vec.h"
#include "core/config.h"
#include "core/hmm_tracker.h"
#include "core/phase_field.h"

namespace polardraw::core {

/// Order-preserving uint32 image of a float, with `-0.0f` canonicalized to
/// `+0.0f`: for non-NaN a, b, a < b <=> ordered_float_bits(a) <
/// ordered_float_bits(b), and a == b <=> the images are equal. Packed sort
/// keys (the kernel's per-cell merge, the decoder's prune) are built on it.
inline std::uint32_t ordered_float_bits(float f) {
  const auto u = std::bit_cast<std::uint32_t>(f + 0.0f);  // -0 -> +0
  return u ^ ((0u - (u >> 31)) | 0x80000000u);
}

/// Inverse of ordered_float_bits.
inline float float_from_ordered_bits(std::uint32_t o) {
  return std::bit_cast<float>(o ^ (((o >> 31) - 1u) | 0x80000000u));
}

/// Hot-loop tallies, accumulated across windows by the caller.
struct ExpandStats {
  std::uint64_t expansions = 0;
  std::uint64_t annulus_rejected = 0;
  /// Cells whose hyperbola log-weight was evaluated.
  std::uint64_t hyper_cells = 0;
};

class ExpandKernel {
 public:
  /// `field` must outlive the kernel (the decoder owns both).
  ExpandKernel(const PolarDrawConfig& cfg, const PhaseField& field);

  /// Scores every candidate cell reachable from the previous beam
  /// (arena nodes [prev_begin, prev_end) of `node_cell`/`node_logp`) for
  /// one window and appends the best candidate per cell to the `cand_*`
  /// arrays (cleared first). Parents are absolute arena indices.
  /// Candidates are emitted in first-touch traversal order (ascending
  /// parent, then row, then column).
  void expand(const TrackObservation& o,
              const std::vector<std::int32_t>& node_cell,
              const std::vector<float>& node_logp, std::size_t prev_begin,
              std::size_t prev_end, std::vector<std::int32_t>& cand_cell,
              std::vector<float>& cand_logp,
              std::vector<std::int32_t>& cand_parent, ExpandStats& stats);

 private:
  /// Per-window hoists, computed exactly as the historical in-loop hoists.
  struct WindowTerms {
    double lower_m = 0.0;
    double upper_m = 0.0;
    double out_thresh_m = 0.0;
    double quarter_block_m = 0.0;
    int reach_blocks = 1;
    bool use_hyper = false;
    double meas_rad = 0.0;
    bool use_dir = false;
    Vec2 dir;
    double dmax_m = 0.0;
    double back_thresh_m = 0.0;
    bool idle_step_penalty = false;
  };
  /// Annulus verdict of one lattice displacement.
  enum Verdict : unsigned char { kRejected, kValid, kKnifeEdge };

  WindowTerms window_terms(const TrackObservation& o) const;
  void fill_dc_limits(const WindowTerms& w);
  /// Builds the (2*reach+1)^2 displacement log-weight table (direction +
  /// idle terms) and its annulus verdicts.
  void fill_displacement_table(const WindowTerms& w);
  /// Sizes the reachable box, evaluates the hyperbola log-weight over the
  /// union of per-row column spans touched by the beam, and splits the
  /// beam into interior and edge parents. Returns false for an empty beam.
  bool fill_box(const WindowTerms& w, const std::vector<std::int32_t>& cells,
                const std::vector<float>& logp, std::size_t prev_begin,
                std::size_t prev_end, ExpandStats& stats);
  /// Exact center-difference annulus test of the scalar reference.
  bool exact_annulus(const WindowTerms& w, int pr, int pc, int nr,
                     int nc) const;
  /// Scores one lane and merges it into the box (order-independent).
  void merge(std::size_t box_cell, double plp, double disp_logw,
             std::uint32_t parent);

  const PolarDrawConfig cfg_;
  const PhaseField& field_;
  const int cols_, rows_;

  std::vector<int> dc_lim_;             // per-|dr| column reach
  std::vector<double> disp_logw_;       // (2r+1)^2 displacement log-weights
  std::vector<unsigned char> disp_verdict_;  // Verdict per displacement

  // --- Box scratch (the beam's reachable bounding box) --------------------
  int box_r0_ = 0, box_c0_ = 0, box_w_ = 0, box_h_ = 0;
  std::vector<int> par_r_, par_c_;          // parent row/column, decoded once
  std::vector<int> row_cmin_, row_cmax_;    // parent column extent per box row
  std::vector<int> span_lo_, span_hi_;      // touched columns per box row
  std::vector<double> hyper_logw_;          // per-cell hyperbola log-weight
  std::vector<std::uint64_t> box_key_;      // packed best key, 0 = empty
  std::vector<std::uint32_t> box_first_;    // first-touch parent offset
  // Interior parents (SoA): box index, log-prob and parent offset.
  std::vector<std::int32_t> in_box_;
  std::vector<double> in_logp_;
  std::vector<std::uint32_t> in_parent_;
  std::vector<std::uint32_t> edge_parent_;  // parents clipped by the board
  std::vector<std::uint32_t> bucket_;       // counting-sort offsets
};

}  // namespace polardraw::core
