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
// The sweep is displacement-major over a dense box layout: interior beam
// parents (whose whole reach lies on the board) are scattered into box-sized
// log-prob and parent-offset rows, and each lattice displacement runs every
// box row's parent extent as one contiguous segment through a single row
// kernel. Displacements the table rejects are skipped outright; knife-edge
// displacements (lattice distance on an annulus threshold) feed the same
// kernel with the exact per-lane annulus mask. Edge parents, and a parent
// whose cell another parent already holds in the dense rows, take an exact
// per-lane walk. Lanes merge into a dense box of packed uint64 keys,
// (ordered logp bits << 32) | ~parent, whose max is the best-per-cell rule
// "strictly greater wins, ties go to the earliest parent" in any visiting
// order; a counting sort on each cell's first-touch parent then emits
// candidates in the historical first-touch order (ascending parent, then
// row, then column).
//
// The row kernel is compiled twice, as an AVX2 build and a portable build;
// the AVX2 build runs whenever the CPU supports it (DESIGN.md section 14).
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

/// A hole lane in a parent-offset row, and a box cell no parent reached.
inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

/// One contiguous row segment of the interior sweep. Lane j scores the
/// parent slot (plp[j], parent[j]) into the destination slot (hyper[j],
/// key[j], first[j]) with the displacement log-weight `disp_logw`:
/// key[j] = max(key[j], packed key) and first[j] = min(first[j],
/// parent[j]), the per-cell merge of ExpandKernel. A hole lane (parent[j]
/// == kNoParent) leaves its destination unchanged.
struct MergeRow {
  const double* plp = nullptr;
  const std::uint32_t* parent = nullptr;
  const double* hyper = nullptr;
  std::uint64_t* key = nullptr;
  std::uint32_t* first = nullptr;
  std::size_t n = 0;
  double disp_logw = 0.0;
};

/// Exact annulus mask of a knife-edge displacement: lane j merges only if
/// step = sqrt(ddx * ddx + ddy * ddy), with ddx = cx_src[j] - cx_dst[j],
/// passes !(step > out_thresh_m) && !(step + quarter_block_m < lower_m) --
/// the scalar reference's center-difference test, operand for operand.
struct KnifeEdge {
  const double* cx_src = nullptr;
  const double* cx_dst = nullptr;
  double ddy = 0.0;
  double out_thresh_m = 0.0;
  double quarter_block_m = 0.0;
  double lower_m = 0.0;
};

/// One build of the row kernel: merges `row`, masked by `knife` when it is
/// not null, and returns the number of lanes merged.
using MergeRowFn = std::uint32_t (*)(const MergeRow& row,
                                     const KnifeEdge* knife);

/// A named build of the row kernel.
struct RowKernel {
  const char* name = nullptr;
  MergeRowFn fn = nullptr;
};

/// The portable build, which runs on any CPU.
RowKernel portable_row_kernel();
/// The AVX2 build; `fn` is null when this binary has no AVX2 build or the
/// CPU cannot run it.
RowKernel avx2_row_kernel();
/// The build ExpandKernel runs: AVX2 when available, else portable. Chosen
/// once per process from the CPU.
RowKernel chosen_row_kernel();

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
  /// union of per-row column spans touched by the beam, scatters interior
  /// parents into the dense rows and lists the rest as edge parents.
  /// Returns false for an empty beam.
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
  const MergeRowFn merge_row_;

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
  // Dense parent rows (box-sized; a hole holds kNoParent), the column
  // extent of each box row's dense parents, and one segment per box row
  // that holds any.
  std::vector<double> dense_lp_;
  std::vector<std::uint32_t> dense_par_;
  std::vector<int> dense_cmin_, dense_cmax_;
  struct Segment {
    int row, col;  // box row and column of the first lane
    std::size_t len;
  };
  std::vector<Segment> segments_;
  std::size_t n_dense_ = 0;
  // Parents clipped by the board, or whose cell the dense rows already hold.
  std::vector<std::uint32_t> edge_parent_;
  std::vector<std::uint32_t> bucket_;       // counting-sort offsets
};

}  // namespace polardraw::core
