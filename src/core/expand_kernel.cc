#include "core/expand_kernel.h"

// polarlint: hot-path -- no node-based hash maps in the decode loop.

#include <algorithm>
#include <cmath>

#include "common/angles.h"

namespace polardraw::core {

namespace {
constexpr double kWeightFloor = 1e-6;  // keeps log-probabilities finite
const double kLogWeightFloor = std::log(kWeightFloor);
const double kLogQuarter = std::log(0.25);

// The row kernel body, written once and compiled into each build below.
// Every lane runs the same straight-line code: a masked lane (a hole, or a
// knife-edge lane outside the annulus) merges key 0 and kNoParent, which
// leave the destination unchanged. The scalar reference's arithmetic is
// kept operand for operand -- the same double sum and float rounding as
// ExpandKernel::merge, the same center-difference sqrt and comparisons as
// ExpandKernel::exact_annulus -- and vector add, sqrt and conversion round
// exactly like their scalar forms, so every build merges identical bits.
// The sqrt vectorizes only without errno (expand_kernel.cc is compiled with
// -fno-math-errno; errno is never read).
template <bool kKnife>
__attribute__((always_inline)) inline std::uint32_t merge_row_body(
    const double* __restrict__ plp, const std::uint32_t* __restrict__ parent,
    const double* __restrict__ hyper, std::uint64_t* __restrict__ key,
    std::uint32_t* __restrict__ first, std::size_t n, double disp_logw,
    const double* __restrict__ cx_src, const double* __restrict__ cx_dst,
    double ddy, double out_thresh_m, double quarter_block_m,
    double lower_m) {
  const double log_floor = kLogWeightFloor;
  std::uint32_t merged = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t p = parent[j];
    bool live = p != kNoParent;
    if constexpr (kKnife) {
      const double ddx = cx_src[j] - cx_dst[j];
      const double step_m = std::sqrt(ddx * ddx + ddy * ddy);
      live = live & !(step_m > out_thresh_m) &
             !(step_m + quarter_block_m < lower_m);
    }
    const float lp =
        static_cast<float>(plp[j] + std::max(hyper[j] + disp_logw, log_floor));
    const std::uint64_t k =
        (std::uint64_t{ordered_float_bits(lp)} << 32) | (kNoParent - p);
    // An all-ones mask for a live lane; applied arithmetically so the lane
    // stays straight-line code the vectorizer accepts.
    const std::uint64_t mask = 0 - static_cast<std::uint64_t>(live);
    key[j] = std::max(key[j], k & mask);
    first[j] = std::min(first[j], p | ~static_cast<std::uint32_t>(mask));
    merged += static_cast<std::uint32_t>(live);
  }
  return merged;
}

__attribute__((always_inline)) inline std::uint32_t merge_row_lanes(
    const MergeRow& r, const KnifeEdge* k) {
  if (k != nullptr) {
    return merge_row_body<true>(r.plp, r.parent, r.hyper, r.key, r.first, r.n,
                                r.disp_logw, k->cx_src, k->cx_dst, k->ddy,
                                k->out_thresh_m, k->quarter_block_m,
                                k->lower_m);
  }
  return merge_row_body<false>(r.plp, r.parent, r.hyper, r.key, r.first, r.n,
                               r.disp_logw, nullptr, nullptr, 0.0, 0.0, 0.0,
                               0.0);
}

std::uint32_t merge_row_portable(const MergeRow& row, const KnifeEdge* knife) {
  return merge_row_lanes(row, knife);
}

#if defined(__x86_64__) || defined(__i386__)
// The AVX2 build. GCC vectorizes nothing at -O2 here, so the build also
// enables -O3 for this function (clang vectorizes at -O2 and has no
// optimize attribute). No -march: the portable build stays runnable on any
// x86 CPU, and chosen_row_kernel() picks this build at run time.
#if defined(__clang__)
__attribute__((target("avx2")))
#else
__attribute__((target("avx2"), optimize("O3")))
#endif
std::uint32_t merge_row_avx2(const MergeRow& row, const KnifeEdge* knife) {
  return merge_row_lanes(row, knife);
}

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif
}  // namespace

RowKernel portable_row_kernel() { return {"portable", &merge_row_portable}; }

RowKernel avx2_row_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool supported = cpu_has_avx2();
  return {"avx2", supported ? &merge_row_avx2 : nullptr};
#else
  return {"avx2", nullptr};
#endif
}

RowKernel chosen_row_kernel() {
  const RowKernel avx2 = avx2_row_kernel();
  return avx2.fn != nullptr ? avx2 : portable_row_kernel();
}

ExpandKernel::ExpandKernel(const PolarDrawConfig& cfg, const PhaseField& field)
    : cfg_(cfg),
      field_(field),
      cols_(field.cols()),
      rows_(field.rows()),
      merge_row_(chosen_row_kernel().fn) {}

ExpandKernel::WindowTerms ExpandKernel::window_terms(
    const TrackObservation& o) const {
  WindowTerms w;
  // Feasible annulus in blocks. An invalid (inconsistent) distance
  // estimate degrades to "anywhere within the speed limit".
  w.lower_m = o.distance.valid ? o.distance.lower_m : 0.0;
  w.upper_m = std::max({o.distance.upper_m, w.lower_m, cfg_.block_m * 0.5});
  w.reach_blocks =
      std::max(1, static_cast<int>(std::ceil(w.upper_m / cfg_.block_m)));
  w.out_thresh_m = w.upper_m + 0.5 * cfg_.block_m;
  w.quarter_block_m = 0.25 * cfg_.block_m;
  w.use_hyper =
      cfg_.use_hyperbola_constraint && o.has_phase && o.distance.valid;
  w.meas_rad = w.use_hyper ? wrap_2pi(o.distance.dtheta21) : 0.0;
  w.use_dir = o.direction.type != MotionType::kIdle &&
              o.direction.direction.norm_sq() > 0.0;
  w.dir = o.direction.direction;
  if (w.use_dir) {
    // The half-plane test below compares rx*dir.x + ry*dir.y -- a dot
    // product scaled by |dir| -- against a threshold in meters, and the
    // perpendicular-distance term divides by dmax_m assuming |dir| = 1.
    // Every in-tree producer emits unit vectors, but the contract is
    // enforced here: a non-unit direction is normalized (the tolerance
    // leaves bit-exact already-normalized vectors untouched).
    const double n2 = w.dir.norm_sq();
    if (std::fabs(n2 - 1.0) > 1e-9) w.dir = w.dir / std::sqrt(n2);
  }
  w.dmax_m = std::max(o.distance.upper_m, cfg_.block_m);
  w.back_thresh_m = -0.25 * cfg_.block_m;
  w.idle_step_penalty =
      o.direction.type == MotionType::kIdle && w.upper_m > 0.0;
  return w;
}

void ExpandKernel::fill_dc_limits(const WindowTerms& w) {
  // Integer annulus bound: a candidate |dc| blocks away horizontally and
  // |dr| vertically is at least ~sqrt(dc^2+dr^2) blocks out, so columns
  // beyond this limit cannot pass the exact outer-radius test (the +1
  // absorbs block-center rounding). Rows stay within [-reach, reach], and
  // the limit never grows with |dr|.
  const int reach = w.reach_blocks;
  const double r_blocks = w.out_thresh_m / cfg_.block_m;
  dc_lim_.assign(static_cast<std::size_t>(reach) + 1, 0);
  for (int dr = 0; dr <= reach; ++dr) {
    const double rem = r_blocks * r_blocks - static_cast<double>(dr) * dr;
    dc_lim_[static_cast<std::size_t>(dr)] =
        rem <= 0.0 ? 0
                   : std::min(reach, static_cast<int>(std::sqrt(rem)) + 1);
  }
}

void ExpandKernel::fill_displacement_table(const WindowTerms& w) {
  const int reach = w.reach_blocks;
  const std::size_t t = 2 * static_cast<std::size_t>(reach) + 1;
  // Knife-edge displacements -- lattice distance within kEdgeEps of either
  // annulus threshold -- are re-tested lane by lane with the scalar
  // reference's exact center-difference arithmetic. This matters in
  // practice: upper_m is often an exact block multiple (vmax * window /
  // block integral), putting out_thresh_m dead on the lattice, where the
  // reference's position-dependent rounding noise (~1e-16) decides
  // acceptance cell by cell.
  constexpr double kEdgeEps = 1e-12;
  disp_logw_.assign(t * t, 0.0);
  disp_verdict_.assign(t * t, kRejected);
  for (int dr = -reach; dr <= reach; ++dr) {
    for (int dc = -reach; dc <= reach; ++dc) {
      const std::size_t idx = static_cast<std::size_t>(dr + reach) * t +
                              static_cast<std::size_t>(dc + reach);
      // Exact block-lattice displacement (the grid is uniform, so the
      // candidate-minus-previous center difference is dc/dr blocks up to
      // rounding; the table snaps to the lattice).
      const double rx = static_cast<double>(dc) * cfg_.block_m;
      const double ry = static_cast<double>(dr) * cfg_.block_m;
      const double step_m = std::sqrt(rx * rx + ry * ry);
      const bool edge =
          std::fabs(step_m - w.out_thresh_m) < kEdgeEps ||
          std::fabs(step_m + w.quarter_block_m - w.lower_m) < kEdgeEps;
      const bool valid = edge || (!(step_m > w.out_thresh_m) &&
                                  !(step_m + w.quarter_block_m < w.lower_m));
      if (!valid) continue;
      double logw = 0.0;
      if (w.use_dir) {
        const double perp = std::fabs(rx * w.dir.y - ry * w.dir.x);
        logw += std::log(std::max(1.0 - perp / w.dmax_m, kWeightFloor));
        if (rx * w.dir.x + ry * w.dir.y < w.back_thresh_m) {
          logw += kLogQuarter;
        }
      }
      if (w.idle_step_penalty) {
        const double frac = step_m / w.upper_m;
        logw += -cfg_.unobserved_step_penalty * frac * frac;
      }
      disp_logw_[idx] = logw;
      disp_verdict_[idx] = edge ? kKnifeEdge : kValid;
    }
  }
}

bool ExpandKernel::fill_box(const WindowTerms& w,
                            const std::vector<std::int32_t>& cells,
                            const std::vector<float>& logp,
                            std::size_t prev_begin, std::size_t prev_end,
                            ExpandStats& stats) {
  const int reach = w.reach_blocks;
  const int lim0 = dc_lim_[0];  // the widest column reach (|dr| = 0)
  const std::size_t n_par = prev_end - prev_begin;
  par_r_.resize(n_par);
  par_c_.resize(n_par);
  int pr_lo = rows_, pr_hi = -1, pc_lo = cols_, pc_hi = -1;
  for (std::size_t p = 0; p < n_par; ++p) {
    const int cell = cells[prev_begin + p];
    const int pr = cell / cols_;
    const int pc = cell - pr * cols_;
    par_r_[p] = pr;
    par_c_[p] = pc;
    pr_lo = std::min(pr_lo, pr);
    pr_hi = std::max(pr_hi, pr);
    pc_lo = std::min(pc_lo, pc);
    pc_hi = std::max(pc_hi, pc);
  }
  if (pr_hi < 0) return false;  // empty beam: nothing to expand

  box_r0_ = std::max(0, pr_lo - reach);
  box_c0_ = std::max(0, pc_lo - lim0);
  box_h_ = std::min(rows_ - 1, pr_hi + reach) - box_r0_ + 1;
  box_w_ = std::min(cols_ - 1, pc_hi + lim0) - box_c0_ + 1;
  const std::size_t box =
      static_cast<std::size_t>(box_h_) * static_cast<std::size_t>(box_w_);
  box_key_.assign(box, 0);
  box_first_.assign(box, kNoParent);
  hyper_logw_.resize(box);
  // Column extent of the parents in each box row; an empty row keeps a
  // sentinel extent so far off the board that every span it widens stays
  // empty after clipping.
  constexpr int kFar = 1 << 29;
  row_cmin_.assign(static_cast<std::size_t>(box_h_), kFar);
  row_cmax_.assign(static_cast<std::size_t>(box_h_), -kFar);
  dense_cmin_.assign(static_cast<std::size_t>(box_h_), kFar);
  dense_cmax_.assign(static_cast<std::size_t>(box_h_), -kFar);
  dense_par_.assign(box, kNoParent);
  dense_lp_.resize(box);  // a hole's value is read, but its lane is masked
  n_dense_ = 0;
  edge_parent_.clear();

  // Row extents, and the dense/edge split: an interior parent's whole
  // reach lies on the board. The dense rows hold one parent per cell; a
  // second parent on a taken cell (the kernel API allows duplicate cells)
  // takes the exact walk with the edge parents.
  for (std::size_t p = 0; p < n_par; ++p) {
    const int pr = par_r_[p];
    const int pc = par_c_[p];
    const auto br = static_cast<std::size_t>(pr - box_r0_);
    row_cmin_[br] = std::min(row_cmin_[br], pc);
    row_cmax_[br] = std::max(row_cmax_[br], pc);
    const auto b = br * static_cast<std::size_t>(box_w_) +
                   static_cast<std::size_t>(pc - box_c0_);
    if (pr >= reach && pr + reach < rows_ && pc >= lim0 &&
        pc + lim0 < cols_ && dense_par_[b] == kNoParent) {
      dense_par_[b] = static_cast<std::uint32_t>(p);
      dense_lp_[b] = static_cast<double>(logp[prev_begin + p]);
      dense_cmin_[br] = std::min(dense_cmin_[br], pc);
      dense_cmax_[br] = std::max(dense_cmax_[br], pc);
      ++n_dense_;
    } else {
      edge_parent_.push_back(static_cast<std::uint32_t>(p));
    }
  }
  segments_.clear();
  for (int br = 0; br < box_h_; ++br) {
    const auto i = static_cast<std::size_t>(br);
    if (dense_cmin_[i] > dense_cmax_[i]) continue;
    segments_.push_back(
        {br, dense_cmin_[i] - box_c0_,
         static_cast<std::size_t>(dense_cmax_[i] - dense_cmin_[i]) + 1});
  }

  // Per-row column spans touched by the beam (bounding the hyperbola
  // precompute to a superset of the candidate set): box row br is reached
  // from the parent rows br - dr, |dr| <= reach, each widened by its
  // column reach dc_lim_[|dr|]. min/max commute with the constant shift and
  // the board clip, so this is the per-parent union row for row.
  span_lo_.resize(static_cast<std::size_t>(box_h_));
  span_hi_.resize(static_cast<std::size_t>(box_h_));
  for (int br = 0; br < box_h_; ++br) {
    int lo = kFar, hi = -kFar;
    const int dr_lo = std::max(-reach, br - (box_h_ - 1));
    const int dr_hi = std::min(reach, br);
    for (int dr = dr_lo; dr <= dr_hi; ++dr) {
      const int lim = dc_lim_[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
      const auto src = static_cast<std::size_t>(br - dr);
      lo = std::min(lo, row_cmin_[src] - lim);
      hi = std::max(hi, row_cmax_[src] + lim);
    }
    span_lo_[static_cast<std::size_t>(br)] = std::max(0, lo);
    span_hi_[static_cast<std::size_t>(br)] = std::min(cols_ - 1, hi);
  }

  const double inv_4pi = 1.0 / (4.0 * kPi);
  const double sharp = cfg_.hyperbola_sharpness;
  for (int br = 0; br < box_h_; ++br) {
    const int lo = span_lo_[static_cast<std::size_t>(br)];
    const int hi = span_hi_[static_cast<std::size_t>(br)];
    if (lo > hi) continue;
    double* out = &hyper_logw_[static_cast<std::size_t>(br * box_w_ + lo -
                                                        box_c0_)];
    const std::size_t len = static_cast<std::size_t>(hi - lo) + 1;
    if (!w.use_hyper) {
      std::fill(out, out + len, 0.0);
      continue;
    }
    const double* phase = field_.phase_row(box_r0_ + br) + lo;
    stats.hyper_cells += len;
    // Branchless circular distance: phase and meas both live in [0, 2*pi),
    // so the circular distance is min(|d|, 2*pi - |d|). log(term^sharp)
    // = sharp * log(term), so the reference's pow disappears.
    for (std::size_t i = 0; i < len; ++i) {
      const double d = std::fabs(phase[i] - w.meas_rad);
      const double mismatch = std::min(d, kTwoPi - d);
      const double term = std::max(1.0 - mismatch * inv_4pi, kWeightFloor);
      out[i] = sharp * std::log(term);
    }
  }
  return true;
}

bool ExpandKernel::exact_annulus(const WindowTerms& w, int pr, int pc, int nr,
                                 int nc) const {
  const double ddx = field_.center_x(pc) - field_.center_x(nc);
  const double ddy = field_.center_y(pr) - field_.center_y(nr);
  const double step_m = std::sqrt(ddx * ddx + ddy * ddy);
  return !(step_m > w.out_thresh_m) &&
         !(step_m + w.quarter_block_m < w.lower_m);
}

inline void ExpandKernel::merge(std::size_t box_cell, double plp,
                                double disp_logw, std::uint32_t parent) {
  // The weight floor clamps the finite log-weight sum (exactly
  // log(max(weight, floor)) up to reassociation). The packed key's max is
  // the reference's "strictly greater wins, ties go to the earliest
  // parent", independent of visiting order; first-touch is a plain min.
  const float lp = static_cast<float>(
      plp + std::max(hyper_logw_[box_cell] + disp_logw, kLogWeightFloor));
  const std::uint64_t key =
      (std::uint64_t{ordered_float_bits(lp)} << 32) | (kNoParent - parent);
  box_key_[box_cell] = std::max(box_key_[box_cell], key);
  box_first_[box_cell] = std::min(box_first_[box_cell], parent);
}

void ExpandKernel::expand(const TrackObservation& o,
                          const std::vector<std::int32_t>& node_cell,
                          const std::vector<float>& node_logp,
                          std::size_t prev_begin, std::size_t prev_end,
                          std::vector<std::int32_t>& cand_cell,
                          std::vector<float>& cand_logp,
                          std::vector<std::int32_t>& cand_parent,
                          ExpandStats& stats) {
  cand_cell.clear();
  cand_logp.clear();
  cand_parent.clear();
  const WindowTerms w = window_terms(o);
  fill_dc_limits(w);
  if (!fill_box(w, node_cell, node_logp, prev_begin, prev_end, stats)) return;
  fill_displacement_table(w);
  const int reach = w.reach_blocks;
  const std::size_t t = 2 * static_cast<std::size_t>(reach) + 1;
  const double* const cx = field_.centers_x() + box_c0_;

  // Dense parents, displacement-major: each box row's parent extent runs
  // through the row kernel as one segment src -> src + off, and a rejected
  // displacement costs one add. Every lane a segment reads lies in its
  // destination row's hyperbola span (DESIGN.md section 14).
  for (int dr = -reach; dr <= reach; ++dr) {
    const int lim = dc_lim_[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
    for (int dc = -lim; dc <= lim; ++dc) {
      const std::size_t d = static_cast<std::size_t>(dr + reach) * t +
                            static_cast<std::size_t>(dc + reach);
      if (disp_verdict_[d] == kRejected) {
        stats.annulus_rejected += n_dense_;
        continue;
      }
      const bool knife = disp_verdict_[d] == kKnifeEdge;
      std::uint64_t merged = 0;
      for (const Segment& seg : segments_) {
        const auto src = static_cast<std::size_t>(seg.row * box_w_ + seg.col);
        const auto dst = static_cast<std::size_t>(
            (seg.row + dr) * box_w_ + seg.col + dc);
        const MergeRow row{&dense_lp_[src],   &dense_par_[src],
                           &hyper_logw_[dst], &box_key_[dst],
                           &box_first_[dst],  seg.len,
                           disp_logw_[d]};
        if (knife) {
          const int pr = box_r0_ + seg.row;
          const KnifeEdge mask{cx + seg.col,
                               cx + seg.col + dc,
                               field_.center_y(pr) - field_.center_y(pr + dr),
                               w.out_thresh_m,
                               w.quarter_block_m,
                               w.lower_m};
          merged += merge_row_(row, &mask);
        } else {
          merged += merge_row_(row, nullptr);
        }
      }
      stats.expansions += merged;
      stats.annulus_rejected += n_dense_ - merged;
    }
  }

  // Edge parents: the reference's per-lane walk over the board-clipped
  // reach.
  for (const std::uint32_t p : edge_parent_) {
    const int pr = par_r_[p];
    const int pc = par_c_[p];
    const double plp = static_cast<double>(node_logp[prev_begin + p]);
    const int dr_lo = std::max(-reach, -pr);
    const int dr_hi = std::min(reach, rows_ - 1 - pr);
    for (int dr = dr_lo; dr <= dr_hi; ++dr) {
      const int lim = dc_lim_[static_cast<std::size_t>(dr < 0 ? -dr : dr)];
      const int dc_lo = std::max(-lim, -pc);
      const int dc_hi = std::min(lim, cols_ - 1 - pc);
      const int row = (pr + dr - box_r0_) * box_w_ + pc - box_c0_;
      for (int dc = dc_lo; dc <= dc_hi; ++dc) {
        const std::size_t d = static_cast<std::size_t>(dr + reach) * t +
                              static_cast<std::size_t>(dc + reach);
        if (disp_verdict_[d] == kRejected ||
            (disp_verdict_[d] == kKnifeEdge &&
             !exact_annulus(w, pr, pc, pr + dr, pc + dc))) {
          ++stats.annulus_rejected;
          continue;
        }
        ++stats.expansions;
        merge(static_cast<std::size_t>(row + dc), plp, disp_logw_[d], p);
      }
    }
  }

  // Emission in first-touch order. The reference appends a cell when its
  // lowest valid parent first reaches it, and each parent walks its reach
  // in raster order, so candidates are sorted by (first-touch parent,
  // raster index): a counting sort on the first-touch parent, filled by a
  // raster scan of the box.
  const std::size_t n_par = prev_end - prev_begin;
  const std::size_t box = box_key_.size();
  bucket_.assign(n_par + 1, 0);
  for (std::size_t i = 0; i < box; ++i) {
    if (box_key_[i] != 0) ++bucket_[box_first_[i] + 1];
  }
  for (std::size_t p = 0; p < n_par; ++p) bucket_[p + 1] += bucket_[p];
  const std::size_t n = bucket_[n_par];
  cand_cell.resize(n);
  cand_logp.resize(n);
  cand_parent.resize(n);
  for (int br = 0; br < box_h_; ++br) {
    const std::int32_t row_cell = (box_r0_ + br) * cols_ + box_c0_;
    const std::size_t row = static_cast<std::size_t>(br * box_w_);
    for (int bc = 0; bc < box_w_; ++bc) {
      const std::uint64_t key = box_key_[row + static_cast<std::size_t>(bc)];
      if (key == 0) continue;
      const std::size_t pos =
          bucket_[box_first_[row + static_cast<std::size_t>(bc)]]++;
      cand_cell[pos] = row_cell + bc;
      cand_logp[pos] =
          float_from_ordered_bits(static_cast<std::uint32_t>(key >> 32));
      cand_parent[pos] = static_cast<std::int32_t>(
          prev_begin + (kNoParent - static_cast<std::uint32_t>(key)));
    }
  }
}

}  // namespace polardraw::core
