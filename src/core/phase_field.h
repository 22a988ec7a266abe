// Precomputed inter-antenna phase-difference field over the whiteboard grid.
// polarlint: hot-path -- no node-based hash maps in the decode loop.
//
// The antennas never move during a writing session, so the hyperbola field
// of Eq. 7 -- DistanceEstimator::expected_dtheta21 evaluated at every block
// center -- is a pure function of (antenna layout, grid). The trackers used
// to re-evaluate it (two sqrts plus a wrap) for every candidate block of
// every window; this cache computes the whole rows x cols table once and
// shares it across the HMM, Kalman, and particle trackers. The same
// precomputation trick is standard in hyperbolic-positioning systems with
// static anchor geometry.
//
// Stored per cell:
//   * the wrapped expected phase difference (bit-identical to calling
//     DistanceEstimator::expected_dtheta21 at the block center),
//   * the smooth path-length difference l2 - l1 (for interpolation: the
//     wrapped phase is discontinuous across 2*pi seams, the path difference
//     is not), and
//   * the analytic Jacobian d(phase)/d(x, y) the EKF linearizes against.
#pragma once

#include <cstddef>
#include <vector>

#include "common/vec.h"
#include "core/config.h"

namespace polardraw::core {

class PhaseField {
 public:
  /// Builds the field for one (antenna layout, grid) pair. Grid dimensions
  /// derive from the board extent and block size exactly as the HMM's.
  PhaseField(const PolarDrawConfig& cfg, Vec2 a1, Vec2 a2, double antenna_z);

  int cols() const { return cols_; }
  int rows() const { return rows_; }
  std::size_t cells() const { return phase_.size(); }
  double block_m() const { return block_m_; }
  Vec2 antenna1() const { return a1_; }
  Vec2 antenna2() const { return a2_; }
  double antenna_z() const { return antenna_z_; }

  /// Center of block (col, row), identical to HmmTracker::block_center.
  Vec2 block_center(int col, int row) const {
    return Vec2{cx_[static_cast<std::size_t>(col)],
                cy_[static_cast<std::size_t>(row)]};
  }
  double center_x(int col) const { return cx_[static_cast<std::size_t>(col)]; }
  double center_y(int row) const { return cy_[static_cast<std::size_t>(row)]; }
  /// The cols() column-center x coordinates, contiguous.
  const double* centers_x() const { return cx_.data(); }

  /// Expected wrapped phase difference at a block center; bit-identical to
  /// DistanceEstimator::expected_dtheta21(block_center(col, row), ...).
  double phase_at(int col, int row) const {
    return phase_[cell_index(col, row)];
  }
  double phase_at_cell(std::size_t cell) const { return phase_[cell]; }

  /// Contiguous row of wrapped expected phase differences (cols() values
  /// starting at column 0). The vector beam-expansion kernel streams these
  /// instead of doing per-cell lookups.
  const double* phase_row(int row) const {
    return &phase_[cell_index(0, row)];
  }

  /// Analytic Jacobian of the (unwrapped) expected phase difference with
  /// respect to board position, rad/m, at a block center.
  Vec2 jacobian_at(int col, int row) const {
    const std::size_t i = cell_index(col, row);
    return Vec2{jx_[i], jy_[i]};
  }

  /// Expected wrapped phase difference at an arbitrary board point, by
  /// bilinear interpolation of the smooth path-difference field (then
  /// scaled and wrapped). Points outside the grid clamp to the edge cells.
  double phase(const Vec2& p) const;

  /// Bilinearly interpolated Jacobian at an arbitrary board point.
  Vec2 jacobian(const Vec2& p) const;

  std::size_t cell_index(int col, int row) const {
    return static_cast<std::size_t>(row) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(col);
  }

 private:
  /// Bilinear weights for a board point: cell corner (c0, r0) + fractions.
  void locate(const Vec2& p, int& c0, int& r0, double& fx, double& fy) const;

  int cols_, rows_;
  double block_m_;
  double scale_;  // 4*pi / wavelength: path difference -> phase
  Vec2 a1_, a2_;
  double antenna_z_;
  std::vector<double> cx_, cy_;      // block-center coordinates per axis
  std::vector<double> phase_;        // wrapped expected dtheta21 per cell
  std::vector<double> delta_l_;      // l2 - l1 per cell (smooth)
  std::vector<double> jx_, jy_;      // d(phase)/dx, d(phase)/dy per cell
};

}  // namespace polardraw::core
