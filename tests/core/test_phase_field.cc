// Tests for the precomputed phase-difference field backing the Viterbi
// decode hot path.
#include "core/phase_field.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/angles.h"
#include "core/distance_estimator.h"

namespace polardraw::core {
namespace {

PolarDrawConfig small_config() {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.4;
  cfg.board_height_m = 0.3;
  cfg.block_m = 0.01;
  return cfg;
}

class PhaseFieldTest : public ::testing::Test {
 protected:
  PhaseFieldTest()
      : cfg_(small_config()),
        a1_{0.1, 0.35},
        a2_{0.3, 0.35},
        z_(0.12),
        field_(cfg_, a1_, a2_, z_) {}

  PolarDrawConfig cfg_;
  Vec2 a1_, a2_;
  double z_;
  PhaseField field_;
};

TEST_F(PhaseFieldTest, GridMatchesHmmDiscretization) {
  EXPECT_EQ(field_.cols(), 40);
  EXPECT_EQ(field_.rows(), 30);
  EXPECT_EQ(field_.cells(), 1200u);
  const Vec2 c = field_.block_center(0, 0);
  EXPECT_NEAR(c.x, 0.005, 1e-12);
  EXPECT_NEAR(c.y, 0.005, 1e-12);
}

TEST_F(PhaseFieldTest, CachedValuesBitIdenticalToDirectEvaluation) {
  const DistanceEstimator dist(cfg_);
  for (int r = 0; r < field_.rows(); ++r) {
    for (int c = 0; c < field_.cols(); ++c) {
      const Vec2 p = field_.block_center(c, r);
      // Exact equality: the cache must be a drop-in for the inline call.
      EXPECT_EQ(field_.phase_at(c, r),
                dist.expected_dtheta21(p, a1_, a2_, z_))
          << "cell (" << c << ", " << r << ")";
    }
  }
}

TEST_F(PhaseFieldTest, JacobianMatchesFiniteDifference) {
  // Differentiate the unwrapped field scale * (l2 - l1) numerically.
  const double scale = 4.0 * kPi / cfg_.wavelength_m;
  const auto unwrapped = [&](const Vec2& p) {
    const double l1 = std::sqrt((p - a1_).norm_sq() + z_ * z_);
    const double l2 = std::sqrt((p - a2_).norm_sq() + z_ * z_);
    return scale * (l2 - l1);
  };
  const double eps = 1e-6;
  for (int r = 2; r < field_.rows(); r += 7) {
    for (int c = 3; c < field_.cols(); c += 9) {
      const Vec2 p = field_.block_center(c, r);
      const Vec2 jac = field_.jacobian_at(c, r);
      const double nx =
          (unwrapped({p.x + eps, p.y}) - unwrapped({p.x - eps, p.y})) /
          (2.0 * eps);
      const double ny =
          (unwrapped({p.x, p.y + eps}) - unwrapped({p.x, p.y - eps})) /
          (2.0 * eps);
      EXPECT_NEAR(jac.x, nx, 1e-4 * std::max(1.0, std::fabs(nx)));
      EXPECT_NEAR(jac.y, ny, 1e-4 * std::max(1.0, std::fabs(ny)));
    }
  }
}

TEST_F(PhaseFieldTest, InterpolationExactAtCenters) {
  for (int r = 0; r < field_.rows(); r += 5) {
    for (int c = 0; c < field_.cols(); c += 5) {
      const Vec2 p = field_.block_center(c, r);
      EXPECT_NEAR(angle_dist(field_.phase(p), field_.phase_at(c, r)), 0.0,
                  1e-9);
    }
  }
}

TEST_F(PhaseFieldTest, InterpolationTracksDirectEvaluationOffGrid) {
  const DistanceEstimator dist(cfg_);
  // Off-center points inside the grid: bilinear interpolation of the
  // smooth path-difference field stays within a small fraction of the
  // per-cell phase change of the true value.
  for (double x = 0.031; x < 0.37; x += 0.047) {
    for (double y = 0.023; y < 0.27; y += 0.039) {
      const Vec2 p{x, y};
      const double direct = dist.expected_dtheta21(p, a1_, a2_, z_);
      EXPECT_LT(angle_dist(field_.phase(p), direct), 0.02)
          << "at (" << x << ", " << y << ")";
    }
  }
}

TEST_F(PhaseFieldTest, InterpolationClampsOutsideBoard) {
  // Outside points clamp to the edge cells instead of extrapolating.
  const double inside = field_.phase(field_.block_center(0, 0));
  EXPECT_NEAR(angle_dist(field_.phase({-0.5, -0.5}), inside), 0.0, 1e-9);
}

TEST_F(PhaseFieldTest, JacobianInterpolationMatchesCellValues) {
  const Vec2 p = field_.block_center(7, 9);
  const Vec2 at_cell = field_.jacobian_at(7, 9);
  const Vec2 interp = field_.jacobian(p);
  EXPECT_NEAR(interp.x, at_cell.x, 1e-9);
  EXPECT_NEAR(interp.y, at_cell.y, 1e-9);
}

TEST(PhaseFieldDegenerate, SingleCellGrid) {
  PolarDrawConfig cfg;
  cfg.board_width_m = 0.004;
  cfg.board_height_m = 0.004;
  cfg.block_m = 0.01;  // larger than the board: 1x1 grid
  const PhaseField field(cfg, {0.0, 0.1}, {0.1, 0.1}, 0.1);
  EXPECT_EQ(field.cols(), 1);
  EXPECT_EQ(field.rows(), 1);
  EXPECT_EQ(field.phase({0.002, 0.002}), field.phase_at(0, 0));
}

}  // namespace
}  // namespace polardraw::core
