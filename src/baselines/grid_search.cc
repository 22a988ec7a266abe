#include "baselines/grid_search.h"

namespace polardraw::baselines::detail {

GridFrame make_frame(const GridConfig& cfg, const Vec2& start) {
  GridFrame g;
  g.cols = std::max(1, static_cast<int>(cfg.board_width_m / cfg.block_m));
  g.rows = std::max(1, static_cast<int>(cfg.board_height_m / cfg.block_m));
  g.c0 = std::clamp(static_cast<int>(start.x / cfg.block_m), 0, g.cols - 1);
  g.r0 = std::clamp(static_cast<int>(start.y / cfg.block_m), 0, g.rows - 1);
  g.block_m = cfg.block_m;

  // A negative speed limit would put even the stay-put move out of reach.
  const double upper = std::max(0.0, cfg.vmax_mps * cfg.window_s);
  g.radius_m = upper + 0.5 * cfg.block_m;
  const int reach =
      std::max(1, static_cast<int>(std::ceil(upper / cfg.block_m)));

  // A move's center-to-center distance differs from block_m * |(dr, dc)|
  // only by the rounding of the block centers, a few ulps of the board
  // size. Moves farther than `margin` from the radius are decided here;
  // the rest are knife-edge and keep the exact per-candidate test.
  const double margin =
      1e-9 * std::max({g.radius_m, cfg.board_width_m, cfg.board_height_m});
  for (int dr = -reach; dr <= reach; ++dr) {
    for (int dc = -reach; dc <= reach; ++dc) {
      const double len = cfg.block_m * std::hypot(dr, dc);
      if (len > g.radius_m + margin) continue;
      g.moves.push_back({dr, dc, len >= g.radius_m - margin});
    }
  }
  return g;
}

}  // namespace polardraw::baselines::detail
