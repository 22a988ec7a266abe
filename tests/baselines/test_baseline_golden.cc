// Baseline trajectory golden: fixed-seed Tagoram-4 and RF-IDraw-4 word
// trials through eval::run_trial, every trajectory coordinate's bit
// pattern folded into one FNV-1a hash. The pinned values were captured
// before the grid decode engine was rewritten (DESIGN.md section 18), so
// any change to the baselines' arithmetic, tie order or survivor sets
// shows up here as a hash mismatch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>

#include "eval/harness.h"

namespace polardraw::eval {
namespace {

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffULL;
      h *= 0x100000001b3ULL;
    }
  }
};

struct Golden {
  std::uint64_t hash;
  std::size_t points;
};

Golden hash_trials(System system) {
  Fnv1a fnv;
  std::size_t points = 0;
  TrialConfig cfg;
  cfg.system = system;
  // Two word lengths, two lexicon words each; seeds counter-derived like
  // eval::word_accuracy's.
  std::uint64_t index = 0;
  for (const std::size_t len : {2u, 3u}) {
    for (const std::size_t word : {0u, 7u}) {
      cfg.seed = trial_seed(20161012, index++);
      const TrialResult res = run_trial(test_word(len, word), cfg);
      for (const Vec2& p : res.trajectory) {
        fnv.add(p.x);
        fnv.add(p.y);
      }
      points += res.trajectory.size();
    }
  }
  return {fnv.h, points};
}

TEST(BaselineGolden, Tagoram4TrajectoriesBitIdentical) {
  const Golden g = hash_trials(System::kTagoram4);
  EXPECT_EQ(g.points, 1721u);
  EXPECT_EQ(g.hash, 0xb841307d0377cb93ULL);
}

TEST(BaselineGolden, RfIdraw4TrajectoriesBitIdentical) {
  const Golden g = hash_trials(System::kRfIdraw4);
  EXPECT_EQ(g.points, 1721u);
  EXPECT_EQ(g.hash, 0x942df3d3df45b7b9ULL);
}

}  // namespace
}  // namespace polardraw::eval
