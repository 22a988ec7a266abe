// Self-test of the benchmark's own metric code (metrics.h), on hand-built
// inputs whose answers are worked out in the comments. run.py runs it
// before every measurement; a failure stops the run.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "selftest: FAILED line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using namespace perfbench;

void test_percentile() {
  // 1..100 in scrambled order: p50 is the 50th smallest (50), with 50
  // samples beyond it; p90 is 90 with 10 beyond; p99 is 99 with 1.
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(static_cast<double>((i * 37) % 100 + 1));
  const Percentile p50 = percentile(v, 50.0);
  CHECK(p50.value == 50.0 && p50.count == 100 && p50.beyond == 50);
  const Percentile p90 = percentile(v, 90.0);
  CHECK(p90.value == 90.0 && p90.beyond == 10);
  CHECK(tail_supported(p90));
  const Percentile p99 = percentile(v, 99.0);
  CHECK(p99.value == 99.0 && p99.beyond == 1);
  CHECK(!tail_supported(p99));
  // A p99 is supported from 1000 samples on: rank 990, 10 beyond.
  std::vector<double> w(1000);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<double>(i);
  const Percentile w99 = percentile(w, 99.0);
  CHECK(w99.value == 989.0 && w99.beyond == 10 && tail_supported(w99));
  CHECK(!tail_supported(percentile(std::vector<double>(999, 1.0), 99.0)));
  // Nearest rank never interpolates, and small series clamp to the ends.
  CHECK(percentile({3.0}, 50.0).value == 3.0);
  CHECK(percentile({1.0, 2.0}, 50.0).value == 1.0);
  CHECK(percentile({1.0, 2.0}, 100.0).value == 2.0);
  CHECK(percentile({}, 50.0).count == 0);

  // Blocks of 100: three clean blocks (1..100 each) and one hit by a stall
  // (all 500). The per-block p99s are 99, 99, 500, 99 -> median 99; the
  // 30 samples past the last full block are dropped.
  std::vector<double> timed;
  for (int b = 0; b < 4; ++b) {
    for (int i = 1; i <= 100; ++i) timed.push_back(b == 2 ? 500.0 : i);
  }
  timed.insert(timed.end(), 30, 1000.0);
  const BlockPercentile bp = block_percentile(timed, 100, 99.0);
  CHECK(bp.blocks == 4 && bp.beyond == 1);
  CHECK(bp.value == 99.0);
  CHECK(block_percentile(timed, 1000, 99.0).blocks == 0);
}

void test_self_time() {
  // Thread 0: trial [0,10] holds synth [1,2] and track [3,9]; track holds
  // preprocess [3,4] and decode [5,8], and decode holds an inner span
  // [6,7] that must not be subtracted from track a second time.
  // Thread 1: an unrelated trial [0,4] with one child [1,2].
  std::vector<Span> spans = {
      {0, 5.0, 8.0, "decode", -1}, {0, 0.0, 10.0, "trial", 0},
      {0, 3.0, 9.0, "track", -1},  {0, 1.0, 2.0, "synth", -1},
      {0, 3.0, 4.0, "preprocess", -1}, {0, 6.0, 7.0, "inner", -1},
      {1, 0.0, 4.0, "trial", 1},   {1, 1.0, 2.0, "synth", -1},
  };
  const auto forest = build_span_forest(spans);
  auto find = [&](int thread, const std::string& name) -> const SpanNode& {
    for (const SpanNode& n : forest) {
      if (n.span.thread == thread && n.span.name == name) return n;
    }
    return forest.front();
  };
  CHECK(near(find(0, "trial").self, 10.0 - 1.0 - 6.0));  // 3
  CHECK(near(find(0, "track").self, 6.0 - 1.0 - 3.0));   // 2
  CHECK(near(find(0, "decode").self, 3.0 - 1.0));        // 2
  CHECK(near(find(0, "inner").self, 1.0));
  CHECK(near(find(1, "trial").self, 3.0));
  CHECK(forest[static_cast<std::size_t>(find(0, "inner").parent)].span.name ==
        "decode");
  CHECK(find(1, "synth").span.thread == 1 &&
        forest[static_cast<std::size_t>(find(1, "synth").parent)].span.thread ==
            1);

  // Overlapping children (clock quantization at a boundary) are merged:
  // [0,10] with children [1,4] and [3,5] covers 4, not 5.
  const auto overlap = build_span_forest(
      {{0, 0.0, 10.0, "p", -1}, {0, 1.0, 4.0, "a", -1}, {0, 3.0, 5.0, "b", -1}});
  CHECK(near(overlap[0].self, 6.0));

  // The ledger charges each node's self time to its layer; the layers of
  // a subtree add up to the root's duration.
  const Ledger l = ledger(
      forest, [](const SpanNode& n) { return n.span.name == "trial"; },
      [](const SpanNode& n, const SpanNode&) {
        return n.span.name == "inner" ? std::string("decode") : n.span.name;
      });
  CHECK(l.roots == 2 && near(l.root_s, 14.0));
  CHECK(near(l.self_s.at("decode"), 3.0));
  CHECK(near(l.self_s.at("synth"), 2.0));
  CHECK(near(l.self_s.at("trial"), 6.0));
  double sum = 0.0;
  for (const auto& [layer, s] : l.self_s) sum += s;
  CHECK(near(sum, l.root_s));
}

void test_commit_attribution() {
  // Reports due at 0, 1, 2, 3 s. Session 7's replay says positions 0 and 1
  // were released by report 1 and position 2 by report 3. The paced run
  // ingested reports 0-1 before pump 0 (ending at 1.5 s, session 7 at 2
  // commits) and reports 2-3 before pump 1 (ending at 3.25 s, 3 commits).
  const std::vector<double> due = {0.0, 1.0, 2.0, 3.0};
  const std::map<std::uint64_t, std::vector<std::size_t>> release = {
      {7, {1, 1, 3}}};
  std::vector<PumpRecord> pumps(2);
  pumps[0].end_s = 1.5;
  pumps[0].committed[7] = 2;
  pumps[1].end_s = 3.25;
  pumps[1].committed[7] = 3;
  const CommitLatencies c = attribute_commits(pumps, release, due, {2, 4});
  CHECK(c.inconsistent == 0);
  CHECK(c.latency_s.size() == 3);
  CHECK(near(c.latency_s[0], 0.5) && near(c.latency_s[1], 0.5) &&
        near(c.latency_s[2], 0.25));
  // A pump that returns a position before its release report was ingested
  // is an attribution error, counted and not timed.
  const CommitLatencies bad = attribute_commits(pumps, release, due, {1, 4});
  CHECK(bad.inconsistent == 2 && bad.latency_s.size() == 1);
  // Positions past the replay's pump-committed prefix came back at close
  // in the replay; they are not timed.
  const CommitLatencies tail =
      attribute_commits(pumps, {{7, {1}}}, due, {2, 4});
  CHECK(tail.latency_s.size() == 1 && tail.inconsistent == 0);
}

void test_sustained() {
  // Flat lateness: no growth. Lateness growing at 50 ms per second over a
  // 4 s step grows by the difference of the quarter medians; one stall in
  // the last quarter does not move its median.
  std::vector<LateSample> flat, growing;
  for (int i = 0; i <= 40; ++i) {
    const double t = 0.1 * i;
    flat.push_back({t, 0.001});
    growing.push_back({t, 0.05 * t});
  }
  CHECK(std::fabs(backlog_growth_s(flat)) < 1e-12);
  // Quarters: due in [0,1] -> median late 0.025; due in [3,4] -> 0.175.
  CHECK(std::fabs(backlog_growth_s(growing) - 0.15) < 1e-9);
  flat[38].late_s = 0.5;
  CHECK(std::fabs(backlog_growth_s(flat)) < 1e-12);

  const SustainedLimits lim{0.050, 0.010, 1000};
  std::vector<StepResult> steps = {
      {1000, 999, 0.004, 5000, 0.0},
      {2000, 1998, 0.006, 5000, 0.001},
      {4000, 3990, 0.020, 5000, 0.002},
      {8000, 5000, 0.900, 5000, 0.400},  // past the knee
      {16000, 5100, 0.010, 5000, 0.0},   // never counts after a failure
  };
  CHECK(sustained_step(steps, lim) == 2);
  // Too few samples to state a p99 fails the step.
  steps[1].commit_samples = 999;
  CHECK(sustained_step(steps, lim) == 0);
  steps[1].commit_samples = 5000;
  // Backlog growth alone fails a step whose p99 is within the limit.
  steps[2].backlog_growth_s = 0.011;
  CHECK(sustained_step(steps, lim) == 1);
  steps[0].commit_p99_s = 0.051;
  CHECK(sustained_step(steps, lim) == -1);
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_commit_attribution();
  test_sustained();
  if (g_failures != 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: ok\n");
  return 0;
}
