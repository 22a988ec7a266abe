// The benchmark's own metric arithmetic, kept free of PolarDraw types so
// selftest.cc can pin it on hand-built inputs:
//
//   * nearest-rank percentiles that carry their sample count, so a tail
//     is only reported where at least ten samples lie beyond it;
//   * self time of a span as its duration minus the part of it that its
//     direct children cover, over per-thread span forests;
//   * open-loop commit latency, attributed from the report that released
//     a position (its due time) to the pump that returned it;
//   * the sustained-rate decision over a ladder of offered rates, with
//     backlog growth measured from generator lateness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// --- Percentiles -----------------------------------------------------------

/// A nearest-rank percentile and the sample it was taken from.
struct Percentile {
  double value = 0.0;
  std::size_t count = 0;   // samples in the series
  std::size_t beyond = 0;  // samples strictly above the selected rank
};

/// Nearest-rank percentile (p in (0, 100]): the ceil(p/100 * n)-th
/// smallest value. An empty series yields value 0 and count 0.
Percentile percentile(std::vector<double> values, double p);

/// True when the percentile has at least `min_beyond` samples beyond it
/// (the benchmark reports a tail only where this holds, min_beyond = 10).
bool tail_supported(const Percentile& pct, std::size_t min_beyond = 10);

/// A percentile taken per block and summarized by its median across
/// blocks: `values` (in time order) are cut into consecutive blocks of
/// `block` samples (a short last block is dropped) and the p-th
/// percentile of each block is taken. A stall that hits one block moves
/// that block's percentile, not the median across blocks.
struct BlockPercentile {
  double value = 0.0;      // median of the per-block percentiles
  std::size_t blocks = 0;
  std::size_t beyond = 0;  // samples beyond the percentile in each block
};
BlockPercentile block_percentile(const std::vector<double>& values,
                                 std::size_t block, double p);

// --- Span trees and self time ------------------------------------------------

/// One closed interval of work on one thread.
struct Span {
  int thread = 0;
  double begin = 0.0;
  double end = 0.0;
  std::string name;
  int tag = -1;  // caller-defined (e.g. the trial index of a root span)
};

/// A span with its place in its thread's forest and its self time.
struct SpanNode {
  Span span;
  int parent = -1;          // index into the returned vector, -1 for a root
  double self = 0.0;        // duration minus covered child time
};

/// Builds per-thread span forests (a span's parent is the innermost span
/// on the same thread that contains it) and computes every span's self
/// time as duration minus the union of its direct children's intervals
/// clipped to it. The identity sum(self over a subtree) == root duration
/// holds whenever children nest inside their parents.
std::vector<SpanNode> build_span_forest(std::vector<Span> spans);

/// Self time per layer over the subtrees of the spans `is_root` accepts.
/// `layer_of(node, root)` names the layer a node's self time is charged
/// to; nodes outside every accepted root are ignored.
struct Ledger {
  std::map<std::string, double> self_s;  // layer -> seconds
  double root_s = 0.0;                   // summed root durations
  std::size_t roots = 0;
};

template <typename IsRoot, typename LayerOf>
Ledger ledger(const std::vector<SpanNode>& forest, IsRoot is_root,
              LayerOf layer_of) {
  Ledger out;
  for (std::size_t i = 0; i < forest.size(); ++i) {
    // Find the nearest accepted root at or above this node.
    int r = static_cast<int>(i);
    while (r >= 0 && !is_root(forest[static_cast<std::size_t>(r)])) {
      r = forest[static_cast<std::size_t>(r)].parent;
    }
    if (r < 0) continue;
    const SpanNode& root = forest[static_cast<std::size_t>(r)];
    if (static_cast<int>(i) == r) {
      out.root_s += root.span.end - root.span.begin;
      ++out.roots;
    }
    out.self_s[layer_of(forest[i], root)] += forest[i].self;
  }
  return out;
}

// --- Open-loop commit latency ------------------------------------------------

/// One pump() of the serving loop, as seen by the generator: when it
/// returned and how many positions each session had committed by then.
struct PumpRecord {
  double end_s = 0.0;
  std::map<std::uint64_t, std::size_t> committed;  // session -> count
};

/// Commit latencies of every position committed by a pump: position p of
/// session s is released by report release[s][p] (from an unpaced replay
/// of the same stream), due at due_s[that report]; its latency is the
/// end of the first pump whose count for s exceeds p, minus that due
/// time. Positions whose release report is unknown, or that no pump
/// returned (they came back at close), are skipped; `inconsistent`
/// counts positions a pump returned before their release report was due
/// to have been ingested (a broken attribution, never a fast commit).
struct CommitLatencies {
  std::vector<double> latency_s;
  std::size_t inconsistent = 0;
};
CommitLatencies attribute_commits(
    const std::vector<PumpRecord>& pumps,
    const std::map<std::uint64_t, std::vector<std::size_t>>& release,
    const std::vector<double>& due_s,
    const std::vector<std::size_t>& ingested_before_pump);

// --- Sustained rate ------------------------------------------------------------

/// Generator lateness samples over one ladder step: (scheduled time of a
/// report relative to the step start, how late it was ingested).
struct LateSample {
  double due_s = 0.0;
  double late_s = 0.0;
};

/// Backlog growth over a step: median lateness over the last quarter of
/// the schedule minus the median over the first quarter, in seconds. A
/// step the server keeps up with has no growth beyond scheduling jitter
/// (medians ignore short stalls); above the knee lateness grows for as
/// long as the step lasts.
double backlog_growth_s(const std::vector<LateSample>& samples);

/// One measured ladder step.
struct StepResult {
  double offered_per_s = 0.0;   // scheduled windows per second
  double achieved_per_s = 0.0;  // windows decoded / step wall time
  double commit_p99_s = 0.0;       // median over blocks (block_percentile)
  std::size_t commit_samples = 0;  // commits timed over the step
  double backlog_growth_s = 0.0;
};

struct SustainedLimits {
  double p99_limit_s = 0.0;
  double max_growth_s = 0.0;
  std::size_t min_samples = 1000;  // a p99 needs >= 10 samples beyond it
};

/// True when the step meets the p99 limit (with enough samples to state a
/// p99) and its backlog did not grow.
bool step_sustained(const StepResult& step, const SustainedLimits& limits);

/// Index of the highest offered rate whose step, and every lower step,
/// was sustained (-1 when even the lowest step failed). Steps must be in
/// ascending offered-rate order.
int sustained_step(const std::vector<StepResult>& steps,
                   const SustainedLimits& limits);

}  // namespace perfbench
