#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

Percentile percentile(std::vector<double> values, double p) {
  Percentile out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

bool tail_supported(const Percentile& pct, std::size_t min_beyond) {
  return pct.count > 0 && pct.beyond >= min_beyond;
}

BlockPercentile block_percentile(const std::vector<double>& values,
                                 std::size_t block, double p) {
  BlockPercentile out;
  if (block == 0) return out;
  std::vector<double> per_block;
  for (std::size_t b = 0; b + block <= values.size(); b += block) {
    const Percentile pct = percentile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(b),
                            values.begin() + static_cast<std::ptrdiff_t>(b + block)),
        p);
    per_block.push_back(pct.value);
    out.beyond = pct.beyond;
  }
  out.blocks = per_block.size();
  if (!per_block.empty()) out.value = percentile(per_block, 50.0).value;
  return out;
}

std::vector<SpanNode> build_span_forest(std::vector<Span> spans) {
  // Per thread, outer spans first: ascending begin, then descending end,
  // so a parent always precedes the children it contains.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.begin != b.begin) return a.begin < b.begin;
    return a.end > b.end;
  });
  std::vector<SpanNode> nodes(spans.size());
  std::vector<int> stack;
  // Direct children of each node, for the coverage union below.
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    nodes[i].span = std::move(spans[i]);
    const Span& s = nodes[i].span;
    if (i > 0 && nodes[i - 1].span.thread != s.thread) stack.clear();
    while (!stack.empty()) {
      const Span& top = nodes[static_cast<std::size_t>(stack.back())].span;
      if (s.begin >= top.begin && s.end <= top.end) break;
      stack.pop_back();
    }
    nodes[i].parent = stack.empty() ? -1 : stack.back();
    if (nodes[i].parent >= 0) {
      children[static_cast<std::size_t>(nodes[i].parent)].push_back(
          static_cast<int>(i));
    }
    stack.push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Span& s = nodes[i].span;
    // Children are visited in begin order; merge overlapping ones so time
    // two children both claim is subtracted once.
    double covered = 0.0;
    double run_begin = 0.0, run_end = 0.0;
    bool open = false;
    for (int c : children[i]) {
      const Span& cs = nodes[static_cast<std::size_t>(c)].span;
      const double b = std::max(cs.begin, s.begin);
      const double e = std::min(cs.end, s.end);
      if (e <= b) continue;
      if (open && b <= run_end) {
        run_end = std::max(run_end, e);
      } else {
        if (open) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
        open = true;
      }
    }
    if (open) covered += run_end - run_begin;
    nodes[i].self = (s.end - s.begin) - covered;
  }
  return nodes;
}

CommitLatencies attribute_commits(
    const std::vector<PumpRecord>& pumps,
    const std::map<std::uint64_t, std::vector<std::size_t>>& release,
    const std::vector<double>& due_s,
    const std::vector<std::size_t>& ingested_before_pump) {
  CommitLatencies out;
  std::map<std::uint64_t, std::size_t> seen;
  for (std::size_t k = 0; k < pumps.size(); ++k) {
    for (const auto& [session, count] : pumps[k].committed) {
      std::size_t& from = seen[session];
      const auto rel = release.find(session);
      for (std::size_t p = from; p < count; ++p) {
        if (rel == release.end() || p >= rel->second.size()) continue;
        const std::size_t r = rel->second[p];
        if (r >= due_s.size() || k >= ingested_before_pump.size() ||
            r >= ingested_before_pump[k]) {
          ++out.inconsistent;
          continue;
        }
        out.latency_s.push_back(pumps[k].end_s - due_s[r]);
      }
      from = std::max(from, count);
    }
  }
  return out;
}

double backlog_growth_s(const std::vector<LateSample>& samples) {
  if (samples.size() < 4) return 0.0;
  double t_min = samples.front().due_s, t_max = samples.front().due_s;
  for (const LateSample& s : samples) {
    t_min = std::min(t_min, s.due_s);
    t_max = std::max(t_max, s.due_s);
  }
  const double q = (t_max - t_min) / 4.0;
  std::vector<double> first, last;
  for (const LateSample& s : samples) {
    if (s.due_s <= t_min + q) first.push_back(s.late_s);
    if (s.due_s >= t_max - q) last.push_back(s.late_s);
  }
  if (first.empty() || last.empty()) return 0.0;
  return percentile(last, 50.0).value - percentile(first, 50.0).value;
}

bool step_sustained(const StepResult& step, const SustainedLimits& limits) {
  return step.commit_samples >= limits.min_samples &&
         step.commit_p99_s <= limits.p99_limit_s &&
         step.backlog_growth_s <= limits.max_growth_s;
}

int sustained_step(const std::vector<StepResult>& steps,
                   const SustainedLimits& limits) {
  int best = -1;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    if (!step_sustained(steps[i], limits)) break;
    best = static_cast<int>(i);
  }
  return best;
}

}  // namespace perfbench
