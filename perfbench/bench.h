// Shared plumbing of the perfbench binary: options, the result every
// workload fills, clocks and small helpers. Workloads live in batch.cc
// (letters, baseline_words) and serve.cc (serve); main.cc dispatches.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Worker threads of every pool the benchmark drives: the caller plus
/// three workers.
constexpr int kThreads = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool pin = false;  // print the seed's pinned.inc line instead of a run
  std::string out_dir = ".bench_out";  // Perfetto traces (trace runs)
};

/// Units of the metrics BENCHMARK.json declares, by name: the end-to-end
/// set (--trace 0) and the per-layer set (--trace 1).
const std::map<std::string, std::string>& end_to_end_units();
const std::map<std::string, std::string>& per_layer_units();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `failed` counts operations (trials,
/// sessions, cross-layer checks) whose output check failed; every failure
/// also appends a line to `errors`, printed on stderr.
struct RunResult {
  double setup_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;

  /// Records a declared metric; its unit comes from the declaration.
  void add(const std::string& name, double value);
  /// Records 0 for per-layer metrics of layers this workload bypasses.
  void bypass(const std::vector<std::string>& names) {
    for (const std::string& n : names) add(n, 0.0);
  }
  void fail(const std::string& why, std::uint64_t n = 1) {
    failed += n;
    errors.push_back(why);
  }
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// One closed span read back from the program's tracer, in seconds since
/// the tracer epoch, with its first numeric arg (or -1).
struct TracedSpan {
  int thread = 0;
  double begin_s = 0.0;
  double end_s = 0.0;
  std::string name;
  double arg0 = -1.0;
};

/// Every complete ('X') event retained by the global tracer. Quiescence
/// required, like Tracer::snapshot().
std::vector<TracedSpan> traced_spans();

/// Writes the global tracer's Chrome trace JSON to `path` (creating its
/// directory); returns false on I/O failure.
bool write_trace(const std::string& path);

/// Ratio with a zero base reported as 0 (the layer did no work).
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run_batch(const Options& opt, RunResult& out);
int run_serve(const Options& opt, RunResult& out);

}  // namespace perfbench
