// perfbench: the repo benchmark's binary. run.py builds it and runs
//
//   perfbench --workload <letters|baseline_words|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--setup-only] [--out-dir <dir>]
//   perfbench --workload <letters|baseline_words> --seed <n> --pin
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer ledger
// with --trace 1. --setup-only runs the workload's set-up and prints
// {"setup_s": ...}, so run.py can time set-up in fresh processes. The exit
// code is 0 only when every output check passed. --pin prints the seed's
// pinned.inc line, computed through the program's own accuracy helpers.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>

#include "bench.h"
#include "obs/tracer.h"

namespace perfbench {

// The metrics BENCHMARK.json declares, with their units. Every workload
// reports all of them; a layer a workload bypasses reports 0.
const std::map<std::string, std::string>& end_to_end_units() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},          {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},  {"latency_tail_ms", "ms"},
      {"accuracy", "fraction"},  {"hold_sim_p99_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return units;
}

const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = {
      {"ledger.trial_wall_s", "s"},
      {"handwriting.self_s", "s"},
      {"sim.self_s", "s"},
      {"rfid.read_yield", "fraction"},
      {"preprocess.self_s", "s"},
      {"preprocess.windows", "count"},
      {"phase_field.builds", "count"},
      {"phase_field.self_s", "s"},
      {"estimators.self_s", "s"},
      {"decode.self_s", "s"},
      {"decode.share", "fraction"},
      {"decode.windows", "count"},
      {"decode.windows_per_s", "1/s"},
      {"decode.expansions_per_window", "count"},
      {"decode.keep_frac", "fraction"},
      {"decode.annulus_reject_frac", "fraction"},
      {"decode.starved_windows", "count"},
      {"baselines.rfidraw.self_s", "s"},
      {"baselines.tagoram.self_s", "s"},
      {"baselines.share", "fraction"},
      {"recognition.self_s", "s"},
      {"pool.idle_frac", "fraction"},
      {"unattributed_frac", "fraction"},
      {"assoc.self_s", "s"},
      {"assoc.reports_per_s", "1/s"},
      {"assoc.empty_window_frac", "fraction"},
      {"server.ingest_self_s", "s"},
      {"server.pump_self_s", "s"},
      {"server.pool_idle_frac", "fraction"},
      {"server.mailbox_depth_max", "count"},
      {"server.backlog_growth", "s"},
      {"server.commit_before_close_frac", "fraction"},
      {"server.commit_p50_ms", "ms"},
      {"server.commit_p99_ms", "ms"},
      {"gen.late_p99_ms", "ms"},
      {"trace.overhead_frac", "fraction"},
      {"trace.dropped_events", "count"},
  };
  return units;
}

void RunResult::add(const std::string& name, double value) {
  for (const auto* units : {&end_to_end_units(), &per_layer_units()}) {
    const auto it = units->find(name);
    if (it != units->end()) {
      metrics.push_back({name, value, it->second});
      return;
    }
  }
  std::cerr << "perfbench: undeclared metric " << name << "\n";
  std::exit(2);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<TracedSpan> traced_spans() {
  std::vector<TracedSpan> out;
  for (const auto& t : polardraw::obs::Tracer::global().snapshot()) {
    for (const auto& e : t.events) {
      if (e.ph != 'X') continue;
      out.push_back({t.tid, e.ts_us * 1e-6, (e.ts_us + e.dur_us) * 1e-6,
                     e.name, e.args.empty() ? -1.0 : e.args.front().value});
    }
  }
  return out;
}

bool write_trace(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream os(path);
  if (!os) return false;
  polardraw::obs::Tracer::global().write_chrome_trace(os);
  return static_cast<bool>(os);
}

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload <letters|baseline_words|serve> "
               "--seed <n> --seconds <s> --trace <0|1> [--setup-only] "
               "[--out-dir <dir>]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--pin") {
      opt.pin = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) != "0";
    } else if (a == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return false;
    }
  }
  return have_workload && opt.seconds > 0.0;
}

void print_number(double v) { std::printf("%.17g", v); }

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  if (!parse(argc, argv, opt)) return usage();

  RunResult res;
  int rc = 0;
  if (opt.workload == "letters" || opt.workload == "baseline_words") {
    rc = run_batch(opt, res);
  } else if (opt.workload == "serve") {
    rc = run_serve(opt, res);
  } else {
    return usage();
  }
  if (rc != 0 || opt.pin) return rc;
  if (opt.setup_only) {
    std::printf("{\"setup_s\": ");
    print_number(res.setup_s);
    std::printf("}\n");
    return 0;
  }

  if (!opt.trace) {
    res.add("setup_s", res.setup_s);
    res.add("peak_rss_mb", peak_rss_mb());
  }
  const auto& expected = opt.trace ? per_layer_units() : end_to_end_units();
  std::set<std::string> got;
  for (const Metric& m : res.metrics) {
    if (!expected.count(m.name) || !got.insert(m.name).second) {
      std::cerr << "perfbench: unexpected or repeated metric " << m.name << "\n";
      return 2;
    }
    if (!std::isfinite(m.value)) res.fail("metric " + m.name + " is not finite");
  }
  if (got.size() != expected.size()) {
    for (const auto& [name, unit] : expected) {
      if (!got.count(name)) std::cerr << "perfbench: missing metric " << name << "\n";
    }
    return 2;
  }
  if (res.attempted == 0) res.fail("no operation attempted");
  for (const std::string& e : res.errors) std::cerr << "perfbench: " << e << "\n";

  const bool correct = res.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    print_number(std::isfinite(m.value) ? m.value : 0.0);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
