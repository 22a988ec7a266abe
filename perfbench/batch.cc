// Batch workloads: closed-loop trials over one pool of kThreads threads.
//
//   letters         PolarDraw-2 letter trials, A-Z x kLetterReps. Decode
//                   dominates; the mechanism workload for decode, kernel
//                   and PhaseField changes.
//   baseline_words  the fig18 word protocol (lengths 2-5, ten lexicon
//                   words each, kWordReps reps) for RF-IDraw-4 and
//                   Tagoram-4 only. The baseline trackers do the work and
//                   no core/ decode runs.
//
// A run replays the workload's fixed trial set in whole passes until
// --seconds have elapsed. Every pass must reproduce the first one bit for
// bit, every trajectory must be non-empty and finite, and the first pass's
// correct-trial count must equal the count pinned for the seed
// (pinned.inc, produced by the program's own eval::letter_accuracy /
// eval::word_accuracy).
//
// The traced run (--trace 1) alternates untraced passes with passes that
// have the program's tracer and registry on, and charges each traced
// trial's wall time to layers by self time over the span tree under the
// benchmark's own "bench.trial" span (see README.md for the mapping).
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "eval/harness.h"
#include "metrics.h"
#include "obs/metrics.h"
#include "obs/tracer.h"

namespace perfbench {

namespace pd = polardraw;

namespace {

constexpr int kLetterReps = 8;
constexpr int kWordReps = 2;

struct PinnedCount {
  const char* workload;
  std::uint64_t seed;
  std::size_t correct;
  std::size_t total;
};
constexpr PinnedCount kPinned[] = {
#include "pinned.inc"
};

struct Workload {
  std::vector<pd::eval::TrialSpec> specs;
  std::vector<pd::eval::System> systems;  // the systems the specs use
};

/// Base seed of one (system, word length) group of baseline_words.
std::uint64_t word_group_seed(std::uint64_t seed, int system_index,
                              std::size_t len) {
  return pd::eval::trial_seed(seed, 16 * static_cast<std::uint64_t>(system_index) + len);
}

/// The trial set, built exactly as eval::letter_accuracy and
/// eval::word_accuracy build theirs so pinned counts come from them.
Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "letters") {
    pd::eval::TrialConfig cfg;
    cfg.system = pd::eval::System::kPolarDraw;
    cfg.seed = seed;
    for (char c = 'A'; c <= 'Z'; ++c) {
      for (int r = 0; r < kLetterReps; ++r) {
        pd::eval::TrialSpec spec{std::string(1, c), cfg};
        spec.cfg.seed = pd::eval::trial_seed(cfg.seed, w.specs.size());
        w.specs.push_back(std::move(spec));
      }
    }
    w.systems = {pd::eval::System::kPolarDraw};
    return w;
  }
  w.systems = {pd::eval::System::kRfIdraw4, pd::eval::System::kTagoram4};
  // Longest words first, so the pass ends on short trials and the pool's
  // tail idles less.
  for (std::size_t len = 5; len >= 2; --len) {
    for (int s = 0; s < 2; ++s) {
      pd::eval::TrialConfig cfg;
      cfg.system = w.systems[static_cast<std::size_t>(s)];
      cfg.seed = word_group_seed(seed, s, len);
      std::vector<pd::eval::TrialSpec> group;
      for (std::size_t i = 0; i < 10; ++i) {
        for (int r = 0; r < kWordReps; ++r) {
          pd::eval::TrialSpec spec{pd::eval::test_word(len, i), cfg};
          spec.cfg.seed = pd::eval::trial_seed(cfg.seed, group.size());
          group.push_back(std::move(spec));
        }
      }
      w.specs.insert(w.specs.end(), group.begin(), group.end());
    }
  }
  return w;
}

/// Correct-trial count of the workload at `seed` through the program's
/// own accuracy helpers (the source of pinned.inc).
std::size_t reference_correct(const std::string& name, std::uint64_t seed,
                              std::size_t* total) {
  std::vector<pd::eval::TrialResult> results;
  std::size_t correct = 0;
  *total = 0;
  auto count = [&](const std::vector<pd::eval::TrialResult>& rs) {
    for (const auto& r : rs) correct += r.all_correct ? 1 : 0;
    *total += rs.size();
  };
  if (name == "letters") {
    pd::eval::TrialConfig cfg;
    cfg.seed = seed;
    pd::eval::letter_accuracy("ABCDEFGHIJKLMNOPQRSTUVWXYZ", kLetterReps, cfg,
                              nullptr, kThreads, &results);
    count(results);
    return correct;
  }
  const pd::eval::System systems[2] = {pd::eval::System::kRfIdraw4,
                                       pd::eval::System::kTagoram4};
  for (std::size_t len = 2; len <= 5; ++len) {
    for (int s = 0; s < 2; ++s) {
      pd::eval::TrialConfig cfg;
      cfg.system = systems[s];
      cfg.seed = word_group_seed(seed, s, len);
      pd::eval::word_accuracy(len, kWordReps, cfg, &results, kThreads);
      count(results);
    }
  }
  return correct;
}

struct TrialOut {
  double wall_s = 0.0;
  bool all_correct = false;
  bool valid = false;
  std::uint64_t hash = 0;
  std::size_t positions = 0;
};

std::uint64_t hash_trajectory(const std::vector<pd::Vec2>& traj,
                              const std::string& recognized) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const pd::Vec2& v : traj) {
    mix(&v.x, sizeof v.x);
    mix(&v.y, sizeof v.y);
  }
  mix(recognized.data(), recognized.size());
  return h;
}

struct Pass {
  double wall_s = 0.0;
  std::vector<TrialOut> trials;
};

/// One pass over the trial set on the pool. With `tracing`, each trial is
/// wrapped in a "bench.trial" span (arg: trial index) on its thread.
Pass run_pass(pd::ThreadPool& pool, const Workload& w, bool tracing) {
  static const pd::obs::TraceName trial_name("bench.trial");
  static const pd::obs::TraceName arg_trial("trial");
  Pass pass;
  pass.trials.resize(w.specs.size());
  const auto start = Clock::now();
  pool.parallel_for(w.specs.size(), [&](std::size_t i) {
    const auto t0 = Clock::now();
    const pd::eval::TrialResult r =
        pd::eval::run_trial(w.specs[i].text, w.specs[i].cfg);
    const auto t1 = Clock::now();
    if (tracing) {
      pd::obs::Tracer::global().complete(trial_name.id(), t0, t1, arg_trial.id(),
                                         static_cast<double>(i));
    }
    TrialOut& o = pass.trials[i];
    o.wall_s = seconds_between(t0, t1);
    o.all_correct = r.all_correct;
    o.positions = r.trajectory.size();
    o.valid = !r.trajectory.empty() &&
              std::all_of(r.trajectory.begin(), r.trajectory.end(),
                          [](const pd::Vec2& v) {
                            return std::isfinite(v.x) && std::isfinite(v.y);
                          });
    o.hash = hash_trajectory(r.trajectory, r.recognized);
  });
  pass.wall_s = seconds_between(start, Clock::now());
  return pass;
}

/// Runs passes until `seconds` have elapsed (at least one).
std::vector<Pass> run_passes(pd::ThreadPool& pool, const Workload& w,
                             double seconds, bool tracing) {
  std::vector<Pass> passes;
  double elapsed = 0.0;
  while (passes.empty() || elapsed < seconds) {
    passes.push_back(run_pass(pool, w, tracing));
    elapsed += passes.back().wall_s;
  }
  return passes;
}

/// Output checks over every pass; returns the first pass's correct count.
std::size_t check_passes(const std::string& name, std::uint64_t seed,
                         const std::vector<Pass>& passes, RunResult& out) {
  const std::vector<TrialOut>& first = passes.front().trials;
  std::size_t correct = 0;
  for (const TrialOut& t : first) correct += t.all_correct ? 1 : 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    out.attempted += passes[p].trials.size();
    for (std::size_t i = 0; i < passes[p].trials.size(); ++i) {
      const TrialOut& t = passes[p].trials[i];
      if (!t.valid) {
        out.fail("trial " + std::to_string(i) + " of pass " + std::to_string(p) +
                 ": empty or non-finite trajectory");
      } else if (p > 0 && (t.hash != first[i].hash ||
                           t.all_correct != first[i].all_correct)) {
        out.fail("trial " + std::to_string(i) + " of pass " + std::to_string(p) +
                 " differs from pass 0");
      }
    }
  }
  for (const PinnedCount& pin : kPinned) {
    if (name != pin.workload || seed != pin.seed) continue;
    if (pin.total != first.size() || pin.correct != correct) {
      out.fail("accuracy " + std::to_string(correct) + "/" +
                   std::to_string(first.size()) + " differs from the pinned " +
                   std::to_string(pin.correct) + "/" + std::to_string(pin.total),
               correct > pin.correct ? correct - pin.correct : pin.correct - correct);
    }
    return correct;
  }
  std::fprintf(stderr, "perfbench: seed %llu of %s has no pinned accuracy; "
                       "only determinism and trajectory checks apply\n",
               static_cast<unsigned long long>(seed), name.c_str());
  return correct;
}

struct Setup {
  Workload workload;
  std::unique_ptr<pd::ThreadPool> pool;
};

/// The process-level one-offs: the trial set, the pool's threads, and the
/// program's lazily built statics (classifier templates, stroke font),
/// which an empty-text trial per system builds without tracking anything.
Setup set_up(const Options& opt) {
  Setup s;
  s.workload = make_workload(opt.workload, opt.seed);
  s.pool = std::make_unique<pd::ThreadPool>(kThreads);
  for (pd::eval::System sys : s.workload.systems) {
    pd::eval::TrialConfig cfg;
    cfg.system = sys;
    pd::eval::run_trial("", cfg);
  }
  return s;
}

std::string track_layer(pd::eval::System sys) {
  switch (sys) {
    case pd::eval::System::kRfIdraw4: return "baselines.rfidraw";
    case pd::eval::System::kTagoram4:
    case pd::eval::System::kTagoram2: return "baselines.tagoram";
    default: return "phase_field";
  }
}

/// Ledger layer of a program span inside a trial.
std::string layer_of(const std::string& name, pd::eval::System sys) {
  static const std::map<std::string, std::string> kLayers = {
      {"eval.stage.synth", "handwriting"},
      {"eval.stage.reader", "sim"},
      {"rfid.inventory", "sim"},
      {"core.preprocess", "preprocess"},
      {"core.rotation_step", "estimators"},
      {"core.translation_step", "estimators"},
      {"core.distance_estimate", "estimators"},
      {"core.hmm_decode", "decode"},
      {"eval.stage.classify", "recognition"},
      {"recognition.classify", "recognition"},
  };
  if (name == "eval.stage.track") return track_layer(sys);
  const auto it = kLayers.find(name);
  return it == kLayers.end() ? "unattributed" : it->second;
}

void add_end_to_end(const std::vector<Pass>& passes, std::size_t correct,
                    double window_s, RunResult& out) {
  double wall = 0.0;
  std::size_t trials = 0;
  std::vector<double> lat_ms;
  for (const Pass& p : passes) {
    wall += p.wall_s;
    trials += p.trials.size();
    for (const TrialOut& t : p.trials) lat_ms.push_back(1e3 * t.wall_s);
  }
  std::vector<double> hold_ms;
  for (const TrialOut& t : passes.front().trials) {
    hold_ms.push_back(1e3 * window_s * static_cast<double>(t.positions));
  }
  const Percentile p50 = percentile(lat_ms, 50.0);
  const Percentile p90 = percentile(lat_ms, 90.0);
  if (!tail_supported(p90)) {
    out.fail("too few trials (" + std::to_string(p90.count) + ") for a p90");
  }
  std::string walls;
  for (const Pass& p : passes) walls += " " + std::to_string(p.wall_s);
  std::fprintf(stderr, "perfbench: %zu trials in %zu passes (s:%s); latency "
                       "p50 and p90 over %zu samples\n",
               trials, passes.size(), walls.c_str(), p90.count);
  out.add("throughput_per_s", ratio(static_cast<double>(trials), wall));
  out.add("latency_p50_ms", p50.value);
  out.add("latency_tail_ms", p90.value);
  out.add("accuracy",
          ratio(static_cast<double>(correct),
                static_cast<double>(passes.front().trials.size())));
  out.add("hold_sim_p99_ms", percentile(hold_ms, 99.0).value);
}

void add_ledger(const Workload& w, const std::vector<Pass>& untraced,
                const std::vector<Pass>& traced, const Ledger& ledger,
                const pd::obs::Snapshot& snap, std::uint64_t dropped,
                RunResult& out) {
  const double trials = static_cast<double>(ledger.roots);
  auto self = [&](const std::string& layer) {
    const auto it = ledger.self_s.find(layer);
    return it == ledger.self_s.end() ? 0.0 : it->second;
  };
  auto per_trial = [&](double v) { return ratio(v, trials); };
  auto counter = [&](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  double traced_wall = 0.0, trial_sum = 0.0;
  std::size_t track_builds = 0;
  for (const Pass& p : traced) {
    traced_wall += p.wall_s;
    for (std::size_t i = 0; i < p.trials.size(); ++i) {
      trial_sum += p.trials[i].wall_s;
      track_builds += w.specs[i].cfg.system == pd::eval::System::kPolarDraw;
    }
  }
  // Tracing overhead: summed trial wall time, traced passes vs the
  // untraced passes they alternate with.
  double on = 0.0, off = 0.0;
  for (std::size_t p = 0; p < traced.size(); ++p) {
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
      on += traced[p].trials[i].wall_s;
      off += untraced[p].trials[i].wall_s;
    }
  }
  const double windows = counter("hmm.windows");
  const double expansions = counter("hmm.beam_expansions");
  const double decode_s = self("decode");
  out.add("ledger.trial_wall_s", per_trial(ledger.root_s));
  out.add("handwriting.self_s", per_trial(self("handwriting")));
  out.add("sim.self_s", per_trial(self("sim")));
  out.add("rfid.read_yield",
          ratio(counter("rfid.reports"), counter("rfid.interrogations")));
  out.add("preprocess.self_s", per_trial(self("preprocess")));
  out.add("preprocess.windows", per_trial(counter("preprocess.windows")));
  out.add("phase_field.builds", per_trial(static_cast<double>(track_builds)));
  out.add("phase_field.self_s", per_trial(self("phase_field")));
  out.add("estimators.self_s", per_trial(self("estimators")));
  out.add("decode.self_s", per_trial(decode_s));
  out.add("decode.share", ratio(decode_s, ledger.root_s));
  out.add("decode.windows", per_trial(windows));
  out.add("decode.windows_per_s", ratio(windows, decode_s));
  out.add("decode.expansions_per_window", ratio(expansions, windows));
  out.add("decode.keep_frac", ratio(counter("hmm.beam_nodes"), expansions));
  out.add("decode.annulus_reject_frac",
          ratio(counter("hmm.annulus_rejected"),
                counter("hmm.annulus_rejected") + expansions));
  out.add("decode.starved_windows", per_trial(counter("hmm.starved_windows")));
  const double rfidraw = self("baselines.rfidraw");
  const double tagoram = self("baselines.tagoram");
  out.add("baselines.rfidraw.self_s", per_trial(rfidraw));
  out.add("baselines.tagoram.self_s", per_trial(tagoram));
  out.add("baselines.share", ratio(rfidraw + tagoram, ledger.root_s));
  out.add("recognition.self_s", per_trial(self("recognition")));
  out.add("pool.idle_frac", 1.0 - ratio(trial_sum, traced_wall * kThreads));
  out.add("unattributed_frac", ratio(self("unattributed"), ledger.root_s));
  // Batch trials bypass the serving path.
  out.bypass({"assoc.self_s", "assoc.reports_per_s", "assoc.empty_window_frac",
              "server.ingest_self_s", "server.pump_self_s",
              "server.pool_idle_frac", "server.mailbox_depth_max",
              "server.backlog_growth", "server.commit_before_close_frac",
              "server.commit_p50_ms", "server.commit_p99_ms",
              "gen.late_p99_ms"});
  out.add("trace.overhead_frac", ratio(on, off) - 1.0);
  out.add("trace.dropped_events", static_cast<double>(dropped));

  // Cross-layer accounting: every window preprocess produced was decoded.
  if (counter("preprocess.windows") != windows) {
    out.fail("preprocess.windows " + std::to_string(counter("preprocess.windows")) +
             " != hmm.windows " + std::to_string(windows));
  }
  // The ledger covers every traced trial, and its layers add up to them.
  double layers = 0.0;
  for (const auto& [layer, s] : ledger.self_s) layers += s;
  if (ledger.roots != traced.size() * w.specs.size()) {
    out.fail("ledger saw " + std::to_string(ledger.roots) + " trials of " +
             std::to_string(traced.size() * w.specs.size()));
  }
  if (std::fabs(layers - ledger.root_s) > 1e-6 * std::max(1.0, ledger.root_s)) {
    out.fail("ledger layers do not add up to trial wall time");
  }
  if (dropped != 0) out.fail("tracer dropped " + std::to_string(dropped) + " events");
}

}  // namespace

int run_batch(const Options& opt, RunResult& out) {
  if (opt.pin) {
    // Maintenance mode: print this seed's pinned.inc line.
    std::size_t total = 0;
    const std::size_t correct = reference_correct(opt.workload, opt.seed, &total);
    std::printf("{\"%s\", %llu, %zu, %zu},\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), correct, total);
    return 0;
  }
  pd::obs::Tracer& tracer = pd::obs::Tracer::global();
  pd::obs::Registry& registry = pd::obs::Registry::global();
  tracer.set_enabled(false);
  registry.set_enabled(false);

  const auto t0 = Clock::now();
  Setup s = set_up(opt);
  out.setup_s = seconds_between(t0, Clock::now());
  if (opt.setup_only) return 0;
  const double window_s = pd::core::PolarDrawConfig{}.window_s;

  // Warm-up, untimed: a few trials per thread, so the first timed pass
  // does not pay for cold caches and allocator growth.
  s.pool->parallel_for(std::min<std::size_t>(s.workload.specs.size(), 2 * kThreads),
                       [&](std::size_t i) {
                         pd::eval::run_trial(s.workload.specs[i].text,
                                             s.workload.specs[i].cfg);
                       });

  if (!opt.trace) {
    const std::vector<Pass> passes =
        run_passes(*s.pool, s.workload, opt.seconds, false);
    const std::size_t correct = check_passes(opt.workload, opt.seed, passes, out);
    add_end_to_end(passes, correct, window_s, out);
    return 0;
  }

  // Traced run: untraced and traced passes alternate, so host drift hits
  // both sides of the overhead ratio alike.
  std::vector<Pass> untraced, traced;
  Ledger total;
  std::uint64_t dropped = 0;
  double elapsed = 0.0;
  tracer.reset();
  registry.reset();
  while (traced.empty() || elapsed < opt.seconds) {
    // Every other pair runs its traced pass first, so drift over the run
    // does not favour either side.
    const bool untraced_first = traced.size() % 2 == 0;
    if (untraced_first) untraced.push_back(run_pass(*s.pool, s.workload, false));
    tracer.set_enabled(true);
    registry.set_enabled(true);
    traced.push_back(run_pass(*s.pool, s.workload, true));
    tracer.set_enabled(false);
    registry.set_enabled(false);
    if (!untraced_first) untraced.push_back(run_pass(*s.pool, s.workload, false));
    elapsed += untraced.back().wall_s + traced.back().wall_s;
    // The pass has joined, so the tracer is quiescent: fold its spans
    // into the ledger and clear the rings for the next pass.
    dropped += tracer.dropped_events();
    if (traced.size() == 1) {
      const std::string path = opt.out_dir + "/" + opt.workload + "-seed" +
                               std::to_string(opt.seed) + ".trace.json";
      if (write_trace(path)) std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
    }
    std::vector<Span> spans;
    for (const TracedSpan& t : traced_spans()) {
      spans.push_back({t.thread, t.begin_s, t.end_s, t.name,
                       t.name == "bench.trial" ? static_cast<int>(t.arg0) : -1});
    }
    const Ledger l = ledger(
        build_span_forest(std::move(spans)),
        [](const SpanNode& n) { return n.span.name == "bench.trial"; },
        [&](const SpanNode& n, const SpanNode& root) {
          if (&n == &root) return std::string("unattributed");
          return layer_of(n.span.name,
                          s.workload.specs[static_cast<std::size_t>(root.span.tag)]
                              .cfg.system);
        });
    for (const auto& [layer, v] : l.self_s) total.self_s[layer] += v;
    total.root_s += l.root_s;
    total.roots += l.roots;
    tracer.reset();
  }
  // Tracing only observes: traced passes must match untraced ones too.
  std::vector<Pass> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  check_passes(opt.workload, opt.seed, all, out);
  add_ledger(s.workload, untraced, traced, total, registry.snapshot(), dropped, out);
  return 0;
}

}  // namespace perfbench
