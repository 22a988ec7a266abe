// serve: the multi-pen ingest path fed open loop.
//
// Set-up (timed as setup_s): 16 pens in 4 lanes each write one lexicon
// word; one reader (one Scene, one antenna pair, as the SessionServer
// assumes) runs Scene::run per pen, the reports get the pen's EPC and start
// offset (a lane's pens follow one another, so sessions open and close
// mid-stream), and the pens' streams are interleaved by timestamp. The SessionServer,
// with its PhaseField and kThreads-thread pool, is built once here.
//
// Unpaced replays (not part of set-up): every report is pushed through
// TagTrackAssociator::push -> SessionServer::ingest -> pump() on its own.
// The first is the reference: per session, which report released each
// committed position, the committed prefix and the close() trajectory.
// Then four shards, each its own SessionServer, replay the stream unpaced
// at once, one per thread, and time each commit's compute latency (push of
// the releasing report to the end of the pump that returned it): the
// end-to-end latency.
//
// Open loop: the stream is replayed against a fixed wall-clock schedule,
// time-compressed to an offered rate in windows per second, on the calling
// thread: due reports go through push -> ingest -> pump(). The ladder of
// offered rates runs upward until a step misses the p99 limit or its
// backlog grows; the highest sustained step gives the sustained rate. The
// traced run measures the open-loop commit latency at the nominal rate,
// from the due time of the report that released a commit to the end of the
// pump that returned it. Every replay must reproduce the reference's
// committed prefixes and close() trajectories bit for bit (the server's
// pacing-independence contract).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "common/seed.h"
#include "common/thread_pool.h"
#include "core/association.h"
#include "core/hmm_tracker.h"
#include "core/phase_field.h"
#include "eval/harness.h"
#include "handwriting/synthesizer.h"
#include "metrics.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "server/session_server.h"
#include "sim/scene.h"

namespace perfbench {

namespace pd = polardraw;

namespace {

// Pens write in kLanes lanes of kPensPerLane pens: a lane's next pen
// starts kGapS after the previous one's last read (past the associator's
// 1 s idle close), so about kLanes sessions are open at any time while
// sessions open and close throughout the stream.
constexpr int kLanes = 4;
constexpr int kPensPerLane = 4;
constexpr double kLaneOffsetS = 2.5;  // sim seconds between lane starts
constexpr double kGapS = 1.5;
constexpr double kAntennaZ = 0.12;  // as eval::run_trial's tracker
// Offered windows per second, ascending and 2x apart; the first is the
// nominal rate. On a 4-vCPU x86-64 VM the server keeps up with 3000 and
// never with 6000 (once congested it drains only 2.1-3k windows/s), so the
// knee stays inside one step. Finer steps put the knee on a step edge, and
// the sustained rate then flips between neighbouring rates from run to run.
constexpr double kLadder[] = {1500, 3000, 6000, 12000};
constexpr std::size_t kNominal = 0;
constexpr double kP99LimitS = 0.250;
// Commit latencies are summarized per block of this many consecutive
// commits (a p99 per block has 10 samples beyond it), then by the median
// over blocks, so a host stall that hits one block does not decide a step.
constexpr std::size_t kBlock = 1000;
constexpr double kMaxGrowthS = 0.020;
constexpr double kAgreementM = 0.02;  // see lag_agreement()

struct Stream {
  pd::rfid::TagReportStream reports;  // interleaved, time-ordered
  std::vector<double> t_rel_s;        // sim time since the first report
  double sim_windows = 0.0;           // sum of pen durations / window
  double handwriting_s = 0.0;
  double sim_s = 0.0;
};

struct Setup {
  pd::eval::TrialConfig cfg;  // scene + algorithm configs (PolarDraw-2)
  Stream stream;
  pd::core::PhaseCalibration cal;
  std::vector<pd::Vec2> antennas;
  std::unique_ptr<pd::server::SessionServer> server;
  double server_build_s = 0.0;
};

Setup set_up(const Options& opt) {
  Setup s;
  s.cfg.system = pd::eval::System::kPolarDraw;
  s.cfg.seed = pd::splitmix64(opt.seed, 0x5E7E);
  pd::eval::apply_system_layout(s.cfg);
  s.cfg.scene.seed = s.cfg.seed;
  pd::sim::Scene scene(s.cfg.scene);
  pd::Rng rng(s.cfg.seed);
  std::vector<double> lane_free(kLanes, 0.0);
  for (int pen = 0; pen < kLanes * kPensPerLane; ++pen) {
    const int lane = pen % kLanes;
    // A fixed word list (lengths 2-5 in turn); the seed drives the
    // handwriting and the reader's noise.
    const std::string word = pd::eval::test_word(
        2 + static_cast<std::size_t>(pen % 4), static_cast<std::size_t>(pen / 4));
    pd::handwriting::SynthesisConfig synth;
    synth.user = pd::handwriting::user_style(1 + pen % 4);
    const auto t0 = Clock::now();
    const auto trace = pd::handwriting::synthesize(word, synth, rng);
    const auto t1 = Clock::now();
    auto reports = scene.run(trace);
    s.stream.handwriting_s += seconds_between(t0, t1);
    s.stream.sim_s += seconds_between(t1, Clock::now());
    if (reports.empty()) continue;
    const double begin = pen < kLanes ? kLaneOffsetS * lane : lane_free[lane] + kGapS;
    const double shift = begin - reports.front().timestamp_s;
    for (auto& r : reports) {
      r.epc = 0xB0u + static_cast<std::uint32_t>(pen);
      r.timestamp_s += shift;
    }
    lane_free[lane] = reports.back().timestamp_s;
    s.stream.sim_windows +=
        (reports.back().timestamp_s - reports.front().timestamp_s) /
        s.cfg.algo.window_s;
    s.stream.reports.insert(s.stream.reports.end(), reports.begin(), reports.end());
  }
  std::stable_sort(s.stream.reports.begin(), s.stream.reports.end(),
                   [](const pd::rfid::TagReport& a, const pd::rfid::TagReport& b) {
                     return a.timestamp_s < b.timestamp_s;
                   });
  for (const auto& r : s.stream.reports) {
    s.stream.t_rel_s.push_back(r.timestamp_s - s.stream.reports.front().timestamp_s);
  }
  s.cal.port_offsets_rad = scene.reader().port_phase_offsets();
  s.antennas = scene.antenna_board_positions();
  pd::server::SessionServerConfig scfg;
  scfg.n_workers = kThreads;
  const auto t0 = Clock::now();
  s.server = std::make_unique<pd::server::SessionServer>(
      s.cfg.algo, s.antennas[0], s.antennas[1], kAntennaZ, scfg);
  s.server_build_s = seconds_between(t0, Clock::now());
  return s;
}

using SessionId = pd::server::SessionId;

/// What one replay of the stream produced, per session.
struct SessionOut {
  std::vector<pd::Vec2> committed;        // positions pump() returned
  std::vector<std::size_t> release;       // releasing report (unpaced only)
  std::vector<double> obs_t_s;            // window time of each observation
  std::vector<pd::core::TrackObservation> obs;
  std::vector<pd::Vec2> closed;           // close() trajectory
  bool was_closed = false;
};

struct Replay {
  std::map<SessionId, SessionOut> sessions;
  std::vector<PumpRecord> pumps;
  std::vector<std::size_t> ingested_before_pump;
  std::vector<LateSample> late;  // one per report
  std::vector<double> due_s;     // per report, seconds since replay start
  double wall_s = 0.0;
  double assoc_s = 0.0, ingest_s = 0.0, pump_s = 0.0;
  std::size_t observations = 0;
};

/// Tracer span names of the calls the benchmark times on its thread.
struct SpanNames {
  pd::obs::TraceName assoc{"bench.assoc"};
  pd::obs::TraceName ingest{"bench.ingest"};
  pd::obs::TraceName pump{"bench.pump"};
};

/// Replays the stream once through a fresh associator into `server`.
/// `speedup` <= 0 replays unpaced (every report ingested and pumped on
/// its own); otherwise report i is due at start + t_rel[i] / speedup and
/// everything due is ingested, then pumped, together.
Replay replay(const Setup& s, pd::server::SessionServer& server, double speedup,
              bool tracing) {
  static const SpanNames names;
  pd::obs::Tracer& tracer = pd::obs::Tracer::global();
  const Stream& st = s.stream;
  const std::size_t n = st.reports.size();
  pd::core::TagTrackAssociator assoc(s.cfg.algo, {}, &s.cal);
  Replay out;
  out.due_s.resize(n);
  out.late.resize(n);
  std::set<SessionId> open;
  std::vector<pd::core::PenEvent> events;
  std::vector<pd::server::SessionServer::ClosedSession> closed;
  const auto start = Clock::now();
  auto since = [&](Clock::time_point t) { return seconds_between(start, t); };

  auto note_events = [&](const std::vector<pd::core::PenEvent>& evs) {
    for (const auto& ev : evs) {
      if (ev.type == pd::core::PenEventType::kOpen) {
        open.insert(ev.session_id);
        out.sessions[ev.session_id];
      } else if (ev.type == pd::core::PenEventType::kObservation) {
        SessionOut& so = out.sessions[ev.session_id];
        so.obs_t_s.push_back(ev.t_s);
        so.obs.push_back(ev.obs);
      }
    }
  };
  auto ingest = [&](std::size_t ingested) {
    const auto t0 = Clock::now();
    out.observations += server.ingest(events, &closed);
    const auto t1 = Clock::now();
    const std::size_t committed = server.pump();
    const auto t2 = Clock::now();
    (void)committed;
    out.ingest_s += seconds_between(t0, t1);
    out.pump_s += seconds_between(t1, t2);
    if (tracing) {
      tracer.complete(names.ingest.id(), t0, t1);
      tracer.complete(names.pump.id(), t1, t2);
    }
    for (auto& c : closed) {
      SessionOut& so = out.sessions[c.id];
      so.closed = std::move(c.trajectory);
      so.was_closed = true;
      open.erase(c.id);
    }
    closed.clear();
    PumpRecord rec;
    rec.end_s = since(t2);
    for (SessionId id : open) {
      const auto& c = server.committed(id);
      SessionOut& so = out.sessions[id];
      if (c.size() == so.committed.size()) continue;
      for (std::size_t p = so.committed.size(); p < c.size(); ++p) {
        so.committed.push_back(c[p]);
        so.release.push_back(ingested - 1);
      }
      rec.committed[id] = c.size();
    }
    if (!rec.committed.empty()) {
      out.pumps.push_back(std::move(rec));
      out.ingested_before_pump.push_back(ingested);
    }
    events.clear();
  };

  std::size_t i = 0;
  while (i < n) {
    const auto now = Clock::now();
    std::size_t j = i;
    if (speedup > 0.0) {
      const double ahead = st.t_rel_s[i] / speedup - since(now);
      // Spin rather than sleep until the next report is due: a sleeping
      // thread's wake-up can overshoot by milliseconds on a busy host,
      // which would read as generator lateness and commit latency.
      if (ahead > 0.0) continue;
    }
    do {
      out.due_s[j] = speedup > 0.0 ? st.t_rel_s[j] / speedup : since(now);
      const auto t0 = Clock::now();
      const std::vector<pd::core::PenEvent> evs = assoc.push(st.reports[j]);
      const auto t1 = Clock::now();
      out.assoc_s += seconds_between(t0, t1);
      if (tracing) tracer.complete(names.assoc.id(), t0, t1);
      out.late[j] = {out.due_s[j], since(t0) - out.due_s[j]};
      note_events(evs);
      events.insert(events.end(), evs.begin(), evs.end());
      ++j;
    } while (j < n && speedup > 0.0 && st.t_rel_s[j] / speedup <= since(now));
    ingest(j);
    i = j;
  }
  const auto t0 = Clock::now();
  events = assoc.flush();
  out.assoc_s += seconds_between(t0, Clock::now());
  note_events(events);
  ingest(n);
  out.wall_s = since(Clock::now());
  return out;
}

/// The reference's release report of each pump-committed position, by
/// session.
std::map<std::uint64_t, std::vector<std::size_t>> release_map(const Replay& ref) {
  std::map<std::uint64_t, std::vector<std::size_t>> release;
  for (const auto& [id, so] : ref.sessions) release[id] = so.release;
  return release;
}

bool same_bits(const std::vector<pd::Vec2>& a, const std::vector<pd::Vec2>& b,
               std::size_t count) {
  if (a.size() < count || b.size() < count) return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(pd::Vec2)) != 0) return false;
  }
  return true;
}

/// Checks a paced replay against the unpaced reference; every session is
/// one attempted operation.
void check_replay(const Replay& ref, const Replay& got, RunResult& out) {
  out.attempted += ref.sessions.size();
  if (got.sessions.size() != ref.sessions.size()) {
    out.fail("replay opened " + std::to_string(got.sessions.size()) +
             " sessions, reference " + std::to_string(ref.sessions.size()));
  }
  for (const auto& [id, r] : ref.sessions) {
    const auto it = got.sessions.find(id);
    if (it == got.sessions.end()) continue;
    const SessionOut& g = it->second;
    const std::string who = "session " + std::to_string(id) + ": ";
    if (!g.was_closed || g.closed.size() != r.closed.size() ||
        !same_bits(g.closed, r.closed, r.closed.size())) {
      out.fail(who + "close() trajectory differs from the unpaced replay");
    } else if (g.committed.size() > r.committed.size() ||
               !same_bits(g.committed, r.committed, g.committed.size())) {
      out.fail(who + "committed prefix differs from the unpaced replay");
    } else if (g.closed.size() != g.obs.size() + 1 ||
               g.committed.size() > g.closed.size()) {
      // Commits plus positions returned at close account for every
      // submitted window (positions = windows + the seed root).
      out.fail(who + std::to_string(g.closed.size()) + " positions for " +
               std::to_string(g.obs.size()) + " submitted windows");
    }
  }
}

struct Step {
  StepResult result;
  std::vector<double> commit_s;
  std::vector<LateSample> late;  // due time since the step's start
  std::size_t committed_by_pump = 0, positions = 0;
  double assoc_s = 0.0, ingest_s = 0.0, pump_s = 0.0;
  std::size_t replays = 0, reports = 0;
  std::size_t inconsistent = 0;
};

/// Runs whole paced replays at `rate` windows/s until `seconds` of wall
/// time have passed, checking each against the reference.
Step run_step(const Setup& s, const Replay& ref, double rate, double seconds,
              bool tracing, RunResult& out,
              const std::function<void()>& after_replay = {}) {
  Step step;
  step.result.offered_per_s = rate;
  const double speedup = rate * s.stream.t_rel_s.back() / s.stream.sim_windows;
  double wall = 0.0;
  std::size_t windows = 0;
  const auto release = release_map(ref);
  do {
    const Replay r = replay(s, *s.server, speedup, tracing);
    check_replay(ref, r, out);
    if (after_replay) after_replay();
    const CommitLatencies c =
        attribute_commits(r.pumps, release, r.due_s, r.ingested_before_pump);
    step.inconsistent += c.inconsistent;
    step.commit_s.insert(step.commit_s.end(), c.latency_s.begin(), c.latency_s.end());
    for (const auto& [id, so] : r.sessions) {
      step.committed_by_pump += so.committed.size();
      step.positions += so.closed.size();
    }
    for (const LateSample& l : r.late) step.late.push_back({l.due_s + wall, l.late_s});
    windows += r.observations;
    wall += r.wall_s;
    step.assoc_s += r.assoc_s;
    step.ingest_s += r.ingest_s;
    step.pump_s += r.pump_s;
    step.reports += s.stream.reports.size();
    ++step.replays;
  } while (wall < seconds);
  step.result.achieved_per_s = ratio(static_cast<double>(windows), wall);
  step.result.commit_p99_s = block_percentile(step.commit_s, kBlock, 99.0).value;
  step.result.commit_samples = step.commit_s.size();
  step.result.backlog_growth_s = backlog_growth_s(step.late);
  if (step.inconsistent != 0) {
    out.fail(std::to_string(step.inconsistent) +
             " commits returned before their release report was ingested");
  }
  return step;
}

/// Share of the reference's pump-committed positions within kAgreementM
/// of the full-lag (batch) decode of the same session's observations: how
/// often the position served at fixed lag is where the decoder settles
/// once it has seen the whole stroke.
double lag_agreement(const Setup& s, const Replay& ref) {
  const auto field = std::make_shared<const pd::core::PhaseField>(
      s.cfg.algo, s.antennas[0], s.antennas[1], kAntennaZ);
  const pd::core::HmmTracker hmm(s.cfg.algo, s.antennas[0], s.antennas[1],
                                 kAntennaZ, field);
  std::vector<const SessionOut*> sessions;
  for (const auto& [id, so] : ref.sessions) sessions.push_back(&so);
  std::vector<std::size_t> same(sessions.size(), 0);
  pd::ThreadPool pool(kThreads);
  pool.parallel_for(sessions.size(), [&](std::size_t i) {
    const SessionOut& so = *sessions[i];
    const std::vector<pd::Vec2> batch = hmm.decode(so.obs);
    for (std::size_t p = 0; p < so.committed.size() && p < batch.size(); ++p) {
      same[i] += (so.committed[p] - batch[p]).norm() <= kAgreementM ? 1 : 0;
    }
  });
  std::size_t agree = 0, total = 0;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    agree += same[i];
    total += sessions[i]->committed.size();
  }
  return ratio(static_cast<double>(agree), static_cast<double>(total));
}

/// Compute latency of every pump-committed position of an unpaced replay:
/// from the push of the report that released it to the end of the pump()
/// that returned it, one report at a time, so no queueing and no pool
/// wake-up (a pump with one session's work runs on the calling thread).
std::vector<double> compute_latencies(const Replay& ref, const Replay& unpaced) {
  return attribute_commits(unpaced.pumps, release_map(ref), unpaced.due_s,
                           unpaced.ingested_before_pump)
      .latency_s;
}

/// Compute latencies with every thread busy, as in the batch workloads: one
/// shard per pool thread, each its own SessionServer, replays the stream
/// unpaced at the same time. A lone busy thread on an otherwise idle VM
/// ran up to 35% faster or slower from run to run; with all threads busy
/// the spread matches the batch workloads'.
std::vector<double> sharded_compute_latencies(const Setup& s, const Replay& ref,
                                              RunResult& out) {
  std::vector<Replay> runs(kThreads);
  pd::ThreadPool pool(kThreads);
  pool.parallel_for(runs.size(), [&](std::size_t k) {
    pd::server::SessionServerConfig scfg;
    scfg.n_workers = kThreads;
    pd::server::SessionServer shard(s.cfg.algo, s.antennas[0], s.antennas[1],
                                    kAntennaZ, scfg);
    runs[k] = replay(s, shard, 0.0, false);
  });
  std::vector<double> latency_s;
  for (const Replay& r : runs) {
    check_replay(ref, r, out);
    const std::vector<double> l = compute_latencies(ref, r);
    latency_s.insert(latency_s.end(), l.begin(), l.end());
  }
  return latency_s;
}

/// Hold-back plus lag in sim time of every pump-committed position: from
/// the window that produced it (position p >= 1 is the state after window
/// p - 1) to the report that released it.
std::vector<double> hold_sim_s(const Setup& s, const Replay& ref) {
  std::vector<double> out;
  for (const auto& [id, so] : ref.sessions) {
    for (std::size_t p = 0; p < so.release.size(); ++p) {
      const std::size_t w = p == 0 ? 0 : p - 1;
      if (w < so.obs_t_s.size()) {
        out.push_back(s.stream.reports[so.release[p]].timestamp_s - so.obs_t_s[w]);
      }
    }
  }
  return out;
}

void add_end_to_end(const Setup& s, const Replay& ref,
                    const std::vector<double>& compute_s,
                    const std::vector<Step>& steps, double agreement,
                    RunResult& out) {
  const BlockPercentile p50 = block_percentile(compute_s, kBlock, 50.0);
  const BlockPercentile p90 = block_percentile(compute_s, kBlock, 90.0);
  if (p90.blocks == 0 || p90.beyond < 10) {
    out.fail("too few commits (" + std::to_string(compute_s.size()) + ") for a p90");
  }
  std::vector<StepResult> results;
  for (const Step& st : steps) results.push_back(st.result);
  const SustainedLimits limits{kP99LimitS, kMaxGrowthS, kBlock};
  const int best = sustained_step(results, limits);
  for (const Step& st : steps) {
    std::fprintf(stderr,
                 "perfbench: offered %.0f windows/s: achieved %.1f, commit p99 "
                 "%.2f ms over %zu, backlog growth %.2f ms, %s\n",
                 st.result.offered_per_s, st.result.achieved_per_s,
                 1e3 * st.result.commit_p99_s, st.result.commit_samples,
                 1e3 * st.result.backlog_growth_s,
                 step_sustained(st.result, limits) ? "sustained" : "not sustained");
  }
  if (best + 1 == static_cast<int>(std::size(kLadder))) {
    std::fprintf(stderr, "perfbench: the ladder's top rate was sustained; the "
                         "knee lies above it\n");
  }
  out.add("throughput_per_s",
          best < 0 ? 0.0 : steps[static_cast<std::size_t>(best)].result.achieved_per_s);
  out.add("latency_p50_ms", 1e3 * p50.value);
  out.add("latency_tail_ms", 1e3 * p90.value);
  out.add("accuracy", agreement);
  out.add("hold_sim_p99_ms", 1e3 * percentile(hold_sim_s(s, ref), 99.0).value);
}

}  // namespace

int run_serve(const Options& opt, RunResult& out) {
  if (opt.pin) {
    std::fprintf(stderr, "perfbench: serve has no pinned accuracy\n");
    return 2;
  }
  pd::obs::Tracer& tracer = pd::obs::Tracer::global();
  pd::obs::Registry& registry = pd::obs::Registry::global();
  tracer.set_enabled(false);
  registry.set_enabled(opt.trace);  // read_yield counts the set-up's reads
  if (opt.trace) tracer.set_ring_capacity(1u << 18);

  const auto t0 = Clock::now();
  const Setup s = set_up(opt);
  out.setup_s = seconds_between(t0, Clock::now());
  if (opt.setup_only) return 0;
  if (s.stream.reports.empty()) {
    out.fail("the stream has no reports");
    return 0;
  }
  const pd::obs::Snapshot setup_counters = registry.snapshot();
  registry.set_enabled(false);

  const Replay ref = replay(s, *s.server, 0.0, false);
  for (const auto& [id, so] : ref.sessions) {
    if (!so.was_closed) out.fail("reference session " + std::to_string(id) + " never closed");
  }
  if (!opt.trace) {
    const std::vector<double> compute_s = sharded_compute_latencies(s, ref, out);
    std::vector<Step> steps;
    for (const double rate : kLadder) {
      steps.push_back(run_step(s, ref, rate, 0.0, false, out));
      if (!step_sustained(steps.back().result, {kP99LimitS, kMaxGrowthS, kBlock})) break;
    }
    add_end_to_end(s, ref, compute_s, steps, lag_agreement(s, ref), out);
    return 0;
  }

  // Traced run: the nominal rate untraced, then traced with the ledger.
  const Step off = run_step(s, ref, kLadder[kNominal], opt.seconds / 2.0, false, out);
  tracer.reset();
  registry.reset();
  tracer.set_enabled(true);
  registry.set_enabled(true);
  std::vector<Span> spans;
  std::uint64_t dropped = 0;
  bool trace_written = false;
  const Step on = run_step(s, ref, kLadder[kNominal], opt.seconds / 2.0, true, out, [&] {
    // Between replays every session is closed and the pool idle, so the
    // tracer is quiescent: collect this replay's spans, clear the rings.
    dropped += tracer.dropped_events();
    if (!trace_written) {
      const std::string path = opt.out_dir + "/serve-seed" + std::to_string(opt.seed) + ".trace.json";
      if (write_trace(path)) std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
      trace_written = true;
    }
    for (const TracedSpan& t : traced_spans()) {
      spans.push_back({t.thread, t.begin_s, t.end_s, t.name, -1});
    }
    tracer.reset();
  });
  tracer.set_enabled(false);
  registry.set_enabled(false);
  const pd::obs::Snapshot snap = registry.snapshot();

  double parallel_for_s = 0.0, worker_batch_s = 0.0;
  for (const Span& sp : spans) {
    if (sp.name == "pool.parallel_for") parallel_for_s += sp.end - sp.begin;
    if (sp.name == "pool.worker_batch") worker_batch_s += sp.end - sp.begin;
  }
  const std::set<std::string> roots = {"bench.assoc", "bench.ingest", "bench.pump"};
  const Ledger l = ledger(
      build_span_forest(std::move(spans)),
      [&](const SpanNode& n) { return roots.count(n.span.name) > 0; },
      [](const SpanNode& n, const SpanNode& root) {
        const std::string& name = n.span.name;
        if (name == "core.rotation_step" || name == "core.translation_step" ||
            name == "core.distance_estimate") {
          return std::string("estimators");
        }
        if (name == "pool.parallel_for") return std::string("decode");
        if (&n != &root) return std::string("unattributed");
        if (name == "bench.assoc") return std::string("assoc");
        if (name == "bench.ingest") return std::string("server.ingest");
        return std::string("server.pump");
      });
  auto self = [&](const std::string& layer) {
    const auto it = l.self_s.find(layer);
    return it == l.self_s.end() ? 0.0 : it->second;
  };
  const double replays = static_cast<double>(on.replays);
  auto per_replay = [&](double v) { return ratio(v, replays); };
  auto counter = [&](const pd::obs::Snapshot& sn, const char* name) {
    return static_cast<double>(sn.counter(name));
  };
  const double windows = counter(snap, "hmm.windows");
  const double expansions = counter(snap, "hmm.beam_expansions");
  const double decode_s = self("decode");
  const double mailbox_max = [&] {
    for (const auto& [name, v] : snap.gauges) {
      if (name == "server.mailbox_depth_max") return v;
    }
    return 0.0;
  }();
  out.add("ledger.trial_wall_s", per_replay(l.root_s));
  out.add("handwriting.self_s", s.stream.handwriting_s);
  out.add("sim.self_s", s.stream.sim_s);
  out.add("rfid.read_yield", ratio(counter(setup_counters, "rfid.reports"),
                                   counter(setup_counters, "rfid.interrogations")));
  out.add("phase_field.builds", 1.0);
  out.add("phase_field.self_s", s.server_build_s);
  out.add("estimators.self_s", per_replay(self("estimators")));
  out.add("decode.self_s", per_replay(decode_s));
  out.add("decode.share", ratio(decode_s, l.root_s));
  out.add("decode.windows", per_replay(windows));
  out.add("decode.windows_per_s", ratio(windows, decode_s));
  out.add("decode.expansions_per_window", ratio(expansions, windows));
  out.add("decode.keep_frac", ratio(counter(snap, "hmm.beam_nodes"), expansions));
  out.add("decode.annulus_reject_frac",
          ratio(counter(snap, "hmm.annulus_rejected"),
                counter(snap, "hmm.annulus_rejected") + expansions));
  out.add("decode.starved_windows", per_replay(counter(snap, "hmm.starved_windows")));
  out.add("unattributed_frac", ratio(self("unattributed"), l.root_s));
  out.add("assoc.self_s", per_replay(self("assoc")));
  out.add("assoc.reports_per_s", ratio(static_cast<double>(on.reports), on.assoc_s));
  out.add("assoc.empty_window_frac", ratio(counter(snap, "assoc.empty_windows"),
                                           counter(snap, "assoc.observations")));
  out.add("server.ingest_self_s", per_replay(self("server.ingest")));
  out.add("server.pump_self_s", per_replay(self("server.pump")));
  out.add("server.pool_idle_frac",
          1.0 - ratio(worker_batch_s, parallel_for_s * (kThreads - 1)));
  out.add("server.mailbox_depth_max", mailbox_max);
  out.add("server.backlog_growth", on.result.backlog_growth_s);
  out.add("server.commit_p50_ms",
          1e3 * block_percentile(on.commit_s, kBlock, 50.0).value);
  out.add("server.commit_p99_ms",
          1e3 * block_percentile(on.commit_s, kBlock, 99.0).value);
  out.add("server.commit_before_close_frac",
          ratio(static_cast<double>(on.committed_by_pump), static_cast<double>(on.positions)));
  std::vector<double> late_s;
  for (const LateSample& l : on.late) late_s.push_back(l.late_s);
  out.add("gen.late_p99_ms", 1e3 * percentile(late_s, 99.0).value);
  out.add("trace.overhead_frac",
          ratio(on.assoc_s + on.ingest_s + on.pump_s,
                off.assoc_s + off.ingest_s + off.pump_s) *
                  ratio(static_cast<double>(off.replays), replays) - 1.0);
  out.add("trace.dropped_events", static_cast<double>(dropped));
  // Serving bypasses batch preprocessing, the baselines, recognition and
  // the trial pool.
  out.bypass({"preprocess.self_s", "preprocess.windows", "baselines.rfidraw.self_s",
              "baselines.tagoram.self_s", "baselines.share", "recognition.self_s",
              "pool.idle_frac"});

  // Cross-layer accounting: every observation the associator emitted was
  // submitted to the server, and every submitted window was decoded.
  const double assoc_obs = counter(snap, "assoc.observations");
  const double server_obs = counter(snap, "server.observations");
  if (assoc_obs != server_obs) {
    out.fail("assoc.observations " + std::to_string(assoc_obs) +
             " != server.observations " + std::to_string(server_obs));
  }
  if (windows != server_obs) {
    out.fail("hmm.windows " + std::to_string(windows) + " != server.observations " +
             std::to_string(server_obs));
  }
  if (dropped != 0) out.fail("tracer dropped " + std::to_string(dropped) + " events");
  return 0;
}

}  // namespace perfbench
