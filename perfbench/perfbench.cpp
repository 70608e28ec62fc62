// perfbench.cpp — the repository benchmark's measuring program.
//
// Runs one named workload for a time budget and prints one JSON report line
// on stdout: every metric with its unit, the digest of every unit of work
// (a trial, a soak or a sweep) and the result of the in-run checks.  run.py
// builds this program, compares the digests with the committed golden file
// and prints the benchmark's result line.  README.md has the workload and
// metric tables.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --trace 0 measures the end-to-end metrics with no telemetry attached.
// --trace 1 pairs every unit with a traced rerun of the same input
// (obs::Telemetry + SpanSink) and reports the per-layer split; the first
// traced unit is also written to DIR/trace.json as a Chrome trace.
// --seconds 0 runs one pass over the workload's inputs (digest recording).
//
// Layers are timed from outside src/: Timed<E> (timed_engine.hpp) times the
// proto layer's deliver_batched hook, the kSlotDelivery spans the engine
// already records give the radio flush (mac layer plus the nested sink), and
// core::deploy plus the engine constructor are timed around the calls.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "proto/fst.hpp"
#include "proto/st.hpp"
#include "sim/soak.hpp"
#include "timed_engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace firefly;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kTrial, kSoak, kSweep };

struct Workload {
  const char* name;
  Kind kind;
  core::Protocol protocol;  // kSweep runs ST and FST
  core::AreaPolicy area;
  std::size_t n;            // kSweep: see kSweepNs
  std::size_t inputs;       // kTrial/kSoak: distinct scenario seeds per pass
  // Every trial simulates exactly this many firing periods (stop_on_convergence
  // off), so a unit's work does not depend on how soon its seed converges;
  // RunMetrics still record convergence.  0 for the soak (kSoakSlots).
  std::uint32_t horizon_periods;
};

// Every input is derived from the workload seed; see inputs_for().
constexpr Workload kWorkloads[] = {
    {"paper-scaled", Kind::kTrial, core::Protocol::kSt, core::AreaPolicy::kDensityScaled, 2000, 4, 3},
    {"stadium", Kind::kTrial, core::Protocol::kSt, core::AreaPolicy::kFixed, 400, 4, 4},
    {"churn-soak", Kind::kSoak, core::Protocol::kSt, core::AreaPolicy::kDensityScaled, 300, 2, 0},
    {"fig3-sweep", Kind::kSweep, core::Protocol::kSt, core::AreaPolicy::kDensityScaled, 0, 1, 10},
};

constexpr std::int64_t kSoakSlots = 10'000;
// Largest N first: the pool's tail is then small trials, so the sweep's wall
// time measures throughput rather than one straggling N = 400 trial.
constexpr std::size_t kSweepNs[] = {400, 200, 100, 50};
constexpr std::size_t kSweepTrials = 16;
constexpr core::Protocol kSweepProtocols[] = {core::Protocol::kSt, core::Protocol::kFst};
constexpr std::size_t kMaxPoolWorkers = 4;
// Set-up passes of a sweep (every trial's engine built once, serially); one
// runs before each pooled sweep, and at least this many per run.
constexpr std::size_t kSweepSetupPasses = 5;
constexpr std::size_t kSweepTraceSpans = 200'000;  // Chrome-trace ring of a pooled sweep
// Set-up samples per input and run: every trial contributes one, and
// set-up-only repeats top the count up to this.
constexpr std::size_t kMinSetupSamples = 5;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

core::ScenarioConfig base_config(const Workload& w) {
  core::ScenarioConfig cfg;
  cfg.n = w.n;
  cfg.area_policy = w.area;
  if (w.horizon_periods > 0) {
    cfg.protocol.stop_on_convergence = false;
    cfg.protocol.max_periods = w.horizon_periods;
  }
  if (w.kind == Kind::kSoak) {
    cfg.protocol.faults.churn_rate_per_min = 600.0;
    cfg.protocol.faults.mean_downtime_ms = 500.0;
    cfg.protocol.faults.fade_rate_per_min = 120.0;
  }
  return cfg;
}

core::ServiceConfig soak_config() {
  core::ServiceConfig service;
  service.duration_slots = kSoakSlots;
  service.window_slots = 1'000;
  return service;
}

/// The scenario seeds of one pass over a trial/soak workload.
std::vector<core::ScenarioConfig> inputs_for(const Workload& w, std::uint64_t seed) {
  std::vector<core::ScenarioConfig> out;
  const std::string stream = std::string("perfbench.") + w.name;
  for (std::size_t k = 0; k < w.inputs; ++k) {
    core::ScenarioConfig cfg = base_config(w);
    cfg.seed = util::derive_seed(seed, stream, k);
    out.push_back(cfg);
  }
  return out;
}

core::SweepConfig sweep_config(const Workload& w, std::uint64_t seed) {
  core::SweepConfig cfg;
  cfg.base = base_config(w);
  cfg.ns.assign(std::begin(kSweepNs), std::end(kSweepNs));
  cfg.trials = kSweepTrials;
  cfg.master_seed = util::derive_seed(seed, std::string("perfbench.") + w.name, 0);
  return cfg;
}

/// The per-trial scenarios core::sweep runs (its trial_config derivation),
/// in flat order, for both protocols.
std::vector<std::pair<core::Protocol, core::ScenarioConfig>> sweep_trials(
    const core::SweepConfig& cfg) {
  std::vector<std::pair<core::Protocol, core::ScenarioConfig>> out;
  for (core::Protocol p : kSweepProtocols) {
    for (std::size_t n : cfg.ns) {
      for (std::size_t t = 0; t < cfg.trials; ++t) {
        core::ScenarioConfig trial = cfg.base;
        trial.n = n;
        trial.seed = util::derive_seed(cfg.master_seed, "experiment.trial",
                                       (static_cast<std::uint64_t>(n) << 20) | t);
        out.emplace_back(p, trial);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Units of work
// ---------------------------------------------------------------------------

std::string hex_digest(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// One trial, soak or sweep, with its timings and the counts it produced.
struct Unit {
  std::string key;
  std::string digest;
  bool traced = false;
  double deploy_s = 0.0;
  double init_s = 0.0;
  double run_s = 0.0;
  double total_s = 0.0;  // the whole unit: set-up, run, serialization, teardown
  // Timed<E> readings (trial and soak units).
  double sink_s = 0.0;
  std::uint64_t records = 0;
  std::vector<std::uint32_t> batch_sizes;
  std::uint64_t events = 0;
  std::uint64_t arena_high_water = 0;
  mac::TrafficCounters radio{};
  std::uint32_t crashes = 0;
  std::uint32_t recoveries = 0;
  // Traced units only.
  std::vector<double> flush_s;  // every kSlotDelivery span (engine units)
  std::map<std::string, std::uint64_t> counters;
  // kTrial spans of a traced pooled sweep, from the span.trial.us histogram.
  double trial_span_sum_s = 0.0;
  double trial_span_p50_s = 0.0;
  double trial_span_max_s = 0.0;
  std::unique_ptr<obs::SpanSink> spans;
};

std::string protocol_key(core::Protocol p, const core::ScenarioConfig& cfg) {
  return std::string(core::to_string(p)) + ":" + std::to_string(cfg.n) + ":" +
         std::to_string(cfg.seed);
}

void harvest_telemetry(Unit& u, const obs::Telemetry& tel) {
  for (const auto& [name, counter] : tel.registry().counters()) {
    u.counters[name] = counter.value();
  }
  const auto& histograms = tel.registry().histograms();
  const auto trial = histograms.find(std::string("span.") + obs::span_name(obs::SpanId::kTrial) +
                                     ".us");
  if (trial != histograms.end()) {
    u.trial_span_sum_s = trial->second.sum() * 1e-6;
    u.trial_span_p50_s = trial->second.quantile(0.5) * 1e-6;
    u.trial_span_max_s = trial->second.max() * 1e-6;
  }
}

/// Deploy, construct Timed<E>, run to convergence (or soak to the horizon).
template <typename E>
Unit run_engine(core::Protocol protocol, const core::ScenarioConfig& cfg, bool traced,
                const core::ServiceConfig* service) {
  Unit u;
  u.key = protocol_key(protocol, cfg);
  u.traced = traced;
  std::optional<obs::Telemetry> tel;
  if (traced) {
    u.spans = std::make_unique<obs::SpanSink>(0);  // unbounded: the split needs every span
    tel.emplace();
    tel->attach_spans(u.spans.get());
  }
  const auto t0 = Clock::now();
  std::vector<geo::Vec2> positions = core::deploy(cfg);
  const auto t1 = Clock::now();
  auto engine = std::make_unique<perfbench::Timed<E>>(std::move(positions), cfg.protocol,
                                                      cfg.radio, cfg.seed);
  const auto t2 = Clock::now();
  if (tel) engine->set_telemetry(&*tel);

  std::ostringstream text;
  obs::JsonWriter w(text);
  if (service == nullptr) {
    const core::RunMetrics m = engine->run();
    u.run_s = seconds_since(t2);
    core::write_run_metrics_json(w, m);
    u.crashes = m.crashes;
    u.recoveries = m.recoveries;
  } else {
    sim::SoakRecorder recorder;
    const core::ServiceReport report = engine->run_service(*service, &recorder);
    u.run_s = seconds_since(t2);
    if (!report.ok()) {
      std::cerr << "perfbench: soak rejected: " << report.error << '\n';
      std::exit(3);
    }
    core::write_soak_summary_json(w, report);
    recorder.drain([&text](const sim::SoakWindow& win) {
      obs::JsonWriter ww(text);
      core::write_soak_window_json(ww, win);
    });
    u.crashes = report.metrics.crashes;
    u.recoveries = report.metrics.recoveries;
  }
  u.digest = hex_digest(text.str());
  u.deploy_s = std::chrono::duration<double>(t1 - t0).count();
  u.init_s = std::chrono::duration<double>(t2 - t1).count();
  u.sink_s = std::chrono::duration<double>(engine->sink_time()).count();
  u.records = engine->records();
  u.batch_sizes = engine->batch_sizes();
  u.events = engine->events_processed();
  u.arena_high_water = engine->scheduler_stats().arena_high_water;
  u.radio = engine->radio_counters();
  if (tel) {
    harvest_telemetry(u, *tel);
    for (const obs::Span& s : u.spans->snapshot()) {
      if (s.id == obs::SpanId::kSlotDelivery) {
        u.flush_s.push_back(static_cast<double>(s.duration_ns) * 1e-9);
      }
    }
  }
  return u;
}

Unit run_unit(core::Protocol protocol, const core::ScenarioConfig& cfg, bool traced,
              const core::ServiceConfig* service = nullptr) {
  const auto t0 = Clock::now();
  Unit u;
  switch (protocol) {
    case core::Protocol::kSt:
      u = run_engine<proto::StEngine>(protocol, cfg, traced, service);
      break;
    case core::Protocol::kFst:
      u = run_engine<proto::FstEngine>(protocol, cfg, traced, service);
      break;
    default:
      std::cerr << "perfbench: protocol not benchmarked\n";
      std::exit(3);
  }
  u.total_s = seconds_since(t0);
  return u;
}

/// Set-up only: deploy plus engine construction, then teardown (untimed).
std::pair<double, double> setup_once(core::Protocol protocol, const core::ScenarioConfig& cfg) {
  const auto t0 = Clock::now();
  std::vector<geo::Vec2> positions = core::deploy(cfg);
  const auto t1 = Clock::now();
  std::unique_ptr<core::EngineBase> engine;
  if (protocol == core::Protocol::kSt) {
    engine = std::make_unique<proto::StEngine>(std::move(positions), cfg.protocol, cfg.radio,
                                               cfg.seed);
  } else {
    engine = std::make_unique<proto::FstEngine>(std::move(positions), cfg.protocol, cfg.radio,
                                                cfg.seed);
  }
  const auto t2 = Clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(),
          std::chrono::duration<double>(t2 - t1).count()};
}

/// Both protocol sweeps of the fig3 workload on the pool.  A traced sweep
/// keeps its spans only when `spans_for_trace` asks for a Chrome trace, in a
/// bounded ring: every trial's per-pulse spans would not fit in memory.
Unit run_sweep(const core::SweepConfig& base, util::ThreadPool& pool, bool traced,
               bool spans_for_trace = false) {
  Unit u;
  u.key = "sweep";
  u.traced = traced;
  core::SweepConfig cfg = base;
  std::optional<obs::Telemetry> tel;
  if (traced) {
    tel.emplace();
    cfg.hooks.telemetry = &*tel;
    if (spans_for_trace) {
      u.spans = std::make_unique<obs::SpanSink>(kSweepTraceSpans);
      tel->attach_spans(u.spans.get());
    }
  }
  std::ostringstream text;
  const auto t0 = Clock::now();
  for (core::Protocol p : kSweepProtocols) {
    const std::vector<core::SweepPoint> points = core::sweep(p, cfg, &pool);
    for (const core::SweepPoint& point : points) {
      obs::JsonWriter w(text);
      core::write_sweep_point_json(w, point, p, "perfbench");
    }
  }
  u.run_s = seconds_since(t0);
  u.digest = hex_digest(text.str());
  if (tel) harvest_telemetry(u, *tel);
  return u;
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }
double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

struct Metric {
  double value;
  const char* unit;
  std::size_t samples;
};

struct Report {
  std::vector<Unit> units;
  std::map<std::string, Metric> metrics;
  std::map<std::string, bool> checks;
  std::size_t pool_workers = 1;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Median over inputs of each input's fastest repeat.  A shared host
/// alternates between uncontended and contended epochs of a few seconds, in
/// which every instruction runs up to 50 % slower; the repeats of one input
/// are spread over the run, and the fastest of them tracks the uncontended
/// speed.  The median over inputs keeps the mix of inputs fixed however many
/// passes the time budget allowed.
double median_of_input_minima(const std::vector<std::pair<std::string, double>>& samples) {
  std::map<std::string, double> best;
  for (const auto& [key, value] : samples) {
    const auto [it, fresh] = best.emplace(key, value);
    if (!fresh) it->second = std::min(it->second, value);
  }
  std::vector<double> minima;
  for (const auto& [key, value] : best) minima.push_back(value);
  return median(minima);
}

double median_of_input_minima(const std::vector<Unit>& units,
                              const std::function<double(const Unit&)>& field) {
  std::vector<std::pair<std::string, double>> samples;
  for (const Unit& u : units) samples.emplace_back(u.key, field(u));
  return median_of_input_minima(samples);
}

// ---------------------------------------------------------------------------
// Untraced runs: the end-to-end metrics
// ---------------------------------------------------------------------------

void untraced_single(const Workload& w, std::uint64_t seed, double budget, Report& r) {
  const std::vector<core::ScenarioConfig> inputs = inputs_for(w, seed);
  const core::ServiceConfig service = soak_config();
  const core::ServiceConfig* svc = w.kind == Kind::kSoak ? &service : nullptr;
  std::vector<std::pair<std::string, double>> setup;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < inputs.size() || seconds_since(t0) < budget; ++i) {
    r.units.push_back(run_unit(w.protocol, inputs[i % inputs.size()], false, svc));
    setup.emplace_back(r.units.back().key, r.units.back().deploy_s + r.units.back().init_s);
  }
  const std::size_t setup_samples = kMinSetupSamples * inputs.size();
  for (std::size_t i = r.units.size(); setup.size() < setup_samples && budget > 0.0; ++i) {
    const core::ScenarioConfig& cfg = inputs[i % inputs.size()];
    const auto [deploy_s, init_s] = setup_once(w.protocol, cfg);
    setup.emplace_back(protocol_key(w.protocol, cfg), deploy_s + init_s);
  }
  const std::size_t n = r.units.size();
  r.metrics["trial_s"] = {median_of_input_minima(r.units, [](const Unit& u) { return u.run_s; }),
                          "s", n};
  r.metrics["setup_s"] = {median_of_input_minima(setup), "s", setup.size()};
  r.metrics["trials_per_s"] = {
      1.0 / median_of_input_minima(
                r.units, [](const Unit& u) { return u.deploy_s + u.init_s + u.run_s; }),
      "1/s", n};
}

void untraced_sweep(const Workload& w, std::uint64_t seed, double budget, Report& r) {
  const core::SweepConfig cfg = sweep_config(w, seed);
  const auto trials = sweep_trials(cfg);
  // A set-up pass (every trial's engine built once, serially) before each
  // pooled sweep, so both are sampled across the whole run; each is the
  // fastest over the run, as in median_of_input_minima (one input here).
  util::ThreadPool pool(r.pool_workers);
  std::vector<double> setups, walls;
  const auto t0 = Clock::now();
  do {
    double setup_s = 0.0;
    for (const auto& [p, trial] : trials) {
      const auto [deploy_s, init_s] = setup_once(p, trial);
      setup_s += deploy_s + init_s;
    }
    setups.push_back(setup_s);
    r.units.push_back(run_sweep(cfg, pool, false));
    walls.push_back(r.units.back().run_s);
  } while (seconds_since(t0) < budget || (budget > 0.0 && setups.size() < kSweepSetupPasses));
  const double wall = *std::min_element(walls.begin(), walls.end());
  const auto count = static_cast<double>(trials.size());
  r.metrics["trial_s"] = {wall * static_cast<double>(r.pool_workers) / count, "s", walls.size()};
  r.metrics["setup_s"] = {*std::min_element(setups.begin(), setups.end()), "s", setups.size()};
  r.metrics["trials_per_s"] = {count / wall, "1/s", walls.size()};
}

// ---------------------------------------------------------------------------
// Traced runs: the per-layer split
// ---------------------------------------------------------------------------

bool same_counts(const Unit& a, const Unit& b) {
  return a.digest == b.digest && a.records == b.records && a.batch_sizes == b.batch_sizes &&
         a.events == b.events && a.arena_high_water == b.arena_high_water &&
         a.radio.rach1_tx == b.radio.rach1_tx && a.radio.rach2_tx == b.radio.rach2_tx &&
         a.radio.deliveries == b.radio.deliveries && a.radio.collisions == b.radio.collisions &&
         a.radio.fault_drops == b.radio.fault_drops;
}

std::uint64_t counter(const Unit& u, const std::string& name) {
  const auto it = u.counters.find(name);
  return it == u.counters.end() ? 0 : it->second;
}

/// Calls of one span, from the counter obs::Telemetry keeps per span id.
std::uint64_t span_calls(const Unit& u, obs::SpanId id) {
  return counter(u, std::string("span.") + obs::span_name(id) + ".calls");
}

/// The per-layer metrics of a set of traced engine units, summed over the
/// set.  Every time is in seconds; counts are exact.
void layer_split(const std::vector<const Unit*>& traced, Report& r) {
  double run = 0, flush = 0, sink = 0, deploy = 0, init = 0;
  std::vector<double> flushes;
  std::vector<double> batches;
  std::uint64_t records = 0, events = 0, arena = 0, tx = 0, deliveries = 0, collisions = 0,
                drops = 0, pco = 0, hconnect = 0, merges = 0, fires = 0, crashes = 0,
                recoveries = 0;
  for (const Unit* u : traced) {
    run += u->run_s;
    flush += sum(u->flush_s);
    sink += u->sink_s;
    deploy += u->deploy_s;
    init += u->init_s;
    flushes.insert(flushes.end(), u->flush_s.begin(), u->flush_s.end());
    for (std::uint32_t b : u->batch_sizes) batches.push_back(b);
    records += u->records;
    events += u->events;
    arena = std::max(arena, u->arena_high_water);
    tx += u->radio.total_tx();
    deliveries += u->radio.deliveries;
    collisions += u->radio.collisions;
    drops += u->radio.fault_drops;
    pco += span_calls(*u, obs::SpanId::kPcoUpdate);
    hconnect += span_calls(*u, obs::SpanId::kHConnect);
    merges += span_calls(*u, obs::SpanId::kMerge);
    fires += counter(*u, "engine.fires");
    crashes += u->crashes;
    recoveries += u->recoveries;
  }
  const double mac_self = flush - sink;
  const double other = run - flush;
  const std::size_t n = traced.size();
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  auto& m = r.metrics;
  m["geo.deploy_s"] = {deploy, "s", n};
  m["core.engine_init_s"] = {init, "s", n};
  m["mac.self_s"] = {mac_self, "s", n};
  m["mac.share"] = {ratio(mac_self, run), "ratio", n};
  m["mac.ns_per_delivery"] = {ratio(mac_self * 1e9, static_cast<double>(deliveries)), "ns", n};
  m["mac.flushes"] = {static_cast<double>(flushes.size()), "count", n};
  m["mac.flush_ms_p50"] = {quantile(flushes, 0.5) * 1e3, "ms", flushes.size()};
  m["mac.flush_ms_p99"] = {quantile(flushes, 0.99) * 1e3, "ms", flushes.size()};
  m["mac.flush_ms_max"] = {quantile(flushes, 1.0) * 1e3, "ms", flushes.size()};
  m["proto.sink_s"] = {sink, "s", n};
  m["proto.share"] = {ratio(sink, run), "ratio", n};
  m["proto.records"] = {static_cast<double>(records), "count", n};
  m["proto.ns_per_record"] = {ratio(sink * 1e9, static_cast<double>(records)), "ns", n};
  m["proto.batch_p50"] = {quantile(batches, 0.5), "count", batches.size()};
  m["proto.batch_max"] = {quantile(batches, 1.0), "count", batches.size()};
  m["proto.fires"] = {static_cast<double>(fires), "count", n};
  m["sim.run_s"] = {run, "s", n};
  m["sim.other_s"] = {other, "s", n};
  m["sim.events"] = {static_cast<double>(events), "count", n};
  m["sim.ns_per_event"] = {ratio(other * 1e9, static_cast<double>(events)), "ns", n};
  m["sim.arena_high_water"] = {static_cast<double>(arena), "count", n};
  m["mac.tx"] = {static_cast<double>(tx), "count", n};
  m["mac.deliveries"] = {static_cast<double>(deliveries), "count", n};
  m["mac.collisions"] = {static_cast<double>(collisions), "count", n};
  m["mac.fault_drops"] = {static_cast<double>(drops), "count", n};
  m["mac.decode_ratio"] = {
      ratio(static_cast<double>(deliveries), static_cast<double>(deliveries + collisions + drops)),
      "ratio", n};
  m["proto.pco_updates"] = {static_cast<double>(pco), "count", n};
  m["proto.h_connects"] = {static_cast<double>(hconnect), "count", n};
  m["proto.merges"] = {static_cast<double>(merges), "count", n};
  m["fault.crashes"] = {static_cast<double>(crashes), "count", n};
  m["fault.recoveries"] = {static_cast<double>(recoveries), "count", n};
  // A small tolerance absorbs clock-read granularity between nested timers.
  r.checks["sink_le_flush_le_run"] = sink <= flush * (1.0 + 1e-6) && flush <= run * (1.0 + 1e-6);
}

void write_chrome_trace(const Unit& u, const std::string& out_dir) {
  if (out_dir.empty() || !u.spans) return;
  const std::string path = out_dir + "/trace.json";
  if (!u.spans->write_chrome_trace(path)) {
    std::cerr << "perfbench: cannot write " << path << '\n';
    std::exit(3);
  }
}

/// Pair an untraced and a traced run of each input; the split comes from one
/// pass over them (a fixed set, so every count repeats exactly run to run),
/// the overhead from every pair.
void traced_single(const Workload& w, std::uint64_t seed, double budget,
                   const std::string& out_dir, Report& r) {
  const std::vector<core::ScenarioConfig> inputs = inputs_for(w, seed);
  const core::ServiceConfig service = soak_config();
  const core::ServiceConfig* svc = w.kind == Kind::kSoak ? &service : nullptr;
  double plain_s = 0.0, traced_s = 0.0;
  bool repeat = true;
  std::vector<std::size_t> first_pass;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < inputs.size() || seconds_since(t0) < budget; ++i) {
    const core::ScenarioConfig& cfg = inputs[i % inputs.size()];
    r.units.push_back(run_unit(w.protocol, cfg, false, svc));
    r.units.push_back(run_unit(w.protocol, cfg, true, svc));
    const Unit& plain = r.units[r.units.size() - 2];
    const Unit& traced = r.units.back();
    repeat = repeat && same_counts(plain, traced);
    plain_s += plain.run_s;
    traced_s += traced.run_s;
    if (i < inputs.size()) first_pass.push_back(r.units.size() - 1);
    if (i == 0) write_chrome_trace(traced, out_dir);
    r.units.back().spans.reset();
  }
  std::vector<const Unit*> split;
  for (std::size_t idx : first_pass) split.push_back(&r.units[idx]);
  layer_split(split, r);
  r.checks["counts_repeat"] = repeat;
  r.metrics["trace.overhead"] = {traced_s / plain_s, "ratio", r.units.size() / 2};
  // No thread pool here: the serial loop is a pool of one worker, busy for
  // a unit's set-up and run, idle for its serialization and teardown.
  double engine_s = 0.0, total_s = 0.0;
  std::vector<double> totals;
  for (const Unit* u : split) {
    engine_s += u->deploy_s + u->init_s + u->run_s;
    total_s += u->total_s;
    totals.push_back(u->total_s);
  }
  r.metrics["pool.busy_frac"] = {engine_s / total_s, "ratio", split.size()};
  r.metrics["pool.trial_s_p50"] = {median(totals), "s", split.size()};
  r.metrics["pool.trial_s_max"] = {quantile(totals, 1.0), "s", split.size()};
  if (w.kind == Kind::kSoak) {
    r.checks["fault_path"] = r.metrics["fault.crashes"].value > 0 &&
                             r.metrics["mac.fault_drops"].value > 0;
  }
}

void traced_sweep(const Workload& w, std::uint64_t seed, double budget,
                  const std::string& out_dir, Report& r) {
  const core::SweepConfig cfg = sweep_config(w, seed);
  // The split: every trial of the sweep, serially, untraced then traced.
  const auto start = Clock::now();
  bool repeat = true;
  for (const auto& [p, trial] : sweep_trials(cfg)) {
    r.units.push_back(run_unit(p, trial, false));
    r.units.push_back(run_unit(p, trial, true));
    repeat = repeat && same_counts(r.units[r.units.size() - 2], r.units.back());
    r.units.back().spans.reset();
  }
  std::vector<const Unit*> split;
  for (const Unit& u : r.units) {
    if (u.traced) split.push_back(&u);
  }
  layer_split(split, r);
  const double split_s = seconds_since(start);
  // The pool: pooled sweeps, untraced and traced, for the trace overhead and
  // the kTrial spans.
  util::ThreadPool pool(r.pool_workers);
  double plain_s = 0.0, traced_s = 0.0;
  std::vector<double> busy, p50, peak;
  std::size_t pairs = 0;
  const auto t0 = Clock::now();
  for (; pairs == 0 || seconds_since(t0) < budget - split_s; ++pairs) {
    r.units.push_back(run_sweep(cfg, pool, false));
    r.units.push_back(run_sweep(cfg, pool, true, pairs == 0));
    const Unit& plain = r.units[r.units.size() - 2];
    Unit& traced = r.units.back();
    repeat = repeat && plain.digest == traced.digest;
    plain_s += plain.run_s;
    traced_s += traced.run_s;
    busy.push_back(traced.trial_span_sum_s /
                   (static_cast<double>(r.pool_workers) * traced.run_s));
    p50.push_back(traced.trial_span_p50_s);
    peak.push_back(traced.trial_span_max_s);
    if (pairs == 0) write_chrome_trace(traced, out_dir);
    traced.spans.reset();
  }
  r.checks["counts_repeat"] = repeat;
  r.metrics["trace.overhead"] = {traced_s / plain_s, "ratio", pairs};
  r.metrics["pool.busy_frac"] = {median(busy), "ratio", pairs};
  r.metrics["pool.trial_s_p50"] = {median(p50), "s", pairs};
  r.metrics["pool.trial_s_max"] = {median(peak), "s", pairs};
}

void write_report(const Workload& w, std::uint64_t seed, int trace, double budget,
                  const Report& r) {
  std::ostringstream out;
  obs::JsonWriter j(out);
  j.begin_object();
  j.field("schema", "firefly-perfbench-v1");
  j.field("workload", w.name);
  j.field("seed", seed);
  j.field("trace", static_cast<std::uint64_t>(trace));
  j.field("seconds", budget);
  j.key("build").begin_object();
  obs::write_build_info_fields(j);
  j.end_object();
  j.field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  j.field("pool_workers", static_cast<std::uint64_t>(r.pool_workers));
  j.key("units").begin_array();
  for (const Unit& u : r.units) {
    j.begin_object().field("key", u.key).field("digest", u.digest).field("traced", u.traced);
    j.field("setup_s", u.deploy_s + u.init_s).field("run_s", u.run_s);
    j.end_object();
  }
  j.end_array();
  j.key("checks").begin_object();
  for (const auto& [name, ok] : r.checks) j.field(name, ok);
  j.end_object();
  j.key("metrics").begin_object();
  for (const auto& [name, m] : r.metrics) {
    j.key(name).begin_object();
    j.field("value", m.value).field("unit", m.unit);
    j.field("samples", static_cast<std::uint64_t>(m.samples));
    j.end_object();
  }
  j.end_object();
  j.end_object();
  std::cout << out.str() << '\n';
}

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n";
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false, have_seconds = false;
  std::string out_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = find_workload(value);
      if (workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      seed = parse_uint("--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      seconds = parse_uint("--seconds", value);
      have_seconds = true;
    } else if (flag == "--trace") {
      trace = parse_uint("--trace", value);
    } else if (flag == "--out") {
      out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workload == nullptr || !have_seed || !have_seconds || trace > 1) {
    usage("--workload, --seed, --seconds and --trace 0|1 are required");
  }
  const auto budget = static_cast<double>(seconds);
  Report r;
  if (workload->kind == Kind::kSweep) {
    const unsigned hw = std::thread::hardware_concurrency();
    r.pool_workers = std::clamp<std::size_t>(hw, 1, kMaxPoolWorkers);
  }
  if (trace == 0) {
    if (workload->kind == Kind::kSweep) {
      untraced_sweep(*workload, seed, budget, r);
    } else {
      untraced_single(*workload, seed, budget, r);
    }
  } else if (workload->kind == Kind::kSweep) {
    traced_sweep(*workload, seed, budget, out_dir, r);
  } else {
    traced_single(*workload, seed, budget, out_dir, r);
  }
  r.metrics["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  write_report(*workload, seed, static_cast<int>(trace), budget, r);
  return 0;
}
