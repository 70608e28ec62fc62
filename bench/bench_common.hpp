// bench_common.hpp — shared helpers for the figure-reproduction benches.
//
// Each figure bench runs the protocol sweep the paper's Section V
// describes — device counts from 50 to 1000 at the Table I density, several
// Monte-Carlo seeds — and prints the series the figure plots.  Environment
// variables trim the sweep for quick runs:
//   FIREFLY_BENCH_TRIALS     (default 3)
//   FIREFLY_BENCH_MAX_N      (default 1000)
//   FIREFLY_BENCH_PROGRESS   (set to anything for a stderr ETA line)
//   FIREFLY_BENCH_PROTOCOLS  (comma-separated registry names, or "all":
//                            override the bench's default protocol axis;
//                            unknown names abort — see bench_protocols)
//
// Every bench also emits a machine-readable JSONL snapshot when asked:
//   bench_fig3 --json fig3.json     # or FIREFLY_BENCH_JSON=fig3.json
// The first line is a meta record (schema, bench name, git sha, compiler,
// trial count); subsequent lines are data records.  Output is deterministic:
// rerunning the same binary with the same seeds produces a byte-identical
// file (wall-clock values are deliberately excluded).
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "obs/build_info.hpp"
#include "obs/json.hpp"
#include "obs/progress.hpp"
#include "proto/registry.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace firefly::bench {

/// Strict environment override: malformed or zero values are rejected with a
/// one-time stderr warning and the fallback is used (see util::env_size_t).
inline std::size_t env_or(const char* name, std::size_t fallback) {
  return util::env_size_t(name, fallback);
}

/// The protocol axis of a bench: the bench's own default set, overridden by
/// FIREFLY_BENCH_PROTOCOLS — a comma-separated list of registry names, or
/// "all" for every registered backend.  Unknown names abort with the
/// registered list (a typo must not silently bench the defaults).
inline std::vector<core::Protocol> bench_protocols(
    std::initializer_list<core::Protocol> fallback) {
  const proto::Registry& registry = proto::Registry::instance();
  const char* env = std::getenv("FIREFLY_BENCH_PROTOCOLS");
  if (env == nullptr || *env == '\0') return std::vector<core::Protocol>(fallback);
  std::vector<core::Protocol> selected;
  std::string_view list(env);
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    const std::string_view name = list.substr(0, comma);
    list = comma == std::string_view::npos ? std::string_view() : list.substr(comma + 1);
    if (name.empty()) continue;
    if (name == "all") {
      selected.clear();
      for (const std::string& registered : registry.names()) {
        selected.push_back(registry.find(registered)->id);
      }
      return selected;
    }
    const proto::ProtocolInfo* info = registry.find(name);
    if (info == nullptr) {
      std::cerr << "FIREFLY_BENCH_PROTOCOLS: unknown protocol '" << name
                << "' (registered:";
      for (const std::string& registered : registry.names()) std::cerr << ' ' << registered;
      std::cerr << "; or \"all\")\n";
      std::exit(2);
    }
    selected.push_back(info->id);
  }
  if (selected.empty()) return std::vector<core::Protocol>(fallback);
  return selected;
}

/// Machine-readable JSONL output for a bench binary.
///
/// Consumes `--json <path>` / `--json=<path>` from argv (compacting argc so
/// later argv consumers — e.g. google-benchmark — never see the flag) and
/// falls back to the FIREFLY_BENCH_JSON environment variable.  Disabled when
/// neither is given; all write_* calls are then no-ops.
class BenchJson {
 public:
  BenchJson(std::string bench, int* argc, char** argv) : bench_(std::move(bench)) {
    std::string path;
    int write = 1;
    for (int read = 1; read < *argc; ++read) {
      const std::string_view arg = argv[read];
      if (arg == "--json") {
        if (read + 1 >= *argc) {
          std::cerr << bench_ << ": --json requires a path argument\n";
          std::exit(2);
        }
        path = argv[++read];
        continue;
      }
      if (arg.rfind("--json=", 0) == 0) {
        path = std::string(arg.substr(7));
        continue;
      }
      argv[write++] = argv[read];
    }
    *argc = write;
    if (path.empty()) {
      if (const char* env = std::getenv("FIREFLY_BENCH_JSON")) path = env;
    }
    if (path.empty()) return;
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_) {
      std::cerr << bench_ << ": cannot open --json output '" << path << "'\n";
      std::exit(2);
    }
    path_ = std::move(path);
  }

  [[nodiscard]] explicit operator bool() const { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// First line of the file: schema + provenance (benches without a sweep).
  /// Overloads append the sweep shape and/or the protocol axis (display
  /// ids, the values the records' "protocol" fields draw from).
  void write_meta() { write_meta_impl(nullptr, nullptr); }
  void write_meta(const std::vector<core::Protocol>& protocols) {
    write_meta_impl(nullptr, &protocols);
  }
  void write_meta(const core::SweepConfig& config) { write_meta_impl(&config, nullptr); }
  void write_meta(const core::SweepConfig& config,
                  const std::vector<core::Protocol>& protocols) {
    write_meta_impl(&config, &protocols);
  }

  /// One JSONL record per sweep point.
  void write_series(core::Protocol protocol, const std::vector<core::SweepPoint>& points) {
    if (!out_.is_open()) return;
    for (const core::SweepPoint& point : points) {
      obs::JsonWriter w(out_);
      core::write_sweep_point_json(w, point, protocol, bench_.c_str());
      out_ << '\n';
    }
  }

  /// One JSONL record per table row:
  /// {"bench":..,"series":..,"columns":[headers],"cells":[row]}.
  /// The stringly-typed mirror of the printed table — useful for diffing and
  /// regression tracking without re-deriving the bench's own aggregation.
  void write_table(const util::Table& table, std::string_view series) {
    if (!out_.is_open()) return;
    for (const std::vector<std::string>& row : table.row_data()) {
      obs::JsonWriter w(out_);
      w.begin_object();
      w.field("bench", std::string_view(bench_));
      w.field("series", series);
      w.key("columns").begin_array();
      for (const std::string& h : table.headers()) w.value(std::string_view(h));
      w.end_array();
      w.key("cells").begin_array();
      for (const std::string& c : row) w.value(std::string_view(c));
      w.end_array();
      w.end_object();
      out_ << '\n';
    }
  }

  /// Free-form record: {"bench":...,<caller fields>}.  The callback receives
  /// the writer with the object already open.
  template <typename Fn>
  void write_object(Fn&& fn) {
    if (!out_.is_open()) return;
    obs::JsonWriter w(out_);
    w.begin_object();
    w.field("bench", std::string_view(bench_));
    fn(w);
    w.end_object();
    out_ << '\n';
  }

 private:
  void write_meta_impl(const core::SweepConfig* config,
                       const std::vector<core::Protocol>* protocols) {
    if (!out_.is_open()) return;
    obs::JsonWriter w(out_);
    w.begin_object();
    w.field("schema", "firefly-bench-v1");
    w.field("bench", std::string_view(bench_));
    obs::write_build_info_fields(w);
    if (config != nullptr) {
      w.field("trials", static_cast<std::uint64_t>(config->trials));
      w.field("master_seed", config->master_seed);
      w.key("ns").begin_array();
      for (const std::size_t n : config->ns) w.value(static_cast<std::uint64_t>(n));
      w.end_array();
    }
    if (protocols != nullptr) {
      w.key("protocols").begin_array();
      for (const core::Protocol p : *protocols) w.value(core::to_string(p));
      w.end_array();
    }
    w.end_object();
    out_ << '\n';
  }

  std::string bench_;
  std::string path_;
  std::ofstream out_;
};

/// Exit 2 with core::validate's message when `config` is invalid, as
/// firefly_cli does, so no bench runs (or aborts on) a nonsense scenario.
inline void require_valid(const core::ScenarioConfig& config) {
  if (const std::string error = core::validate(config); !error.empty()) {
    std::cerr << "invalid scenario: " << error << '\n';
    std::exit(2);
  }
}

inline core::SweepConfig paper_sweep() {
  core::SweepConfig config;
  config.trials = env_or("FIREFLY_BENCH_TRIALS", 3);
  const std::size_t max_n = env_or("FIREFLY_BENCH_MAX_N", 1000);
  config.ns.clear();
  for (const std::size_t n : {50UL, 100UL, 200UL, 400UL, 600UL, 800UL, 1000UL}) {
    if (n <= max_n) config.ns.push_back(n);
  }
  config.base.area_policy = core::AreaPolicy::kDensityScaled;
  config.master_seed = 2015;  // the venue year; any fixed value works
  for (const std::size_t n : config.ns) {  // the per-trial seed is never invalid
    core::ScenarioConfig point = config.base;
    point.n = n;
    require_valid(point);
  }
  return config;
}

/// One protocol's series over a sweep — the unit of the generic axis.
struct ProtocolSeries {
  core::Protocol protocol;
  std::vector<core::SweepPoint> points;
};

/// Runs each protocol of the axis over the paper sweep, in axis order.
inline std::vector<ProtocolSeries> run_paper_sweep(
    const std::vector<core::Protocol>& protocols) {
  core::SweepConfig config = paper_sweep();
  std::optional<obs::ProgressReporter> progress;
  if (std::getenv("FIREFLY_BENCH_PROGRESS") != nullptr) {
    progress.emplace("sweep", protocols.size() * config.total_trials());
    config.hooks.progress = &*progress;
  }
  std::vector<ProtocolSeries> result;
  result.reserve(protocols.size());
  for (const core::Protocol protocol : protocols) {
    result.push_back({protocol, core::sweep(protocol, config)});
  }
  if (progress) progress->finish();
  return result;
}

/// The series of one protocol within a sweep result; nullptr when the axis
/// did not include it (benches print comparison tables only when both
/// sides ran).
inline const std::vector<core::SweepPoint>* find_series(
    const std::vector<ProtocolSeries>& sweep, core::Protocol protocol) {
  for (const ProtocolSeries& series : sweep)
    if (series.protocol == protocol) return &series.points;
  return nullptr;
}

}  // namespace firefly::bench
