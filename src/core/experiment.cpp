#include "core/experiment.hpp"

#include "util/rng.hpp"

namespace firefly::core {

namespace {

ScenarioConfig trial_config(const SweepConfig& sweep_config, std::size_t n,
                            std::size_t trial) {
  ScenarioConfig config = sweep_config.base;
  config.n = n;
  config.seed = util::derive_seed(sweep_config.master_seed, "experiment.trial",
                                  (static_cast<std::uint64_t>(n) << 20) | trial);
  return config;
}

void accumulate(SweepPoint& point, const RunMetrics& metrics) {
  ++point.trials;
  if (!metrics.converged) {
    point.failure_rate += 1.0;  // normalised after the loop
  } else {
    point.convergence_ms.add(metrics.convergence_ms);
  }
  point.total_messages.add(static_cast<double>(metrics.total_messages()));
  point.rach1_messages.add(static_cast<double>(metrics.rach1_messages));
  point.rach2_messages.add(static_cast<double>(metrics.rach2_messages));
  point.collisions.add(static_cast<double>(metrics.collisions));
  point.neighbors_discovered.add(metrics.mean_neighbors_discovered);
  point.ranging_error.add(metrics.ranging_mean_abs_rel_error);
}

}  // namespace

std::vector<SweepPoint> sweep(Protocol protocol, const SweepConfig& config,
                              util::ThreadPool* pool) {
  std::vector<SweepPoint> points(config.ns.size());
  for (std::size_t i = 0; i < config.ns.size(); ++i) points[i].n = config.ns[i];

  // Workers write each trial's metrics into its own pre-allocated slot
  // (indexed by flat trial number), so the parallel phase shares nothing —
  // no mutex, no contention.  Accumulation then runs sequentially in flat
  // trial order, which makes the resulting SweepPoints (including the
  // per-trial value order inside each util::Sample) identical for a serial
  // run and for any pool size.
  const std::size_t total = config.ns.size() * config.trials;
  std::vector<RunMetrics> results(total);

  auto run_one = [&](std::size_t flat) {
    const std::size_t point_index = flat / config.trials;
    const std::size_t trial = flat % config.trials;
    const ScenarioConfig trial_cfg = trial_config(config, points[point_index].n, trial);
    results[flat] = run_trial(protocol, trial_cfg, config.hooks);
  };

  if (pool != nullptr) {
    pool->parallel_for(total, run_one);
  } else {
    for (std::size_t flat = 0; flat < total; ++flat) run_one(flat);
  }

  for (std::size_t flat = 0; flat < total; ++flat) {
    accumulate(points[flat / config.trials], results[flat]);
  }

  for (SweepPoint& point : points) {
    if (point.trials > 0) point.failure_rate /= static_cast<double>(point.trials);
  }
  return points;
}

}  // namespace firefly::core
