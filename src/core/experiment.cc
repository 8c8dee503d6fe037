#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>

#include "core/engine.h"

namespace locaware::core {

ExperimentConfig MakePaperConfig(ProtocolKind kind, uint64_t num_queries,
                                 uint64_t seed) {
  ExperimentConfig config;
  config.label = ProtocolKindName(kind);
  config.protocol = kind;
  config.params = MakeDefaultParams(kind);
  config.workload.num_queries = num_queries;
  config.seed = seed;
  // Everything else already defaults to the paper's §5.1 values: 1000 peers,
  // degree 3, 4 landmarks, 3000 files / 9000 keywords / 3 kw per file,
  // 3 files per peer, Zipf(1.0), 0.00083 q/s/peer, TTL 7, 1200-bit filters.
  return config;
}

Result<ExperimentResult> RunExperiment(const ExperimentConfig& config,
                                       size_t num_buckets) {
  auto built = Engine::Create(config);
  if (!built.ok()) return built.status();
  std::unique_ptr<Engine> engine = std::move(built).ValueOrDie();

  engine->Run();

  ExperimentResult result;
  result.label = config.label.empty() ? ProtocolKindName(config.protocol) : config.label;
  result.summary = metrics::Summarize(engine->metrics());
  result.series = metrics::Bucketize(engine->metrics().records(), num_buckets);
  result.records = engine->metrics().records();
  return result;
}

std::vector<Result<ExperimentResult>> RunExperiments(
    const std::vector<ExperimentConfig>& configs, size_t num_buckets) {
  std::vector<std::optional<Result<ExperimentResult>>> slots(configs.size());
  std::atomic<size_t> next{0};
  const auto worker = [&] {
    for (size_t i; (i = next.fetch_add(1)) < configs.size();) {
      slots[i].emplace(RunExperiment(configs[i], num_buckets));
    }
  };
  const size_t hardware_threads = std::max(1u, std::thread::hardware_concurrency());
  {
    std::vector<std::jthread> threads;
    for (size_t t = 0; t < std::min(configs.size(), hardware_threads); ++t) {
      threads.emplace_back(worker);
    }
  }  // joins every worker
  std::vector<Result<ExperimentResult>> results;
  results.reserve(slots.size());
  for (auto& slot : slots) results.push_back(std::move(*slot));
  return results;
}

}  // namespace locaware::core
