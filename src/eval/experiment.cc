#include "eval/experiment.h"

namespace edgeshed::eval {

BenchConfig ParseBenchConfig(const Flags& flags) {
  BenchConfig config;
  config.scale = flags.GetDouble("scale", 1.0).value();
  config.full = flags.GetBool("full", false);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 20210419).value());
  config.data_dir = flags.GetString("data_dir", "");
  return config;
}

double DefaultDatasetScale(graph::DatasetId id, bool full) {
  if (full) return 1.0;
  switch (id) {
    case graph::DatasetId::kCaGrQc:
    case graph::DatasetId::kCaHepPh:
    case graph::DatasetId::kEmailEnron:
      return 1.0;
    case graph::DatasetId::kComLiveJournal:
      return 1.0 / 32.0;
  }
  return 1.0;
}

graph::Graph LoadBenchGraph(graph::DatasetId id, const BenchConfig& config) {
  graph::DatasetOptions options;
  options.scale = DefaultDatasetScale(id, config.full) * config.scale;
  options.seed = config.seed;
  std::string path;
  if (!config.data_dir.empty()) {
    path = config.data_dir + "/" + graph::GetDatasetSpec(id).name + ".txt";
  }
  return graph::MakeDatasetOrLoad(id, path, options);
}

std::vector<double> PaperPreservationRatios() {
  return {0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1};
}

}  // namespace edgeshed::eval
