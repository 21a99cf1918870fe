// Reproduces Fig. 4: CRR reduction quality (average delta) and running time
// as the Phase-2 iteration budget steps = x·P varies, on ca-GrQc and
// ca-HepPh surrogates at p = 0.5.
//
// Paper shape to reproduce: average delta falls sharply once x > 4 and
// flattens past x ~ 10; running time grows roughly linearly in x. This is
// what justifies the paper's default steps = 10·P.

#include "bench/bench_util.h"
#include "common/stopwatch.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  const double p = flags.GetDouble("p", 0.5).value();
  bench::PrintBenchHeader("Fig. 4 — CRR steps sweep (steps = x * P)", config);

  struct Target {
    graph::DatasetId id;
    double scale;
  };
  for (const Target& target :
       {Target{graph::DatasetId::kCaGrQc, 0.5},
        Target{graph::DatasetId::kCaHepPh, 0.1}}) {
    graph::Graph g = bench::LoadScaled(target.id, config, target.scale);
    const auto& spec = graph::GetDatasetSpec(target.id);
    std::printf("\n%s surrogate: %s nodes, %s edges, p = %.1f\n",
                spec.name.c_str(), FormatWithCommas(g.NumNodes()).c_str(),
                FormatWithCommas(g.NumEdges()).c_str(), p);

    TablePrinter table;
    table.SetHeader({"x", "steps", "avg delta", "time (s)"});
    for (int x = 0; x <= 14; x += 2) {
      core::CrrOptions options;
      options.betweenness = bench::BenchBetweenness(config.full);
      options.steps_multiplier = static_cast<double>(x);
      core::Crr crr(options);
      Stopwatch watch;
      auto result = crr.Reduce(g, p);
      EDGESHED_CHECK(result.ok()) << result.status().ToString();
      table.AddRow({std::to_string(x),
                    FormatWithCommas(crr.StepsFor(g, p)),
                    FormatDouble(result->average_delta, 4),
                    bench::Seconds(watch.ElapsedSeconds())});
    }
    bench::PrintTableWithCsv(table);
  }
  std::printf("expected shape (paper Fig. 4): avg delta drops sharply for "
              "x > 4, flattens past x ~ 10; time grows with x.\n");
  return 0;
}
