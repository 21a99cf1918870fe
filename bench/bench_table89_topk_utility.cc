// Reproduces Tables VIII-IX: utility of Top-10% PageRank queries
// (|V_t% ∩ V'_t%| / k) for p in {0.9 ... 0.1} on all four datasets
// (UDS skipped on com-LiveJournal, as in the paper).
//
// Paper shape to reproduce: CRR leads on the small datasets (still ~0.3-0.5
// at p=0.1), BM2 second, UDS collapses below 0.2 by p=0.1; on the
// LiveJournal-scale graph both CRR and BM2 stay above 0.75 even at p=0.1.

#include "bench/bench_util.h"
#include "eval/metrics.h"

using namespace edgeshed;

int main(int argc, char** argv) {
  eval::Flags flags(argc, argv);
  eval::BenchConfig config = eval::ParseBenchConfig(flags);
  const double t_percent = flags.GetDouble("t", 10.0).value();
  bench::PrintBenchHeader("Tables VIII-IX — utility of Top-10% queries",
                          config);

  struct Target {
    graph::DatasetId id;
    double scale;
    bool with_uds;
  };
  const Target targets[] = {
      {graph::DatasetId::kCaGrQc, 0.5, true},
      {graph::DatasetId::kCaHepPh, 0.1, true},
      {graph::DatasetId::kEmailEnron, 0.05, true},
      {graph::DatasetId::kComLiveJournal, 0.5, false},
  };
  core::Crr crr = bench::BenchCrr(config.full);
  core::Bm2 bm2 = bench::BenchBm2();
  baseline::Uds uds = bench::BenchUds(config.full);

  for (const Target& target : targets) {
    graph::Graph g = bench::LoadScaled(target.id, config, target.scale);
    const auto& spec = graph::GetDatasetSpec(target.id);
    std::printf("\n%s surrogate: %s nodes, %s edges\n", spec.name.c_str(),
                FormatWithCommas(g.NumNodes()).c_str(),
                FormatWithCommas(g.NumEdges()).c_str());

    TablePrinter table;
    table.SetHeader({"p", "UDS", "CRR", "BM2"});
    for (double p : eval::PaperPreservationRatios()) {
      std::string uds_cell = "-";
      if (target.with_uds) {
        auto summary = uds.Summarize(g, p);
        EDGESHED_CHECK(summary.ok());
        uds_cell =
            FormatDouble(eval::TopKUtilityForUds(g, *summary, t_percent), 3);
      }
      auto crr_result = crr.Reduce(g, p);
      auto bm2_result = bm2.Reduce(g, p);
      EDGESHED_CHECK(crr_result.ok());
      EDGESHED_CHECK(bm2_result.ok());
      table.AddRow(
          {FormatDouble(p, 1), uds_cell,
           FormatDouble(eval::TopKUtilityForReduced(
                            g, crr_result->BuildReducedGraph(g), t_percent),
                        3),
           FormatDouble(eval::TopKUtilityForReduced(
                            g, bm2_result->BuildReducedGraph(g), t_percent),
                        3)});
    }
    bench::PrintTableWithCsv(table);
  }
  std::printf("expected shape (paper Tables VIII-IX): CRR > BM2 > UDS with "
              "the gap widening as p shrinks; UDS below 0.2 by p=0.1 on "
              "small datasets; CRR/BM2 strong on the large graph.\n");
  return 0;
}
