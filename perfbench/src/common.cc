#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "common/parallel.h"
#include "common/random.h"
#include "common/strings.h"
#include "graph/binary_io.h"

namespace edgeshed::perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed ^ (0xa0761d6478bd642fULL * (stream + 1));
  return SplitMix64Next(&state);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n < 21) {
    tail.value = values.back();
    return tail;
  }
  // Sorted index n-11 leaves exactly ten larger samples beyond it.
  tail.value = values[n - 11];
  tail.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  tail.defined = true;
  return tail;
}

OpTail OpTailOf(const std::vector<double>& ordered) {
  OpTail tail;
  const size_t rounds = std::min(kTailRounds, ordered.size());
  std::vector<double> values;
  for (size_t r = 0; r < rounds; ++r) {
    const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(
                                             ordered.size() * r / rounds);
    const auto end = ordered.begin() + static_cast<std::ptrdiff_t>(
                                           ordered.size() * (r + 1) / rounds);
    tail.rounds.push_back(TailOf(std::vector<double>(begin, end)));
    values.push_back(tail.rounds.back().value);
  }
  tail.value = Median(std::move(values));
  return tail;
}

std::string OpTail::Describe() const {
  std::string out = StrFormat("the median of %zu round tails:", rounds.size());
  for (size_t r = 0; r < rounds.size(); ++r) {
    out += r == 0 ? " " : ", ";
    out += rounds[r].defined
               ? StrFormat("p%.1f of %zu", rounds[r].percentile,
                           rounds[r].samples)
               : StrFormat("max of %zu", rounds[r].samples);
  }
  return out;
}

void Outcomes::Record(const Status& status) {
  ++attempted;
  switch (status.code()) {
    case StatusCode::kOk:
      ++succeeded;
      break;
    case StatusCode::kResourceExhausted:
      ++refused;
      break;
    case StatusCode::kDeadlineExceeded:
      ++expired;
      break;
    default:
      ++errored;
      if (errored <= 5) {
        std::fprintf(stderr, "perfbench: op failed: %s\n",
                     status.ToString().c_str());
      }
  }
}

void Outcomes::Check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failed;
  if (check_failed <= 10) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

int Report::Print(const Outcomes& outcomes,
                  const std::vector<std::string>& json_metrics) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const auto& [name, metric] : metrics_) {
    std::printf("metric %-28s %.9g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      outcomes.check_failed == 0 && outcomes.succeeded > 0 ? "true" : "false",
      static_cast<unsigned long long>(outcomes.attempted),
      static_cast<unsigned long long>(outcomes.failed()));
  for (size_t i = 0; i < json_metrics.size(); ++i) {
    auto it = metrics_.find(json_metrics[i]);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   json_metrics[i].c_str());
      return 1;
    }
    json += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i == 0 ? "" : ", ", it->first.c_str(),
                      it->second.value, it->second.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

void NoteProvenance(Report* report, const Args& args,
                    const std::vector<Provenance>& graphs) {
  report->Note(StrFormat(
      "run workload=%s seed=%llu seconds=%g trace=%d threads=%d rev=%s",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, DefaultThreadCount(),
      args.rev.c_str()));
  for (const Provenance& g : graphs) {
    report->Note(StrFormat(
        "graph %s generator=%s scale=%g seed=%llu nodes=%llu edges=%llu",
        g.name.c_str(), g.generator.c_str(), g.scale,
        static_cast<unsigned long long>(g.seed),
        static_cast<unsigned long long>(g.nodes),
        static_cast<unsigned long long>(g.edges)));
  }
}

StatusOr<GraphInput> MakeGraphInput(graph::DatasetId id, double scale,
                                    uint64_t seed, const std::string& path) {
  graph::DatasetOptions options;
  options.scale = scale;
  options.seed = seed;
  auto g = std::make_shared<graph::Graph>(graph::MakeDataset(id, options));
  EDGESHED_RETURN_IF_ERROR(
      graph::SaveBinaryGraph(*g, path, graph::SnapshotOptions{}));
  const graph::DatasetSpec& spec = graph::GetDatasetSpec(id);
  GraphInput input;
  input.provenance = Provenance{spec.name, spec.surrogate, scale, seed,
                                g->NumNodes(), g->NumEdges()};
  input.path = path;
  input.graph = std::move(g);
  return input;
}

Trace::Trace(bool enabled) {
  if (enabled) {
    obs::TracerOptions options;
    options.capacity = size_t{1} << 19;
    tracer_ = std::make_unique<obs::Tracer>(options);
  }
}

obs::Span Trace::Span(const std::string& name, bool on) {
  return obs::Tracer::StartSpan(on ? tracer_.get() : nullptr, name);
}

namespace {

// Per trace, per span name: summed self time.
using PerTrace = std::map<std::string, double>;

std::unordered_map<uint64_t, PerTrace> SelfSecondsPerTrace(
    const obs::Tracer& tracer) {
  const std::vector<obs::SpanRecord> spans = tracer.Spans();
  std::unordered_map<uint64_t, std::vector<const obs::SpanRecord*>> children;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent_id != 0) children[span.parent_id].push_back(&span);
  }
  std::unordered_map<uint64_t, PerTrace> out;
  for (const obs::SpanRecord& span : spans) {
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> covered;
    const int64_t begin = span.start_ns;
    const int64_t end = span.start_ns + span.duration_ns;
    auto it = children.find(span.span_id);
    if (it != children.end()) {
      for (const obs::SpanRecord* child : it->second) {
        const int64_t b = std::max(begin, child->start_ns);
        const int64_t e = std::min(end, child->start_ns + child->duration_ns);
        if (b < e) covered.emplace_back(b, e);
      }
    }
    std::sort(covered.begin(), covered.end());
    int64_t covered_ns = 0;
    int64_t reach = begin;
    for (const auto& [b, e] : covered) {
      const int64_t from = std::max(b, reach);
      if (e > from) covered_ns += e - from;
      reach = std::max(reach, e);
    }
    out[span.trace_id][span.name] +=
        static_cast<double>(span.duration_ns - covered_ns) / 1e9;
  }
  return out;
}

}  // namespace

std::map<std::string, double> Trace::MedianSelfSeconds() const {
  if (tracer_ == nullptr) return {};
  std::map<std::string, std::vector<double>> samples;
  for (const auto& [trace_id, per] : SelfSecondsPerTrace(*tracer_)) {
    for (const auto& [name, seconds] : per) samples[name].push_back(seconds);
  }
  std::map<std::string, double> out;
  for (auto& [name, values] : samples) out[name] = Median(std::move(values));
  return out;
}

Status Trace::WriteJson(const std::string& path) const {
  if (tracer_ == nullptr) return Status::OK();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << tracer_->TraceEventJson();
  out.close();
  if (!out) return Status::IOError("cannot write trace to " + path);
  return Status::OK();
}

double StatValue(const std::vector<std::pair<std::string, double>>& stats,
                 const std::string& name) {
  for (const auto& [key, value] : stats) {
    if (key == name) return value;
  }
  return 0.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace edgeshed::perfbench
