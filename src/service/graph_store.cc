#include "service/graph_store.h"

#include <utility>

#include "common/strings.h"

namespace edgeshed::service {

namespace {

ByteLruInstruments StoreInstruments(obs::MetricsRegistry* metrics) {
  ByteLruInstruments instruments;
  if (metrics == nullptr) return instruments;
  instruments.hit = metrics->GetCounter("store.hit");
  instruments.miss = metrics->GetCounter("store.miss");
  instruments.wait_hit = metrics->GetCounter("store.wait_hit");
  instruments.failed = metrics->GetCounter("store.load_failure");
  instruments.wait_failure = metrics->GetCounter("store.wait_failure");
  instruments.evicted = metrics->GetCounter("store.eviction");
  instruments.bytes = metrics->GetGauge("store.bytes_resident");
  instruments.entries = metrics->GetGauge("store.graphs_resident");
  instruments.compute_seconds = metrics->GetLatency("store.load_seconds");
  return instruments;
}

Status CheckLoader(const std::string& name, const GraphStore::Loader& loader) {
  if (name.empty()) {
    return Status::InvalidArgument("dataset name must be non-empty");
  }
  if (loader == nullptr) {
    return Status::InvalidArgument(
        StrFormat("null loader for dataset '%s'", name.c_str()));
  }
  return Status::OK();
}

/// Residency key of one dataset generation.
std::string ResidentKey(const std::string& name, uint64_t generation) {
  return StrFormat("%s|g%llu", name.c_str(),
                   static_cast<unsigned long long>(generation));
}

}  // namespace

GraphStore::GraphStore(GraphStoreOptions options,
                       obs::MetricsRegistry* metrics, obs::Tracer* tracer)
    : tracer_(tracer),
      resident_(options.byte_budget,
                [](const std::string&,
                   const std::shared_ptr<const graph::Graph>& g) {
                  return ApproxBytes(*g);
                },
                StoreInstruments(metrics)) {}

void GraphStore::BumpGenerationLocked(const std::string& name, Entry& entry,
                                      Loader loader) {
  // Leases held by running jobs stay valid; a load of the old generation
  // still in flight serves its callers but is not installed.
  resident_.Erase(ResidentKey(name, entry.generation));
  ++entry.generation;
  entry.loader = std::move(loader);
}

Status GraphStore::Register(const std::string& name, Loader loader) {
  EDGESHED_RETURN_IF_ERROR(CheckLoader(name, loader));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(name);
  if (!inserted) {
    return Status::FailedPrecondition(
        StrFormat("dataset '%s' is already registered", name.c_str()));
  }
  it->second.loader = std::move(loader);
  return Status::OK();
}

Status GraphStore::Replace(const std::string& name, Loader loader) {
  EDGESHED_RETURN_IF_ERROR(CheckLoader(name, loader));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) {
    it->second.loader = std::move(loader);
  } else {
    it->second.dyn.reset();  // a replaced dataset starts a fresh history
    BumpGenerationLocked(name, it->second, std::move(loader));
  }
  return Status::OK();
}

uint64_t GraphStore::Generation(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? 0 : it->second.generation;
}

void GraphStore::SetFallbackLoaderFactory(LoaderFactory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  fallback_factory_ = std::move(factory);
}

StatusOr<std::shared_ptr<const graph::Graph>> GraphStore::Get(
    const std::string& name, uint64_t* generation) {
  Loader loader;
  uint64_t loading_generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end() && fallback_factory_ != nullptr &&
        !name.empty()) {
      // Unknown name: give the fallback factory one shot at minting a
      // loader (shard snapshots appear after startup). Successful mints
      // register the name permanently, so later Gets take the ordinary path.
      if (std::optional<Loader> minted = fallback_factory_(name);
          minted.has_value() && *minted != nullptr) {
        it = entries_.try_emplace(name).first;
        it->second.loader = *std::move(minted);
      }
    }
    if (it == entries_.end()) {
      return Status::NotFound(
          StrFormat("dataset '%s' is not registered", name.c_str()));
    }
    // Copied under the lock because Replace may swap it concurrently.
    loader = it->second.loader;
    loading_generation = it->second.generation;
  }
  const std::string key = ResidentKey(name, loading_generation);
  auto graph = resident_.GetOrCompute(
      key, [&]() -> StatusOr<std::shared_ptr<const graph::Graph>> {
        obs::Span load_span = obs::Tracer::StartSpan(tracer_, "store.load");
        load_span.Annotate("dataset", name);
        StatusOr<graph::Graph> loaded = loader();
        load_span.Annotate("ok", loaded.ok() ? "true" : "false");
        if (!loaded.ok()) return loaded.status();
        return std::make_shared<const graph::Graph>(std::move(loaded).value());
      });
  if (!graph.ok()) return graph.status();
  {
    // A Replace that landed between reading the generation and starting
    // the load could not detach it: drop the stale install here.
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.at(name).generation != loading_generation) {
      resident_.Erase(key);
    }
  }
  if (generation != nullptr) *generation = loading_generation;
  return graph;
}

StatusOr<std::shared_ptr<dyn::VersionedGraph>> GraphStore::DynGraph(
    const std::string& name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it != entries_.end() && it->second.dyn != nullptr) {
      return it->second.dyn;
    }
  }
  // First use: load (or reuse) the base graph through the ordinary Get
  // path, then install the handle. Get also gives fallback-minted datasets
  // a chance to register themselves.
  auto graph = Get(name);
  if (!graph.ok()) return graph.status();
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_.at(name);
  if (entry.dyn == nullptr) {
    entry.dyn = std::make_shared<dyn::VersionedGraph>(*std::move(graph));
  }
  return entry.dyn;
}

StatusOr<uint64_t> GraphStore::ApplyMutations(const std::string& name,
                                              graph::MutationBatch batch) {
  auto dyn = DynGraph(name);
  if (!dyn.ok()) return dyn.status();
  auto version = (*dyn)->ApplyBatch(std::move(batch));
  if (!version.ok()) return version.status();
  // Publish the new head through the Replace contract: generation bump +
  // loader swap + resident drop, so readers and generation-keyed caches
  // converge on the mutated graph. The loader captures a pinned snapshot —
  // materializing it later yields exactly this version even if more
  // batches land in between (each of those swaps the loader again).
  std::shared_ptr<const dyn::DeltaGraph> snap = (*dyn)->Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_.at(name);
  if (entry.dyn == *dyn) {  // skip if Replace raced us: its state won
    BumpGenerationLocked(name, entry,
                         [snap] { return snap->Materialize(); });
  }
  return *version;
}

bool GraphStore::IsResident(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it != entries_.end() &&
         resident_.Contains(ResidentKey(name, it->second.generation));
}

std::vector<std::string> GraphStore::RegisteredNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

uint64_t GraphStore::ApproxBytes(const graph::Graph& g) {
  // Mapped graphs count only their heap footprint: the CSR lives in the
  // page cache, reclaimable under memory pressure, so charging it against
  // the resident-byte budget would evict datasets that cost near nothing.
  return g.HeapBytes();
}

}  // namespace edgeshed::service
