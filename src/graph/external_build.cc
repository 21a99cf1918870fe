#include "graph/external_build.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <queue>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/strings.h"
#include "graph/edge_list_parse.h"
#include "graph/snapshot_format.h"

namespace edgeshed::graph {

namespace {

using internal::ChunkParse;
using internal::ParseChunk;

constexpr size_t kReadBlockBytes = size_t{4} << 20;
constexpr size_t kQueueDepth = 4;  // read-ahead blocks in flight
constexpr size_t kWriterBufBytes = size_t{1} << 20;

/// Reverse adjacency entry spilled during the merge phase: edge
/// (u, v, id) with u < v contributes {v, u, id}, so after sorting by (v, u)
/// the stream lists each node's smaller neighbors in ascending order.
struct RevEntry {
  NodeId v = 0;
  NodeId u = 0;
  EdgeId id = 0;

  friend bool operator<(const RevEntry& a, const RevEntry& b) {
    return a.v != b.v ? a.v < b.v : a.u < b.u;
  }
};
static_assert(sizeof(RevEntry) == 16, "RevEntry is spilled as raw bytes");

/// Bounded handoff between the reader thread and the parse/intern consumer.
/// Blocks end at newline boundaries, so each parses independently.
class BlockQueue {
 public:
  explicit BlockQueue(size_t max_blocks) : max_blocks_(max_blocks) {}

  /// False once Abort()ed (consumer bailed; reader should stop).
  bool Push(std::string block) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_to_push_.wait(lock, [&] {
      return aborted_ || blocks_.size() < max_blocks_;
    });
    if (aborted_) return false;
    blocks_.push_back(std::move(block));
    ready_to_pop_.notify_one();
    return true;
  }

  /// False when the reader Finish()ed and everything was consumed.
  bool Pop(std::string* out) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_to_pop_.wait(lock,
                       [&] { return finished_ || !blocks_.empty(); });
    if (blocks_.empty()) return false;
    *out = std::move(blocks_.front());
    blocks_.pop_front();
    ready_to_push_.notify_one();
    return true;
  }

  void Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    finished_ = true;
    ready_to_pop_.notify_all();
  }

  void Abort() {
    std::lock_guard<std::mutex> lock(mu_);
    aborted_ = true;
    finished_ = true;
    ready_to_push_.notify_all();
    ready_to_pop_.notify_all();
  }

 private:
  const size_t max_blocks_;
  std::mutex mu_;
  std::condition_variable ready_to_push_;
  std::condition_variable ready_to_pop_;
  std::deque<std::string> blocks_;
  bool finished_ = false;
  bool aborted_ = false;
};

/// Streams the input file into newline-terminated blocks. Runs on its own
/// thread so disk read latency overlaps parsing.
void ReaderLoop(std::ifstream* in, BlockQueue* queue, Status* io_status) {
  std::string tail;
  while (true) {
    std::string block = std::move(tail);
    tail.clear();
    const size_t base = block.size();
    block.resize(base + kReadBlockBytes);
    in->read(block.data() + base,
             static_cast<std::streamsize>(kReadBlockBytes));
    const size_t got = static_cast<size_t>(in->gcount());
    block.resize(base + got);
    const bool at_end = got < kReadBlockBytes;
    if (!at_end) {
      const size_t last_newline = block.rfind('\n');
      if (last_newline == std::string::npos) {
        tail = std::move(block);  // one line spanning whole blocks
        continue;
      }
      tail.assign(block, last_newline + 1, std::string::npos);
      block.resize(last_newline + 1);
    }
    if (!block.empty() && !queue->Push(std::move(block))) return;
    if (at_end) break;
  }
  if (in->bad()) *io_status = Status::IOError("read failed mid-stream");
  queue->Finish();
}

/// Parses one block in parallel sub-chunks split at newline boundaries,
/// exactly like LoadEdgeList's whole-file parse.
std::vector<ChunkParse> ParseBlockParallel(std::string_view data,
                                           int threads) {
  constexpr size_t kMinChunkBytes = size_t{1} << 16;
  const size_t chunk_target = std::clamp<size_t>(
      data.size() / kMinChunkBytes, 1, static_cast<size_t>(threads));
  std::vector<size_t> bounds;
  bounds.push_back(0);
  for (size_t c = 1; c < chunk_target; ++c) {
    size_t pos = data.find('\n', data.size() * c / chunk_target);
    pos = pos == std::string_view::npos ? data.size() : pos + 1;
    if (pos > bounds.back() && pos < data.size()) bounds.push_back(pos);
  }
  bounds.push_back(data.size());
  std::vector<ChunkParse> chunks(bounds.size() - 1);
  ParallelForEach(
      0, chunks.size(),
      [&](uint64_t c) {
        ParseChunk(data, bounds[c], bounds[c + 1], &chunks[c]);
      },
      threads, /*grain=*/1);
  return chunks;
}

/// Removes its temp files on scope exit — success and failure paths alike.
struct TempFiles {
  std::vector<std::string> paths;
  ~TempFiles() {
    for (const std::string& p : paths) std::remove(p.c_str());
  }
  std::string Add(std::string path) {
    paths.push_back(std::move(path));
    return paths.back();
  }
};

template <typename T>
Status SpillRun(std::vector<T>* buf, const std::string& path, int threads) {
  ParallelSort(buf->begin(), buf->end(), std::less<T>(), threads);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open run file: " + path);
  out.write(reinterpret_cast<const char*>(buf->data()),
            static_cast<std::streamsize>(buf->size() * sizeof(T)));
  out.close();
  if (!out) return Status::IOError("run write failed: " + path);
  buf->clear();
  return Status::OK();
}

/// Buffered sequential reader of one raw-record run file.
template <typename T>
class RunReader {
 public:
  RunReader(const std::string& path, size_t buffer_records)
      : in_(path, std::ios::binary), path_(path) {
    buf_.resize(std::max<size_t>(buffer_records, 512));
  }

  bool Next(T* out) {
    if (pos_ == len_ && !Refill()) return false;
    *out = buf_[pos_++];
    return true;
  }

  bool ok() const { return !bad_; }
  const std::string& path() const { return path_; }

 private:
  bool Refill() {
    if (!in_) return false;
    in_.read(reinterpret_cast<char*>(buf_.data()),
             static_cast<std::streamsize>(buf_.size() * sizeof(T)));
    const size_t got = static_cast<size_t>(in_.gcount());
    if (got % sizeof(T) != 0) bad_ = true;
    len_ = got / sizeof(T);
    pos_ = 0;
    return len_ > 0;
  }

  std::ifstream in_;
  std::string path_;
  std::vector<T> buf_;
  size_t pos_ = 0;
  size_t len_ = 0;
  bool bad_ = false;
};

/// K-way merge over sorted run files. Records with equal keys come out in
/// arbitrary run order; callers dedup on the fly where needed.
template <typename T>
class RunMerger {
 public:
  RunMerger(const std::vector<std::string>& paths, size_t buffer_records) {
    readers_.reserve(paths.size());
    for (const std::string& p : paths) {
      readers_.emplace_back(p, buffer_records);
    }
    for (size_t r = 0; r < readers_.size(); ++r) {
      T record;
      if (readers_[r].Next(&record)) heap_.push({record, r});
    }
  }

  bool Peek(T* out) const {
    if (heap_.empty()) return false;
    *out = heap_.top().record;
    return true;
  }

  bool Next(T* out) {
    if (heap_.empty()) return false;
    const Item top = heap_.top();
    heap_.pop();
    *out = top.record;
    T refill;
    if (readers_[top.run].Next(&refill)) heap_.push({refill, top.run});
    return true;
  }

  Status status() const {
    for (const auto& r : readers_) {
      if (!r.ok()) return Status::IOError("corrupt run file: " + r.path());
    }
    return Status::OK();
  }

 private:
  struct Item {
    T record;
    size_t run;
    friend bool operator<(const Item& a, const Item& b) {
      return b.record < a.record;  // min-heap via priority_queue
    }
  };
  std::vector<RunReader<T>> readers_;
  std::priority_queue<Item> heap_;
};

/// Buffered positional writer: appends through a fixed buffer and pwrite()s
/// at an independent file offset, so several sections stream concurrently
/// into one file during the final assembly pass.
class SectionWriter {
 public:
  SectionWriter(int fd, uint64_t offset) : fd_(fd), file_pos_(offset) {
    buf_.reserve(kWriterBufBytes);
  }

  void Write(const void* bytes, size_t n) {
    const char* p = static_cast<const char*>(bytes);
    while (n > 0 && status_.ok()) {
      const size_t take = std::min(n, kWriterBufBytes - buf_.size());
      buf_.append(p, take);
      p += take;
      n -= take;
      if (buf_.size() == kWriterBufBytes) Flush();
    }
  }

  void PutU32(uint32_t value) { Write(&value, sizeof(value)); }
  void PutU64(uint64_t value) { Write(&value, sizeof(value)); }

  Status Close() {
    Flush();
    return status_;
  }

 private:
  void Flush() {
    const char* p = buf_.data();
    size_t left = buf_.size();
    while (left > 0 && status_.ok()) {
      const ssize_t wrote =
          ::pwrite(fd_, p, left, static_cast<off_t>(file_pos_));
      if (wrote < 0) {
        if (errno == EINTR) continue;
        status_ = Status::IOError(StrFormat("snapshot section write: %s",
                                            std::strerror(errno)));
        break;
      }
      p += wrote;
      left -= static_cast<size_t>(wrote);
      file_pos_ += static_cast<uint64_t>(wrote);
    }
    buf_.clear();
  }

  int fd_;
  uint64_t file_pos_;
  std::string buf_;
  Status status_;
};

std::string TempBase(const std::string& out_path,
                     const std::string& temp_dir) {
  if (temp_dir.empty()) return out_path;
  const size_t slash = out_path.find_last_of('/');
  const std::string name =
      slash == std::string::npos ? out_path : out_path.substr(slash + 1);
  return temp_dir + "/" + name;
}

Status CancelStatus(const CancellationToken* cancel) {
  return cancel->ToStatus();
}

}  // namespace

StatusOr<ExternalBuildStats> BuildSnapshotExternal(
    const GraphSource& source, const std::string& out_path,
    const ExternalBuildOptions& options) {
  if (!options.snapshot.original_ids.empty()) {
    return Status::InvalidArgument(
        "external build discovers original_ids itself; leave the "
        "SnapshotOptions table empty");
  }
  GraphFormat format = source.format;
  if (format == GraphFormat::kAuto) {
    EDGESHED_ASSIGN_OR_RETURN(format, DetectGraphFormat(source.path));
  }
  if (format != GraphFormat::kText) {
    return Status::InvalidArgument(
        StrFormat("external build ingests text edge lists; %s is %s "
                  "(already binary — convert in memory instead)",
                  source.path.c_str(), GraphFormatName(format)));
  }
  const int threads =
      options.threads > 0 ? options.threads : DefaultThreadCount();
  const uint64_t budget =
      std::max<uint64_t>(options.memory_budget_bytes, uint64_t{1} << 20);

  std::ifstream in(source.path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open edge list file: " + source.path);
  }

  ExternalBuildStats stats;
  TempFiles temps;
  const std::string temp_base = TempBase(out_path, options.temp_dir);

  // --- Phase A: stream, parse, intern, spill sorted deduped edge runs. ---
  BlockQueue queue(kQueueDepth);
  Status reader_status;
  std::thread reader(ReaderLoop, &in, &queue, &reader_status);
  struct JoinGuard {
    std::thread* t;
    BlockQueue* q;
    ~JoinGuard() {
      q->Abort();
      if (t->joinable()) t->join();
    }
  } join_guard{&reader, &queue};

  std::unordered_map<uint64_t, NodeId> dense_id;
  std::vector<uint64_t> original_ids;
  const uint64_t run_edge_capacity =
      std::max<uint64_t>(budget / 2 / sizeof(Edge), uint64_t{1} << 16);
  std::vector<Edge> edge_buf;
  edge_buf.reserve(run_edge_capacity);
  std::vector<std::string> edge_runs;
  const auto spill_edges = [&]() -> Status {
    stats.peak_buffer_bytes = std::max<uint64_t>(
        stats.peak_buffer_bytes, edge_buf.capacity() * sizeof(Edge));
    const std::string run = temps.Add(
        StrFormat("%s.run%zu", temp_base.c_str(), edge_runs.size()));
    stats.spilled_bytes += edge_buf.size() * sizeof(Edge);
    EDGESHED_RETURN_IF_ERROR(SpillRun(&edge_buf, run, threads));
    edge_runs.push_back(run);
    return Status::OK();
  };
  bool first_block = true;
  uint64_t line_base = 0;
  std::string block;
  while (queue.Pop(&block)) {
    if (CancellationRequested(options.cancel)) {
      return CancelStatus(options.cancel);
    }
    if (first_block) {
      first_block = false;
      const GraphFormat sniffed = SniffGraphFormat(block);
      if (sniffed != GraphFormat::kText) {
        return Status::InvalidArgument(StrFormat(
            "%s: not a text edge list — detected %s magic '%.8s'",
            source.path.c_str(), GraphFormatName(sniffed), block.data()));
      }
    }
    const std::vector<ChunkParse> chunks = ParseBlockParallel(block, threads);
    for (const ChunkParse& chunk : chunks) {
      if (chunk.has_error) {
        return Status::InvalidArgument(StrFormat(
            "%s:%llu: expected 'src dst', got '%s'", source.path.c_str(),
            static_cast<unsigned long long>(line_base + chunk.error_line),
            chunk.error_snippet.c_str()));
      }
      // Serial first-seen interning in file order: the dense numbering is
      // bit-identical to the in-memory loader's for every thread count.
      for (const auto& [raw_u, raw_v] : chunk.edges) {
        ++stats.input_edges;
        const auto intern = [&](uint64_t raw) {
          auto [it, inserted] = dense_id.emplace(
              raw, static_cast<NodeId>(original_ids.size()));
          if (inserted) original_ids.push_back(raw);
          return it->second;
        };
        NodeId u = intern(raw_u);
        NodeId v = intern(raw_v);
        if (u == v) continue;  // self-loop
        if (u > v) std::swap(u, v);
        edge_buf.push_back(Edge{u, v});
        // Checked per edge, not per block: the budget bounds the buffer
        // regardless of read or parse granularity. Spilling mid-chunk is
        // safe — runs are merged later, and the intern order is unchanged.
        if (edge_buf.size() >= run_edge_capacity) {
          EDGESHED_RETURN_IF_ERROR(spill_edges());
        }
      }
      line_base += chunk.lines;
    }
  }
  queue.Abort();
  reader.join();
  EDGESHED_RETURN_IF_ERROR(reader_status);
  if (!edge_buf.empty() || edge_runs.empty()) {
    EDGESHED_RETURN_IF_ERROR(spill_edges());
  }
  edge_buf.shrink_to_fit();
  stats.edge_runs = edge_runs.size();
  const uint64_t num_nodes = original_ids.size();
  stats.num_nodes = num_nodes;

  // --- Phase B: k-way merge runs -> unique forward edge stream. Assigns
  // EdgeIds, accumulates degrees, spills reverse runs for the transpose. ---
  const size_t merge_buf_records = std::max<size_t>(
      budget / 4 / std::max<size_t>(edge_runs.size(), 1) / sizeof(Edge),
      512);
  RunMerger<Edge> edge_merge(edge_runs, merge_buf_records);
  const std::string edges_tmp = temps.Add(temp_base + ".edges");
  std::ofstream edges_out(edges_tmp, std::ios::binary | std::ios::trunc);
  if (!edges_out) {
    return Status::IOError("cannot open temp edge file: " + edges_tmp);
  }
  std::vector<uint32_t> degrees(num_nodes, 0);
  const uint64_t rev_capacity =
      std::max<uint64_t>(budget / 2 / sizeof(RevEntry), uint64_t{1} << 16);
  std::vector<RevEntry> rev_buf;
  rev_buf.reserve(rev_capacity);
  std::vector<std::string> rev_runs;
  auto spill_rev = [&]() -> Status {
    stats.peak_buffer_bytes = std::max<uint64_t>(
        stats.peak_buffer_bytes, rev_buf.capacity() * sizeof(RevEntry));
    const std::string run = temps.Add(
        StrFormat("%s.rev%zu", temp_base.c_str(), rev_runs.size()));
    stats.spilled_bytes += rev_buf.size() * sizeof(RevEntry);
    EDGESHED_RETURN_IF_ERROR(SpillRun(&rev_buf, run, threads));
    rev_runs.push_back(run);
    return Status::OK();
  };
  uint64_t num_edges = 0;
  Edge e;
  Edge last{kInvalidNode, kInvalidNode};
  while (edge_merge.Next(&e)) {
    if (e == last) continue;  // duplicate across runs
    last = e;
    edges_out.write(reinterpret_cast<const char*>(&e), sizeof(Edge));
    ++degrees[e.u];
    ++degrees[e.v];
    rev_buf.push_back(RevEntry{e.v, e.u, num_edges});
    ++num_edges;
    if (rev_buf.size() >= rev_capacity) {
      EDGESHED_RETURN_IF_ERROR(spill_rev());
    }
    if ((num_edges & 0xFFFF) == 0 &&
        CancellationRequested(options.cancel)) {
      return CancelStatus(options.cancel);
    }
  }
  EDGESHED_RETURN_IF_ERROR(edge_merge.status());
  edges_out.close();
  if (!edges_out) {
    return Status::IOError("temp edge write failed: " + edges_tmp);
  }
  if (!rev_buf.empty()) {
    EDGESHED_RETURN_IF_ERROR(spill_rev());
  }
  rev_buf.shrink_to_fit();
  stats.reverse_runs = rev_runs.size();
  stats.num_edges = num_edges;

  // --- Phase C: stream the CSR sections into place. ---
  bool identity_ids = true;
  for (uint64_t i = 0; i < num_nodes; ++i) {
    if (original_ids[i] != i) {
      identity_ids = false;
      break;
    }
  }
  SnapshotHeader header = PlanSnapshotLayout(
      num_nodes, num_edges, /*with_original_ids=*/!identity_ids,
      options.snapshot.page_align, options.snapshot.chunk_bytes);
  const int fd = ::open(out_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IOError(StrFormat("cannot open %s for writing: %s",
                                     out_path.c_str(),
                                     std::strerror(errno)));
  }
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } fd_guard{fd};
  // Size the file up front: section gaps become zero-filled holes (same
  // bytes the in-memory writer pads explicitly) and ENOSPC surfaces now.
  if (::ftruncate(fd, static_cast<off_t>(header.FileBytes())) != 0) {
    return Status::IOError(StrFormat("cannot size %s: %s", out_path.c_str(),
                                     std::strerror(errno)));
  }

  const auto section_offset = [&](int s) {
    return header.sections[static_cast<size_t>(s)].offset;
  };
  SectionWriter offsets_w(fd, section_offset(kSectionOffsets));
  SectionWriter adjacency_w(fd, section_offset(kSectionAdjacency));
  SectionWriter incident_w(fd, section_offset(kSectionIncident));

  uint64_t prefix = 0;
  offsets_w.PutU64(0);
  for (uint64_t u = 0; u < num_nodes; ++u) {
    prefix += degrees[u];
    offsets_w.PutU64(prefix);
  }

  // Merge-join: for node s, reverse entries with v == s list the smaller
  // neighbors ascending, then forward edges with u == s list the larger
  // ones — together the sorted adjacency row, ids attached.
  RunMerger<RevEntry> rev_merge(
      rev_runs,
      std::max<size_t>(budget / 4 /
                           std::max<size_t>(rev_runs.size(), 1) /
                           sizeof(RevEntry),
                       512));
  RunReader<Edge> forward(edges_tmp, size_t{1} << 16);
  RevEntry rev{};
  bool have_rev = rev_merge.Next(&rev);
  Edge fwd{};
  bool have_fwd = forward.Next(&fwd);
  uint64_t fwd_id = 0;
  for (uint64_t s = 0; s < num_nodes; ++s) {
    while (have_rev && rev.v == s) {
      adjacency_w.PutU32(rev.u);
      incident_w.PutU64(rev.id);
      have_rev = rev_merge.Next(&rev);
    }
    while (have_fwd && fwd.u == s) {
      adjacency_w.PutU32(fwd.v);
      incident_w.PutU64(fwd_id++);
      have_fwd = forward.Next(&fwd);
    }
    if ((s & 0xFFFF) == 0 && CancellationRequested(options.cancel)) {
      return CancelStatus(options.cancel);
    }
  }
  EDGESHED_RETURN_IF_ERROR(rev_merge.status());
  if (!forward.ok()) {
    return Status::IOError("corrupt temp edge file: " + edges_tmp);
  }

  // Edges section: the forward temp file IS the section payload.
  {
    SectionWriter edges_w(fd, section_offset(kSectionEdges));
    std::ifstream copy(edges_tmp, std::ios::binary);
    std::vector<char> copy_buf(kWriterBufBytes);
    while (copy) {
      copy.read(copy_buf.data(),
                static_cast<std::streamsize>(copy_buf.size()));
      const size_t got = static_cast<size_t>(copy.gcount());
      if (got == 0) break;
      edges_w.Write(copy_buf.data(), got);
    }
    EDGESHED_RETURN_IF_ERROR(edges_w.Close());
  }
  if (!identity_ids) {
    SectionWriter ids_w(fd, section_offset(kSectionOriginalIds));
    ids_w.Write(original_ids.data(), original_ids.size() * 8);
    EDGESHED_RETURN_IF_ERROR(ids_w.Close());
  }
  EDGESHED_RETURN_IF_ERROR(offsets_w.Close());
  EDGESHED_RETURN_IF_ERROR(adjacency_w.Close());
  EDGESHED_RETURN_IF_ERROR(incident_w.Close());

  EDGESHED_RETURN_IF_ERROR(FinalizeSnapshotFile(out_path, std::move(header)));
  return stats;
}

}  // namespace edgeshed::graph
