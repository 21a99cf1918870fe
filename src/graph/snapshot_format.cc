#include "graph/snapshot_format.h"

#include <bit>
#include <cstring>
#include <fstream>

#include "common/check.h"
#include "common/crc32.h"
#include "common/mapped_file.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "graph/graph.h"

namespace edgeshed::graph {

namespace {

// Sections are written by memcpy from live arrays and adopted back by
// reinterpreting mapped bytes, so the on-disk sections are native-endian.
// The format pins little-endian; porting to a big-endian host would need a
// byte-swapping copy loader.
static_assert(std::endian::native == std::endian::little,
              "v3 snapshots assume a little-endian host");

void PutU64(char* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void PutU32(char* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

uint64_t GetU64(const char* in) {
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

uint32_t GetU32(const char* in) {
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<unsigned char>(in[i]))
             << (8 * i);
  }
  return value;
}

/// Printable rendering of a magic field for error messages.
std::string MagicString(const char* data) {
  std::string out;
  for (int i = 0; i < 8; ++i) {
    const unsigned char c = static_cast<unsigned char>(data[i]);
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(static_cast<char>(c));
    } else {
      out += StrFormat("\\x%02x", c);
    }
  }
  return out;
}

constexpr uint64_t kMinPageAlign = 8;             // u64 span alignment
constexpr uint64_t kMaxPageAlign = uint64_t{1} << 30;
constexpr uint64_t kMinChunkBytes = uint64_t{1} << 12;
constexpr uint64_t kMaxChunkBytes = uint64_t{1} << 30;

/// Unpadded payload size of each section given the graph shape.
std::array<uint64_t, kSnapshotSectionCount> SectionBytes(
    uint64_t num_nodes, uint64_t num_edges, bool with_original_ids) {
  return {
      (num_nodes + 1) * 8,             // offsets: u64 x (n+1)
      2 * num_edges * 4,               // adjacency: u32 x 2m
      2 * num_edges * 8,               // incident: u64 x 2m
      num_edges * 8,                   // edges: 2 x u32 x m
      with_original_ids ? num_nodes * 8 : 0,  // original_ids: u64 x n
  };
}

}  // namespace

uint64_t SnapshotHeader::FileBytes() const {
  uint64_t end = 0;
  for (const Section& s : sections) {
    if (s.bytes != 0) end = std::max(end, s.offset + s.bytes);
  }
  return end;
}

SnapshotHeader PlanSnapshotLayout(uint64_t num_nodes, uint64_t num_edges,
                                  bool with_original_ids, uint64_t page_align,
                                  uint64_t chunk_bytes) {
  EDGESHED_CHECK(std::has_single_bit(page_align) &&
                 page_align >= kMinPageAlign && page_align <= kMaxPageAlign);
  EDGESHED_CHECK(chunk_bytes >= kMinChunkBytes &&
                 chunk_bytes <= kMaxChunkBytes);
  SnapshotHeader header;
  header.num_nodes = num_nodes;
  header.num_edges = num_edges;
  header.page_align = page_align;
  header.chunk_bytes = chunk_bytes;

  // Section offsets relative to the data region are independent of the
  // header size, so the data size — and from it the chunk count, which
  // feeds back into the header size — resolves without iteration.
  const auto bytes = SectionBytes(num_nodes, num_edges, with_original_ids);
  uint64_t rel = 0;
  std::array<uint64_t, kSnapshotSectionCount> rel_offsets{};
  for (int s = 0; s < kSnapshotSectionCount; ++s) {
    if (bytes[s] == 0) continue;
    rel_offsets[s] = rel;
    rel = RoundUpTo(rel + bytes[s], page_align);
  }
  uint64_t data_bytes = 0;
  for (int s = 0; s < kSnapshotSectionCount; ++s) {
    if (bytes[s] != 0) {
      data_bytes = std::max(data_bytes, rel_offsets[s] + bytes[s]);
    }
  }
  const uint64_t num_chunks = (data_bytes + chunk_bytes - 1) / chunk_bytes;
  header.chunk_crcs.assign(num_chunks, 0);
  const uint64_t data_start = header.DataStart();
  for (int s = 0; s < kSnapshotSectionCount; ++s) {
    header.sections[static_cast<size_t>(s)] =
        bytes[s] == 0
            ? SnapshotHeader::Section{}
            : SnapshotHeader::Section{data_start + rel_offsets[s], bytes[s]};
  }
  return header;
}

std::string EncodeSnapshotHeader(const SnapshotHeader& header) {
  std::string out(header.HeaderBytes(), '\0');
  std::memcpy(out.data(), kSnapshotMagicV3, sizeof(kSnapshotMagicV3));
  PutU64(out.data() + 8, header.num_nodes);
  PutU64(out.data() + 16, header.num_edges);
  PutU64(out.data() + 24, header.page_align);
  PutU64(out.data() + 32, header.chunk_bytes);
  for (int s = 0; s < kSnapshotSectionCount; ++s) {
    const auto& section = header.sections[static_cast<size_t>(s)];
    PutU64(out.data() + 40 + 16 * s, section.offset);
    PutU64(out.data() + 48 + 16 * s, section.bytes);
  }
  const uint64_t nc = header.chunk_crcs.size();
  PutU32(out.data() + kSnapshotChunkCountOffset, static_cast<uint32_t>(nc));
  for (uint64_t c = 0; c < nc; ++c) {
    PutU32(out.data() + kSnapshotChunkCountOffset + 4 + 4 * c,
           header.chunk_crcs[c]);
  }
  const uint64_t crc_at = kSnapshotChunkCountOffset + 4 + 4 * nc;
  PutU32(out.data() + crc_at,
         Crc32(std::string_view(out.data() + 8, crc_at - 8)));
  return out;
}

StatusOr<SnapshotHeader> DecodeSnapshotHeader(const char* data,
                                              uint64_t file_bytes,
                                              const std::string& path) {
  if (file_bytes < sizeof(kSnapshotMagicV3)) {
    return Status::InvalidArgument("truncated snapshot (no magic): " + path);
  }
  if (std::memcmp(data, kSnapshotMagicV3, sizeof(kSnapshotMagicV3)) != 0) {
    return Status::InvalidArgument(
        "not a v3 snapshot (magic '" + MagicString(data) +
        "'); only EDGSHED3 snapshots load, re-convert from the text edge "
        "list: " + path);
  }
  if (file_bytes < kSnapshotChunkCountOffset + 4) {
    return Status::InvalidArgument("truncated snapshot header: " + path);
  }

  SnapshotHeader header;
  header.num_nodes = GetU64(data + 8);
  header.num_edges = GetU64(data + 16);
  header.page_align = GetU64(data + 24);
  header.chunk_bytes = GetU64(data + 32);

  // Fixed-field sanity runs BEFORE the header CRC: a corrupt alignment or
  // count field should be reported as that field being nonsense, and the
  // bounds below are also what make the later arithmetic overflow-safe.
  if (header.num_nodes > static_cast<uint64_t>(kInvalidNode)) {
    return Status::InvalidArgument(
        "snapshot node count exceeds NodeId range: " + path);
  }
  if (header.num_edges > UINT64_MAX / 16) {
    return Status::InvalidArgument("snapshot edge count implausible: " +
                                   path);
  }
  if (!std::has_single_bit(header.page_align) ||
      header.page_align < kMinPageAlign ||
      header.page_align > kMaxPageAlign) {
    return Status::InvalidArgument(
        StrFormat("snapshot page_align %llu is not a power of two in "
                  "[8, 2^30]: %s",
                  static_cast<unsigned long long>(header.page_align),
                  path.c_str()));
  }
  if (header.chunk_bytes < kMinChunkBytes ||
      header.chunk_bytes > kMaxChunkBytes) {
    return Status::InvalidArgument(
        StrFormat("snapshot chunk_bytes %llu outside [4 KiB, 1 GiB]: %s",
                  static_cast<unsigned long long>(header.chunk_bytes),
                  path.c_str()));
  }

  const uint64_t num_chunks = GetU32(data + kSnapshotChunkCountOffset);
  if (SnapshotHeaderBytes(num_chunks) > file_bytes) {
    return Status::InvalidArgument(
        "truncated snapshot header (chunk table): " + path);
  }
  header.chunk_crcs.resize(num_chunks);
  for (uint64_t c = 0; c < num_chunks; ++c) {
    header.chunk_crcs[c] =
        GetU32(data + kSnapshotChunkCountOffset + 4 + 4 * c);
  }
  const uint64_t crc_at = kSnapshotChunkCountOffset + 4 + 4 * num_chunks;
  const uint32_t declared_crc = GetU32(data + crc_at);
  const uint32_t actual_crc = Crc32(std::string_view(data + 8, crc_at - 8));
  if (declared_crc != actual_crc) {
    return Status::DataLoss("snapshot header checksum mismatch: " + path);
  }

  // Section table: byte lengths must match the counts exactly, and every
  // non-empty section must sit aligned inside the data region.
  const auto expected =
      SectionBytes(header.num_nodes, header.num_edges, /*ignored*/ false);
  const uint64_t data_start = header.DataStart();
  for (int s = 0; s < kSnapshotSectionCount; ++s) {
    auto& section = header.sections[static_cast<size_t>(s)];
    section.offset = GetU64(data + 40 + 16 * s);
    section.bytes = GetU64(data + 48 + 16 * s);
    const uint64_t want =
        s == kSectionOriginalIds ? header.num_nodes * 8 : expected[s];
    const bool optional = s == kSectionOriginalIds;
    if (section.bytes != want && !(optional && section.bytes == 0)) {
      return Status::InvalidArgument(
          StrFormat("snapshot section %d length %llu disagrees with the "
                    "declared counts: %s",
                    s, static_cast<unsigned long long>(section.bytes),
                    path.c_str()));
    }
    if (section.bytes == 0) continue;
    if (section.offset % header.page_align != 0) {
      return Status::InvalidArgument(
          StrFormat("snapshot section %d offset %llu not page_align-ed: %s",
                    s, static_cast<unsigned long long>(section.offset),
                    path.c_str()));
    }
    if (section.offset < data_start || section.bytes > file_bytes ||
        section.offset > file_bytes - section.bytes) {
      return Status::InvalidArgument(
          StrFormat("snapshot section %d out of file bounds: %s", s,
                    path.c_str()));
    }
  }

  if (header.FileBytes() != file_bytes) {
    return Status::InvalidArgument(
        StrFormat("snapshot size %llu disagrees with section table end %llu "
                  "(truncated or trailing bytes): %s",
                  static_cast<unsigned long long>(file_bytes),
                  static_cast<unsigned long long>(header.FileBytes()),
                  path.c_str()));
  }
  const uint64_t data_bytes = file_bytes - data_start;
  const uint64_t expected_chunks =
      (data_bytes + header.chunk_bytes - 1) / header.chunk_bytes;
  if (num_chunks != expected_chunks) {
    return Status::InvalidArgument(
        StrFormat("snapshot chunk count %llu disagrees with data size "
                  "(expected %llu): %s",
                  static_cast<unsigned long long>(num_chunks),
                  static_cast<unsigned long long>(expected_chunks),
                  path.c_str()));
  }
  return header;
}

Status FinalizeSnapshotFile(const std::string& path, SnapshotHeader header) {
  {
    EDGESHED_ASSIGN_OR_RETURN(std::shared_ptr<const MappedFile> mapped,
                              MappedFile::Open(path));
    if (mapped->size() != header.FileBytes()) {
      return Status::IOError(
          StrFormat("short snapshot write (%llu of %llu bytes): %s",
                    static_cast<unsigned long long>(mapped->size()),
                    static_cast<unsigned long long>(header.FileBytes()),
                    path.c_str()));
    }
    header.chunk_crcs = ComputeSnapshotChunkCrcs(
        mapped->data() + header.DataStart(),
        header.FileBytes() - header.DataStart(), header.chunk_bytes);
  }
  const std::string encoded = EncodeSnapshotHeader(header);
  std::fstream patch(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!patch) return Status::IOError("cannot reopen for header: " + path);
  patch.write(encoded.data(), static_cast<std::streamsize>(encoded.size()));
  patch.close();
  if (!patch) return Status::IOError("header write failed: " + path);
  return Status::OK();
}

std::vector<uint32_t> ComputeSnapshotChunkCrcs(const char* data,
                                               uint64_t data_bytes,
                                               uint64_t chunk_bytes,
                                               int threads) {
  const uint64_t num_chunks = (data_bytes + chunk_bytes - 1) / chunk_bytes;
  std::vector<uint32_t> crcs(num_chunks);
  ParallelForEach(
      0, num_chunks,
      [&](uint64_t c) {
        const uint64_t begin = c * chunk_bytes;
        const uint64_t len = std::min(chunk_bytes, data_bytes - begin);
        crcs[c] = Crc32(std::string_view(data + begin, len));
      },
      threads, /*grain=*/1);
  return crcs;
}

}  // namespace edgeshed::graph
