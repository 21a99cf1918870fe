#include "graph/source.h"

#include <fstream>

#include "graph/binary_io.h"
#include "graph/edge_list_io.h"

namespace edgeshed::graph {

GraphFormat SniffGraphFormat(std::string_view leading_bytes) {
  // "EDGSHED3" plus the retired "EDGSHED1", "EDGSHED2" and "EDGSHEDL":
  // LoadSnapshot accepts only the first and rejects the rest by name.
  // Unknown suffixes are left for the text parser to reject.
  if (leading_bytes.size() >= 8 && leading_bytes.substr(0, 7) == "EDGSHED" &&
      std::string_view("123L").find(leading_bytes[7]) !=
          std::string_view::npos) {
    return GraphFormat::kSnapshot;
  }
  return GraphFormat::kText;
}

StatusOr<GraphFormat> DetectGraphFormat(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open graph file: " + path);
  }
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  const size_t got = static_cast<size_t>(in.gcount());
  return SniffGraphFormat(std::string_view(magic, got));
}

StatusOr<LoadedGraph> LoadGraph(const GraphSource& source,
                                const IngestOptions& options) {
  GraphFormat format = source.format;
  if (format == GraphFormat::kAuto) {
    EDGESHED_ASSIGN_OR_RETURN(format, DetectGraphFormat(source.path));
  }
  switch (format) {
    case GraphFormat::kText:
      return LoadEdgeList(source.path, options);
    case GraphFormat::kSnapshot:
      return LoadSnapshot(source.path, options);
    case GraphFormat::kAuto:
      break;
  }
  return Status::Internal("unreachable graph format");
}

const char* GraphFormatName(GraphFormat format) {
  switch (format) {
    case GraphFormat::kAuto:
      return "auto";
    case GraphFormat::kText:
      return "text";
    case GraphFormat::kSnapshot:
      return "snapshot";
  }
  return "unknown";
}

StatusOr<GraphFormat> ParseGraphFormat(std::string_view name) {
  if (name == "auto") return GraphFormat::kAuto;
  if (name == "text") return GraphFormat::kText;
  if (name == "snapshot") return GraphFormat::kSnapshot;
  return Status::InvalidArgument("unknown graph format '" +
                                 std::string(name) +
                                 "' (auto|text|snapshot)");
}

}  // namespace edgeshed::graph
