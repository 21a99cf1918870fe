#include "eval/flags.h"

#include <algorithm>
#include <charconv>
#include <string_view>

namespace edgeshed::eval {

namespace {

/// Parses all of `text` as a T; InvalidArgument naming the flag otherwise.
template <typename T>
StatusOr<T> ParseWhole(const std::string& name, const std::string& text,
                       const char* expected) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || ptr != end) {
    return Status::InvalidArgument("--" + name + " expects " + expected +
                                   ", got '" + text + "'");
  }
  return value;
}

}  // namespace

Flags::Flags(int argc, char** argv, const std::set<std::string>& booleans) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-' &&
               !booleans.contains(std::string(arg))) {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.contains(name);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

StatusOr<double> Flags::GetDouble(const std::string& name,
                                  double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ParseWhole<double>(name, it->second, "a number");
}

StatusOr<int64_t> Flags::GetInt(const std::string& name,
                                int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return ParseWhole<int64_t>(name, it->second, "an integer");
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Flags::Names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace edgeshed::eval
