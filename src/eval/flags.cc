#include "eval/flags.h"

#include <algorithm>
#include <cstdlib>
#include <string_view>

namespace edgeshed::eval {

Flags::Flags(int argc, char** argv) {
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
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
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

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::atof(it->second.c_str());
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::atoll(it->second.c_str());
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
