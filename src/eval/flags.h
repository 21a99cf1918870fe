#ifndef EDGESHED_EVAL_FLAGS_H_
#define EDGESHED_EVAL_FLAGS_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"

namespace edgeshed::eval {

/// Minimal command-line parser for the CLI and the bench/example binaries.
/// Accepts "--name=value", "--name value", and bare "--flag" (= "true").
/// A name in `booleans` never takes the next argument as its value, so
/// "--flag extra" leaves "extra" positional. Every parsed name is kept;
/// Names() lists them so a caller can reject the ones it does not know.
class Flags {
 public:
  Flags(int argc, char** argv, const std::set<std::string>& booleans = {});

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  /// `default_value` when the flag is absent; InvalidArgument when its whole
  /// value is not a number (GetDouble) or a base-10 integer (GetInt).
  StatusOr<double> GetDouble(const std::string& name,
                             double default_value) const;
  StatusOr<int64_t> GetInt(const std::string& name,
                           int64_t default_value) const;
  /// True unless the value is "false" or "0".
  bool GetBool(const std::string& name, bool default_value) const;

  /// Names of every parsed flag, sorted.
  std::vector<std::string> Names() const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace edgeshed::eval

#endif  // EDGESHED_EVAL_FLAGS_H_
