#ifndef EDGESHED_EVAL_FLAGS_H_
#define EDGESHED_EVAL_FLAGS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace edgeshed::eval {

/// Minimal command-line parser for the bench/example binaries.
/// Accepts "--name=value", "--name value", and bare "--flag" (= "true").
/// Every parsed name is kept; Names() lists them so a caller can reject the
/// ones it does not know.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
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
