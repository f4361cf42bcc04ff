// Key-value configuration with typed access, used to parameterize
// experiments from the command line ("key=value" pairs) or files.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace tsn::util {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens (e.g. from argv). Unknown syntax throws.
  static Config from_args(int argc, const char* const* argv, int first = 1);

  void set(std::string key, std::string value) { values_[std::move(key)] = std::move(value); }
  bool has(const std::string& key) const { return values_.count(key) > 0; }

  /// Typed reads return `def` when the key is absent. A value that does not
  /// parse whole as the type ("garbage", "12abc", "0.5" for an integer, an
  /// empty or out-of-range value) throws std::invalid_argument naming the key.
  std::string get_string(const std::string& key, std::string def = {}) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::map<std::string, std::string>& values() const { return values_; }

 private:
  std::map<std::string, std::string> values_;
};

} // namespace tsn::util
