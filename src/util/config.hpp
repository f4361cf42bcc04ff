// Key-value configuration with typed access, used to parameterize
// experiments from the command line ("key=value" pairs) or files.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

namespace tsn::util {

class Config {
 public:
  Config() = default;

  /// Parse "key=value" tokens (e.g. from argv). Unknown syntax throws.
  static Config from_args(int argc, const char* const* argv, int first = 1);

  void set(std::string key, std::string value) { values_[std::move(key)] = std::move(value); }
  bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) > 0;
  }

  /// Typed reads return `def` when the key is absent. A value that does not
  /// parse whole as the type ("garbage", "12abc", "0.5" for an integer, an
  /// empty or out-of-range value) throws std::invalid_argument naming the key.
  std::string get_string(const std::string& key, std::string def = {}) const;
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  /// The full unsigned 64-bit range (seeds); a sign is a bad value.
  std::uint64_t get_uint64(const std::string& key, std::uint64_t def) const;
  /// get_int() that also throws when the value is below `min`.
  std::int64_t get_int_at_least(const std::string& key, std::int64_t def, std::int64_t min) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  const std::map<std::string, std::string>& values() const { return values_; }

  /// Throws std::invalid_argument naming the first key that no has() or
  /// typed read ever asked for. A driver calls it once every option is
  /// read, so a misspelt key fails instead of silently running defaults.
  void reject_unread() const;

 private:
  std::map<std::string, std::string> values_;
  /// Keys asked for so far. Reads record here, so a Config must not be
  /// read from several threads at once.
  mutable std::set<std::string> read_;
};

/// The whole-value parses behind Config's typed reads, for values that
/// pack several fields: `what` names the field in the std::invalid_argument
/// a partial, empty or out-of-range parse throws.
std::int64_t parse_int(const std::string& what, const std::string& v);
std::uint64_t parse_uint64(const std::string& what, const std::string& v);
double parse_double(const std::string& what, const std::string& v);

} // namespace tsn::util
