#include "util/config.hpp"

#include <charconv>
#include <stdexcept>
#include <system_error>

#include "util/str.hpp"

namespace tsn::util {

Config Config::from_args(int argc, const char* const* argv, int first) {
  Config cfg;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw std::invalid_argument("Config: expected key=value, got '" + std::string(arg) + "'");
    }
    cfg.set(std::string(trim(arg.substr(0, eq))), std::string(trim(arg.substr(eq + 1))));
  }
  return cfg;
}

std::string Config::get_string(const std::string& key, std::string def) const {
  read_.insert(key);
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

namespace {

/// Parses all of `v` as a T; a partial parse ("12abc"), an empty value or
/// an out-of-range one throws, naming the key.
template <typename T>
T parse_number(const std::string& key, const std::string& v, const char* type) {
  T out{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, out);
  if (ec != std::errc{} || ptr != end) {
    const std::string why = ec == std::errc::result_out_of_range ? "out-of-range " : "bad ";
    throw std::invalid_argument("Config: " + why + type + " for '" + key + "': '" + v + "'");
  }
  return out;
}

} // namespace

std::int64_t parse_int(const std::string& what, const std::string& v) {
  return parse_number<std::int64_t>(what, v, "integer");
}

std::uint64_t parse_uint64(const std::string& what, const std::string& v) {
  return parse_number<std::uint64_t>(what, v, "unsigned integer");
}

double parse_double(const std::string& what, const std::string& v) {
  return parse_number<double>(what, v, "number");
}

std::int64_t Config::get_int(const std::string& key, std::int64_t def) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_int(key, it->second);
}

std::uint64_t Config::get_uint64(const std::string& key, std::uint64_t def) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_uint64(key, it->second);
}

std::int64_t Config::get_int_at_least(const std::string& key, std::int64_t def,
                                      std::int64_t min) const {
  const std::int64_t v = get_int(key, def);
  if (v < min) {
    throw std::invalid_argument("Config: '" + key + "' is " + std::to_string(v) + ", below " +
                                std::to_string(min));
  }
  return v;
}

double Config::get_double(const std::string& key, double def) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  return parse_double(key, it->second);
}

bool Config::get_bool(const std::string& key, bool def) const {
  read_.insert(key);
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Config: bad bool for '" + key + "': " + v);
}

void Config::reject_unread() const {
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) throw std::invalid_argument("Config: unused key '" + key + "'");
  }
}

} // namespace tsn::util
