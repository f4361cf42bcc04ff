#include "sim/persist.hpp"

namespace tsn::sim {

namespace {
constexpr std::uint64_t kFnvPrime = 1099511628211ull;
} // namespace

void StateWriter::put(const void* p, std::size_t n) {
  const auto* bytes = static_cast<const std::uint8_t*>(p);
  buf_.insert(buf_.end(), bytes, bytes + n);
  for (std::size_t i = 0; i < n; ++i) {
    hash_ ^= bytes[i];
    hash_ *= kFnvPrime;
  }
}

void StateWriter::begin_section(std::string_view name) {
  // The marker byte keeps a section boundary from being confused with
  // string payload of the previous section.
  u8(0xA5);
  str(name);
}

void StateWriter::rng(const util::RngStream& s) {
  const util::Mt19937_64::State& words = s.engine().words();
  put(words.data(), sizeof words);
  u64(s.engine().index());
}

void StateReader::get(void* p, std::size_t n) {
  if (pos_ + n > buf_.size()) {
    throw std::runtime_error("StateReader: archive truncated");
  }
  std::memcpy(p, buf_.data() + pos_, n);
  pos_ += n;
}

void StateReader::begin_section(std::string_view name) {
  if (u8() != 0xA5) {
    throw std::runtime_error("StateReader: bad section marker before '" + std::string(name) + "'");
  }
  const std::string found = str();
  if (found != name) {
    throw std::runtime_error("StateReader: expected section '" + std::string(name) +
                             "', found '" + found + "'");
  }
}

void StateReader::rng(util::RngStream& s) {
  util::Mt19937_64::State words{};
  get(words.data(), sizeof words);
  const std::uint64_t index = u64();
  if (index > util::Mt19937_64::kStateWords) {
    throw std::runtime_error("StateReader: bad RNG engine state (index " + std::to_string(index) +
                             ")");
  }
  s.engine().set_state(words, static_cast<std::size_t>(index));
}

} // namespace tsn::sim
