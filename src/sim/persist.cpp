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

void StateWriter::engine(const util::Mt19937_64& e) {
  put(e.words().data(), sizeof(util::Mt19937_64::State));
  u64(e.index());
}

void StateWriter::rng(const util::RngStream& s) { engine(s.engine()); }

void StateWriter::rng(const util::NormalStream& s) {
  engine(s.engine());
  for (double z : s.block()) f64(z);
  u64(s.cursor());
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

std::size_t StateReader::engine(util::Mt19937_64::State& words) {
  get(words.data(), sizeof words);
  const std::uint64_t index = u64();
  if (index > util::Mt19937_64::kStateWords) {
    throw std::runtime_error("StateReader: bad RNG engine state (index " + std::to_string(index) +
                             ")");
  }
  return static_cast<std::size_t>(index);
}

void StateReader::rng(util::RngStream& s) {
  util::Mt19937_64::State words{};
  const std::size_t index = engine(words);
  s.engine().set_state(words, index);
}

void StateReader::rng(util::NormalStream& s) {
  util::Mt19937_64::State words{};
  const std::size_t index = engine(words);
  util::NormalStream::Block block{};
  for (double& z : block) z = f64();
  const std::uint64_t cursor = u64();
  if (cursor > util::NormalStream::kBlock) {
    throw std::runtime_error("StateReader: bad normal block cursor " + std::to_string(cursor));
  }
  s.set_state(words, index, block, static_cast<std::size_t>(cursor));
}

} // namespace tsn::sim
