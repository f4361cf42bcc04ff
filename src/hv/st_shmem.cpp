#include "hv/st_shmem.hpp"

#include <optional>

#include "sim/persist.hpp"
#include "util/round.hpp"

namespace tsn::hv {

namespace {

void save_params(sim::StateWriter& w, const SyncTimeParams& p) {
  w.i64(p.base_tsc);
  w.i64(p.base_sync);
  w.f64(p.rate);
  w.u32(p.generation);
  w.b(p.valid);
}

SyncTimeParams load_params(sim::StateReader& r) {
  SyncTimeParams p;
  p.base_tsc = r.i64();
  p.base_sync = r.i64();
  p.rate = r.f64();
  p.generation = r.u32();
  p.valid = r.b();
  return p;
}

} // namespace

void StShmem::save_state(sim::StateWriter& w) const {
  save_params(w, params_.load());
  for (const auto& c : candidates_) save_params(w, c.load());
  for (const auto& h : heartbeats_) w.i64(h.load(std::memory_order_acquire));
  w.u64(active_vm_.load(std::memory_order_acquire));
  w.u32(generation_.load(std::memory_order_acquire));
}

void StShmem::load_state(sim::StateReader& r) {
  params_.store(load_params(r));
  for (auto& c : candidates_) c.store(load_params(r));
  for (auto& h : heartbeats_) h.store(r.i64(), std::memory_order_release);
  active_vm_.store(r.u64(), std::memory_order_release);
  generation_.store(r.u32(), std::memory_order_release);
}

std::optional<std::int64_t> read_synctime(const StShmem& shmem, std::int64_t tsc_now) {
  const SyncTimeParams p = shmem.read_params();
  if (!p.valid) return std::nullopt;
  const double elapsed = static_cast<double>(tsc_now - p.base_tsc);
  return p.base_sync + util::round_i64(elapsed * p.rate);
}

} // namespace tsn::hv
