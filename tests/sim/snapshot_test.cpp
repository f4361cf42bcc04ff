// SimSnapshot property tests (DESIGN.md §12): snapshot -> run N events ->
// rollback -> re-run must be byte-identical (same trace, same terminal
// snapshot hash), randomized over seeds; plus a wheel-state round-trip
// regression that restores at an instant where the timing wheel's L1/L2
// cursors sit mid-ring and standing events straddle the level horizons.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/persist.hpp"
#include "sim/simulation.hpp"
#include "sim/snapshot.hpp"

namespace {

using tsn::sim::SimTime;

struct Tick {
  std::int64_t t_ns = 0;
  std::int64_t value = 0;
  std::uint64_t count = 0;

  bool operator==(const Tick&) const = default;
};

// Minimal honest Persistent: one standing periodic event, RNG-driven
// state, every fire appended to a shared log. The periods below are
// chosen so standing events live in wheel level 0, level 1, level 2 and
// the beyond-horizon heap all at once.
class Ticker final : public tsn::sim::Persistent {
 public:
  Ticker(tsn::sim::Simulation& sim, std::string name, std::int64_t period_ns,
         std::vector<Tick>* log)
      : sim_(sim), name_(std::move(name)), period_ns_(period_ns),
        rng_(sim.make_rng(name_)), log_(log) {}

  void start(std::int64_t first_due_ns) {
    active_ = true;
    arm(first_due_ns);
  }

  const char* persist_name() const override { return name_.c_str(); }

  void save_state(tsn::sim::StateWriter& w) override {
    w.b(active_);
    w.i64(next_due_ns_);
    w.u64(count_);
    w.i64(acc_);
    w.rng(rng_);
  }

  void load_state(tsn::sim::StateReader& r) override {
    active_ = r.b();
    next_due_ns_ = r.i64();
    count_ = r.u64();
    acc_ = r.i64();
    r.rng(rng_);
    if (active_) arm(next_due_ns_);
  }

  std::size_t live_events() const override { return active_ ? 1u : 0u; }

  std::uint64_t count() const { return count_; }
  std::int64_t acc() const { return acc_; }

 private:
  void arm(std::int64_t due_ns) {
    next_due_ns_ = due_ns;
    sim_.at(SimTime{due_ns}, [this] {
      const SimTime t = sim_.now();
      const std::int64_t v = rng_.uniform_int(0, 1'000'000);
      ++count_;
      acc_ += v;
      if (log_) log_->push_back({t.ns(), v, count_});
      arm(t.ns() + period_ns_);
    });
  }

  tsn::sim::Simulation& sim_;
  std::string name_;
  std::int64_t period_ns_;
  std::int64_t next_due_ns_ = 0;
  std::uint64_t count_ = 0;
  std::int64_t acc_ = 0;
  bool active_ = false;
  tsn::util::RngStream rng_;
  std::vector<Tick>* log_;
};

struct World {
  explicit World(std::uint64_t seed) : sim(seed) {
    // Periods that keep standing events spread over the whole wheel:
    //   level 0 slot span is 2^12 ns (~4 us), level-0 horizon ~2.1 ms,
    //   level-1 horizon ~1.07 s, level-2 horizon ~550 s. A 1 ms ticker
    //   stays in L0/L1, a 3 s ticker in L2 and the 700 s ticker is a
    //   permanent heap spill.
    tickers.push_back(std::make_unique<Ticker>(sim, "fast", 1'000'000, &log));
    tickers.push_back(std::make_unique<Ticker>(sim, "mid", 137'000'000, &log));
    tickers.push_back(std::make_unique<Ticker>(sim, "slow", 3'000'000'000, &log));
    tickers.push_back(
        std::make_unique<Ticker>(sim, "glacial", 700'000'000'000, &log));
    // Deliberately unaligned first-due times so the wheel cursors sit
    // mid-ring at every snapshot instant.
    std::int64_t phase = 17'321;
    for (auto& t : tickers) {
      t->start(phase);
      phase += 911'117;
    }
    for (auto& t : tickers) targets.push_back(t.get());
  }

  tsn::sim::SimSnapshot snapshot() const {
    return tsn::sim::take_snapshot(sim, targets);
  }

  /// run_until() leaves now() at the last fired event; pin it to the
  /// boundary so snapshot instants are explicit.
  void run_to(std::int64_t t_ns) {
    sim.run_until(SimTime{t_ns});
    sim.advance_to(SimTime{t_ns});
  }

  tsn::sim::Simulation sim;
  std::vector<std::unique_ptr<Ticker>> tickers;
  std::vector<tsn::sim::Persistent*> targets;
  std::vector<Tick> log;
};

TEST(SimSnapshotTest, RollbackReplayIsByteIdentical) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull, 0xdeadbeefull}) {
    World w(seed);
    w.run_to(50'000'000);
    ASSERT_TRUE(tsn::sim::components_quiescent(w.sim, w.targets)) << seed;

    const tsn::sim::SimSnapshot snap = w.snapshot();
    EXPECT_EQ(snap.now_ns, 50'000'000);
    EXPECT_NE(snap.hash, 0u);

    // Segment A: run a few hundred events past the snapshot.
    w.log.clear();
    w.run_to(3'200'000'000);
    const std::vector<Tick> segment_a = w.log;
    const tsn::sim::SimSnapshot end_a = w.snapshot();
    ASSERT_GT(segment_a.size(), 100u) << seed;

    // Rollback and replay the same window.
    tsn::sim::restore_snapshot(w.sim, w.targets, snap);
    EXPECT_EQ(w.sim.now().ns(), snap.now_ns);
    const tsn::sim::SimSnapshot resnap = w.snapshot();
    EXPECT_EQ(resnap.hash, snap.hash) << seed;
    EXPECT_EQ(resnap.bytes, snap.bytes) << seed;

    w.log.clear();
    w.run_to(3'200'000'000);
    const tsn::sim::SimSnapshot end_b = w.snapshot();

    EXPECT_EQ(w.log, segment_a) << "replay diverged, seed=" << seed;
    EXPECT_EQ(end_b.hash, end_a.hash) << seed;
    EXPECT_EQ(end_b.bytes, end_a.bytes) << seed;
    EXPECT_EQ(end_b.now_ns, end_a.now_ns) << seed;
  }
}

TEST(SimSnapshotTest, EventsExecutedIsNotRewoundByRestore) {
  World w(3);
  w.run_to(50'000'000);
  const tsn::sim::SimSnapshot snap = w.snapshot();
  w.run_to(500'000'000);
  const std::uint64_t before = w.sim.events_executed();
  EXPECT_GT(before, snap.events_executed);
  tsn::sim::restore_snapshot(w.sim, w.targets, snap);
  EXPECT_GE(w.sim.events_executed(), before);
  w.run_to(500'000'000);
  EXPECT_GT(w.sim.events_executed(), before);
}

TEST(SimSnapshotTest, HashCoversComponentState) {
  // Different seeds produce different RNG trajectories, so the archives
  // of two structurally identical worlds must differ.
  World a(1), b(2);
  a.run_to(50'000'000);
  b.run_to(50'000'000);
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  EXPECT_NE(sa.hash, sb.hash);
  EXPECT_NE(sa.bytes, sb.bytes);
}

TEST(SimSnapshotTest, RngStateRoundTripResumesMidBuffer) {
  // Taken 100 words into the second 312-word block, restored into a stream
  // of another seed: the restored stream continues the saved one exactly,
  // across the next refill too.
  tsn::util::RngStream saved(21, "persist");
  for (int i = 0; i < 412; ++i) saved.engine()();
  tsn::sim::StateWriter w;
  w.rng(saved);
  tsn::util::RngStream restored(99, "other");
  tsn::sim::StateReader r(w.data());
  r.rng(restored);
  EXPECT_TRUE(r.at_end());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(restored.engine()(), saved.engine()()) << i;
  EXPECT_EQ(restored.normal(0.0, 8.0), saved.normal(0.0, 8.0));
}

TEST(SimSnapshotTest, RngStateWithIndexPastTheStateIsRejected) {
  tsn::util::RngStream s(1, "persist");
  tsn::sim::StateWriter w;
  w.rng(s);
  std::vector<std::uint8_t> bytes = w.data();
  const std::uint64_t bad_index = tsn::util::Mt19937_64::kStateWords + 1;
  std::memcpy(bytes.data() + bytes.size() - sizeof bad_index, &bad_index, sizeof bad_index);
  tsn::sim::StateReader r(bytes);
  EXPECT_THROW(r.rng(s), std::runtime_error);
}

TEST(SimSnapshotTest, NormalStreamRoundTripResumesMidBlock) {
  // Cursor 0 is a freshly computed block nothing has read yet; 1 and 31
  // sit inside a block and 32 is an exhausted one. Each is restored into
  // a stream of another seed, which must continue the saved stream and
  // save back to the same bytes.
  using tsn::util::NormalStream;
  for (const std::size_t cursor : {0u, 1u, 31u, 32u}) {
    NormalStream saved(21, "persist");
    for (int i = 0; i < 100; ++i) saved.normal(0.0, 8.0); // past one refill
    while (saved.cursor() != (cursor == 0 ? NormalStream::kBlock : cursor)) {
      saved.normal(0.0, 8.0);
    }
    if (cursor == 0) {
      // Draw once to compute the next block, then rewind the cursor: the
      // state an eager refill would have left.
      saved.normal(0.0, 8.0);
      saved.set_state(saved.engine().words(), saved.engine().index(), saved.block(), 0);
    }
    ASSERT_EQ(saved.cursor(), cursor);
    tsn::sim::StateWriter w;
    w.rng(saved);
    NormalStream restored(99, "other");
    tsn::sim::StateReader r(w.data());
    r.rng(restored);
    EXPECT_TRUE(r.at_end());
    tsn::sim::StateWriter again;
    again.rng(restored);
    EXPECT_EQ(again.data(), w.data()) << "cursor " << cursor;
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(restored.normal(1.5, 8.0), saved.normal(1.5, 8.0)) << "cursor " << cursor << " draw " << i;
    }
  }
}

TEST(SimSnapshotTest, NormalStreamCursorPastTheBlockIsRejected) {
  tsn::util::NormalStream s(1, "persist");
  tsn::sim::StateWriter w;
  w.rng(s);
  std::vector<std::uint8_t> bytes = w.data();
  const std::uint64_t bad_cursor = tsn::util::NormalStream::kBlock + 1;
  std::memcpy(bytes.data() + bytes.size() - sizeof bad_cursor, &bad_cursor, sizeof bad_cursor);
  tsn::sim::StateReader r(bytes);
  EXPECT_THROW(r.rng(s), std::runtime_error);
}

TEST(SimSnapshotTest, RestoreWithMismatchedTargetOrderThrows) {
  World w(5);
  w.run_to(50'000'000);
  const tsn::sim::SimSnapshot snap = w.snapshot();
  std::vector<tsn::sim::Persistent*> shuffled(w.targets.rbegin(),
                                              w.targets.rend());
  EXPECT_THROW(tsn::sim::restore_snapshot(w.sim, shuffled, snap),
               std::runtime_error);
}

// Regression: restore at instants chosen to land just before and just
// after wheel level-1 / level-2 cursor boundaries (level-1 slots are
// 2^21 ns wide, level-2 slots 2^30 ns wide). After the queue clear the
// standing events are re-inserted against freshly positioned cursors;
// any re-bucketing error shows up as a divergent replay.
TEST(SimSnapshotTest, WheelCursorBoundaryRoundTrip) {
  constexpr std::int64_t kL1 = 1ll << 21; // 2.097 ms
  constexpr std::int64_t kL2 = 1ll << 30; // 1.074 s
  const std::int64_t instants[] = {
      3 * kL1 - 5,  3 * kL1 + 5,         // straddle an L1 slot boundary
      2 * kL2 - 7,  2 * kL2 + 7,         // straddle an L2 slot boundary
      5 * kL2 + 3 * kL1 + 1,             // deep mid-ring on both levels
  };
  for (std::int64_t t_snap : instants) {
    World w(11);
    w.run_to(t_snap);
    ASSERT_TRUE(tsn::sim::components_quiescent(w.sim, w.targets)) << t_snap;
    const tsn::sim::SimSnapshot snap = w.snapshot();

    const std::int64_t t_end = t_snap + 4 * kL2 + 3; // crosses L2 cascades
    w.log.clear();
    w.run_to(t_end);
    const std::vector<Tick> control = w.log;
    const tsn::sim::SimSnapshot end_control = w.snapshot();

    tsn::sim::restore_snapshot(w.sim, w.targets, snap);
    w.log.clear();
    w.run_to(t_end);

    EXPECT_EQ(w.log, control) << "t_snap=" << t_snap;
    const tsn::sim::SimSnapshot end_replay = w.snapshot();
    EXPECT_EQ(end_replay.hash, end_control.hash) << "t_snap=" << t_snap;
  }
}

// EventQueue::clear() invalidates outstanding handles without breaking
// the sequence counter: events re-scheduled after a clear pop in the
// same relative order as in a fresh queue, and cancel() on a stale
// handle is a safe no-op.
TEST(SimSnapshotTest, EventQueueClearRoundTrip) {
  constexpr std::int64_t kL1 = 1ll << 21;
  constexpr std::int64_t kL2 = 1ll << 30;
  const std::int64_t times[] = {
      100,          kL1 - 1,      kL1,           kL1 + 1,
      3 * kL1 + 17, kL2 - 1,      kL2,           kL2 + 1,
      7 * kL2 + 5,  600ll * kL2, // beyond the level-2 horizon: heap spill
  };

  auto fill = [&](tsn::sim::EventQueue& q, std::vector<int>* order) {
    std::vector<tsn::sim::EventHandle> handles;
    int tag = 0;
    for (std::int64_t t : times) {
      const int id = tag++;
      handles.push_back(
          q.schedule(SimTime{t}, [order, id] { order->push_back(id); }));
    }
    return handles;
  };

  tsn::sim::EventQueue fresh;
  std::vector<int> fresh_order;
  fill(fresh, &fresh_order);
  std::vector<std::int64_t> fresh_times;
  while (auto p = fresh.try_pop()) {
    fresh_times.push_back(p->time.ns());
    p->fn();
  }

  tsn::sim::EventQueue q;
  std::vector<int> dead_order;
  auto stale = fill(q, &dead_order);
  // Drain a prefix so the wheel cursors sit mid-ring, then clear.
  for (int i = 0; i < 4; ++i) {
    auto p = q.try_pop();
    ASSERT_TRUE(p.has_value());
    p->fn();
  }
  q.clear();
  EXPECT_EQ(q.live_size(), 0u);
  EXPECT_FALSE(q.try_pop().has_value());
  for (auto& h : stale) {
    EXPECT_FALSE(h.pending());
    h.cancel(); // must be a safe no-op on the bumped generation
  }

  std::vector<int> replay_order;
  fill(q, &replay_order);
  std::vector<std::int64_t> replay_times;
  while (auto p = q.try_pop()) {
    replay_times.push_back(p->time.ns());
    p->fn();
  }

  EXPECT_EQ(replay_times, fresh_times);
  // Same relative pop order as the fresh queue (ids are insertion tags).
  std::vector<int> fresh_ids(fresh_order.begin() + 4, fresh_order.end());
  std::vector<int> replay_ids(replay_order.begin() + 4, replay_order.end());
  EXPECT_EQ(replay_order, fresh_order);
  EXPECT_EQ(replay_ids, fresh_ids);
}

} // namespace
