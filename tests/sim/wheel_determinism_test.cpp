// The timing-wheel front-end must be observationally identical to a plain
// (time, insertion-seq) priority queue: same pop order for any interleaving
// of schedules, posts, cancels and pops, across every internal boundary
// (level-0/1/2 buckets, the heap spill, and behind-cursor keys, which are
// sorted into a drained window or pushed onto the heap while the window
// still holds entries). The sweep byte-identity contract rides on this.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace tsn::sim {
namespace {

constexpr std::int64_t kL0 = 1ll << 12; // level-0 bucket span (ns)
constexpr std::int64_t kL1 = 1ll << 21; // level-1 bucket span
constexpr std::int64_t kL2 = 1ll << 30; // level-2 bucket span

// Regression: an activation that ends exactly on a level-1 bucket boundary
// rolls the cursor into the next bucket without cascading it; the scan then
// started past the cursor's own bucket and stranded its entries forever.
TEST(WheelDeterminismTest, EventSurvivesCursorRollAcrossL1Boundary) {
  EventQueue q;
  std::vector<int> order;
  // Last level-0 bucket of level-1 bucket 0, then level-1 bucket 1.
  q.schedule(SimTime(kL1 - 100), [&] { order.push_back(1); });
  q.schedule(SimTime(kL1 + 5000), [&] { order.push_back(2); });
  while (auto e = q.try_pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(WheelDeterminismTest, EventSurvivesCursorRollAcrossL2Boundary) {
  EventQueue q;
  std::vector<int> order;
  // Last level-0 bucket of the last level-1 bucket of level-2 bucket 0,
  // then level-2 bucket 1.
  q.schedule(SimTime(kL2 - 100), [&] { order.push_back(1); });
  q.schedule(SimTime(kL2 + 5000), [&] { order.push_back(2); });
  while (auto e = q.try_pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(q.empty());
}

TEST(WheelDeterminismTest, PeriodicSurvivesEveryBucketBoundary) {
  // A reschedule-on-fire periodic whose period forces the cursor across
  // every level-0 boundary alignment, including exact L1/L2 roll-overs.
  EventQueue q;
  std::int64_t fires = 0;
  std::int64_t t = 0;
  const std::int64_t period = kL0 - 1; // drifts through all alignments
  struct Tick {
    EventQueue* q;
    std::int64_t* fires;
    std::int64_t* t;
    std::int64_t period;
    void operator()() const {
      ++*fires;
      *t += period;
      if (*fires < 3000) {
        auto self = *this;
        q->post(SimTime(*t), EventFn(self));
      }
    }
  };
  q.post(SimTime(t), EventFn(Tick{&q, &fires, &t, period}));
  while (auto e = q.try_pop()) e->fn();
  EXPECT_EQ(fires, 3000);
}

// Brute-force reference model driven in lockstep with a queue: a set
// ordered by (time, insertion seq). Every operation checks pop order and
// live_size() against it.
class Lockstep {
 public:
  explicit Lockstep(std::uint64_t seed) : rng(seed) {}

  std::mt19937_64 rng;
  std::int64_t now() const { return now_; }

  /// Schedules (cancellable, 2 in 3) or posts an event at `t`.
  void add(std::int64_t t) {
    const Ref r{t, seq_++, next_id_++};
    EventFn fn = [this, id = r.id] { popped_.push_back(id); };
    if (rng() % 3 == 0) {
      q_.post(SimTime(t), std::move(fn));
    } else {
      handles_.emplace_back(q_.schedule(SimTime(t), std::move(fn)), r);
    }
    ref_.insert(r);
    ASSERT_EQ(q_.live_size(), ref_.size());
  }

  /// Cancels a random handle, which may have fired already (a no-op).
  /// Returns whether it was live.
  bool cancel_random() {
    const std::size_t k = rng() % handles_.size();
    const bool live = handles_[k].first.pending();
    EXPECT_EQ(live, ref_.count(handles_[k].second) == 1);
    handles_[k].first.cancel();
    ref_.erase(handles_[k].second);
    handles_[k] = handles_.back();
    handles_.pop_back();
    EXPECT_EQ(q_.live_size(), ref_.size());
    return live;
  }
  bool has_handles() const { return !handles_.empty(); }

  /// Pops one event from both (or finds both empty) and compares.
  void pop() {
    auto got = q_.try_pop();
    ASSERT_EQ(got.has_value(), !ref_.empty());
    if (!got) return;
    const Ref want = *ref_.begin();
    ref_.erase(ref_.begin());
    got->fn();
    ASSERT_EQ(got->time.ns(), want.time);
    ASSERT_EQ(popped_.back(), want.id);
    ASSERT_EQ(q_.live_size(), ref_.size());
    expected_.push_back(want.id);
    now_ = want.time;
  }

  void drain() {
    while (!ref_.empty()) ASSERT_NO_FATAL_FAILURE(pop());
    EXPECT_FALSE(q_.try_pop().has_value());
    EXPECT_TRUE(q_.empty());
    EXPECT_EQ(popped_, expected_);
  }

 private:
  struct Ref {
    std::int64_t time;
    std::uint64_t seq;
    int id;
    bool operator<(const Ref& o) const {
      return time != o.time ? time < o.time : seq < o.seq;
    }
  };

  EventQueue q_;
  std::set<Ref> ref_;
  std::vector<std::pair<EventHandle, Ref>> handles_;
  std::vector<int> popped_;
  std::vector<int> expected_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::int64_t now_ = 0;
};

// Uniform mix of schedules, posts, cancels and pops over every distance
// from the cursor.
void run_uniform_profile(Lockstep& m) {
  auto random_time = [&]() -> std::int64_t {
    // Mix of near-cursor (staged / level-0), mid-range (level-1/2) and
    // beyond-horizon (heap spill) targets, all >= the last popped time.
    const std::int64_t now = m.now();
    switch (m.rng() % 6) {
      case 0: return now;                                        // tie / staged
      case 1: return now + static_cast<std::int64_t>(m.rng() % kL0);
      case 2: return now + static_cast<std::int64_t>(m.rng() % kL1);
      case 3: return now + static_cast<std::int64_t>(m.rng() % kL2);
      case 4: return now + static_cast<std::int64_t>(m.rng() % (400ll * kL2));
      default: // exact bucket boundaries, the historical failure mode
        return (now / kL1 + 1 + static_cast<std::int64_t>(m.rng() % 3)) * kL1 -
               static_cast<std::int64_t>(m.rng() % 2);
    }
  };
  for (int op = 0; op < 6000; ++op) {
    SCOPED_TRACE(op);
    const std::uint64_t r = m.rng() % 10;
    if (r < 5) {
      ASSERT_NO_FATAL_FAILURE(m.add(random_time()));
    } else if (r < 6 && m.has_handles()) {
      m.cancel_random();
    } else {
      ASSERT_NO_FATAL_FAILURE(m.pop());
    }
  }
}

// Same-bucket fan-out, the path-delay calibration pattern: seed one
// level-0 bucket with 4,096 events, then drain it while every pop inserts
// 0-2 events within one bucket span of now -- mostly behind the cursor,
// so they are staged while the window still holds entries. About 1 pop in
// 8 cancels a live handle, and occasional beyond-horizon events make
// staged and spill keys share the heap.
void run_burst_profile(Lockstep& m) {
  constexpr int kBurst = 4096;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    const std::int64_t bucket = (m.now() / kL0 + 2) * kL0;
    for (int i = 0; i < kBurst; ++i) {
      ASSERT_NO_FATAL_FAILURE(m.add(bucket + static_cast<std::int64_t>(m.rng() % kL0)));
    }
    for (int pop = 0; pop < 2 * kBurst; ++pop) {
      ASSERT_NO_FATAL_FAILURE(m.pop());
      for (std::uint64_t n = m.rng() % 3; n > 0; --n) {
        ASSERT_NO_FATAL_FAILURE(m.add(m.now() + static_cast<std::int64_t>(m.rng() % kL0)));
      }
      if (m.rng() % 8 == 0) {
        // Handles whose events already fired are dropped on the way.
        bool cancelled = false;
        while (!cancelled && m.has_handles()) cancelled = m.cancel_random();
      }
      if (m.rng() % 512 == 0) {
        ASSERT_NO_FATAL_FAILURE(
            m.add(m.now() + 600 * kL2 + static_cast<std::int64_t>(m.rng() % kL2)));
      }
    }
  }
}

// Randomized differential test against a brute-force reference model,
// under a uniform load and under same-bucket bursts.
TEST(WheelDeterminismTest, MatchesReferenceModelUnderRandomLoad) {
  {
    SCOPED_TRACE("uniform");
    Lockstep m(0xC0FFEE);
    ASSERT_NO_FATAL_FAILURE(run_uniform_profile(m));
    ASSERT_NO_FATAL_FAILURE(m.drain());
  }
  {
    SCOPED_TRACE("same-bucket bursts");
    Lockstep m(0xB0057);
    ASSERT_NO_FATAL_FAILURE(run_burst_profile(m));
    ASSERT_NO_FATAL_FAILURE(m.drain());
  }
}

// A key staged short of a live window's tail waits in the heap, and it can
// outlive the window when the tail is cancelled. The cursor must not
// advance until it has fired: where the cursor stands decides whether a
// later insert counts as staged or bucketed, and run manifests record
// those counts.
TEST(WheelDeterminismTest, HeapedBehindCursorKeyHoldsTheCursor) {
  EventQueue q;
  std::vector<int> order;
  q.post(SimTime(100), [&] { order.push_back(1); });
  EventHandle tail = q.schedule(SimTime(300), [&] { order.push_back(0); });
  q.post(SimTime(kL0 + 100), [&] { order.push_back(4); });
  q.try_pop()->fn(); // activates bucket 0; the cursor moves to kL0
  q.post(SimTime(200), [&] { order.push_back(2); }); // behind the cursor
  ASSERT_EQ(q.next_time(), SimTime(200)); // 200 < the tail: to the heap
  tail.cancel();
  q.try_pop()->fn(); // 200, with the window drained and bucket 1 not yet activated
  const QueueStats before = q.stats();
  q.post(SimTime(kL0 + 50), [&] { order.push_back(3); });
  EXPECT_EQ(q.stats().wheel_inserts, before.wheel_inserts + 1);
  EXPECT_EQ(q.stats().staged_inserts, before.staged_inserts);
  while (auto e = q.try_pop()) e->fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

// ...but a cancelled one must not: with it gone, the wheel's next bucket
// comes before a beyond-horizon key sitting under it in the heap.
TEST(WheelDeterminismTest, CancelledHeapedKeyReleasesTheCursor) {
  EventQueue q;
  q.post(SimTime(100), [] {});
  EventHandle tail = q.schedule(SimTime(300), [] {});
  q.post(SimTime(kL0 + 100), [] {});
  q.post(SimTime(600 * kL2), [] {}); // beyond the horizon
  q.try_pop();
  EventHandle h = q.schedule(SimTime(200), [] {}); // behind the cursor
  ASSERT_EQ(q.next_time(), SimTime(200)); // 200 < the tail: to the heap
  tail.cancel();
  h.cancel();
  auto e = q.try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->time, SimTime(kL0 + 100));
}

TEST(WheelDeterminismTest, PurgeDeadReclaimsCancelledHeads) {
  EventQueue q;
  // Cancelled entries at the heap front and in the activated window are
  // reclaimed eagerly by purge_dead() without firing anything.
  auto far = q.schedule(SimTime(600ll * kL2), [] {});  // heap spill
  auto near = q.schedule(SimTime(10), [] {});
  q.schedule(SimTime(20), [] {});
  near.cancel();
  far.cancel();
  q.purge_dead();
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.live_size(), 1u);
  auto e = q.try_pop();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->time, SimTime(20));
  EXPECT_TRUE(q.empty());
}

TEST(WheelDeterminismTest, TryPopAtOrBeforeRespectsLimit) {
  EventQueue q;
  q.schedule(SimTime(100), [] {});
  q.schedule(SimTime(kL1 + 100), [] {});
  EXPECT_FALSE(q.try_pop_at_or_before(SimTime(99)).has_value());
  auto a = q.try_pop_at_or_before(SimTime(100));
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->time, SimTime(100));
  // The limit must not pop the far event early...
  EXPECT_FALSE(q.try_pop_at_or_before(SimTime(kL1)).has_value());
  // ...and the refusal must not have lost it.
  auto b = q.try_pop_at_or_before(SimTime(kL1 + 100));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->time, SimTime(kL1 + 100));
}

} // namespace
} // namespace tsn::sim
