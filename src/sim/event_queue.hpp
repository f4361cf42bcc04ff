// Deterministic discrete-event queue.
//
// Ties at the same timestamp are broken by insertion sequence number, so a
// given schedule of calls always executes in the same order regardless of
// the internal container layout.
//
// Internally the queue is a hierarchical timing wheel with a binary-heap
// spill for far-future events:
//
//   level 0:  512 buckets x 4.096 us   (covers ~2.1 ms)
//   level 1:  512 buckets x ~2.1 ms    (covers ~1.07 s)
//   level 2:  512 buckets x ~1.07 s    (covers ~550 s)
//   heap:     everything beyond the level-2 horizon
//
// Near-horizon inserts (every sync interval, the 125 ms monitor ticks,
// frame deliveries) are O(1): drop into a bucket by time bits. Buckets are
// intrusive linked lists over a shared free-listed node slab, so steady
// state allocates nothing regardless of which ring slot an event lands in.
// The entry (with its 64-byte inline closure) is written into its node
// once at insert and read once at pop; everything in between — cascades,
// activation, sorting, staging, the heap — shuffles trivially-copyable
// 24-byte (time, seq, node) keys, and re-bucketing a node is a pure
// pointer relink.
// A bucket is sorted only when the cursor reaches it ("activate"), which
// amortizes to O(log bucket-size) per event; per-level occupancy bitmaps
// let the cursor jump over empty regions in O(1) words. Events landing
// before the cursor (e.g. "now" while the activated window drains) are
// staged and placed at the next pop: a batch staged after the window
// drained is sorted and swapped in as the new window, which is cheaper
// than heaping it; while the window still holds entries each staged key
// is appended if it sorts past the window's tail and pushed onto the heap
// otherwise. A behind-cursor insert therefore costs O(1) or O(log n),
// never O(window) — re-merging the window made same-bucket fan-out
// (path-delay calibration bursts) quadratic. The global pop order is
// min((time, seq)) over the window head and the heap top —
// byte-identical to the pure heap implementation this replaces.
//
// Cancellation uses a slab of generation-counted slots instead of a
// per-event heap allocation: an EventHandle is (queue, slot index,
// generation) and stays O(1)/allocation-free to create, test and cancel.
// Events scheduled through post() skip the slab entirely — that is the
// hot path Simulation::every() rides on. Slots are released the moment an
// event is popped for execution, so pending() is exact even while the
// event's own callback runs.
//
// Handles must not outlive their queue (they hold a raw pointer into it);
// within a Simulation that is guaranteed by construction.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/sim_time.hpp"
#include "util/inline_fn.hpp"

namespace tsn::sim {

/// Event closures live inline in the queue: 64 bytes of capture, no heap.
/// Oversized captures fail to compile — move bulky state into the owning
/// object and capture an index instead.
using EventFn = util::InlineFunction<void(), 64>;

class EventQueue;

/// Handle for cancelling a scheduled event. Cheap to copy; cancelling an
/// already-fired or already-cancelled event is a no-op.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t gen)
      : queue_(queue), slot_(slot), gen_(gen) {}
  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// Lifetime totals of one queue; plain integers because a queue belongs to
/// exactly one (replica) thread. Harvested into the metrics registry as
/// gauges at snapshot time.
struct QueueStats {
  std::uint64_t scheduled = 0;      ///< schedule() calls (cancellable slab path)
  std::uint64_t posted = 0;         ///< post() calls (no-handle fast path)
  std::uint64_t cancelled = 0;      ///< successful cancels
  std::uint64_t fired = 0;          ///< events popped for execution
  std::uint64_t wheel_inserts = 0;  ///< entries that landed in a wheel bucket
  /// Entries behind the cursor. Placed at the next pop: sorted and swapped
  /// in as the window if it has drained; while it still holds entries,
  /// appended past its tail or pushed onto the heap (O(1) or O(log n),
  /// never O(window)).
  std::uint64_t staged_inserts = 0;
  std::uint64_t heap_spills = 0;    ///< entries beyond the wheel horizon
  std::uint64_t cascades = 0;       ///< higher-level buckets redistributed
};

class EventQueue {
 public:
  EventQueue() {
    for (auto& level : bucket_head_) level.fill(kNone);
    reserve(kDefaultReserve);
  }

  /// Schedule `fn` at absolute time `at`, returning a cancellable handle.
  EventHandle schedule(SimTime at, EventFn fn);

  /// Fast path: schedule `fn` at `at` with no cancellation handle. Zero
  /// slab traffic; the entry only dies by firing.
  void post(SimTime at, EventFn fn);

  /// Boundary insertion for the partitioned runtime: like post(), but the
  /// tie-break sequence is supplied by the caller instead of drawn from
  /// this queue's insertion counter. Keys must have the top bit set
  /// (internal sequences never do), which makes same-time boundary events
  /// sort after internal ones and — because the key encodes the sending
  /// channel, not the arrival moment — makes pop order independent of
  /// *when* a cross-partition message was drained into the queue.
  /// Passing the same (at, seq) twice is a caller bug (the relative order
  /// of the duplicates is unspecified, which breaks determinism).
  void post_keyed(SimTime at, std::uint64_t seq, EventFn fn);

  /// True when no live (non-cancelled) events remain. Pure observer:
  /// cancelled entries are reclaimed lazily at pop time (or explicitly
  /// via purge_dead()).
  bool empty() const { return live_ == 0; }

  /// Earliest live event time. Precondition: !empty().
  SimTime next_time();

  struct Popped {
    SimTime time;
    EventFn fn;
  };
  /// Pop the earliest live event, or nullopt if none remain.
  std::optional<Popped> try_pop();

  /// Pop the earliest live event if its time is <= `limit`; nullopt when
  /// the queue is empty or the next event lies beyond the limit. Lets the
  /// run loop do one ordered lookup instead of empty()+next_time()+pop.
  std::optional<Popped> try_pop_at_or_before(SimTime limit);

  /// Drop cancelled entries sitting at the front of the heap and the
  /// activated window, releasing their closures early. Optional memory
  /// hygiene — pop does the same lazily. Strictly queue-local: in a
  /// partitioned world (one queue per region) purging one queue never
  /// touches another's slabs or counters, and an EventHandle only ever
  /// refers to the queue that minted it.
  void purge_dead();

  /// Total entries still buffered (activated window + staging + wheel
  /// buckets + heap), including not-yet-reclaimed cancelled ones; an
  /// upper bound on the number of live events.
  std::size_t size_upper_bound() const {
    return (active_.size() - active_pos_) + staged_.size() + wheel_count_ +
           heap_.size();
  }

  /// Exact number of live (scheduled, neither fired nor cancelled)
  /// events, independent of how many cancelled entries still sit
  /// unreclaimed in the buckets — cancel_slot() decrements live_
  /// immediately, purge_dead() only reclaims storage. Like pending(),
  /// this is exact per queue: partitioned regions report their own live
  /// counts independently and the scenario sums them.
  std::size_t live_size() const { return live_; }

  /// Pre-size the heap and the cancellation slab.
  void reserve(std::size_t n);

  /// Discard every buffered entry without executing it (snapshot restore).
  /// All outstanding EventHandles are invalidated (their generations are
  /// bumped, so cancel()/pending() stay safe no-ops); closures are
  /// destroyed, releasing whatever they captured. The insertion sequence
  /// counter and the activation cursor stay monotonic -- re-scheduled
  /// events get fresh sequence numbers but identical *relative* order,
  /// which is all pop-order determinism requires. Lifetime stats are kept.
  void clear();

  const QueueStats& stats() const { return stats_; }

 private:
  friend class EventHandle;
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::size_t kDefaultReserve = 64;

  // Wheel geometry: 3 levels x 512 slots, 9 index bits per level.
  static constexpr int kSlotBits = 9;
  static constexpr std::int64_t kSlots = 1 << kSlotBits; // 512
  static constexpr std::int64_t kSlotMask = kSlots - 1;
  static constexpr int kShift[3] = {12, 12 + kSlotBits, 12 + 2 * kSlotBits};

  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot; ///< kNoSlot for post()ed events
    std::uint32_t gen;  ///< slab generation at schedule time
    EventFn fn;
  };

  // What actually travels through buckets, staging, sort and the heap: a
  // trivially-copyable 24-byte ordering key. The entry itself (with its
  // 64-byte closure) stays put in its slab node from insert to pop, so
  // re-bucketing and sorting never invoke the closure's move operation.
  struct Key {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t node;
  };
  // std::push_heap/pop_heap build a max-heap w.r.t. the comparator, so
  // "a fires later than b" puts the earliest event at the front.
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  struct Earlier {
    bool operator()(const Key& a, const Key& b) const {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    }
  };

  enum class Src { kNone, kActive, kHeap };

  // Wheel bucket storage: intrusive singly-linked lists over a free-listed
  // node slab. Per-bucket vectors would re-allocate on the first touch of
  // every ring slot (level-2 slots recur only every ~550 s, so they never
  // warm up); the shared slab reaches its working-set size once and then
  // recycles nodes forever — the zero-allocation steady state the bench
  // alloc hook asserts.
  struct Node {
    Entry entry;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;

  bool key_live(const Key& k) const {
    const Entry& e = nodes_[k.node].entry;
    return e.slot == kNoSlot || slot_gen_[e.slot] == e.gen;
  }
  std::uint32_t alloc_node(SimTime at, std::uint64_t seq, std::uint32_t slot,
                           std::uint32_t gen, EventFn&& fn);
  void free_node(std::uint32_t idx);
  void release_slot(std::uint32_t slot);
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);
  bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slot_gen_.size() && slot_gen_[slot] == gen;
  }

  void insert(SimTime at, std::uint32_t slot, std::uint32_t gen, EventFn&& fn);
  void insert_with_seq(SimTime at, std::uint64_t seq, std::uint32_t slot,
                       std::uint32_t gen, EventFn&& fn);
  void place(Key k); ///< drop into a wheel bucket; pre: cur_ <= time < horizon
  void add_bucket(int level, std::int64_t abs_idx, std::uint32_t node);
  void place_staged(); ///< move staged_ into the window or the heap
  bool advance_wheel(); ///< move cursor to next occupied bucket, activate it
  void activate(std::int64_t abs_l0_idx);
  void cascade(int level, std::int64_t abs_idx);
  std::int64_t next_set(int level, std::int64_t from, std::int64_t limit) const;
  void drop_dead_heap();
  Src locate(); ///< find where the global minimum lives (advancing as needed)
  Popped pop_from(Src src);

  // Activated window: bucket contents sorted by (time, seq); active_pos_
  // is the cursor of the next entry to pop. cur_ is the absolute time at
  // which the not-yet-activated wheel begins (end of the active window).
  std::vector<Key> active_;
  std::size_t active_pos_ = 0;
  std::vector<Key> staged_; ///< inserts behind cur_; placed at next pop
  std::int64_t cur_ = 0;

  std::vector<Node> nodes_;          ///< slab holding every buffered entry
  std::uint32_t node_free_ = kNone;  ///< head of the recycled-node list
  std::array<std::uint32_t, kSlots> bucket_head_[3];
  std::array<std::uint64_t, kSlots / 64> bitmap_[3] = {};
  std::size_t wheel_count_ = 0; ///< entries currently in wheel buckets

  std::vector<Key> heap_; ///< beyond-horizon spill + staged keys short of the window's tail
  std::vector<std::uint32_t> slot_gen_; ///< current generation per slot
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  QueueStats stats_;
};

inline void EventHandle::cancel() {
  if (queue_) queue_->cancel_slot(slot_, gen_);
}

inline bool EventHandle::pending() const {
  return queue_ && queue_->slot_pending(slot_, gen_);
}

} // namespace tsn::sim
