#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace tsn::sim {

void EventQueue::reserve(std::size_t n) {
  heap_.reserve(n);
  slot_gen_.reserve(n);
  free_slots_.reserve(n);
  active_.reserve(n);
  nodes_.reserve(n);
}

void EventQueue::clear() {
  active_.clear();
  active_pos_ = 0;
  staged_.clear();
  for (auto& level : bucket_head_) level.fill(kNone);
  for (auto& level : bitmap_) level.fill(0);
  wheel_count_ = 0;
  for (auto& node : nodes_) node.entry.fn.reset();
  nodes_.clear();
  node_free_ = kNone;
  heap_.clear();
  // Bump every slot generation so outstanding EventHandles turn into
  // harmless no-ops, then return all slots to the free list in a fixed
  // order -- slot indices never influence pop order, but determinism is
  // cheap to keep everywhere.
  for (auto& g : slot_gen_) ++g;
  free_slots_.clear();
  for (std::uint32_t s = 0; s < slot_gen_.size(); ++s) free_slots_.push_back(s);
  live_ = 0;
  // cur_ (activation cursor) and next_seq_ stay: restore re-arms events at
  // or after the restored now(), and behind-cursor inserts go to staging
  // with pop order unchanged; stats_ are lifetime totals.
}

std::uint32_t EventQueue::alloc_node(SimTime at, std::uint64_t seq,
                                     std::uint32_t slot, std::uint32_t gen,
                                     EventFn&& fn) {
  if (node_free_ != kNone) {
    const std::uint32_t idx = node_free_;
    node_free_ = nodes_[idx].next;
    Entry& e = nodes_[idx].entry;
    e.time = at;
    e.seq = seq;
    e.slot = slot;
    e.gen = gen;
    e.fn = std::move(fn);
    return idx;
  }
  const std::uint32_t idx = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{Entry{at, seq, slot, gen, std::move(fn)}, kNone});
  return idx;
}

void EventQueue::free_node(std::uint32_t idx) {
  nodes_[idx].entry.fn.reset(); // drop captures while the node idles
  nodes_[idx].next = node_free_;
  node_free_ = idx;
}

EventHandle EventQueue::schedule(SimTime at, EventFn fn) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slot_gen_.size());
    slot_gen_.push_back(0);
  }
  const std::uint32_t gen = slot_gen_[slot];
  insert(at, slot, gen, std::move(fn));
  ++live_;
  ++stats_.scheduled;
  return EventHandle(this, slot, gen);
}

void EventQueue::post(SimTime at, EventFn fn) {
  insert(at, kNoSlot, 0, std::move(fn));
  ++live_;
  ++stats_.posted;
}

void EventQueue::post_keyed(SimTime at, std::uint64_t seq, EventFn fn) {
  assert((seq >> 63) != 0 &&
         "caller-supplied keys live in the upper half of the sequence "
         "space, above every internal insertion counter value");
  insert_with_seq(at, seq, kNoSlot, 0, std::move(fn));
  ++live_;
  ++stats_.posted;
}

void EventQueue::insert(SimTime at, std::uint32_t slot, std::uint32_t gen,
                        EventFn&& fn) {
  insert_with_seq(at, next_seq_++, slot, gen, std::move(fn));
}

void EventQueue::insert_with_seq(SimTime at, std::uint64_t seq,
                                 std::uint32_t slot, std::uint32_t gen,
                                 EventFn&& fn) {
  const Key k{at, seq, alloc_node(at, seq, slot, gen, std::move(fn))};
  const std::int64_t t = at.ns();
  if (t < cur_) {
    // Behind the activated window (e.g. scheduled "now" while draining the
    // current bucket). Staged unsorted; place_staged() moves it into the
    // window or onto the heap at the next ordered lookup.
    staged_.push_back(k);
    ++stats_.staged_inserts;
  } else if ((t >> kShift[2]) - (cur_ >> kShift[2]) < kSlots) {
    place(k);
    ++wheel_count_;
    ++stats_.wheel_inserts;
  } else {
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    ++stats_.heap_spills;
  }
}

void EventQueue::place(Key k) {
  const std::int64_t t = k.time.ns();
  if ((t >> kShift[1]) == (cur_ >> kShift[1])) {
    add_bucket(0, t >> kShift[0], k.node); // within current L1 bucket
  } else if ((t >> kShift[2]) == (cur_ >> kShift[2])) {
    add_bucket(1, t >> kShift[1], k.node); // within current L2 bucket
  } else {
    add_bucket(2, t >> kShift[2], k.node);
  }
}

void EventQueue::add_bucket(int level, std::int64_t abs_idx,
                            std::uint32_t node) {
  const std::int64_t slot = abs_idx & kSlotMask;
  nodes_[node].next = bucket_head_[level][static_cast<std::size_t>(slot)];
  bucket_head_[level][static_cast<std::size_t>(slot)] = node;
  bitmap_[level][static_cast<std::size_t>(slot >> 6)] |= 1ull << (slot & 63);
}

/// First occupied bucket of `level` with absolute index in [from, limit),
/// or -1. Scans the occupancy bitmap a word at a time (ring addressing).
std::int64_t EventQueue::next_set(int level, std::int64_t from,
                                  std::int64_t limit) const {
  std::int64_t n = limit - from;
  if (n <= 0) return -1;
  if (n > kSlots) n = kSlots;
  const auto& bm = bitmap_[level];
  std::int64_t pos = from;
  while (n > 0) {
    const std::int64_t slot = pos & kSlotMask;
    const int bit = static_cast<int>(slot & 63);
    const std::uint64_t word = bm[static_cast<std::size_t>(slot >> 6)] &
                               (~0ull << bit);
    const std::int64_t take = std::min<std::int64_t>(n, 64 - bit);
    if (word != 0) {
      const int b = std::countr_zero(word);
      if (b - bit < take) return pos + (b - bit);
    }
    pos += take;
    n -= take;
  }
  return -1;
}

void EventQueue::activate(std::int64_t abs_l0_idx) {
  const std::int64_t slot = abs_l0_idx & kSlotMask;
  bitmap_[0][static_cast<std::size_t>(slot >> 6)] &= ~(1ull << (slot & 63));
  // Drain the bucket's node list into the (recycled) active_ key buffer
  // and sort it into pop order; the nodes stay put until their entry is
  // popped (or reclaimed as cancelled).
  active_.clear();
  active_pos_ = 0;
  std::uint32_t idx = bucket_head_[0][static_cast<std::size_t>(slot)];
  bucket_head_[0][static_cast<std::size_t>(slot)] = kNone;
  while (idx != kNone) {
    const Entry& e = nodes_[idx].entry;
    active_.push_back(Key{e.time, e.seq, idx});
    idx = nodes_[idx].next;
  }
  wheel_count_ -= active_.size();
  std::sort(active_.begin(), active_.end(), Earlier{});
  cur_ = (abs_l0_idx + 1) << kShift[0];
}

void EventQueue::cascade(int level, std::int64_t abs_idx) {
  const std::int64_t slot = abs_idx & kSlotMask;
  bitmap_[level][static_cast<std::size_t>(slot >> 6)] &= ~(1ull << (slot & 63));
  cur_ = std::max(cur_, abs_idx << kShift[level]);
  ++stats_.cascades;
  // Redistribution is a pure relink: each node is unhooked from this
  // bucket's list and hooked into a lower-level one. Entries don't move.
  std::uint32_t idx = bucket_head_[level][static_cast<std::size_t>(slot)];
  bucket_head_[level][static_cast<std::size_t>(slot)] = kNone;
  while (idx != kNone) {
    const std::uint32_t next = nodes_[idx].next;
    const Entry& e = nodes_[idx].entry;
    place(Key{e.time, e.seq, idx});
    idx = next;
  }
}

/// Advance the cursor to the next occupied bucket and activate it.
/// Precondition: every behind-cursor key has fired -- the active window is
/// exhausted, staged_ is empty, and no live heap key lies before cur_.
/// (A key staged while the window is live and that does not sort past its
/// tail waits in the heap, not merged into the window: O(log n) per
/// insert, never O(window). It can outlive the window when the window's
/// tail was cancelled.)
/// Returns false only when every wheel bucket is empty.
bool EventQueue::advance_wheel() {
  while (wheel_count_ > 0) {
    const std::int64_t c0 = cur_ >> kShift[0];
    const std::int64_t c1 = cur_ >> kShift[1];
    const std::int64_t c2 = cur_ >> kShift[2];
    // An activation that ends exactly on a bucket boundary rolls the
    // cursor into the next higher-level bucket without cascading it. The
    // scans below start past the cursor's own bucket, so an occupied
    // bucket sitting exactly at the cursor must be redistributed first —
    // otherwise its entries are skipped (and, once the ring index wraps,
    // would be re-placed behind the cursor out of order).
    if (bitmap_[2][static_cast<std::size_t>((c2 & kSlotMask) >> 6)] >>
            (c2 & 63) & 1) {
      cascade(2, c2);
      continue;
    }
    if (bitmap_[1][static_cast<std::size_t>((c1 & kSlotMask) >> 6)] >>
            (c1 & 63) & 1) {
      cascade(1, c1);
      continue;
    }
    // Next level-0 bucket within the current level-1 bucket.
    const std::int64_t a0 = next_set(0, c0, (c1 + 1) << kSlotBits);
    if (a0 >= 0) {
      activate(a0);
      return true;
    }
    // Next level-1 bucket within the current level-2 bucket.
    const std::int64_t a1 = next_set(1, c1 + 1, (c2 + 1) << kSlotBits);
    if (a1 >= 0) {
      cascade(1, a1);
      continue;
    }
    // Next level-2 bucket anywhere in the ring.
    const std::int64_t a2 = next_set(2, c2 + 1, c2 + kSlots);
    if (a2 >= 0) {
      cascade(2, a2);
      continue;
    }
    assert(false && "wheel_count_ > 0 but no occupied bucket");
    return false;
  }
  return false;
}

void EventQueue::place_staged() {
  if (staged_.empty()) return;
  if (active_pos_ >= active_.size()) {
    // Drained window: the sorted batch becomes the new window.
    std::sort(staged_.begin(), staged_.end(), Earlier{});
    active_.swap(staged_);
    active_pos_ = 0;
  } else {
    // The window still holds entries. A key past its tail (about 9 in 10
    // of them on meshes and rings) is appended in O(1); any other key goes
    // onto the heap, which pops against the window head, in O(log n).
    // Merging into the window instead cost O(window) per pop under
    // same-bucket fan-out.
    for (const Key& k : staged_) {
      if (Earlier{}(active_.back(), k)) {
        active_.push_back(k);
        continue;
      }
      heap_.push_back(k);
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
  }
  staged_.clear();
}

void EventQueue::release_slot(std::uint32_t slot) {
  // Bumping the generation invalidates every outstanding handle (and any
  // stale buffered entry) referring to this incarnation of the slot.
  ++slot_gen_[slot];
  free_slots_.push_back(slot);
}

void EventQueue::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_pending(slot, gen)) return;
  release_slot(slot);
  --live_;
  ++stats_.cancelled;
}

void EventQueue::drop_dead_heap() {
  while (!heap_.empty() && !key_live(heap_.front())) {
    free_node(heap_.front().node);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

void EventQueue::purge_dead() {
  drop_dead_heap();
  while (active_pos_ < active_.size() && !key_live(active_[active_pos_])) {
    free_node(active_[active_pos_].node);
    ++active_pos_;
  }
}

EventQueue::Src EventQueue::locate() {
  place_staged();
  for (;;) {
    while (active_pos_ < active_.size() && !key_live(active_[active_pos_])) {
      free_node(active_[active_pos_].node);
      ++active_pos_;
    }
    if (active_pos_ < active_.size()) break;
    if (wheel_count_ == 0) break;
    // A live heap key behind the cursor fires before every wheel entry.
    // Pop it first: advancing now would move the cursor, and with it
    // whether later inserts count as staged or bucketed, too early.
    drop_dead_heap();
    if (!heap_.empty() && heap_.front().time.ns() < cur_) break;
    active_.clear();
    active_pos_ = 0;
    advance_wheel();
  }
  drop_dead_heap();
  const bool have_active = active_pos_ < active_.size();
  const bool have_heap = !heap_.empty();
  if (have_active && have_heap) {
    return Later{}(active_[active_pos_], heap_.front()) ? Src::kHeap
                                                        : Src::kActive;
  }
  if (have_active) return Src::kActive;
  return have_heap ? Src::kHeap : Src::kNone;
}

EventQueue::Popped EventQueue::pop_from(Src src) {
  Key k;
  if (src == Src::kActive) {
    k = active_[active_pos_++];
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    k = heap_.back();
    heap_.pop_back();
  }
  Entry& e = nodes_[k.node].entry;
  // Release before returning so pending() is false from the instant the
  // event is handed out — including while its own callback runs.
  if (e.slot != kNoSlot) release_slot(e.slot);
  Popped out{e.time, std::move(e.fn)};
  free_node(k.node);
  --live_;
  ++stats_.fired;
  return out;
}

SimTime EventQueue::next_time() {
  const Src src = locate();
  assert(src != Src::kNone);
  return src == Src::kActive ? active_[active_pos_].time : heap_.front().time;
}

std::optional<EventQueue::Popped> EventQueue::try_pop() {
  const Src src = locate();
  if (src == Src::kNone) return std::nullopt;
  return pop_from(src);
}

std::optional<EventQueue::Popped> EventQueue::try_pop_at_or_before(
    SimTime limit) {
  const Src src = locate();
  if (src == Src::kNone) return std::nullopt;
  const SimTime t =
      src == Src::kActive ? active_[active_pos_].time : heap_.front().time;
  if (t > limit) return std::nullopt;
  return pop_from(src);
}

} // namespace tsn::sim
