// heap_event_queue.hpp — binary-heap pending-event set, the test oracle for
// the slot calendar (src/sim/slot_calendar.hpp).
//
// A binary min-heap keyed on (time, sequence number).  The monotone sequence
// number gives FIFO semantics for simultaneous events, which is the total
// order the slot calendar must reproduce exactly.  Events can be cancelled
// by id (lazy deletion at pop).  Simple enough to be obviously right, which
// is its whole job: the differential tests pop both side by side.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/slot_calendar.hpp"  // EventId, EventFn, FiredEvent
#include "sim/time.hpp"

namespace firefly::sim {

class EventQueue {
 public:
  /// Schedule `fn` at absolute time `at`.  Returns an id usable for cancel().
  EventId schedule(SimTime at, EventFn fn) {
    const EventId id = next_id_++;
    heap_.push_back(Entry{at, next_seq_++, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    pending_.insert(id);
    ++live_count_;
    return id;
  }

  /// Cancel a pending event.  Returns false if already fired or cancelled.
  bool cancel(EventId id) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return false;
    pending_.erase(it);
    cancelled_.insert(id);
    --live_count_;
    return true;
  }

  [[nodiscard]] bool empty() const { return live_count_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_count_; }

  /// Time of the earliest live event; SimTime::max() when empty.
  [[nodiscard]] SimTime next_time() {
    skip_cancelled();
    return heap_.empty() ? SimTime::max() : heap_.front().time;
  }

  /// Pop the earliest live event.  Precondition: !empty().
  FiredEvent pop() {
    skip_cancelled();
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry e = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(e.id);
    --live_count_;
    return FiredEvent{e.time, e.id, std::move(e.fn)};
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    EventId id;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void skip_cancelled() {
    while (!heap_.empty()) {
      const auto it = cancelled_.find(heap_.front().id);
      if (it == cancelled_.end()) return;
      cancelled_.erase(it);
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::unordered_set<EventId> pending_;
  std::unordered_set<EventId> cancelled_;
  std::uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  std::size_t live_count_ = 0;
};

}  // namespace firefly::sim
