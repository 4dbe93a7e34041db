// EventQueue — the ordered heart of the discrete-event simulator.
//
// Events are (time, sequence, callback). Sequence numbers break ties so that
// two events scheduled for the same instant fire in scheduling order, which
// keeps runs deterministic.
//
// Every queued entry refers to one slot, which holds its callback and the id
// of the entry that will fire it. A one-shot Push borrows a free slot and
// returns it when the event fires. A timer owns its slot permanently: it is
// created once, then re-armed with a fresh (time, id) entry each cycle.
// Arming draws ids from the same counter as Push, so the relative fire order
// of timers and one-shot events is exactly what the equivalent Push sequence
// would produce. An entry is live while its slot's armed id still equals its
// own id: one array compare, whatever the entry's kind. The executor's
// per-job completion events — armed and disarmed once per suspend/resume
// cycle, thousands per full-churn quantum — are the workload timers exist
// for: arm is a heap push plus one slot store, disarm is one slot store.
//
// Disarm is lazy: a disarmed heap entry stays in the heap as a tombstone and
// is skipped on pop, but when tombstones outnumber live entries ~5:1 the
// heap is compacted in one O(n) pass, so steady arm/disarm churn keeps the
// heap proportional to the live event count. Compaction never changes pop
// order: the heap's (time, id) key is a strict total order.
//
// Far band: entries scheduled more than an hour of simulated time ahead of
// the last fired event bypass the heap into an unsorted overflow vector.
// They only matter once the clock approaches the earliest of them, so the
// band is drained into the heap when the live heap front reaches (or the
// heap runs out before) that minimum — pop order is unchanged because the
// (time, id) key is a strict total order regardless of which container an
// entry waited in. The win is the steady state: a long job's completion
// event is armed thousands of quanta before it fires, and without the band
// every arm is a heap push and every compaction walks and re-heapifies all
// of them; with it they cost a vector append, and a disarm splices the far
// entry out, so the band holds only live entries.
#ifndef GFAIR_SIMKIT_EVENT_QUEUE_H_
#define GFAIR_SIMKIT_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"
#include "common/sim_time.h"

namespace gfair::simkit {

using EventCallback = std::function<void()>;
using EventId = uint64_t;
using TimerId = uint32_t;
inline constexpr TimerId kInvalidTimer = static_cast<TimerId>(-1);

class EventQueue {
 public:
  // Enqueues `callback` to fire once at `when`.
  void Push(SimTime when, EventCallback callback);

  // --- timers (see file comment) ---
  //
  // Allocates a permanent timer slot owning `callback`. Slots are never
  // freed; create one per long-lived recurring purpose (e.g. per job), not
  // per firing.
  TimerId CreateTimer(EventCallback callback);
  // Schedules the timer's callback at `when`. Precondition: not armed.
  // Defined inline below: arm/disarm run thousands of times per full-churn
  // quantum and the bodies are a handful of stores.
  void ArmTimer(TimerId timer, SimTime when);
  // Cancels a pending arm. Returns false if the timer was not armed (never
  // armed, already fired, or already disarmed). O(1), no heap access.
  bool DisarmTimer(TimerId timer);
  bool TimerArmed(TimerId timer) const {
    return slots_[timer].armed_id != 0;
  }

  bool empty() const { return live_count_ == 0; }
  size_t size() const { return live_count_; }

  // Timestamp of the earliest live event; kTimeNever when empty.
  SimTime NextTime() const;

  // Removes and returns the earliest live event. Precondition: !empty().
  struct PoppedEvent {
    SimTime time;
    EventCallback callback;
  };
  PoppedEvent Pop();

 private:
  struct Entry {
    SimTime time;
    EventId id;
    uint32_t slot;  // index into slots_
    // Min-heap on (time, id): earlier time first, then earlier scheduling.
    bool operator>(const Entry& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return id > other.id;
    }
  };

  static constexpr uint32_t kNoFarIndex = static_cast<uint32_t>(-1);

  struct Slot {
    EventCallback callback;
    EventId armed_id = 0;  // the entry that will fire this slot; 0 = none
    // Position of the armed entry inside far_, or kNoFarIndex when the arm
    // went to the heap (or the slot is not armed). Far entries only move on
    // swap-remove and drain — both of which patch this — so a disarm can
    // splice its far entry out in O(1) instead of leaving a tombstone. The
    // common cycle (arm far, disarm before the horizon nears) then never
    // grows the far band or triggers compaction.
    uint32_t far_index = kNoFarIndex;
    // Owned by a timer (kept across firings) rather than borrowed by a Push.
    bool timer = false;
  };

  // Whether a heap entry will still fire (not disarmed or superseded).
  bool IsLive(const Entry& entry) const {
    return slots_[entry.slot].armed_id == entry.id;
  }

  // Queues a fresh entry for `slot`, whose callback is already set.
  void Arm(uint32_t slot, SimTime when);

  void DropDisarmedHead() const;
  // Rebuilds the heap keeping only live entries. O(heap size); amortized
  // O(1) per disarm since it only runs once tombstones exceed live entries.
  void Compact();

  // Entries at or beyond this much simulated time past the last fired event
  // go to the far band instead of the heap. Must comfortably exceed every
  // recurring period in the system (quantum, balance, trade — minutes), so
  // steady-state recurring events never cycle through the band.
  static constexpr SimDuration kFarHorizon = 60 * 60 * 1000;  // 1 sim-hour

  // Moves the far band into the heap once the heap front (or heap
  // exhaustion) reaches the band's earliest entry. Mutates only the mutable
  // containers — logically const like DropDisarmedHead.
  void MaybeDrainFar() const;

  // Min-heap over a flat vector (std::push_heap/pop_heap with greater<>) so
  // it can be compacted in place; callbacks live in the slots, so a disarmed
  // entry holds no callback.
  mutable std::vector<Entry> heap_;
  // Far band (see file comment): unsorted; `far_min_` tracks the minimum
  // entry time ever inserted since the last drain. Spliced-out entries can
  // leave it lower than any live entry — that only costs a premature drain.
  mutable std::vector<Entry> far_;
  mutable SimTime far_min_ = kTimeNever;
  SimTime last_fired_ = 0;
  // Mutable for MaybeDrainFar: draining clears the drained entries'
  // far_index back-pointers — cache maintenance, not behavior.
  mutable std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;  // borrowable by Push
  EventId next_id_ = 1;
  size_t live_count_ = 0;
};

inline void EventQueue::Arm(uint32_t slot, SimTime when) {
  const Entry entry{when, next_id_++, slot};
  slots_[slot].armed_id = entry.id;
  ++live_count_;
  if (when - last_fired_ >= kFarHorizon) {
    slots_[slot].far_index = static_cast<uint32_t>(far_.size());
    far_.push_back(entry);
    if (when < far_min_) {
      far_min_ = when;
    }
    return;
  }
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
}

inline void EventQueue::ArmTimer(TimerId timer, SimTime when) {
  GFAIR_CHECK(timer < slots_.size() && slots_[timer].timer);
  GFAIR_CHECK_MSG(slots_[timer].armed_id == 0, "ArmTimer on an armed timer");
  Arm(timer, when);
}

inline bool EventQueue::DisarmTimer(TimerId timer) {
  GFAIR_CHECK(timer < slots_.size() && slots_[timer].timer);
  Slot& slot = slots_[timer];
  if (slot.armed_id == 0) {
    return false;
  }
  slot.armed_id = 0;
  --live_count_;
  if (slot.far_index != kNoFarIndex) {
    // Splice the far entry out (see Slot::far_index); no tombstone.
    const uint32_t idx = slot.far_index;
    slot.far_index = kNoFarIndex;
    far_[idx] = far_.back();
    far_.pop_back();
    if (idx < far_.size()) {
      slots_[far_[idx].slot].far_index = idx;
    }
    // far_min_ may now under-estimate the surviving minimum; that only costs
    // a premature (harmless) drain.
    return true;
  }
  // Heap-resident arm: tombstone. ~5:1 slack: a lower ratio (e.g. 1:1)
  // makes steady disarm churn recompact every couple of quanta, and the O(n)
  // passes start to show up in tick profiles; memory stays bounded by the
  // live count.
  if (heap_.size() + far_.size() > 6 * live_count_ + 64) {
    Compact();
  }
  return true;
}

}  // namespace gfair::simkit

#endif  // GFAIR_SIMKIT_EVENT_QUEUE_H_
