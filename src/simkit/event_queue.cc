#include "simkit/event_queue.h"

#include <algorithm>
#include <utility>

namespace gfair::simkit {

void EventQueue::Push(SimTime when, EventCallback callback) {
  GFAIR_CHECK(callback != nullptr);
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  slots_[slot].callback = std::move(callback);
  Arm(slot, when);
}

TimerId EventQueue::CreateTimer(EventCallback callback) {
  GFAIR_CHECK(callback != nullptr);
  const TimerId timer = static_cast<TimerId>(slots_.size());
  slots_.push_back(Slot{std::move(callback), 0, kNoFarIndex, /*timer=*/true});
  return timer;
}

void EventQueue::Compact() {
  // The far band needs no pass: it holds only live entries.
  std::erase_if(heap_, [this](const Entry& entry) { return !IsLive(entry); });
  std::make_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
}

void EventQueue::MaybeDrainFar() const {
  if (far_.empty()) {
    return;
  }
  if (!heap_.empty() && heap_.front().time < far_min_) {
    return;
  }
  for (const Entry& entry : far_) {
    GFAIR_DCHECK(IsLive(entry));
    slots_[entry.slot].far_index = kNoFarIndex;
    heap_.push_back(entry);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
  }
  far_.clear();
  far_min_ = kTimeNever;
}

void EventQueue::DropDisarmedHead() const {
  while (!heap_.empty() && !IsLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
    heap_.pop_back();
  }
}

SimTime EventQueue::NextTime() const {
  DropDisarmedHead();
  MaybeDrainFar();
  if (heap_.empty()) {
    return kTimeNever;
  }
  return heap_.front().time;
}

EventQueue::PoppedEvent EventQueue::Pop() {
  DropDisarmedHead();
  MaybeDrainFar();
  GFAIR_CHECK_MSG(!heap_.empty(), "Pop() on empty EventQueue");
  const Entry entry = heap_.front();
  last_fired_ = entry.time;
  std::pop_heap(heap_.begin(), heap_.end(), std::greater<Entry>());
  heap_.pop_back();
  --live_count_;
  // Firing consumes the arm (a timer is free to re-arm, even from inside its
  // callback).
  Slot& slot = slots_[entry.slot];
  slot.armed_id = 0;
  if (slot.timer) {
    // The timer keeps its callback, so hand out a copy.
    return PoppedEvent{entry.time, slot.callback};
  }
  // A Push returns its slot, and the callback's captures leave with it.
  free_slots_.push_back(entry.slot);
  return PoppedEvent{entry.time, std::exchange(slot.callback, nullptr)};
}

}  // namespace gfair::simkit
