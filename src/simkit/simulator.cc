#include "simkit/simulator.h"

#include <utility>

namespace gfair::simkit {

void Simulator::At(SimTime when, EventCallback callback) {
  GFAIR_CHECK_MSG(when >= now_, "cannot schedule events in the past");
  queue_.Push(when, std::move(callback));
}

void Simulator::After(SimDuration delay, EventCallback callback) {
  GFAIR_CHECK(delay >= 0);
  At(now_ + delay, std::move(callback));
}

void Simulator::Every(SimDuration period, EventCallback callback) {
  GFAIR_CHECK(period > 0);
  // The firing event owns the callback until it hands it to the next one.
  At(now_ + period, [this, period, callback = std::move(callback)]() mutable {
    callback();
    Every(period, std::move(callback));
  });
}

size_t Simulator::RunUntil(SimTime deadline) {
  stop_requested_ = false;
  size_t processed = 0;
  while (!queue_.empty() && !stop_requested_) {
    const SimTime next = queue_.NextTime();
    if (next > deadline) {
      break;
    }
    auto event = queue_.Pop();
    GFAIR_CHECK(event.time >= now_);
    now_ = event.time;
    event.callback();
    ++processed;
    ++events_processed_;
  }
  if (queue_.empty() || queue_.NextTime() > deadline) {
    if (deadline != kTimeNever && deadline > now_) {
      now_ = deadline;
    }
  }
  return processed;
}

}  // namespace gfair::simkit
