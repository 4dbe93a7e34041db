// Simulator — single-threaded discrete-event simulation driver.
//
// Components schedule callbacks at absolute or relative simulated times; the
// driver pops events in order, advancing the virtual clock. Time never moves
// backwards, and within one instant events fire in scheduling order.
#ifndef GFAIR_SIMKIT_SIMULATOR_H_
#define GFAIR_SIMKIT_SIMULATOR_H_

#include <cstdint>
#include <utility>

#include "common/sim_time.h"
#include "simkit/event_queue.h"

namespace gfair::simkit {

class Simulator {
 public:
  SimTime Now() const { return now_; }

  // Schedules `callback` at absolute time `when` (>= Now()).
  void At(SimTime when, EventCallback callback);

  // Schedules `callback` `delay` from now (delay >= 0).
  void After(SimDuration delay, EventCallback callback);

  // Schedules `callback` every `period`, first firing at Now() + period,
  // for the simulator's lifetime. Each firing schedules the next one after
  // the callback returns, so an event the callback schedules for the next
  // firing's instant fires before that firing.
  void Every(SimDuration period, EventCallback callback);

  // Reusable timers (see EventQueue): create once, then arm/disarm per
  // cycle. The cheap path for high-churn recurring events — the executor's
  // per-job completion events are the intended user.
  TimerId CreateTimer(EventCallback callback) {
    return queue_.CreateTimer(std::move(callback));
  }
  void ArmTimerAt(TimerId timer, SimTime when) {
    GFAIR_CHECK_MSG(when >= now_, "cannot schedule events in the past");
    queue_.ArmTimer(timer, when);
  }
  bool DisarmTimer(TimerId timer) { return queue_.DisarmTimer(timer); }
  bool TimerArmed(TimerId timer) const { return queue_.TimerArmed(timer); }

  // Runs until the queue drains or the clock would pass `deadline`; the clock
  // ends at min(deadline, last event time). Returns the number of events
  // processed.
  size_t RunUntil(SimTime deadline);

  // Runs until the queue drains completely.
  size_t Run() { return RunUntil(kTimeNever); }

  // Requests that the run loop stop after the current event.
  void Stop() { stop_requested_ = true; }

  size_t pending_events() const { return queue_.size(); }
  uint64_t total_events_processed() const { return events_processed_; }

 private:
  EventQueue queue_;
  SimTime now_ = kTimeZero;
  bool stop_requested_ = false;
  uint64_t events_processed_ = 0;
};

}  // namespace gfair::simkit

#endif  // GFAIR_SIMKIT_SIMULATOR_H_
