// Simulator — single-threaded discrete-event simulation driver.
//
// Components schedule callbacks at absolute or relative simulated times; the
// driver pops events in order, advancing the virtual clock. Time never moves
// backwards, and within one instant events fire in scheduling order.
#ifndef GFAIR_SIMKIT_SIMULATOR_H_
#define GFAIR_SIMKIT_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "simkit/event_queue.h"

namespace gfair::simkit {

class Simulator {
 public:
  SimTime Now() const { return now_; }

  // Schedules `callback` at absolute time `when` (>= Now()).
  EventId At(SimTime when, EventCallback callback);

  // Schedules `callback` `delay` from now (delay >= 0).
  EventId After(SimDuration delay, EventCallback callback);

  // Schedules `callback` every `period`, first firing at Now() + period.
  // Returns a stable handle for the whole repeating chain; Cancel(handle)
  // stops future firings no matter how many times the chain already fired.
  EventId Every(SimDuration period, std::function<void()> callback);
  bool Cancel(EventId id);

  // Reusable timers (see EventQueue): create once, then arm/disarm per
  // cycle. The cheap path for high-churn recurring events — the executor's
  // per-job completion events are the intended user.
  TimerId CreateTimer(EventCallback callback) {
    return queue_.CreateTimer(std::move(callback));
  }
  EventId ArmTimerAt(TimerId timer, SimTime when) {
    GFAIR_CHECK_MSG(when >= now_, "cannot schedule events in the past");
    return queue_.ArmTimer(timer, when);
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
  // A repeating chain re-pushes itself under a fresh event id on every
  // firing. The chain owns the user callback; each queued event holds the
  // chain (never the reverse), so there is no ownership cycle: a cancelled
  // or abandoned chain is freed with its last queued event or with the
  // simulator. `live` tracks the currently pending event id so Cancel() —
  // keyed by the chain's first id — can remove the live event from the queue
  // instead of leaving a stale callback behind.
  struct RepeatingChain {
    std::function<void()> callback;
    SimDuration period = 0;
    bool cancelled = false;
    EventId live;
  };
  // Fires one link of `chain` and queues the next.
  void FireRepeating(const std::shared_ptr<RepeatingChain>& chain);
  EventId PushRepeating(const std::shared_ptr<RepeatingChain>& chain);
  // A handful of chains exist at a time (periodic scheduler timers), but
  // one-shot cancels consult this on the per-quantum path first — a linear
  // scan beats hashing at this size.
  std::vector<std::pair<EventId, std::shared_ptr<RepeatingChain>>> repeating_chains_;
  EventQueue queue_;
  SimTime now_ = kTimeZero;
  bool stop_requested_ = false;
  uint64_t events_processed_ = 0;
};

}  // namespace gfair::simkit

#endif  // GFAIR_SIMKIT_SIMULATOR_H_
