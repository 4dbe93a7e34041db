// Phase-capability tokens for the tick's lock-free fork-join discipline.
//
// The quantum tick has two phases with different access rights:
// the parallel fan-out (each worker may mutate only its own PlanShard) and
// the serial reduce (the single thread that merges shards, replays deferred
// profiler RNG draws, and commits global migration accounting). Mutexes and
// thread-safety annotations cannot express "this state is unlocked but only
// one phase may touch it" — these zero-size passkey tokens can:
//
//   * ShardToken  — minted per shard inside the plan fan-out; required by
//     PlanShard's mutating stage APIs. Holding one says "I am the worker
//     that owns this shard, in the fan-out phase".
//   * ReduceToken — constructible only at the tick's serial points;
//     required by the cross-shard merge (PlanShard::MergeInto), deferred
//     profiler-sample replay (TradeCoordinator::RecordSample) and the
//     executor's global MigrationAccounting mutators.
//
// Only the friend classes below can mint a token (private constructor), so
// "parallel code committed cross-shard state" is a compile error, not a
// review finding — proven by the WILL_FAIL negative-compile ctests in
// tests/CMakeLists.txt. Tokens are empty and passed by value: they exist
// only in the type system and cost nothing at runtime. This extends the
// PR-5 strong-type ethos from units to phases; see docs/STATIC_ANALYSIS.md
// "Concurrency contracts".
#ifndef GFAIR_COMMON_PHASE_TOKENS_H_
#define GFAIR_COMMON_PHASE_TOKENS_H_

namespace gfair::sched {
class GandivaFairScheduler;
}  // namespace gfair::sched

namespace gfair::exec {
class Executor;
}  // namespace gfair::exec

namespace gfair::common {

// Capability: "fan-out phase, owner of the shard this was granted for".
class ShardToken {
 public:
  ShardToken(const ShardToken&) = default;
  ShardToken& operator=(const ShardToken&) = delete;

 private:
  friend class ::gfair::sched::GandivaFairScheduler;
  constexpr ShardToken() = default;
};

// Capability: "serial phase of the tick" — the tick's reduce step, or any
// point that is serial by construction (the executor's event handlers and
// its apply's commit pass).
class ReduceToken {
 public:
  ReduceToken(const ReduceToken&) = default;
  ReduceToken& operator=(const ReduceToken&) = delete;

 private:
  friend class ::gfair::sched::GandivaFairScheduler;
  friend class ::gfair::exec::Executor;
  constexpr ReduceToken() = default;
};

}  // namespace gfair::common

#endif  // GFAIR_COMMON_PHASE_TOKENS_H_
