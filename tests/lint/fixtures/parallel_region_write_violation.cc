// gfair-lint-fixture: src/exec/example.cc
// Seeded violations for the parallel-region-write rule: inside a
// gfair-parallel-apply region (the executor's prepare fan-out) the code runs
// concurrently across slices, so serial-commit state — the running list,
// timer wheel, migration accounting, pool GPU holds, callbacks, RNG
// streams — and the serial-only entry points that mutate them must stay
// untouched until the commit pass after the join.
namespace gfair::exec {

void Example(size_t s) {
  // Outside any region the same tokens are legal — this models the serial
  // commit pass and the migration machinery.
  running_list_.push_back(id);
  acct_.AddTransfer(wire_gb, common::ReduceToken{});

  // gfair-parallel-apply-begin
  segments_[s].active = true;                 // per-job slot: fine
  jobs_.Get(id).num_resumes += 1;             // per-job state: fine
  cluster_.server(dest).Allocate(id, gang);   // the slice's own server: fine
  running_list_.push_back(id);  // EXPECT-LINT: parallel-region-write
  acct_.CountOrphaned(common::ReduceToken{});  // EXPECT-LINT: parallel-region-write
  ArmTimerAt(id, finish_at);  // EXPECT-LINT: parallel-region-write
  const double draw = rng_.Uniform();  // EXPECT-LINT: parallel-region-write
  on_finished_(id);  // EXPECT-LINT: parallel-region-write
  CommitOp(op, prepared);  // EXPECT-LINT: parallel-region-write
  OpenHold(user, gen, gang, now);  // EXPECT-LINT: parallel-region-write
  FinishTimerFor(id);  // gfair-lint: allow(parallel-region-write) -- models a line proven serial (single-slice span)
  // gfair-parallel-apply-end

  // Region closed: the commit below is serial again.
  CommitOp(op, prepared);
}

}  // namespace gfair::exec
