#include "rules.h"

#include <algorithm>
#include <iostream>
#include <set>
#include <utility>

namespace gfair_lint {

const std::vector<Rule>& Rules() {
  static const std::vector<Rule> kRules = {
      {"wall-clock", "src/, bench/, tools/ (except src/common/sim_time.*)",
       "wall-clock read; simulations must be a pure function of (trace, seed)",
       "use SimTime from common/sim_time.h (the simulator's clock); if a tool "
       "genuinely measures real elapsed time, append '// gfair-lint: "
       "allow(wall-clock)' with the argument on each measurement line",
       {}},
      {"raw-rand", "src/, bench/, tools/ (except src/common/rng.*)",
       "unseeded/global randomness; every draw must come from an explicitly "
       "seeded common Rng",
       "construct a gfair::Rng with an explicit seed (common/rng.h) and draw "
       "from it; never rand()/std::random_device/std::mt19937 directly",
       {}},
      {"unordered-iter", "src/sched/ decision paths",
       "range-for over an unordered container: iteration order is a function "
       "of hash seed and allocation history, so decisions depend on it",
       "iterate common::SortedKeys(...) or common::SortedItems(...) from "
       "src/common/sorted.h; if the loop body is provably order-independent, "
       "append '// gfair-lint: allow(unordered-iter)' with the argument",
       {}},
      {"float-eq", "src/, bench/, tools/",
       "floating-point == / != against a literal compares exact bit patterns",
       "compare with an explicit tolerance (std::abs(a - b) <= eps); if the "
       "value is exact by construction (a sentinel, a never-written default), "
       "append '// gfair-lint: allow(float-eq)' with the argument",
       {}},
      {"assert", "src/, bench/, tools/",
       "bare assert() vanishes under NDEBUG and bypasses the repo's "
       "check-failure reporting",
       "use GFAIR_CHECK / GFAIR_CHECK_MSG (always on) or GFAIR_DCHECK "
       "(debug-only) from common/check.h",
       {}},
      {"stdio", "src/ (bench/ and tools/ are user-facing and may print)",
       "direct stdout/stderr write from library code",
       "log through GFAIR_LOG/GFAIR_WLOG (common/log.h) or emit tables via "
       "common/table.h; library code must not own a stream",
       {"src/common/table.cc", "src/common/log.cc", "src/common/check.h"}},
      {"layering", "src/sched/",
       "sched/ includes simkit/ outside the sanctioned gateways",
       "reach the simulator via sched/scheduler_iface.h (SchedulerEnv) and "
       "time series via sched/ledger.h; new gateways need a row in the "
       "kLayeringGateways table in tools/lint/rules.cc and a "
       "docs/STATIC_ANALYSIS.md entry",
       {}},
      {"const-cast", "src/",
       "const_cast undermines the deep-const view contract "
       "(sched/cluster_state_view.h): read paths must be unable to mutate",
       "plumb non-const access explicitly through the owning type, or change "
       "the API so the writer receives a mutable reference",
       {}},
      {"raw-double-in-sched-api", "src/sched/ headers",
       "sched API traffics a dimensioned quantity (tickets, pass, stride, "
       "speedup, rate, gpu-time) as a bare double, so the compiler cannot "
       "catch unit mix-ups at the call site",
       "type it with the matching strong type from common/units.h (Tickets, "
       "Pass, Stride, Speedup, PerGpuRate, GpuSeconds); a genuinely "
       "dimensionless value (a ratio, an ordering key) may keep double with "
       "'// gfair-lint: allow(raw-double-in-sched-api)' on the declaration",
       {}},
      {"unit-unwrap-outside-boundary", "src/sched/",
       ".raw() unwraps a unit type inside scheduler logic, re-opening the "
       "door to the unit mix-ups the strong types exist to prevent",
       "stay in unit types — common/units.h carries every physically "
       "meaningful operator (incl. MulDiv, FastToSlow/SlowToFast, "
       "Stride::FromService); at a true logging/serialization/display "
       "boundary, append '// gfair-lint: allow(unit-unwrap-outside-boundary)' "
       "with the argument",
       {}},
      {"shard-locality", "src/sched/ gfair-shard-parallel regions",
       "per-shard planning code touches cross-shard mutable scheduler state; "
       "the region runs concurrently across shards, so only the shard's own "
       "servers/jobs may be mutated — cross-shard concerns (the merged "
       "plan/delta, decisions, RNG draws, migrations) belong to the serial "
       "reduce step",
       "buffer the per-shard result (sample lists, plan, delta, slice "
       "offsets) in the PlanShard and replay/merge it in ReduceShards after "
       "the fan-out joins; a provably serial line inside the region may "
       "append '// gfair-lint: allow(shard-locality)' with the argument; the "
       "denylist is kShardCrossStateTokens in tools/lint/rules.cc",
       {}},
      {"raw-mutex", "src/, bench/, tools/ (except src/common/)",
       "bare std:: locking primitive; an unannotated lock is invisible to "
       "clang -Wthread-safety, so the compile-time lock/data-race proof "
       "silently excludes everything it guards",
       "lock through common::Mutex / common::MutexLock / common::CondVar "
       "(common/mutex.h — annotated as thread-safety capabilities) and mark "
       "the shared members GFAIR_GUARDED_BY the mutex; a new primitive needs "
       "an annotated wrapper in src/common/ first",
       {}},
      {"mutex-unannotated", "class members declared after a mutex member",
       "data member after a mutex member lacks GFAIR_GUARDED_BY, so the "
       "thread-safety analysis cannot tie it to its lock and unlocked access "
       "compiles silently",
       "annotate the member GFAIR_GUARDED_BY(<mutex>) "
       "(common/thread_annotations.h); deliberately unguarded members belong "
       "above the mutex in the class layout (the convention "
       "common/thread_pool.h documents); a member with an external "
       "happens-before argument may append "
       "'// gfair-lint: allow(mutex-unannotated)' with the argument",
       {"src/common/mutex.h"}},
      {"parallel-region-write", "src/exec/ gfair-parallel-apply regions",
       "parallel apply's prepare fan-out touches serial-commit state; the "
       "region runs concurrently across slices, so running-list edits, timer "
       "arms/disarms, accounting accumulators, callbacks and RNG draws here "
       "are data races and reorder the committed stream",
       "return the value from the prepare step (PreparedOp) and apply it in "
       "the serial commit pass after the join; a provably serial line inside "
       "the region may append '// gfair-lint: allow(parallel-region-write)' "
       "with the argument; the denylist is kApplySerialOnlyTokens in "
       "tools/lint/rules.cc",
       {}},
      {"det-taint",
       "src/ decision roots: QuantumPlanner, PlanDiffer, PlanShard, "
       "LocalStrideScheduler, TradeCoordinator, IAllocationPolicy backends "
       "(src/sched/policy/*::Allocate)",
       "a decision root reaches a nondeterminism sink (wall-clock read, "
       "unseeded randomness, unordered-container iteration, getenv, "
       "locale/iostream state) through the call graph, so schedules stop "
       "being a pure function of (trace, seed)",
       "make the transitively-called helper pure (SimTime, seeded Rng, "
       "SortedKeys/SortedItems) — the sink may be several frames below the "
       "decision root; run gfair_lint with --explain to print the full call "
       "chain; a provably benign path may append "
       "'// gfair-lint: allow(det-taint)' at the reported call site with the "
       "argument",
       {}},
      {"module-dag", "src/ include graph",
       "an #include crosses the declared module order upward (common < "
       "simkit < cluster < workload < exec < sched < baselines < analysis; "
       "bench/tools/tests on top), so a lower layer would depend on a higher "
       "one",
       "depend strictly downward; if an upward edge is genuinely sanctioned, "
       "add a (file, header) row to kModuleDagGateways in "
       "tools/lint/include_graph.cc with a justification and a "
       "docs/STATIC_ANALYSIS.md entry",
       {}},
      {"include-cycle", "src/ include graph",
       "#include cycle: the headers form a loop, so the module DAG is not a "
       "DAG and include order becomes load-bearing",
       "break the loop — hoist the shared declarations into a lower-layer "
       "header or forward-declare; run gfair_lint with --explain to print "
       "the full cycle",
       {}},
  };
  return kRules;
}

const Rule* FindRule(const std::string& name) {
  for (const Rule& rule : Rules()) {
    if (rule.name == name) {
      return &rule;
    }
  }
  return nullptr;
}

bool FileSuppressed(const Rule& rule, const std::string& rel) {
  for (const std::string& suppressed : rule.suppressed_files) {
    if (rel == suppressed) {
      return true;
    }
  }
  return false;
}

void Emitter::Emit(const Rule& rule, const SourceFile& file, size_t line_index,
                   std::vector<std::string> explain) {
  if (FileSuppressed(rule, file.rel)) {
    return;
  }
  if (line_index < file.raw.size() &&
      AllowedRules(file.raw[line_index]).count(rule.name) > 0) {
    return;
  }
  Violation v;
  v.rule = rule.name;
  v.file = file.display;
  v.rel = file.rel;
  v.line = static_cast<int>(line_index) + 1;
  v.snippet = line_index < file.raw.size() ? Trim(file.raw[line_index]) : "";
  v.explain = std::move(explain);
  out_->push_back(std::move(v));
}

void PrintViolation(const Violation& v, bool explain) {
  const Rule* rule = FindRule(v.rule);
  std::cout << v.rel << ":" << v.line << ": [" << v.rule << "] "
            << (rule != nullptr ? rule->what : "") << "\n";
  if (!v.snippet.empty()) {
    std::cout << "    > " << v.snippet << "\n";
  }
  if (explain) {
    for (const std::string& line : v.explain) {
      std::cout << "    " << line << "\n";
    }
  }
  if (rule != nullptr) {
    std::cout << "    fix: " << rule->fix << "\n";
  }
}

void ListRules() {
  for (const Rule& rule : Rules()) {
    std::cout << rule.name << "\n  scope: " << rule.scope
              << "\n  what:  " << rule.what << "\n  fix:   " << rule.fix << "\n";
    if (!rule.suppressed_files.empty()) {
      std::cout << "  suppressed files:\n";
      for (const std::string& file : rule.suppressed_files) {
        std::cout << "    - " << file << "\n";
      }
    }
    std::cout << "\n";
  }
}

// sched file -> simkit header it may include. Everything else goes through
// these two gateways (see docs/ARCHITECTURE.md, "Layering").
const std::vector<std::pair<std::string, std::string>> kLayeringGateways = {
    {"src/sched/scheduler_iface.h", "simkit/simulator.h"},
    {"src/sched/ledger.h", "simkit/timeseries.h"},
};

// ---------------------------------------------------------------------------
// Sink token vocabularies.
// ---------------------------------------------------------------------------

const std::vector<std::string>& WallClockTypeTokens() {
  static const std::vector<std::string> kTypes = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get"};
  return kTypes;
}

const std::vector<std::string>& WallClockCallTokens() {
  static const std::vector<std::string> kCalls = {"time", "clock"};
  return kCalls;
}

const std::vector<std::string>& RawRandTypeTokens() {
  static const std::vector<std::string> kTypes = {
      "random_device", "mt19937", "mt19937_64", "minstd_rand",
      "default_random_engine"};
  return kTypes;
}

const std::vector<std::string>& RawRandCallTokens() {
  static const std::vector<std::string> kCalls = {"rand", "srand", "rand_r",
                                                  "drand48"};
  return kCalls;
}

// ---------------------------------------------------------------------------
// Simple token rules.
// ---------------------------------------------------------------------------

namespace {

void CheckWallClock(const SourceFile& f, Emitter* emit) {
  if (!InLintedTree(f.rel) || IsSimTimeImpl(f.rel)) {
    return;
  }
  const Rule& rule = *FindRule("wall-clock");
  for (size_t i = 0; i < f.code.size(); ++i) {
    bool hit = false;
    for (const std::string& t : WallClockTypeTokens()) {
      hit = hit || HasWord(f.code[i], t);
    }
    for (const std::string& c : WallClockCallTokens()) {
      hit = hit || HasCall(f.code[i], c);
    }
    if (hit) {
      emit->Emit(rule, f, i);
    }
  }
}

void CheckRawRand(const SourceFile& f, Emitter* emit) {
  if (!InLintedTree(f.rel) || IsRngImpl(f.rel)) {
    return;
  }
  const Rule& rule = *FindRule("raw-rand");
  for (size_t i = 0; i < f.code.size(); ++i) {
    bool hit = false;
    for (const std::string& t : RawRandTypeTokens()) {
      hit = hit || HasWord(f.code[i], t);
    }
    for (const std::string& c : RawRandCallTokens()) {
      hit = hit || HasCall(f.code[i], c);
    }
    if (hit) {
      emit->Emit(rule, f, i);
    }
  }
}

void CheckAssert(const SourceFile& f, Emitter* emit) {
  if (!InLintedTree(f.rel)) {
    return;
  }
  const Rule& rule = *FindRule("assert");
  for (size_t i = 0; i < f.code.size(); ++i) {
    // Whole-word match: static_assert is a different token and stays legal.
    if (HasCall(f.code[i], "assert")) {
      emit->Emit(rule, f, i);
    }
  }
}

void CheckStdio(const SourceFile& f, Emitter* emit) {
  if (!StartsWith(f.rel, "src/")) {
    return;
  }
  const Rule& rule = *FindRule("stdio");
  static const std::vector<std::string> kStreams = {"cout", "cerr"};
  static const std::vector<std::string> kCalls = {"printf", "fprintf", "puts",
                                                  "fputs", "putchar"};
  for (size_t i = 0; i < f.code.size(); ++i) {
    bool hit = false;
    for (const std::string& s : kStreams) {
      hit = hit || HasWord(f.code[i], s);
    }
    for (const std::string& c : kCalls) {
      hit = hit || HasCall(f.code[i], c);  // snprintf is a different token
    }
    if (hit) {
      emit->Emit(rule, f, i);
    }
  }
}

void CheckConstCast(const SourceFile& f, Emitter* emit) {
  if (!StartsWith(f.rel, "src/")) {
    return;
  }
  const Rule& rule = *FindRule("const-cast");
  for (size_t i = 0; i < f.code.size(); ++i) {
    if (HasWord(f.code[i], "const_cast")) {
      emit->Emit(rule, f, i);
    }
  }
}

void CheckLayering(const SourceFile& f, Emitter* emit) {
  if (!StartsWith(f.rel, "src/sched/")) {
    return;
  }
  const Rule& rule = *FindRule("layering");
  for (size_t i = 0; i < f.raw.size(); ++i) {
    const std::string inc = QuotedIncludeTarget(f.raw[i]);
    if (!StartsWith(inc, "simkit/")) {
      continue;
    }
    bool sanctioned = false;
    for (const auto& [file, header] : kLayeringGateways) {
      sanctioned = sanctioned || (f.rel == file && inc == header);
    }
    if (!sanctioned) {
      emit->Emit(rule, f, i);
    }
  }
}

// ---------------------------------------------------------------------------
// float-eq: == / != with a floating-point literal operand.
// ---------------------------------------------------------------------------

// True if the window contains a standalone floating-point literal
// (1.0, .5, 2e-6, 1.5f). Hex and identifier-adjacent digits are excluded.
bool HasFloatLiteral(const std::string& window) {
  for (size_t i = 0; i < window.size(); ++i) {
    const bool starts_number =
        IsDigit(window[i]) ||
        (window[i] == '.' && i + 1 < window.size() && IsDigit(window[i + 1]));
    if (!starts_number || (i > 0 && IsIdentChar(window[i - 1])) ||
        (i > 0 && window[i - 1] == '.')) {
      continue;
    }
    if (window[i] == '0' && i + 1 < window.size() &&
        (window[i + 1] == 'x' || window[i + 1] == 'X')) {
      while (i < window.size() && IsIdentChar(window[i])) ++i;
      continue;
    }
    bool has_dot = false;
    bool has_exp = false;
    size_t j = i;
    while (j < window.size()) {
      const char c = window[j];
      if (IsDigit(c)) {
        ++j;
      } else if (c == '.' && !has_dot && !has_exp) {
        has_dot = true;
        ++j;
      } else if ((c == 'e' || c == 'E') && !has_exp && j + 1 < window.size() &&
                 (IsDigit(window[j + 1]) || window[j + 1] == '+' ||
                  window[j + 1] == '-')) {
        has_exp = true;
        j += (window[j + 1] == '+' || window[j + 1] == '-') ? 2 : 1;
      } else if ((c == 'f' || c == 'F') && (has_dot || has_exp)) {
        ++j;
        break;
      } else {
        break;
      }
    }
    if (has_dot || has_exp) {
      return true;
    }
    i = j;
  }
  return false;
}

// The operand window around an operator: up to the nearest expression
// boundary (; , { } && || and the arms of ?:), capped at 80 chars. Parens
// stay inside so member chains and call results are still searched.
std::string OperandWindow(const std::string& line, size_t begin, size_t end,
                          bool backwards) {
  const size_t cap = 80;
  const auto boundary = [&line](size_t i) {
    const char c = line[i];
    if (c == ';' || c == ',' || c == '{' || c == '}' || c == '?') {
      return true;
    }
    if ((c == '&' || c == '|') &&
        ((i + 1 < line.size() && line[i + 1] == c) || (i > 0 && line[i - 1] == c))) {
      return true;
    }
    // A lone ':' separates ternary arms; '::' is a scope qualifier.
    if (c == ':' && (i == 0 || line[i - 1] != ':') &&
        (i + 1 >= line.size() || line[i + 1] != ':')) {
      return true;
    }
    return false;
  };
  std::string window;
  if (backwards) {
    size_t i = begin;
    while (i > 0 && begin - i < cap) {
      if (boundary(i - 1)) break;
      window.insert(window.begin(), line[i - 1]);
      --i;
    }
  } else {
    for (size_t i = end; i < line.size() && i - end < cap; ++i) {
      if (boundary(i)) break;
      window.push_back(line[i]);
    }
  }
  return window;
}

void CheckFloatEq(const SourceFile& f, Emitter* emit) {
  if (!InLintedTree(f.rel)) {
    return;
  }
  const Rule& rule = *FindRule("float-eq");
  for (size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    bool hit = false;
    for (size_t i = 0; i + 1 < line.size(); ++i) {
      bool is_op = false;
      if (line[i] == '=' && line[i + 1] == '=') {
        const char prev = i > 0 ? line[i - 1] : '\0';
        const char after = i + 2 < line.size() ? line[i + 2] : '\0';
        is_op = std::string("=<>!+-*/%&|^").find(prev) == std::string::npos &&
                after != '=';
      } else if (line[i] == '!' && line[i + 1] == '=') {
        is_op = (i + 2 >= line.size() || line[i + 2] != '=');
      }
      if (!is_op) {
        continue;
      }
      if (HasFloatLiteral(OperandWindow(line, i, i + 2, /*backwards=*/true)) ||
          HasFloatLiteral(OperandWindow(line, i, i + 2, /*backwards=*/false))) {
        hit = true;
      }
      ++i;  // step past the second operator character
    }
    if (hit) {
      emit->Emit(rule, f, li);
    }
  }
}

void CheckUnorderedIter(const SourceFile& f, const UnorderedNames& names,
                        Emitter* emit) {
  if (!StartsWith(f.rel, "src/sched/")) {
    return;
  }
  const Rule& rule = *FindRule("unordered-iter");
  for (size_t li = 0; li < f.code.size(); ++li) {
    for (size_t pos : FindWord(f.code[li], "for")) {
      const std::string range = RangeForExpr(f, li, pos);
      if (RangeUsesUnordered(range, names)) {
        emit->Emit(rule, f, li);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Unit-type rules (common/units.h companions).
// ---------------------------------------------------------------------------

// Does the identifier name a quantity that has a strong type in
// common/units.h? Single segments are deliberately conservative ("tickets"
// but not "ticket" — TicketMatrix is a type name, not a quantity); pairs
// catch the compound spellings ("ticket_load", "GpuMs").
bool NamesDimensionedQuantity(const std::string& ident) {
  static const std::set<std::string> kSingles = {"pass", "tickets", "speedup",
                                                 "stride", "rate"};
  static const std::set<std::pair<std::string, std::string>> kPairs = {
      {"ticket", "load"}, {"gpu", "ms"}, {"gpu", "seconds"}};
  const std::vector<std::string> segments = IdentifierSegments(ident);
  for (size_t i = 0; i < segments.size(); ++i) {
    if (kSingles.count(segments[i]) > 0) {
      return true;
    }
    if (i + 1 < segments.size() &&
        kPairs.count({segments[i], segments[i + 1]}) > 0) {
      return true;
    }
  }
  return false;
}

void CheckRawDoubleInSchedApi(const SourceFile& f, Emitter* emit) {
  if (!StartsWith(f.rel, "src/sched/") || !EndsWith(f.rel, ".h")) {
    return;
  }
  const Rule& rule = *FindRule("raw-double-in-sched-api");
  for (size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    // `double` must *declare* something: the next token is an identifier (or
    // pointer/reference declarator). `static_cast<double>(x)` and
    // `PerGeneration<double>` are uses, not declarations.
    bool declares = false;
    for (size_t pos : FindWord(line, "double")) {
      size_t i = pos + 6;
      while (i < line.size() && IsSpace(line[i])) ++i;
      if (i < line.size() &&
          (IsIdentChar(line[i]) || line[i] == '*' || line[i] == '&')) {
        declares = true;
      }
    }
    if (!declares) {
      continue;
    }
    // Every identifier on the line is a candidate name for the declared
    // quantity (parameter names, member names, the function itself).
    bool hit = false;
    std::string ident;
    for (size_t i = 0; i <= line.size() && !hit; ++i) {
      const char c = i < line.size() ? line[i] : ' ';
      if (IsIdentChar(c)) {
        ident.push_back(c);
        continue;
      }
      if (!ident.empty() && ident != "double" &&
          NamesDimensionedQuantity(ident)) {
        hit = true;
      }
      ident.clear();
    }
    if (hit) {
      emit->Emit(rule, f, li);
    }
  }
}

void CheckUnitUnwrapOutsideBoundary(const SourceFile& f, Emitter* emit) {
  if (!StartsWith(f.rel, "src/sched/")) {
    return;
  }
  const Rule& rule = *FindRule("unit-unwrap-outside-boundary");
  for (size_t li = 0; li < f.code.size(); ++li) {
    const std::string& line = f.code[li];
    size_t pos = line.find(".raw(");
    while (pos != std::string::npos) {
      // `.raw(` preceded by an identifier/closing bracket is the unit-type
      // accessor; anything else (a member named raw on a fresh line) is not
      // something this tree contains.
      if (pos > 0 && (IsIdentChar(line[pos - 1]) || line[pos - 1] == ')' ||
                      line[pos - 1] == ']')) {
        emit->Emit(rule, f, li);
        break;
      }
      pos = line.find(".raw(", pos + 1);
    }
  }
}

// Cross-shard mutable state and serial-only entry points, matched as whole
// words inside gfair-shard-parallel regions: the facade members every shard
// would share (merged plan/delta, slice bookkeeping, decision log, the
// subsystems, fault/retry queues) plus the calls whose global order — or
// RNG stream — the serial reduce step owns.
const std::vector<std::string> kShardCrossStateTokens = {
    // Shared facade state (the per-shard twins live in PlanShard and carry
    // no trailing underscore).
    "plan_", "delta_", "slice_begins_", "slice_scratch_", "decisions_",
    "trader_", "balancer_", "placement_", "checker_", "ledger_",
    "ticket_matrix_", "pending_orphans_", "retry_",
    // Serial-only calls: RNG draws, profiler feeding, migrations, applies,
    // decision recording, work conservation.
    "SampleObservedRate", "RecordSample", "EmitMigration", "ExecuteMigration",
    "ApplyDelta", "ApplyDeltaParallel", "RecordAppliedOps",
    "FillIdleGpus", "TrySteal", "ReplaceOrphan",
    // The serial-phase capability itself: minting (or naming) a ReduceToken
    // inside the fan-out would defeat the phase-token scheme at its root.
    "ReduceToken",
};

// Serial-commit state and entry points of the executor's parallel apply,
// matched as whole words inside gfair-parallel-apply regions: the prepare
// fan-out runs concurrently across slices, so the running list, timer wheel,
// migration accounting, completion callbacks and the RNG streams — plus the
// commit/migration entry points that mutate them — stay untouched until the
// serial commit pass after the join.
const std::vector<std::string> kApplySerialOnlyTokens = {
    // Shared mutable executor state.
    "acct_", "running_list_", "rng_", "fault_rng_", "finish_timer_",
    "migrations_in_flight_", "pending_precopies_", "done_at_suspend_",
    // The per-(user, pool) GPU holds behind the sync-point credits.
    "pool_holds_", "HoldOf", "OpenHold", "CloseHold", "SyncPoint",
    // Callbacks (arbitrary scheduler re-entry; serial by contract).
    "on_finished_", "on_migrated_", "on_migration_failed_", "on_orphaned_",
    "on_server_down_", "on_server_up_", "on_gpu_credit_", "on_precopy_cutover_",
    // Serial-only entry points.
    "ArmTimerAt", "DisarmTimer", "FinishTimerFor", "CommitOp", "OnFinishEvent",
    "CompleteJob", "DoMigrate", "FinishMigration", "PrecopyCutover", "OrphanJob",
    // The serial-phase capability: naming it here means smuggling it in.
    "ReduceToken",
};

// Shared fence walker: scans <marker>-begin/-end regions (the markers live
// in comments, so they are matched on raw lines) for denylisted tokens on
// the stripped code lines.
void CheckRegionFence(const SourceFile& f, const Rule& rule,
                      const std::string& marker,
                      const std::vector<std::string>& tokens, Emitter* emit) {
  const std::string begin_marker = marker + "-begin";
  const std::string end_marker = marker + "-end";
  bool in_region = false;
  for (size_t li = 0; li < f.raw.size(); ++li) {
    if (f.raw[li].find(begin_marker) != std::string::npos) {
      in_region = true;
      continue;
    }
    if (f.raw[li].find(end_marker) != std::string::npos) {
      in_region = false;
      continue;
    }
    if (!in_region || li >= f.code.size()) {
      continue;
    }
    for (const std::string& token : tokens) {
      if (HasWord(f.code[li], token)) {
        emit->Emit(rule, f, li);
        break;
      }
    }
  }
}

void CheckShardLocality(const SourceFile& f, Emitter* emit) {
  if (!StartsWith(f.rel, "src/sched/")) {
    return;
  }
  CheckRegionFence(f, *FindRule("shard-locality"), "gfair-shard-parallel",
                   kShardCrossStateTokens, emit);
}

void CheckParallelRegionWrite(const SourceFile& f, Emitter* emit) {
  if (!StartsWith(f.rel, "src/exec/")) {
    return;
  }
  CheckRegionFence(f, *FindRule("parallel-region-write"),
                   "gfair-parallel-apply", kApplySerialOnlyTokens, emit);
}

// ---------------------------------------------------------------------------
// Concurrency-contract rules (common/mutex.h companions).
// ---------------------------------------------------------------------------

void CheckRawMutex(const SourceFile& f, Emitter* emit) {
  if (!InLintedTree(f.rel) || StartsWith(f.rel, "src/common/")) {
    return;
  }
  const Rule& rule = *FindRule("raw-mutex");
  // Case-sensitive whole words, so the annotated wrappers (Mutex, MutexLock,
  // CondVar) never fire. Include paths are quoted strings and get stripped;
  // `#include <mutex>` stays visible, which is exactly right — pulling the
  // header in is the first step of the violation.
  static const std::vector<std::string> kTokens = {
      "mutex", "timed_mutex", "recursive_mutex", "shared_mutex",
      "lock_guard", "unique_lock", "scoped_lock", "shared_lock",
      "condition_variable", "condition_variable_any"};
  for (size_t i = 0; i < f.code.size(); ++i) {
    for (const std::string& t : kTokens) {
      if (HasWord(f.code[i], t)) {
        emit->Emit(rule, f, i);
        break;
      }
    }
  }
}

// True when the stripped line declares a mutex data member: a whole-word
// Mutex/mutex type token followed by an identifier ending in '_' and then
// ';', '=' or '{'. "std::unique_lock<std::mutex> lock_;" also matches via
// the '>' skip — fine, a stored lock object is a synchronization member too.
bool DeclaresMutexMember(const std::string& code) {
  static const std::vector<std::string> kMutexWords = {
      "Mutex", "mutex", "timed_mutex", "recursive_mutex", "shared_mutex"};
  for (const std::string& word : kMutexWords) {
    for (size_t pos : FindWord(code, word)) {
      size_t i = pos + word.size();
      while (i < code.size() && (IsSpace(code[i]) || code[i] == '>')) ++i;
      size_t j = i;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      if (j == i || code[j - 1] != '_') {
        continue;  // members end in '_' in this tree
      }
      size_t k = j;
      while (k < code.size() && IsSpace(code[k])) ++k;
      if (k < code.size() && (code[k] == ';' || code[k] == '=' || code[k] == '{')) {
        return true;
      }
    }
  }
  return false;
}

// A data-member declaration line: an identifier ending in '_' immediately
// followed (mod spaces) by ';', '=' or '{'. Locals and parameters never end
// in '_' in this tree, and an annotated member puts GFAIR_GUARDED_BY(...)
// between the name and its terminator, so annotated lines don't match.
bool LooksLikeMemberDecl(const std::string& code) {
  for (size_t i = 0; i < code.size(); ++i) {
    if (!IsIdentChar(code[i])) {
      continue;
    }
    size_t j = i;
    while (j < code.size() && IsIdentChar(code[j])) ++j;
    if (code[j - 1] == '_') {
      size_t k = j;
      while (k < code.size() && IsSpace(code[k])) ++k;
      if (k < code.size() && (code[k] == ';' || code[k] == '=' || code[k] == '{')) {
        return true;
      }
    }
    i = j;
  }
  return false;
}

void CheckMutexUnannotated(const SourceFile& f, Emitter* emit) {
  if (!InLintedTree(f.rel)) {
    return;
  }
  const Rule& rule = *FindRule("mutex-unannotated");
  bool after_mutex = false;
  for (size_t li = 0; li < f.code.size(); ++li) {
    const std::string& code = f.code[li];
    if (Trim(code) == "};") {
      after_mutex = false;  // end of the class body (conservatively)
      continue;
    }
    if (DeclaresMutexMember(code)) {
      after_mutex = true;
      continue;
    }
    if (!after_mutex || !LooksLikeMemberDecl(code)) {
      continue;
    }
    if (code.find("GFAIR_GUARDED_BY") != std::string::npos ||
        code.find("GFAIR_PT_GUARDED_BY") != std::string::npos) {
      continue;
    }
    emit->Emit(rule, f, li);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Unordered-container name index.
//
// Pass A (over every scanned file) collects names declared with an unordered
// type: members, locals, parameters, and functions returning one. A name is
// "direct" when unordered_map/set is the outermost template
// (std::unordered_map<K,V> m) and "element" when it is nested inside another
// container (PerGeneration<std::unordered_set<J>> jobs) — there the elements,
// reached via jobs[g] or jobs.at(g), are the unordered objects.
//
// Pass B (RangeUsesUnordered, driven by the unordered-iter line rule in
// src/sched/ and by the taint pass's sink marking tree-wide) flags range-for
// statements whose range expression uses a direct name bare (not .member /
// [i] / ->), or an element name immediately indexed ([...] or .at(...)),
// unless the expression is routed through common::SortedKeys / SortedItems.
// ---------------------------------------------------------------------------

void CollectUnorderedNames(const SourceFile& f, UnorderedNames* names) {
  static const std::vector<std::string> kTokens = {"unordered_map",
                                                   "unordered_set"};
  for (size_t li = 0; li < f.code.size(); ++li) {
    for (const std::string& token : kTokens) {
      for (size_t pos : FindWord(f.code[li], token)) {
        const std::string& line = f.code[li];
        // Nesting: any unmatched '<' before the token means the unordered
        // container is an element type of an outer container.
        int depth = 0;
        for (size_t i = 0; i < pos; ++i) {
          depth = std::max(0, depth + AngleDelta(line, i));
        }
        const bool element = depth > 0;
        // Balance the unordered container's own template arguments, joining
        // a few continuation lines when the declaration wraps.
        std::string joined = line.substr(pos + token.size());
        for (size_t extra = 1; extra <= 3 && li + extra < f.code.size(); ++extra) {
          joined += ' ';
          joined += f.code[li + extra];
        }
        size_t i = 0;
        while (i < joined.size() && IsSpace(joined[i])) ++i;
        if (i >= joined.size() || joined[i] != '<') {
          continue;  // bare mention (e.g. a using-declaration), no args
        }
        int tdepth = 0;
        for (; i < joined.size(); ++i) {
          tdepth += AngleDelta(joined, i);
          if (tdepth == 0) {
            ++i;
            break;
          }
        }
        const std::string name = ReadDeclaredName(joined, i);
        if (!name.empty()) {
          auto [it, inserted] = names->emplace(name, element);
          if (!inserted) {
            it->second = it->second || element;
          }
        }
      }
    }
  }
}

bool RangeUsesUnordered(const std::string& range, const UnorderedNames& names) {
  if (range.empty() || HasWord(range, "SortedKeys") ||
      HasWord(range, "SortedItems")) {
    return false;
  }
  for (const auto& [name, element] : names) {
    for (size_t npos : FindWord(range, name)) {
      size_t after = npos + name.size();
      while (after < range.size() && IsSpace(range[after])) ++after;
      const char c = after < range.size() ? range[after] : '\0';
      if (element) {
        // The elements are unordered: flag jobs[g] and jobs.at(g).
        if (c == '[' || (c == '.' && range.compare(after, 4, ".at(") == 0)) {
          return true;
        }
      } else {
        // The container itself is unordered: flag bare uses; a lookup
        // (.at/.find/[]/->) yields some other, possibly ordered, object.
        const bool lookup =
            c == '.' || c == '[' ||
            (c == '-' && after + 1 < range.size() && range[after + 1] == '>');
        if (!lookup) {
          return true;
        }
      }
    }
  }
  return false;
}

void RunLineRules(const SourceFile& f, const UnorderedNames& names,
                  Emitter* emit) {
  CheckWallClock(f, emit);
  CheckRawRand(f, emit);
  CheckAssert(f, emit);
  CheckStdio(f, emit);
  CheckConstCast(f, emit);
  CheckLayering(f, emit);
  CheckFloatEq(f, emit);
  CheckUnorderedIter(f, names, emit);
  CheckRawDoubleInSchedApi(f, emit);
  CheckUnitUnwrapOutsideBoundary(f, emit);
  CheckShardLocality(f, emit);
  CheckParallelRegionWrite(f, emit);
  CheckRawMutex(f, emit);
  CheckMutexUnannotated(f, emit);
}

}  // namespace gfair_lint
