#!/usr/bin/env python3
"""Summarises perfbench runs and compares two summaries (see README.md).

  report.py summarize --out FILE --sha SHA --build-type T --seconds S RUN.out...
      RUN.out files are named WORKLOAD.SEED.out (untraced) or
      WORKLOAD.traced.out; the last line of each is the runner's result JSON.
      Prints every metric's median and quartiles and writes FILE.
  report.py compare BENCHMARK.json BASE.json NEW.json
      Applies BENCHMARK.json's end-to-end bounds; exits 1 on a regression.
"""

import argparse
import json
import os
import statistics
import sys

# Absolute floors under the relative bounds: a metric whose median is so
# small that its bound is below the host's timer noise may worsen by this
# much before it counts as a regression.
ABSOLUTE_FLOORS = {"setup_s": 0.05}


def spread(stats):
    """Interquartile range as a share of the median."""
    return (stats["q3"] - stats["q1"]) / abs(stats["median"]) if stats["median"] else 0.0


def check_bound(better, bound, base, new, floor=0.0):
    """How a metric moved from base to new medians, in the worse direction.

    Returns (worse_by, allowed, regressed): worse_by > 0 means new is worse.
    The allowed worsening is the relative bound of the base median, or the
    absolute floor when that is larger.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be lower or higher, not {better!r}")
    worse_by = new - base if better == "lower" else base - new
    allowed = max(bound * abs(base), floor)
    return worse_by, allowed, worse_by > allowed


def summarize_values(values):
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(args):
    groups = {}  # (workload, kind) -> metric -> {"unit", "values"}
    problems = []
    for path in args.runs:
        workload, tag, _ = os.path.basename(path).rsplit(".", 2)
        kind = "per_layer" if tag == "traced" else "end_to_end"
        with open(path) as f:
            lines = f.read().strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if not result.get("correct"):
            problems.append(f"{path}: incorrect or missing result")
            continue
        if result["failed"]:
            problems.append(f"{path}: {result['failed']} of {result['attempted']} failed")
        for name, metric in result["metrics"].items():
            entry = groups.setdefault((workload, kind), {}).setdefault(
                name, {"unit": metric["unit"], "values": []})
            entry["values"].append(metric["value"])

    summary = {
        "nproc": os.cpu_count(),
        "git_sha": args.sha,
        "build_type": args.build_type,
        "seconds": args.seconds,
        "workloads": {},
    }
    for (workload, kind), metrics in sorted(groups.items()):
        out = summary["workloads"].setdefault(workload, {}).setdefault(kind, {})
        print(f"\n{workload} ({kind.replace('_', '-')})")
        print(f"  {'metric':44} {'median':>14} {'q1':>14} {'q3':>14}  unit (n)")
        for name, entry in metrics.items():
            stats = summarize_values(entry["values"])
            stats["unit"] = entry["unit"]
            out[name] = stats
            print(f"  {name:44} {stats['median']:14.6g} {stats['q1']:14.6g} "
                  f"{stats['q3']:14.6g}  {entry['unit']} ({stats['n']})")
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
        f.write("\n")
    print(f"\nwrote {args.out} (nproc {summary['nproc']}, {args.build_type}, {args.sha})")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 1 if problems else 0


def compare(args):
    with open(args.benchmark) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    if base.get("nproc") != new.get("nproc"):
        print(f"note: nproc differs ({base.get('nproc')} vs {new.get('nproc')})")
    regressions = 0
    print(f"  {'workload':16} {'metric':20} {'base':>12} {'new':>12} {'worse by':>10} "
          f"{'allowed':>10}  verdict")
    for workload, kinds in sorted(base["workloads"].items()):
        new_metrics = new["workloads"].get(workload, {}).get("end_to_end", {})
        for name, b in kinds.get("end_to_end", {}).items():
            if name not in bounds or name not in new_metrics:
                continue
            spec = bounds[name]
            n = new_metrics[name]
            worse_by, allowed, regressed = check_bound(
                spec["better"], spec["bound"], b["median"], n["median"],
                ABSOLUTE_FLOORS.get(name, 0.0))
            if regressed:
                verdict = "REGRESSED"
                regressions += 1
            elif max(spread(b), spread(n)) > spec["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print(f"  {workload:16} {name:20} {b['median']:12.6g} {n['median']:12.6g} "
                  f"{worse_by:10.4g} {allowed:10.4g}  {verdict}")
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("--out", required=True)
    s.add_argument("--sha", default="unknown")
    s.add_argument("--build-type", default="unknown")
    s.add_argument("--seconds", type=float, default=0.0)
    s.add_argument("runs", nargs="+")
    c = sub.add_parser("compare")
    c.add_argument("benchmark")
    c.add_argument("base")
    c.add_argument("new")
    args = parser.parse_args(argv)
    return summarize(args) if args.command == "summarize" else compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
