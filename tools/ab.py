"""A/B driver for perfbench: alternating pairs of a parent and a change checkout.

    python3 tools/ab.py --parent <checkout> --change <checkout> --label <x> [--smoke]

Each pair runs every workload of BENCHMARK.json once on each side, through
the unchanged ``perfbench/run.py`` of that checkout, started from the
checkout's root (so it imports that checkout's ``src/``), with tracing off
and the run length BENCHMARK.json sets.  There are 10 pairs, or one at
``--smoke``; pair i uses seed 101 + i, and the side that runs first
alternates from pair to pair.  The last line of each run's standard output
is its result.

It writes ``BENCH_<label>.json`` at the root of this repository: both
checkouts' git SHAs and ``src/fmsolve/*.py`` line counts, the environment
record of the change's first run, and per workload and end-to-end metric
both medians, both interquartile ranges, the change/parent ratio, the
number of pairs the change won and the attempted and failed operation
counts.  A metric is flagged ``worse_than_bound`` when the change's median
is worse than the parent's by more than its BENCHMARK.json bound, and
``spread_past_bound`` when either side's IQR exceeds that bound relative
to its median, so the pairs cannot tell a change of that size.  ``gain``
is true when the change wins at least 9 pairs in 10 (ties count for
neither side) and its median is better than the parent's by more than the
parent's IQR: only then does the file show a gain on that metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 101
PAIRS = 10
SMOKE_SECONDS = 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--change", required=True, help="root of the change checkout")
    p.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    p.add_argument("--smoke", action="store_true",
                   help="one pair at perfbench's toy sizes and 1 s runs, for the test")
    return p.parse_args(argv)


def _git(checkout, *argv):
    done = subprocess.run(["git", "-C", checkout, *argv], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def describe(checkout):
    """The commit a checkout holds, that commit's src/ tree and the line
    count (as ``wc -l``) of the checkout's src/fmsolve/*.py files; ``dirty``
    if its tracked files differ from that commit."""
    return {
        "sha": _git(checkout, "rev-parse", "HEAD"),
        "src_tree": _git(checkout, "rev-parse", "HEAD:src"),
        "src_lines": sum(p.read_bytes().count(b"\n")
                         for p in Path(checkout, "src", "fmsolve").glob("*.py")),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
    }


def run_once(checkout, workload, seed, seconds, smoke):
    """One perfbench run; its parsed result, or None if it did not give one."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv + ["--smoke"] * smoke, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"ab: {checkout} {workload} seed {seed} exited {done.returncode}: "
              f"{done.stderr.strip()[-500:]}", file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"ab: {checkout} {workload} seed {seed}: last line is no result", file=sys.stderr)
        return None


def run_environment(checkout, workload, seed, smoke):
    """The environment record of one run, from perfbench's run file."""
    tag = f"{workload}-seed{seed}-trace0" + ("-smoke" if smoke else "")
    try:
        with open(os.path.join(checkout, "perfbench", "out", tag + ".json")) as fh:
            return json.load(fh)["environment"]
    except (OSError, ValueError, KeyError):
        return None


def _iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(pairs, metric):
    """One end-to-end metric of one workload over its pairs, each a
    (parent result, change result) with either side None if its run failed."""
    name, better, bound = metric["name"], metric["better"], metric["bound"]
    both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
            for p, c in pairs if p and c and name in p["metrics"] and name in c["metrics"]]
    if not both:
        return {"unit": metric["unit"], "better": better, "bound": bound, "pairs": 0}
    parent, change = [p for p, _ in both], [c for _, c in both]
    pm, cm = statistics.median(parent), statistics.median(change)
    ratio = cm / pm
    sign = 1 if better == "lower" else -1
    spread = max(_iqr(parent) / pm, _iqr(change) / cm)
    wins = sum(sign * (c - p) < 0 for p, c in both)
    return {
        "unit": metric["unit"], "better": better, "bound": bound, "pairs": len(both),
        "parent_median": pm, "parent_iqr": _iqr(parent),
        "change_median": cm, "change_iqr": _iqr(change),
        "ratio": ratio,
        "wins": wins,
        "worse_than_bound": sign * (ratio - 1) > bound,
        "spread_past_bound": spread > bound,
        "gain": 10 * wins >= 9 * len(both) and sign * (pm - cm) > _iqr(parent),
        "parent_values": parent, "change_values": change,
    }


def _counts(results):
    ok = [r for r in results if r]
    return {"runs": len(results), "runs_failed": len(results) - len(ok),
            "attempted": sum(r["attempted"] for r in ok), "failed": sum(r["failed"] for r in ok)}


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = SMOKE_SECONDS if args.smoke else bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = [FIRST_SEED + i for i in range(1 if args.smoke else PAIRS)]
    sides = {"parent": args.parent, "change": args.change}
    results = {w: [] for w in workloads}  # per workload: (parent, change) per pair
    for i, seed in enumerate(seeds):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for w in workloads:
            got = {}
            for side in order:
                print(f"ab: pair {i + 1}/{len(seeds)} seed {seed} {w} {side}", file=sys.stderr)
                got[side] = run_once(sides[side], w, seed, seconds, args.smoke)
            results[w].append((got["parent"], got["change"]))
    record = {
        "label": args.label,
        "pairs": len(seeds),
        "seeds": seeds,
        "seconds": seconds,
        "smoke": args.smoke,
        "parent": describe(args.parent),
        "change": describe(args.change),
        "environment": run_environment(args.change, workloads[0], seeds[0], args.smoke),
        "workloads": {
            w: {
                "parent": _counts([p for p, _ in pairs]),
                "change": _counts([c for _, c in pairs]),
                "metrics": {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]},
            }
            for w, pairs in results.items()
        },
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for w, entry in record["workloads"].items():
        for name, m in entry["metrics"].items():
            if m["pairs"]:
                flags = [f for f in ("worse_than_bound", "spread_past_bound", "gain") if m[f]]
                print(f"{w:<11} {name:<12} parent {m['parent_median']:.4g} change "
                      f"{m['change_median']:.4g} ratio {m['ratio']:.3f} wins {m['wins']}/"
                      f"{m['pairs']} " + " ".join(flags))
    print(f"-> {path}")
    failed = any(e[side]["runs_failed"] or e[side]["failed"]
                 for e in record["workloads"].values() for side in ("parent", "change"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
