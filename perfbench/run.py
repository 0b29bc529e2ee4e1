"""Benchmark of fmsolve: one workload per process, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload {train,sample,trajectory} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run it from the root of a checkout: it imports fmsolve from ``src/`` of
that checkout and nowhere else, and writes only under ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name and unit.  ``perfbench/out/`` receives a record
per run (environment, hashes, counts, all timings) and, for a traced run,
its spans.  See perfbench/README.md for the metrics and the layer map.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time counts from the first line)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

# Seeds are free for tuning, except this one: keep it for confirming a
# claimed gain on inputs the change was not tuned on.
HELD_OUT_SEED = 1_000_003

BLAS_THREAD_CAP = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "ms_per_unit": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "sample", "trajectory"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="toy network and sizes, for the test")
    return p.parse_args(argv)


def pin_blas_threads():
    """Pin every BLAS/OpenMP pool to min(nproc, BLAS_THREAD_CAP) before numpy
    loads; returns the count and the inherited settings."""
    inherited = {k: os.environ.get(k) for k in THREAD_VARS}
    threads = min(len(os.sched_getaffinity(0)), BLAS_THREAD_CAP)
    for k in THREAD_VARS:
        os.environ[k] = str(threads)
    return threads, inherited


def import_fmsolve():
    sys.path.insert(0, SRC)
    try:
        import fmsolve
        import fmsolve.analysis  # not imported by the package itself
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import fmsolve from {SRC}: {exc}")
    if not os.path.abspath(fmsolve.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: fmsolve came from {fmsolve.__file__}, not {SRC}")
    return fmsolve


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def environment(np, threads, inherited):
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind = _read(base + "level").strip(), _read(base + "type").strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = _read(base + "size").strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "l2": caches.get("l2", "unknown"),
        "l3": caches.get("l3", "unknown"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS},
        "thread_env_inherited": inherited,
    }


def measure(workload, seconds, tracer=None):
    """Repeat the workload's sequence until another one would end after
    ``seconds``.  With a tracer, sequences alternate untraced and traced
    (untraced first) and at least one of each runs."""
    seqs = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(seqs) % 2 == 1
        if traced:
            tracer.run_id = len(seqs)
            tracer.install()
        t0 = time.perf_counter()
        try:
            seq = workload.sequence()
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.remove()
        if seq is None:  # a call failed; the ledger holds the reason
            break
        seq.update(wall=wall, traced=traced, run_id=len(seqs))
        seqs.append(seq)
        elapsed = time.perf_counter() - start
        enough = len(seqs) >= (2 if tracer is not None else 1)
        if enough and elapsed + statistics.median(s["wall"] for s in seqs) > seconds:
            break
    return seqs


def end_to_end(seqs, setup_s):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(s["wall"] for s in seqs),
        "ms_per_unit": statistics.median(s["unit_s"] / s["units"] for s in seqs) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(seqs, tracer, cfg):
    """Median over the traced sequences of each per-layer number."""
    from layers import PER_LAYER, layer_metrics

    traced = [s for s in seqs if s["traced"]]
    untraced = [s for s in seqs if not s["traced"]]
    rows = []
    for s in traced:
        m = layer_metrics(tracer.spans, s["run_id"], cfg, s["values"].get("model_bytes", 0))
        m["trace.wall_s"] = s["wall"]
        m["trace.unattributed_s"] = s["wall"] - m.pop("roots_s")
        rows.append(m)
    out = {name: statistics.median(r[name] for r in rows) for name in PER_LAYER
           if name != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(s["wall"] for s in traced)
                               - statistics.median(s["wall"] for s in untraced))
    return out


def main(argv=None):
    args = parse_args(argv)
    threads, inherited = pin_blas_threads()
    fm = import_fmsolve()
    import_s = time.perf_counter() - PROCESS_START

    import numpy as np

    from layers import PER_LAYER, observe, op_counts
    from tracer import Tracer
    from workloads import FULL, SMOKE, WORKLOADS

    sizes = SMOKE if args.smoke else FULL
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = WORKLOADS[args.workload](fm, sizes, args.seed, scratch)
        setup_reps = [workload.setup() for _ in range(sizes.setup_reps)]
        setup_s = import_s + statistics.median(setup_reps)
        tracer = Tracer(fm, observe) if args.trace else None
        seqs = measure(workload, args.seconds, tracer)

    ledger = workload.ledger
    if tracer is not None:
        for span in tracer.spans:
            problem = (span.attrs or {}).get("nfe_problem")
            if problem:
                ledger.fail(span.name, problem)
    if not seqs or (tracer is not None and not any(s["traced"] for s in seqs)):
        print("perfbench: no sequence completed: " + "; ".join(ledger.problems), file=sys.stderr)
        return 1

    cfg = workload.train_config(1).mlp
    if args.trace:
        metrics = per_layer(seqs, tracer, cfg)
        units = PER_LAYER
    else:
        metrics = end_to_end(seqs, setup_s)
        units = END_TO_END
    specific = workload.specific([s for s in seqs if not s["traced"]])

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {
        "args": vars(args),
        "environment": environment(np, threads, inherited),
        "unit": workload.unit,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "hashes": workload.record_hashes(),
        "import_s": import_s,
        "setup_reps_s": setup_reps,
        "sequences": seqs,
        "metrics": metrics,
        "workload_metrics": specific,
        "op_counts": {"per_row": op_counts(cfg, 1), "train_batch": op_counts(cfg, 256),
                      "sample_batch": op_counts(cfg, sizes.sample_n)},
    }
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
    if tracer is not None:
        with open(os.path.join(OUT_DIR, tag + ".spans.jsonl"), "w") as fh:
            for i, span in enumerate(tracer.spans):
                fh.write(json.dumps(span.to_dict(i)) + "\n")

    print(f"{args.workload:<11} {'sequences':<28} {len(seqs)}")
    for name, value in specific.items():
        print(f"{args.workload:<11} {name:<28} {value:.6g}")
    for name, value in metrics.items():
        print(f"{args.workload:<11} {name:<28} {value:.6g} {units[name][0]}")
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(value), "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
