"""fmsolve command line: every experiment as a subcommand.

Config and model files are JSON (strict: unknown keys are rejected so
typos fail loudly), tabular outputs are CSV with full-precision floats,
figures are the minimal SVGs of :mod:`fmsolve.svg`.  Every subcommand is
deterministic given its config and seed; the FMSOLVE_SEED environment
variable overrides the seed everywhere.

Each subcommand computes and renders everything it writes; then :func:`main`,
the one writer, makes the directories and writes the files, so only an
``OSError`` during those writes can leave files behind.  An output directory
that is or lies under a file exits 2 first.  ``--out`` names the output
directory, or for ``train`` the model file (its loss curve: ``--loss-csv``).

Exit codes: 0 success, 2 usage, config or out-of-memory error, 3 numeric failure.
"""

import argparse
import json
import os
import sys
from dataclasses import astuple, fields, replace

import numpy as np

from . import analysis, cfm, svg
from .cfm import TrainConfig, TrainingError
from .data import DatasetSpec
from .numeric import Rng, check_keys, check_version, csv_text
from .ode import FIXED_STEP_METHODS, TABLEAUS, IntegrationError, SolverSpec, stability_region_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CONFIG_FORMAT_VERSION = 1

#: solver grid of the NFE/quality benchmark without a solver_grid
DEFAULT_GRID = (
    [SolverSpec("euler", n) for n in (10, 20, 50, 100, 200)]
    + [SolverSpec("midpoint", n) for n in (10, 20, 50, 100)]
    + [SolverSpec("rk4", n) for n in (5, 10, 20, 50)]
    + [SolverSpec("dopri5")]
)


# ---------------------------------------------------------------------------
# config file handling

def load_run_config(path):
    """Parse and validate a run config JSON file into ``(TrainConfig, grid)``.

    Schema (strict at every level):
      {format_version: 1, seed, dataset: {kind, n?, noise?, dim?},
       train?: {epochs?, batch_size?, lr?, mlp?: {hidden?, n_blocks?, time_embed_dim?}},
       solver_grid?: [{method, steps? | atol?, rtol?}, ...]}
    The nested objects are checked by the dataclasses they build.  ``grid``
    is a list of :class:`SolverSpec`, or None without a solver_grid.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        check_keys(
            doc, "config",
            required=("format_version", "seed", "dataset"),
            optional=("train", "solver_grid"),
        )
        check_version(doc["format_version"], CONFIG_FORMAT_VERSION, "config")
        train = doc.get("train", {})
        check_keys(train, "train", required=(), optional=("epochs", "batch_size", "lr", "mlp"))
        tc = TrainConfig.default(DatasetSpec(**doc["dataset"]), seed=doc["seed"], **train)
        grid = doc.get("solver_grid")
        if grid is not None:
            if not isinstance(grid, list) or not grid:
                raise ValueError("solver_grid: expected a non-empty list")
            grid = [_grid_entry(i, s) for i, s in enumerate(grid)]
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"malformed JSON in {path}: nested too deeply") from None
    except TypeError as exc:
        raise ValueError(str(exc)) from exc
    return tc, grid


def _grid_entry(i, d):
    """SolverSpec of solver_grid entry i; its errors name the entry."""
    try:
        if not isinstance(d, dict):
            raise ValueError(f"expected an object, got {d!r}")
        return SolverSpec.from_dict(d)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"solver_grid[{i}]: {exc}") from exc


def _resolve_seed(flag, default=None):
    """FMSOLVE_SEED if set, else the --seed flag if given, else ``default``."""
    env = os.environ.get("FMSOLVE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"FMSOLVE_SEED must be an integer, got {env!r}") from None
    return default if flag is None else flag


# ---------------------------------------------------------------------------
# output helpers

def _check_out_dir(path):
    """``path``; fails, before any work, if that directory cannot be made."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not path or not os.path.isdir(head):
        raise ValueError(f"{path!r} cannot be an output directory")
    return path


def _header(record_type, **rename):
    """CSV header of a result dataclass: its field names, some renamed."""
    return [rename.get(f.name, f.name) for f in fields(record_type)]


def _method_series(rows, labels, x, y):
    """One line-chart series per method in ``labels`` that has rows."""
    return [
        {"label": label, "x": [x(r) for r in rows if r.method == m],
         "y": [y(r) for r in rows if r.method == m]}
        for m, label in labels.items() if any(r.method == m for r in rows)
    ]


# ---------------------------------------------------------------------------
# subcommands: each returns ({file in --out: its rendered text}, stdout lines);
# train's files are paths, and its model file's text is a list of pieces

def cmd_convergence(args):
    h_list = [2.0**-e for e in range(3, 11)]
    problem = analysis.DecayProblem(dim=args.dim)
    rows, slopes = analysis.convergence_study(problem, FIXED_STEP_METHODS, h_list)
    tols = [10.0**-e for e in range(3, 11)]
    dopri_rows = analysis.dopri5_tolerance_study(problem, tols)
    all_rows = rows + dopri_rows
    labels = {**{m: m for m in FIXED_STEP_METHODS}, "dopri5": "dopri5 (tol on h axis)"}
    files = {
        "convergence.csv": csv_text(_header(analysis.ConvergenceRow, global_error="error"),
                                    map(astuple, all_rows)),
        "convergence.svg": svg.line_chart(
            _method_series(all_rows, labels, lambda r: r.h, lambda r: max(r.global_error, 1e-17)),
            title=f"Global error at t=1, decay problem ({args.dim}D)",
            xlabel="step size h (tolerance for dopri5)", ylabel="global error",
            logx=True, logy=True,
        ),
    }
    lines = [f"{m:<9} slope {slopes[m]:.3f}" for m in FIXED_STEP_METHODS]
    lines.append(f"dopri5    error-vs-tolerance slope {analysis.slope_above_floor(dopri_rows):.3f}")
    return files, lines


def cmd_stability(args):
    traces = analysis.stability_demo(-15.0, [0.1, 2.0 / 15.0, 1.0 / 6.0], t1=args.demo_t1)
    files, lines = {}, []
    for m in TABLEAUS:  # one raster at a time: each is freed when the next replaces it
        raster = stability_region_grid(m, (args.re_min, args.re_max), (args.im_min, args.im_max),
                                       args.resolution)
        files[f"stability_{raster.method}.csv"] = raster.csv_text()
        files[f"stability_{raster.method}.svg"] = svg.raster_chart(
            raster, title=f"{raster.method}: |R(z)| <= 1")
        lines.append(f"{raster.method:<9} real-axis extent {raster.real_axis_extent():+.3f}")
    demo_rows = [(tr.h, n, y) for tr in traces for n, y in enumerate(tr.y.tolist())]
    files["stability_demo.csv"] = csv_text(["h", "n", "y"], demo_rows)
    files["stability_demo.svg"] = svg.line_chart(
        [{"label": f"h={tr.h:.4g}" + (" (diverged)" if tr.diverged else ""),
          "x": list(range(len(tr.y))), "y": list(tr.y)} for tr in traces],
        title="Euler on y' = -15y", xlabel="step n", ylabel="y_n", markers=False,
    )
    for tr in traces:
        state = "diverged" if tr.diverged else "stable"
        lines.append(f"h={tr.h:.4g}: {state}, |y_final|={abs(tr.y[-1]):.3g}")
    return files, lines


def cmd_train(args):
    tc, _ = load_run_config(args.config)
    tc = replace(tc, seed=_resolve_seed(args.seed, tc.seed))
    loss_csv = args.loss_csv or os.path.splitext(args.out)[0] + ".loss.csv"
    for path in (args.out, loss_csv):
        if os.path.isdir(path) or not os.path.basename(path):
            raise ValueError(f"output path {path} names a directory, not a file")
        _check_out_dir(os.path.dirname(path) or os.curdir)
    if os.path.realpath(loss_csv) == os.path.realpath(args.out):
        raise ValueError(f"--loss-csv and --out name the same file {args.out}")
    model = cfm.train(tc)
    files = {args.out: list(cfm.model_text(model)),
             loss_csv: csv_text(["epoch", "loss"], enumerate(model.loss_curve))}
    return files, [f"trained {tc.epochs} epochs, final loss {model.final_loss:.6f}",
                   f"model -> {args.out}", f"loss curve -> {loss_csv}"]


def _solver_from_args(args):
    # only the flags given (a subcommand may lack some), so one that does
    # not apply to the method is rejected instead of ignored
    given = {k: getattr(args, k, None) for k in ("steps", "atol", "rtol")}
    return SolverSpec.from_dict(
        {"method": args.solver, **{k: v for k, v in given.items() if v is not None}}
    )


def cmd_sample(args):
    spec = _solver_from_args(args)
    model = cfm.load_model(args.model)
    points, trace = cfm.sample(model, spec, args.n, Rng(_resolve_seed(args.seed)))
    header = [f"x{i}" for i in range(points.shape[1])]
    files = {"samples.csv": csv_text(header, points.tolist()), "trace.csv": trace.csv_text()}
    if points.shape[1] == 2:
        files["samples.svg"] = svg.scatter_chart(
            points, label=f"{spec.method}-{spec.steps_label}",
            title=f"samples ({spec.method}, {spec.steps_label} steps)",
            xlabel="x0", ylabel="x1",
        )
    return files, [f"{args.n} samples via {spec.method} ({spec.steps_label}), NFE {trace.nfe_total}"]


def _benchmark_one(model, grid, args, rng):
    rows, failures = analysis.pareto_benchmark(model, grid, args.n, args.projections, rng)
    rows.sort(key=lambda r: r.nfe)
    for spec, exc in failures:
        print(f"warning: {spec.method}-{spec.steps_label} failed: {exc}", file=sys.stderr)
    return rows


def _pareto_files(name, rows):
    """``<name>.csv`` and ``<name>.svg`` of one benchmark run."""
    return {
        f"{name}.csv": csv_text(_header(analysis.ParetoRow), map(astuple, rows)),
        f"{name}.svg": svg.line_chart(
            _method_series(rows, {m: m for m in TABLEAUS}, lambda r: r.nfe, lambda r: r.swd),
            title="NFE vs SWD", xlabel="NFE", ylabel="SWD", logx=True, logy=True,
        ),
    }


def cmd_benchmark(args):
    if args.model and args.hidden:
        raise ValueError("--model and --hidden exclude each other: --hidden retrains per width")
    tc, grid = load_run_config(args.config) if args.config else (None, None)
    grid = grid or DEFAULT_GRID
    if args.hidden:
        if tc is None:
            raise ValueError("--hidden sweep needs --config with dataset/train settings")
        seed = _resolve_seed(args.seed, tc.seed)
        sweep = {}
        for w in args.hidden:
            print(f"training hidden={w} ...")
            model = cfm.train(replace(tc, seed=seed, mlp=replace(tc.mlp, hidden=w)))
            sweep[w] = _benchmark_one(model, grid, args, Rng(seed))
        files = {}
        for w, rows in sweep.items():
            files.update(_pareto_files(f"pareto_hidden{w}", rows))
        ablation = [(w, *astuple(r)) for w, rows in sweep.items() for r in rows]
        files["ablation.csv"] = csv_text(["hidden", *_header(analysis.ParetoRow)], ablation)
        return files, [f"ablation over widths {args.hidden} -> {os.path.join(args.out, 'ablation.csv')}"]
    if not args.model:
        raise ValueError("--model is required (or use --hidden with --config)")
    model = cfm.load_model(args.model)
    seed = _resolve_seed(args.seed, model.config.seed)
    rows = _benchmark_one(model, grid, args, Rng(seed))
    return _pareto_files("pareto", rows), [
        f"{r.method:<9} steps={r.steps:<9} nfe={r.nfe:<6} swd={r.swd:.5f}" for r in rows]


def cmd_jacobian(args):
    spec = _solver_from_args(args)
    model = cfm.load_model(args.model)
    rng = Rng(_resolve_seed(args.seed))
    grid = list(np.linspace(0.0, 1.0, args.time_points))
    rows = analysis.spectrum_along_trajectory(model, args.n_samples, grid, spec, rng)
    ts = [r.t for r in rows]
    series = []
    # per eigenvalue: the mean line and the two edges of its +-1 std band
    for eig, color, band in (("eig1", svg.PALETTE[0], "#aec7e8"), ("eig2", svg.PALETTE[1], "#ffbb78")):
        mean = [getattr(r, f"{eig}_re_mean") for r in rows]
        std = [getattr(r, f"{eig}_re_std") for r in rows]
        series += [
            {"label": f"{eig} re (mean)", "x": ts, "y": mean, "color": color},
            {"label": f"{eig} +-1 std", "x": ts, "y": [m + s for m, s in zip(mean, std)], "color": band},
            {"label": "", "x": ts, "y": [m - s for m, s in zip(mean, std)], "color": band},
        ]
    files = {
        "spectrum.csv": csv_text(_header(analysis.SpectrumRow), map(astuple, rows)),
        "spectrum.svg": svg.line_chart(
            series, title="Jacobian eigenvalues along the flow", xlabel="t", ylabel="Re(eig)"),
    }
    return files, [f"t={r.t:.2f}  re(eig1)={r.eig1_re_mean:+.3f}  re(eig2)={r.eig2_re_mean:+.3f}  "
                   f"cond_median={r.cond_median:.3g}" for r in rows]


def cmd_dopri_trace(args):
    spec = _solver_from_args(args)
    model = cfm.load_model(args.model)
    _, trace = cfm.sample(model, spec, args.n, Rng(_resolve_seed(args.seed)))
    summary = analysis.dopri_step_summary(trace, bins=args.bins)
    centers = 0.5 * (summary.bin_edges[:-1] + summary.bin_edges[1:])
    tolerances = (f"atol=rtol={spec.atol:g}" if spec.atol == spec.rtol
                  else f"atol={spec.atol:g}, rtol={spec.rtol:g}")
    files = {
        "dopri_trace.csv": trace.csv_text(),
        "dopri_steps.svg": svg.line_chart(
            [
                {"label": "accepted h", "x": [t for t, _ in summary.accepted],
                 "y": [h for _, h in summary.accepted]},
                {"label": "bin mean", "x": list(centers), "y": list(summary.mean_h)},
            ],
            title=f"DOPRI5 step sizes ({tolerances})", xlabel="t", ylabel="h",
        ),
    }
    lines = [f"accepted {len(summary.accepted)}, rejected {trace.n_rejected}, NFE {trace.nfe_total}"]
    for lo, hi, c, mh in zip(summary.bin_edges[:-1], summary.bin_edges[1:],
                             summary.counts, summary.mean_h):
        mh_str = f"{mh:.4g}" if np.isfinite(mh) else "-"
        lines.append(f"t in [{lo:.2f},{hi:.2f}): {c:>3} steps, mean h {mh_str}")
    return files, lines


# ---------------------------------------------------------------------------
# parser

def count(text):
    """argparse type of the count flags: an integer >= 1, so a bad count
    fails before any model is loaded or sampled."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def widths(text):
    """argparse type of --hidden: comma-separated distinct counts."""
    values = [count(w) for w in text.split(",")]
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"expected distinct widths, got {text}")
    return values


def _tolerance_flags(parser):
    """Add --atol and --rtol: unset, they leave SolverSpec's defaults."""
    for flag in ("atol", "rtol"):
        parser.add_argument(f"--{flag}", type=float, default=None,
                            help=f"dopri5 only (default {getattr(SolverSpec, flag):g})")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmsolve",
        description="Explicit ODE solvers and flow-matching sampling diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out", default="out", help="output directory")
    model_run = argparse.ArgumentParser(add_help=False)
    model_run.add_argument("--model", required=True)
    model_run.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("convergence", parents=[out_dir],
                       help="global error vs step size, fitted orders")
    p.add_argument("--dim", type=count, default=1,
                   help="replicate the decay problem across dimensions")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("stability", parents=[out_dir],
                       help="stability region rasters and the Euler blow-up demo")
    p.add_argument("--re-min", type=float, default=-5.0)
    p.add_argument("--re-max", type=float, default=2.0)
    p.add_argument("--im-min", type=float, default=-4.0)
    p.add_argument("--im-max", type=float, default=4.0)
    p.add_argument("--resolution", type=int, default=281, help="grid points per axis")
    p.add_argument("--demo-t1", type=float, default=4.0, help="integration horizon of the demo")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("train", help="train a velocity network from a JSON config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--loss-csv", default=None, help="loss curve CSV (default: <out>.loss.csv)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", parents=[model_run, out_dir],
                       help="sample from a trained model with a chosen solver")
    p.add_argument("--solver", required=True, choices=TABLEAUS)
    p.add_argument("--steps", type=int, default=None, help="step count (fixed-step solvers only)")
    _tolerance_flags(p)
    p.add_argument("--n", type=count, default=2000)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("benchmark", parents=[out_dir], help="NFE vs SWD over a solver grid")
    p.add_argument("--model", default=None)
    p.add_argument("--config", default=None, help="run config (solver_grid, ablation training)")
    p.add_argument("--hidden", type=widths, default=None,
                   help="comma list of distinct widths: retrain per width")
    p.add_argument("--n", type=count, default=2000, help="generated/reference sample count")
    p.add_argument("--projections", type=count, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("jacobian", parents=[model_run, out_dir],
                       help="Jacobian eigenvalue spectrum along trajectories")
    p.add_argument("--n-samples", type=count, default=200)
    p.add_argument("--time-points", type=count, default=11)
    p.add_argument("--steps", type=int, default=50, help="RK4 marching steps over [0,1]")
    p.set_defaults(func=cmd_jacobian, solver="rk4")

    p = sub.add_parser("dopri-trace", parents=[model_run, out_dir],
                       help="adaptive step-size trace of one sampling run")
    _tolerance_flags(p)
    p.add_argument("--n", type=count, default=2000)
    p.add_argument("--bins", type=count, default=10)
    p.set_defaults(func=cmd_dopri_trace, solver="dopri5")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # train's --out is its model file, which cmd_train checks; any other, a directory
        out_dir = "" if args.command == "train" else _check_out_dir(args.out)
        files, lines = args.func(args)
        # the one place that writes: every file is rendered before the first is made
        for name, text in files.items():
            path = os.path.join(out_dir, name)
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            with open(path, "w", newline="") as fh:
                fh.writelines([text] if isinstance(text, str) else text)
        print(*lines, sep="\n")
        return EXIT_OK
    except (IntegrationError, TrainingError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # last rung: an input whose arrays cannot be allocated
        print(f"error: input too large for memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
