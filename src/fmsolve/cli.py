"""fmsolve command line: every experiment as a subcommand.

Config and model files are JSON (strict: unknown keys are rejected so
typos fail loudly), tabular outputs are CSV with full-precision floats,
figures are the minimal SVGs of :mod:`fmsolve.svg`.  Every subcommand is
deterministic given its config and seed; the FMSOLVE_SEED environment
variable overrides the seed everywhere.

Exit codes: 0 success, 2 usage or config error, 3 numeric failure.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, cfm, svg
from .cfm import SolverSpec, TrainConfig, TrainingError
from .data import DatasetSpec
from .numeric import Rng, write_csv
from .ode import FIXED_STEP_METHODS, TABLEAUS, IntegrationError, stability_region_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

CONFIG_FORMAT_VERSION = 1

SOLVER_NAMES = tuple(TABLEAUS)

#: step-count grids for the NFE/quality benchmark
DEFAULT_GRID = (
    [("euler", n) for n in (10, 20, 50, 100, 200)]
    + [("midpoint", n) for n in (10, 20, 50, 100)]
    + [("rk4", n) for n in (5, 10, 20, 50)]
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config file handling

def _check_keys(d, path, required, optional=()):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    missing = [k for k in required if k not in d]
    if missing:
        raise ConfigError(f"{path}: missing required keys {missing}")
    unknown = [k for k in d if k not in required and k not in optional]
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")


def _check_ints(d, path, keys):
    # JSON numbers like 1.5 would otherwise pass the range checks and fail
    # deep inside training or sampling.
    for k in keys:
        if k in d and (not isinstance(d[k], int) or isinstance(d[k], bool)):
            raise ConfigError(f"{path}.{k}: expected an integer, got {d[k]!r}")


def _parse_dataset(d, path="dataset"):
    _check_keys(d, path, required=("kind",), optional=("n", "noise", "dim"))
    _check_ints(d, path, ("n", "dim"))
    try:
        return DatasetSpec.from_dict(d)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _parse_solver_spec(d, path):
    _check_keys(d, path, required=("method",), optional=("steps", "atol", "rtol"))
    _check_ints(d, path, ("steps",))
    try:
        return SolverSpec.from_dict(d)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_run_config(path):
    """Parse and validate a run config JSON file.

    Schema (strict at every level):
      {format_version: 1, seed, dataset: {kind, n?, noise?, dim?},
       train?: {epochs?, batch_size?, lr?, mlp?: {hidden?, n_blocks?, time_embed_dim?}},
       solver_grid?: [{method, steps? | atol?, rtol?}, ...]}
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    _check_keys(
        doc, "config",
        required=("format_version", "seed", "dataset"),
        optional=("train", "solver_grid"),
    )
    _check_ints(doc, "config", ("seed",))
    if doc["format_version"] != CONFIG_FORMAT_VERSION:
        raise ConfigError(f"unsupported config format_version {doc['format_version']!r}")
    dataset = _parse_dataset(doc["dataset"])
    train = doc.get("train", {})
    _check_keys(train, "train", required=(), optional=("epochs", "batch_size", "lr", "mlp"))
    _check_ints(train, "train", ("epochs", "batch_size"))
    mlp = train.get("mlp", {})
    _check_keys(mlp, "train.mlp", required=(), optional=("hidden", "n_blocks", "time_embed_dim"))
    _check_ints(mlp, "train.mlp", ("hidden", "n_blocks", "time_embed_dim"))
    grid = None
    if "solver_grid" in doc:
        if not isinstance(doc["solver_grid"], list) or not doc["solver_grid"]:
            raise ConfigError("solver_grid: expected a non-empty list")
        grid = [_parse_solver_spec(s, f"solver_grid[{i}]") for i, s in enumerate(doc["solver_grid"])]
    return {
        "seed": doc["seed"],
        "dataset": dataset,
        "train_overrides": {k: train[k] for k in ("epochs", "batch_size", "lr") if k in train},
        "mlp_overrides": dict(mlp),
        "solver_grid": grid,
    }


def _train_config(rc, seed, hidden=None):
    mlp = dict(rc["mlp_overrides"])
    if hidden is not None:
        mlp["hidden"] = hidden
    try:
        return TrainConfig.default(rc["dataset"], seed=seed, mlp=mlp, **rc["train_overrides"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_seed(seed):
    env = os.environ.get("FMSOLVE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"FMSOLVE_SEED must be an integer, got {env!r}") from None
    return seed


# ---------------------------------------------------------------------------
# output helpers

def _ensure_dir(path):
    os.makedirs(path, exist_ok=True)
    return path


def _default_grid():
    return [SolverSpec(m, n) for m, n in DEFAULT_GRID] + [SolverSpec("dopri5")]


# ---------------------------------------------------------------------------
# subcommands

def cmd_convergence(args):
    out = _ensure_dir(args.out)
    h_list = [2.0**-e for e in range(3, 11)]
    problem = analysis.DecayProblem(lam=-1.0, y0=1.0, t1=1.0, dim=args.dim)
    methods = FIXED_STEP_METHODS
    rows, slopes = analysis.convergence_study(problem, methods, h_list)
    tols = [10.0**-e for e in range(3, 11)]
    dopri_rows = analysis.dopri5_tolerance_study(problem, tols)
    write_csv(
        os.path.join(out, "convergence.csv"),
        ["method", "h", "error"],
        [(r.method, r.h, r.global_error) for r in rows + dopri_rows],
    )
    series = [
        {"label": m, "x": [r.h for r in rows if r.method == m],
         "y": [max(r.global_error, 1e-17) for r in rows if r.method == m]}
        for m in methods
    ]
    series.append({
        "label": "dopri5 (tol on h axis)",
        "x": [r.h for r in dopri_rows],
        "y": [max(r.global_error, 1e-17) for r in dopri_rows],
    })
    svg.line_chart(
        os.path.join(out, "convergence.svg"), series,
        title=f"Global error at t=1, decay problem ({args.dim}D)",
        xlabel="step size h (tolerance for dopri5)", ylabel="global error",
        logx=True, logy=True,
    )
    for m in methods:
        print(f"{m:<9} slope {slopes[m]:.3f}")
    dopri_slope = analysis.fit_loglog_slope(
        [(r.h, r.global_error) for r in dopri_rows if r.global_error > analysis.ERROR_FLOOR]
    )
    print(f"dopri5    error-vs-tolerance slope {dopri_slope:.3f}")
    return EXIT_OK


def cmd_stability(args):
    out = _ensure_dir(args.out)
    for method in SOLVER_NAMES:
        raster = stability_region_grid(
            method, (args.re_min, args.re_max), (args.im_min, args.im_max), args.resolution
        )
        raster.write_csv(os.path.join(out, f"stability_{method}.csv"))
        svg.raster_chart(
            os.path.join(out, f"stability_{method}.svg"), raster,
            title=f"{method}: |R(z)| <= 1",
        )
        print(f"{method:<9} real-axis extent {raster.real_axis_extent():+.3f}")
    demo_h = [0.1, 2.0 / 15.0, 1.0 / 6.0]
    traces = analysis.stability_demo(-15.0, demo_h, t1=args.demo_t1, n_report=200)
    demo_rows = [(tr.h, n, y) for tr in traces for n, y in enumerate(tr.y.tolist())]
    write_csv(os.path.join(out, "stability_demo.csv"), ["h", "n", "y"], demo_rows)
    svg.line_chart(
        os.path.join(out, "stability_demo.svg"),
        [{"label": f"h={tr.h:.4g}" + (" (diverged)" if tr.diverged else ""),
          "x": list(range(len(tr.y))), "y": list(tr.y)} for tr in traces],
        title="Euler on y' = -15y", xlabel="step n", ylabel="y_n", markers=False,
    )
    for tr in traces:
        state = "diverged" if tr.diverged else "stable"
        print(f"h={tr.h:.4g}: {state}, |y_final|={abs(tr.y[-1]):.3g}")
    return EXIT_OK


def cmd_train(args):
    rc = load_run_config(args.config)
    seed = _resolve_seed(args.seed if args.seed is not None else rc["seed"])
    tc = _train_config(rc, seed)
    model = cfm.train(tc)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    _ensure_dir(out_dir)
    cfm.save_model(model, args.out)
    loss_csv = args.loss_csv or os.path.splitext(args.out)[0] + ".loss.csv"
    write_csv(loss_csv, ["epoch", "loss"], enumerate(model.loss_curve))
    print(f"trained {tc.epochs} epochs, final loss {model.final_loss:.6f}")
    print(f"model -> {args.out}")
    print(f"loss curve -> {loss_csv}")
    return EXIT_OK


def _solver_from_args(args):
    # only the flags given on the command line, so one that does not apply
    # to the method is rejected instead of ignored
    given = {"steps": args.steps, "atol": args.atol, "rtol": args.rtol}
    return SolverSpec.from_dict(
        {"method": args.solver, **{k: v for k, v in given.items() if v is not None}}
    )


def cmd_sample(args):
    model = cfm.load_model(args.model)
    spec = _solver_from_args(args)
    seed = _resolve_seed(args.seed)
    out = _ensure_dir(args.out)
    points, trace = cfm.sample(model, spec, args.n, Rng(seed))
    header = [f"x{i}" for i in range(points.shape[1])]
    write_csv(os.path.join(out, "samples.csv"), header, points.tolist())
    trace.write_csv(os.path.join(out, "trace.csv"))
    if points.shape[1] == 2:
        svg.scatter_chart(
            os.path.join(out, "samples.svg"),
            [{"label": f"{spec.method}-{spec.steps_label}", "points": points}],
            title=f"samples ({spec.method}, {spec.steps_label} steps)",
            xlabel="x0", ylabel="x1",
        )
    print(f"{args.n} samples via {spec.method} ({spec.steps_label}), NFE {trace.nfe_total}")
    return EXIT_OK


def _benchmark_one(model, grid, args, rng):
    rows, failures = analysis.pareto_benchmark(
        model, model.config.dataset, grid, args.n, args.projections, rng
    )
    rows.sort(key=lambda r: r.nfe)
    for spec, exc in failures:
        print(f"warning: {spec.method}-{spec.steps_label} failed: {exc}", file=sys.stderr)
    return rows


def _write_pareto(path_csv, path_svg, rows):
    write_csv(path_csv, ["method", "steps", "nfe", "swd"],
               [(r.method, r.steps, r.nfe, r.swd) for r in rows])
    series = []
    for m in SOLVER_NAMES:
        sub = [r for r in rows if r.method == m]
        if sub:
            series.append({"label": m, "x": [r.nfe for r in sub], "y": [r.swd for r in sub]})
    svg.line_chart(path_svg, series, title="NFE vs SWD", xlabel="NFE", ylabel="SWD",
                   logx=True, logy=True)


def cmd_benchmark(args):
    out = _ensure_dir(args.out)
    rc = load_run_config(args.config) if args.config else None
    grid = (rc and rc["solver_grid"]) or _default_grid()
    if args.hidden:
        if rc is None:
            raise ConfigError("--hidden sweep needs --config with dataset/train settings")
        widths = [int(w) for w in args.hidden.split(",")]
        seed = _resolve_seed(args.seed if args.seed is not None else rc["seed"])
        ablation = []
        for w in widths:
            tc = _train_config(rc, seed, hidden=w)
            print(f"training hidden={w} ...")
            model = cfm.train(tc)
            rows = _benchmark_one(model, grid, args, Rng(seed, stream=w))
            _write_pareto(
                os.path.join(out, f"pareto_hidden{w}.csv"),
                os.path.join(out, f"pareto_hidden{w}.svg"), rows,
            )
            ablation += [(w, r.method, r.steps, r.nfe, r.swd) for r in rows]
        write_csv(os.path.join(out, "ablation.csv"),
                   ["hidden", "method", "steps", "nfe", "swd"], ablation)
        print(f"ablation over widths {widths} -> {os.path.join(out, 'ablation.csv')}")
        return EXIT_OK
    if not args.model:
        raise ConfigError("--model is required (or use --hidden with --config)")
    model = cfm.load_model(args.model)
    seed = _resolve_seed(args.seed if args.seed is not None else model.config.seed)
    rows = _benchmark_one(model, grid, args, Rng(seed))
    _write_pareto(os.path.join(out, "pareto.csv"), os.path.join(out, "pareto.svg"), rows)
    for r in rows:
        print(f"{r.method:<9} steps={r.steps:<9} nfe={r.nfe:<6} swd={r.swd:.5f}")
    return EXIT_OK


def cmd_jacobian(args):
    model = cfm.load_model(args.model)
    if model.data_dim != 2:
        raise ConfigError(f"jacobian analysis needs a 2D model, got data_dim={model.data_dim}")
    seed = _resolve_seed(args.seed)
    out = _ensure_dir(args.out)
    grid = list(np.linspace(0.0, 1.0, args.time_points))
    rows = analysis.spectrum_along_trajectory(
        model, args.n_samples, grid, SolverSpec("rk4", args.steps), Rng(seed)
    )
    write_csv(
        os.path.join(out, "spectrum.csv"),
        ["t", "eig1_re_mean", "eig1_re_std", "eig2_re_mean", "eig2_re_std", "cond_median"],
        [(r.t, r.eig1_re_mean, r.eig1_re_std, r.eig2_re_mean, r.eig2_re_std, r.cond_median)
         for r in rows],
    )
    ts = [r.t for r in rows]
    svg.line_chart(
        os.path.join(out, "spectrum.svg"),
        [
            {"label": "eig1 re (mean)", "x": ts, "y": [r.eig1_re_mean for r in rows]},
            {"label": "eig1 +-1 std", "x": ts, "y": [r.eig1_re_mean + r.eig1_re_std for r in rows],
             "color": "#aec7e8"},
            {"label": "", "x": ts, "y": [r.eig1_re_mean - r.eig1_re_std for r in rows],
             "color": "#aec7e8"},
            {"label": "eig2 re (mean)", "x": ts, "y": [r.eig2_re_mean for r in rows],
             "color": "#ff7f0e"},
            {"label": "eig2 +-1 std", "x": ts, "y": [r.eig2_re_mean + r.eig2_re_std for r in rows],
             "color": "#ffbb78"},
            {"label": "", "x": ts, "y": [r.eig2_re_mean - r.eig2_re_std for r in rows],
             "color": "#ffbb78"},
        ],
        title="Jacobian eigenvalues along the flow", xlabel="t", ylabel="Re(eig)",
    )
    for r in rows:
        print(f"t={r.t:.2f}  re(eig1)={r.eig1_re_mean:+.3f}  re(eig2)={r.eig2_re_mean:+.3f}  "
              f"cond_median={r.cond_median:.3g}")
    return EXIT_OK


def cmd_dopri_trace(args):
    model = cfm.load_model(args.model)
    spec = SolverSpec("dopri5", atol=args.atol, rtol=args.rtol)
    seed = _resolve_seed(args.seed)
    out = _ensure_dir(args.out)
    _, trace = cfm.sample(model, spec, args.n, Rng(seed))
    trace.write_csv(os.path.join(out, "dopri_trace.csv"))
    summary = analysis.dopri_step_summary(trace, bins=args.bins)
    centers = 0.5 * (summary.bin_edges[:-1] + summary.bin_edges[1:])
    svg.line_chart(
        os.path.join(out, "dopri_steps.svg"),
        [
            {"label": "accepted h", "x": [t for t, _ in summary.accepted],
             "y": [h for _, h in summary.accepted]},
            {"label": "bin mean", "x": list(centers), "y": list(summary.mean_h)},
        ],
        title=f"DOPRI5 step sizes (atol=rtol={args.atol:g})", xlabel="t", ylabel="h",
    )
    acc = len(summary.accepted)
    rej = trace.n_rejected
    print(f"accepted {acc}, rejected {rej}, NFE {trace.nfe_total}")
    for lo, hi, c, mh in zip(summary.bin_edges[:-1], summary.bin_edges[1:],
                             summary.counts, summary.mean_h):
        mh_str = f"{mh:.4g}" if np.isfinite(mh) else "-"
        print(f"t in [{lo:.2f},{hi:.2f}): {c:>3} steps, mean h {mh_str}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def build_parser():
    parser = argparse.ArgumentParser(
        prog="fmsolve",
        description="Explicit ODE solvers and flow-matching sampling diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", help="global error vs step size, fitted orders")
    p.add_argument("--dim", type=int, default=1, help="replicate the decay problem across dimensions")
    p.add_argument("--out", default="out", help="output directory")
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("stability", help="stability region rasters and the Euler blow-up demo")
    p.add_argument("--re-min", type=float, default=-5.0)
    p.add_argument("--re-max", type=float, default=2.0)
    p.add_argument("--im-min", type=float, default=-4.0)
    p.add_argument("--im-max", type=float, default=4.0)
    p.add_argument("--resolution", type=int, default=281, help="grid points per axis")
    p.add_argument("--demo-t1", type=float, default=4.0, help="integration horizon of the demo")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("train", help="train a velocity network from a JSON config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="model JSON path")
    p.add_argument("--loss-csv", default=None, help="loss curve CSV (default: <out>.loss.csv)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sample", help="sample from a trained model with a chosen solver")
    p.add_argument("--model", required=True)
    p.add_argument("--solver", required=True, choices=SOLVER_NAMES)
    p.add_argument("--steps", type=int, default=None, help="step count (fixed-step solvers only)")
    p.add_argument("--atol", type=float, default=None, help="dopri5 only (default 1e-5)")
    p.add_argument("--rtol", type=float, default=None, help="dopri5 only (default 1e-5)")
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("benchmark", help="NFE vs SWD over a solver grid")
    p.add_argument("--model", default=None)
    p.add_argument("--config", default=None, help="run config (solver_grid, ablation training)")
    p.add_argument("--hidden", default=None, help="comma list of widths: retrain per width")
    p.add_argument("--n", type=int, default=2000, help="generated/reference sample count")
    p.add_argument("--projections", type=int, default=200)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("jacobian", help="Jacobian eigenvalue spectrum along trajectories")
    p.add_argument("--model", required=True)
    p.add_argument("--n-samples", type=int, default=200)
    p.add_argument("--time-points", type=int, default=11)
    p.add_argument("--steps", type=int, default=50, help="RK4 marching steps over [0,1]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_jacobian)

    p = sub.add_parser("dopri-trace", help="adaptive step-size trace of one sampling run")
    p.add_argument("--model", required=True)
    p.add_argument("--atol", type=float, default=1e-5)
    p.add_argument("--rtol", type=float, default=1e-5)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_dopri_trace)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, TrainingError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
