"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (visible even under pytest capture).

The three criteria that need trained models share a module-scoped fixture
that trains the default moons configuration for seeds 0, 1, 2; expect a
few minutes of wall time for the whole module on one core.
"""

import json
import time

import numpy as np
import pytest

from fmsolve import analysis, cfm, nn
from fmsolve.cli import main as cli_main
from fmsolve.data import DatasetSpec, generate
from fmsolve.numeric import Rng
from fmsolve.ode import (
    DOPRI5,
    SolverSpec,
    VectorField,
    integrate_dopri5,
    integrate_fixed,
    stability_region_grid,
    stability_value,
)

H_LIST = [2.0**-k for k in range(3, 11)]
SEEDS = (0, 1, 2)


@pytest.fixture
def report(capsys):
    def _report(num, name, ok, detail=""):
        with capsys.disabled():
            line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}"
            if detail:
                line += f"  ({detail})"
            print(line, flush=True)
        assert ok, f"criterion {num} ({name}) failed: {detail}"

    return _report


@pytest.fixture(scope="module")
def trained_models():
    """Three default-config moons trainings (seeds 0, 1, 2) plus durations."""
    models, durations = [], []
    for seed in SEEDS:
        config = cfm.TrainConfig.default(DatasetSpec("moons", n=2000, noise=0.05), seed=seed)
        t0 = time.perf_counter()
        models.append(cfm.train(config))
        durations.append(time.perf_counter() - t0)
    return models, durations


def test_criterion_01_convergence_orders(report):
    t0 = time.perf_counter()
    _, slopes = analysis.convergence_study(
        analysis.DecayProblem(), ("euler", "midpoint", "rk4"), H_LIST
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(slopes["euler"] - 1.0) <= 0.1
        and abs(slopes["midpoint"] - 2.0) <= 0.1
        and abs(slopes["rk4"] - 4.0) <= 0.2
        and elapsed < 1.0
    )
    report(1, "convergence orders 1/2/4", ok,
           f"slopes {slopes['euler']:.3f}/{slopes['midpoint']:.3f}/{slopes['rk4']:.3f}, "
           f"{elapsed:.2f}s")


def test_criterion_02_error_gap_at_h01(report):
    exact = np.exp(-1.0)
    errors = {}
    for method in ("euler", "rk4"):
        f = VectorField(lambda t, y: -y)
        y, _ = integrate_fixed(f, np.array([1.0]), 0.0, 1.0, 10, method)
        # cross-check against the amplification-factor closed form
        oracle = stability_value(method, -0.1).real ** 10
        assert y[0] == pytest.approx(oracle, rel=1e-12)
        errors[method] = abs(y[0] - exact)
    ratio = errors["euler"] / errors["rk4"]
    ok = errors["rk4"] <= 1e-4 * errors["euler"]
    report(2, "RK4 error <= 1e-4 x Euler error at h=0.1", ok,
           f"euler {errors['euler']:.3e}, rk4 {errors['rk4']:.3e}, ratio {ratio:.3g}")


def test_criterion_03_linear_field_oracle(report):
    rng = Rng(33)
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(low=-2.0, high=0.5))
        h = float(rng.uniform(low=0.02, high=0.3))
        n = int(rng.integers(1, 60))
        for method in ("euler", "midpoint", "rk4"):
            f = VectorField(lambda t, y: lam * y)
            y, _ = integrate_fixed(f, np.array([1.0]), 0.0, n * h, n, method)
            ref = stability_value(method, h * lam).real ** n
            worst = max(worst, abs(y[0] - ref) / abs(ref))
    ok = worst <= 1e-12
    report(3, "fixed-step solvers match R(h*lam)^n", ok, f"worst rel err {worst:.2e}")


def test_criterion_04_stability_demo(report):
    stable, unstable = analysis.stability_demo(-15.0, [0.1, 1.0 / 6.0], t1=35.0, n_report=200)
    ok = (
        not stable.diverged
        and abs(stable.y[-1]) < 1.0
        and unstable.diverged
        and np.max(np.abs(unstable.y)) > 1e3
    )
    report(4, "Euler on y'=-15y: stable at h=0.1, divergent at h=1/6", ok,
           f"|y|_final stable {abs(stable.y[-1]):.2e}, max unstable {np.max(np.abs(unstable.y)):.2e}")


def test_criterion_05_stability_region_boundaries(report):
    results = {}
    for method, target in (("rk4", -2.78), ("euler", -2.0)):
        raster = stability_region_grid(method, (-5.0, 2.0), (-4.0, 4.0), 281)
        cell = float(raster.re[1] - raster.re[0])
        results[method] = (raster.real_axis_extent(), target, cell)
    ok = all(abs(ext - target) <= cell for ext, target, cell in results.values())
    report(5, "raster boundaries: rk4 -2.78, euler -2.0 (within one cell)", ok,
           ", ".join(f"{m} {v[0]:+.3f}" for m, v in results.items()))


def test_criterion_06_dopri5_correctness(report):
    f = VectorField(lambda t, y: -y)
    cfg = SolverSpec("dopri5", atol=1e-5, rtol=1e-5)
    y, trace = integrate_dopri5(f, np.array([1.0]), 0.0, 1.0, cfg)
    err_final = abs(y[0] - np.exp(-1.0))
    accepted = trace.accepted_steps
    n_rej = trace.n_rejected
    # 1 up-front stage, 6 per attempt, +1 for the initial-step heuristic trial
    nfe_expected = 1 + 6 * (len(accepted) + n_rej) + 1
    ok = (
        err_final <= 1e-5
        and all(s.err <= 1.0 for s in accepted)
        and trace.nfe_total == nfe_expected
    )
    report(6, "dopri5 on y'=-y: accuracy, err<=1 accepts, FSAL accounting", ok,
           f"|err| {err_final:.2e}, acc {len(accepted)}, rej {n_rej}, nfe {trace.nfe_total}")


def test_criterion_07_tableau_integrity(report):
    t = DOPRI5
    consistency = float(np.max(np.abs(t.a.sum(axis=1) - t.c)))
    bsum = abs(float(t.b.sum()) - 1.0)
    bstar_sum = abs(float(t.b_star.sum()) - 1.0)
    fsal = float(np.max(np.abs(t.a[6] - np.concatenate([t.b[:6], [0.0]]))))
    ok = consistency <= 1e-15 and bsum <= 1e-15 and bstar_sum <= 1e-15 and fsal == 0.0
    report(7, "Butcher tableau consistency / weight sums / FSAL row", ok,
           f"row {consistency:.1e}, b {bsum:.1e}, b* {bstar_sum:.1e}, fsal {fsal:.1e}")


def test_criterion_08_gradient_check(report):
    config = nn.MlpConfig(data_dim=2, hidden=8, n_blocks=1, time_embed_dim=4)
    rng = Rng(88)
    params = nn.init_params(config, rng)
    params.w_out[...] = rng.normal(size=params.w_out.shape) * 0.3
    params.b_out[...] = rng.normal(size=params.b_out.shape) * 0.1
    x = rng.normal(size=(4, 2))
    t = rng.uniform(size=4)
    u = rng.normal(size=(4, 2))
    _, grads = nn.loss_and_grad(params, x, t, u)
    grads_named = dict(grads.named())
    eps = 1e-5
    worst = 0.0
    for name, arr in params.named():
        g = grads_named[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            lp, _ = nn.loss_and_grad(params, x, t, u)
            arr[idx] = keep - eps
            lm, _ = nn.loss_and_grad(params, x, t, u)
            arr[idx] = keep
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(g[idx]), 1e-8)
            worst = max(worst, abs(fd - g[idx]) / denom)
    ok = worst < 1e-4
    report(8, "backprop matches central finite differences", ok, f"max rel err {worst:.2e}")


def test_criterion_09_pareto_ordering(trained_models, report):
    models, durations = trained_models
    swds = {"rk4_20": [], "euler_20": [], "euler_200": []}
    for i, model in enumerate(models):
        ref = generate(DatasetSpec("moons", n=2000, noise=0.05), Rng(1000 + i))
        for key, spec in (
            ("rk4_20", cfm.SolverSpec("rk4", 20)),
            ("euler_20", cfm.SolverSpec("euler", 20)),
            ("euler_200", cfm.SolverSpec("euler", 200)),
        ):
            # same rng seed per model: all solvers start from identical noise
            points, _ = cfm.sample(model, spec, 2000, Rng(2000 + i))
            swds[key].append(analysis.swd(points, ref, 200, Rng(3000 + i)))
    med = {k: float(np.median(v)) for k, v in swds.items()}
    ok = (
        med["rk4_20"] <= med["euler_20"]
        and med["rk4_20"] <= 1.25 * med["euler_200"]
        and all(d <= 300.0 for d in durations)
    )
    report(9, "median SWD: rk4-20 <= euler-20 and <= 1.25 x euler-200", ok,
           f"rk4-20 {med['rk4_20']:.4f}, euler-20 {med['euler_20']:.4f}, "
           f"euler-200 {med['euler_200']:.4f}, train {max(durations):.0f}s max")


def test_criterion_10_stiffening_near_t1(trained_models, report):
    models, _ = trained_models
    grid = list(np.linspace(0.0, 1.0, 11))
    wins = 0
    conds = []
    for i, model in enumerate(models):
        rows = analysis.spectrum_along_trajectory(
            model, 200, grid, cfm.SolverSpec("rk4", 50), Rng(500 + i)
        )
        by_t = {round(r.t, 3): r for r in rows}
        c01, c09 = by_t[0.1].cond_median, by_t[0.9].cond_median
        conds.append((c01, c09))
        wins += c09 > c01
    ok = wins >= 2
    report(10, "median condition number at t=0.9 exceeds t=0.1 (>=2 of 3 seeds)", ok,
           "; ".join(f"seed{j}: {a:.2f}->{b:.2f}" for j, (a, b) in enumerate(conds)))


def test_criterion_11_adaptive_step_allocation(trained_models, report):
    models, _ = trained_models
    wins = 0
    details = []
    for i, model in enumerate(models):
        _, trace = cfm.sample(model, cfm.SolverSpec("dopri5"), 200, Rng(700 + i))
        summary = analysis.dopri_step_summary(trace, bins=10)
        early = summary.mean_h_over(0.0, 0.2)
        late = summary.mean_h_over(0.8, 1.0)
        details.append(f"seed{i}: {early:.4f}->{late:.4f}")
        wins += late < early
    ok = wins >= 2
    report(11, "mean dopri5 step over t in [0.8,1] below t in [0,0.2] (>=2 of 3 seeds)",
           ok, "; ".join(details))


def test_criterion_12_dimension_independent_slopes(report):
    t0 = time.perf_counter()
    _, slopes_1d = analysis.convergence_study(
        analysis.DecayProblem(dim=1), ("euler", "midpoint", "rk4"), H_LIST
    )
    _, slopes_hd = analysis.convergence_study(
        analysis.DecayProblem(dim=100), ("euler", "midpoint", "rk4"), H_LIST
    )
    elapsed = time.perf_counter() - t0
    deltas = {m: abs(slopes_hd[m] - slopes_1d[m]) for m in slopes_1d}
    ok = all(d <= 0.05 for d in deltas.values()) and elapsed < 10.0
    report(12, "100D slopes match 1D within 0.05", ok,
           ", ".join(f"{m} d={d:.1e}" for m, d in deltas.items()) + f", {elapsed:.2f}s")


def test_criterion_13_cli_determinism(tmp_path, report):
    config = {
        "format_version": 1,
        "seed": 5,
        "dataset": {"kind": "moons", "n": 128, "noise": 0.05},
        "train": {"epochs": 3, "batch_size": 64,
                  "mlp": {"hidden": 8, "n_blocks": 1, "time_embed_dim": 4}},
        "solver_grid": [
            {"method": "euler", "steps": 5},
            {"method": "rk4", "steps": 5},
            {"method": "dopri5", "atol": 1e-3, "rtol": 1e-3},
        ],
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    model = tmp_path / "model.json"
    assert cli_main(["train", "--config", str(cfg), "--out", str(model)]) == 0

    runs = {
        "train": lambda out: cli_main(
            ["train", "--config", str(cfg), "--out", str(out / "m.json"),
             "--loss-csv", str(out / "loss.csv")]),
        "convergence": lambda out: cli_main(["convergence", "--out", str(out)]),
        "stability": lambda out: cli_main(["stability", "--resolution", "41", "--out", str(out)]),
        "sample": lambda out: cli_main(
            ["sample", "--model", str(model), "--solver", "midpoint", "--steps", "8",
             "--n", "40", "--seed", "2", "--out", str(out)]),
        "benchmark": lambda out: cli_main(
            ["benchmark", "--model", str(model), "--config", str(cfg), "--n", "32",
             "--projections", "8", "--seed", "4", "--out", str(out)]),
        "jacobian": lambda out: cli_main(
            ["jacobian", "--model", str(model), "--n-samples", "5", "--steps", "5",
             "--seed", "6", "--out", str(out)]),
        "dopri-trace": lambda out: cli_main(
            ["dopri-trace", "--model", str(model), "--atol", "1e-3", "--rtol", "1e-3",
             "--n", "20", "--seed", "8", "--out", str(out)]),
    }
    mismatches = []
    for name, run in runs.items():
        dirs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            out.mkdir()
            assert run(out) == 0, f"{name} run failed"
            dirs.append(out)
        csvs_a = sorted(p.name for p in dirs[0].glob("**/*.csv"))
        csvs_b = sorted(p.name for p in dirs[1].glob("**/*.csv"))
        if csvs_a != csvs_b or not csvs_a:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in csvs_a:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    # model JSON is covered too: the train subcommand writes it
    m_a = (tmp_path / "train_a" / "m.json").read_bytes()
    m_b = (tmp_path / "train_b" / "m.json").read_bytes()
    if m_a != m_b:
        mismatches.append("train/m.json")
    ok = not mismatches
    report(13, "all CLI subcommands byte-identical across repeat runs", ok,
           "all CSVs identical" if ok else "; ".join(mismatches))
