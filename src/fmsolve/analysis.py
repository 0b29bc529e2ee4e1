"""Quantitative diagnostics: SWD, convergence orders, Pareto benchmarks,
Jacobian spectra along trajectories, adaptive step summaries and the
classic Euler blow-up demonstration.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cfm, nn
from .data import generate
from .numeric import cond2x2, eig2x2, gaussian_sample
from .ode import FIXED_STEP_METHODS, IntegrationError, VectorField, integrate_fixed, step_euler

__all__ = [
    "swd",
    "ConvergenceRow",
    "DecayProblem",
    "convergence_study",
    "dopri5_tolerance_study",
    "fit_loglog_slope",
    "ParetoRow",
    "pareto_benchmark",
    "jacobian_fd",
    "SpectrumRow",
    "spectrum_along_trajectory",
    "StepSummary",
    "dopri_step_summary",
    "DemoTrace",
    "stability_demo",
]

ERROR_FLOOR = 1e-12  # discard points at the round-off floor before slope fits
DIVERGENCE_FACTOR = 1e3


# ---------------------------------------------------------------------------
# sliced Wasserstein distance

def swd(a, b, n_projections, rng):
    """Sliced W2 between two equal-size point batches.

    Projects both batches onto ``n_projections`` random unit directions
    (normalized Gaussian draws), takes the squared 1D W2 per direction and
    returns the square root of their mean.  Deterministic per rng state.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"batch shapes disagree: {a.shape} vs {b.shape}")
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    d = a.shape[1]
    dirs = gaussian_sample(rng, n_projections, d)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    proj_a = np.sort(a @ dirs.T, axis=0)
    proj_b = np.sort(b @ dirs.T, axis=0)
    w2_sq = np.mean((proj_a - proj_b) ** 2, axis=0)
    return float(np.sqrt(np.mean(w2_sq)))


# ---------------------------------------------------------------------------
# convergence orders

@dataclass
class ConvergenceRow:
    method: str
    h: float
    global_error: float


@dataclass(frozen=True)
class DecayProblem:
    """y' = lam * y with y(0) = y0 on [0, t1], optionally replicated across
    ``dim`` identical components to exercise the tensor path."""

    lam: float = -1.0
    y0: float = 1.0
    t1: float = 1.0
    dim: int = 1


def convergence_study(problem, methods, h_list):
    """Global error at t1 versus step size, plus fitted log-log slopes.

    The exact solution y0 * exp(lam * t1) is the reference; the slope for
    each method is an ordinary least squares fit of log error against log h
    over the points above the round-off floor.

    Returns ``(rows, slopes)`` with slopes a dict method -> fitted slope.
    """
    if len(set(h_list)) < 4:
        raise ValueError("need at least 4 distinct step sizes")
    y0 = np.full(problem.dim, float(problem.y0))
    exact = problem.y0 * math.exp(problem.lam * problem.t1)
    rows = []
    slopes = {}
    for method in methods:
        pairs = []
        for h in h_list:
            n = max(1, round(problem.t1 / h))
            f = VectorField(lambda t, y: problem.lam * y)
            y_final, _ = integrate_fixed(f, y0, 0.0, problem.t1, n, method)
            err = float(np.max(np.abs(y_final - exact)))
            rows.append(ConvergenceRow(method=method, h=h, global_error=err))
            if err > ERROR_FLOOR:
                pairs.append((h, err))
        slopes[method] = fit_loglog_slope(pairs)
    return rows, slopes


def dopri5_tolerance_study(problem, tol_list):
    """Adaptive-solver counterpart of :func:`convergence_study`: global error
    as the shared atol=rtol tolerance is swept.  Rows reuse ConvergenceRow
    with the tolerance in the h slot."""
    from .ode import StepControlConfig, integrate_dopri5

    y0 = np.full(problem.dim, float(problem.y0))
    exact = problem.y0 * math.exp(problem.lam * problem.t1)
    rows = []
    for tol in tol_list:
        f = VectorField(lambda t, y: problem.lam * y)
        cfg = StepControlConfig(atol=tol, rtol=tol)
        y_final, _ = integrate_dopri5(f, y0, 0.0, problem.t1, cfg)
        err = float(np.max(np.abs(y_final - exact)))
        rows.append(ConvergenceRow(method="dopri5", h=tol, global_error=err))
    return rows


def fit_loglog_slope(pairs):
    """Least-squares slope of log(error) against log(h).

    All values must be positive; needs at least two points.
    """
    if len(pairs) < 2:
        raise ValueError("need at least 2 points to fit a slope")
    h = np.array([p[0] for p in pairs], dtype=float)
    e = np.array([p[1] for p in pairs], dtype=float)
    if np.any(h <= 0) or np.any(e <= 0):
        raise ValueError("log-log fit needs positive step sizes and errors")
    x = np.log(h)
    y = np.log(e)
    x = x - x.mean()
    return float(np.dot(x, y - y.mean()) / np.dot(x, x))


# ---------------------------------------------------------------------------
# NFE / quality benchmark

@dataclass
class ParetoRow:
    method: str
    steps: str  # step count, or "adaptive"
    nfe: int
    swd: float


def pareto_benchmark(model, dataset_spec, grid, n_samples, n_projections, rng):
    """One (NFE, SWD) row per solver spec, measured against a fresh draw of
    the dataset.

    Common random numbers: every spec integrates the same Gaussian starts
    (substream 2 of ``rng``) and is scored on the same projections
    (substream 3), so rows differ by solver only, whatever the grid order.
    A failing solver run does not abort the grid: the offending spec is
    reported in the second return value together with its error.
    """
    reference = generate(
        type(dataset_spec)(**{**dataset_spec.to_dict(), "n": n_samples}),
        rng.stream_rng(1),
    )
    rows = []
    failures = []
    for spec in grid:
        try:
            points, trace = cfm.sample(model, spec, n_samples, rng.stream_rng(2))
        except IntegrationError as exc:
            failures.append((spec, exc))
            continue
        dist = swd(points, reference, n_projections, rng.stream_rng(3))
        rows.append(
            ParetoRow(method=spec.method, steps=spec.steps_label, nfe=trace.nfe_total, swd=dist)
        )
    return rows, failures


# ---------------------------------------------------------------------------
# Jacobian spectrum along the flow

def jacobian_fd(field, x, t):
    """2x2 Jacobian of a planar field at (x, t) by central differences.

    Column j uses the perturbation eps_j = 1e-4 * (1 + |x_j|), balancing
    truncation against round-off for fields with O(1) curvature.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise ValueError(f"expected a 2D point, got shape {x.shape}")
    return _central_differences(lambda t, xs: field(t, xs[0])[None, :], x[None, :], t)[0]


def _jacobians_batched(params, x, t):
    """Central-difference Jacobians of the network for every row of x at a
    shared time: all rows go through one stacked forward call per
    sign/column, so the network is invoked 4 times instead of 4n."""
    return _central_differences(lambda t, xs: nn.forward(params, xs, t), x, t)


def _central_differences(batched_field, x, t):
    """(n, 2, 2) Jacobians at the rows of x of a field mapping an (n, 2)
    batch to (n, 2) velocities, with the per-row, per-column eps of
    :func:`jacobian_fd`."""
    jac = np.empty((x.shape[0], 2, 2))
    for j in range(2):
        eps = 1e-4 * (1.0 + np.abs(x[:, j]))
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += eps
        xm[:, j] -= eps
        fp = batched_field(t, xp)
        fm = batched_field(t, xm)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise IntegrationError(f"non-finite field while differencing at t={t}", t=t, y=x)
        jac[:, :, j] = (fp - fm) / (2.0 * eps)[:, None]
    return jac


@dataclass
class SpectrumRow:
    """Eigenvalue statistics of the field Jacobian across samples at one time."""

    t: float
    eig1_re_mean: float
    eig1_re_std: float
    eig2_re_mean: float
    eig2_re_std: float
    cond_median: float


def spectrum_along_trajectory(model, n_samples, time_grid, solver, rng):
    """Jacobian eigenvalues and condition numbers along sampling trajectories.

    Integrates ``n_samples`` trajectories of the learned flow (in the
    standardized space where the network lives) and, at every grid time,
    computes the per-sample 2x2 Jacobian by central differences, its
    eigenvalue pair, and the spectral condition number.  Eigenvalues are
    ordered by descending real part, so "eig1" is the slower/unstabler one.

    The solver spec controls the marching between grid times; its n_steps
    budget is spread over [0, 1] proportionally to each segment length.
    """
    if model.data_dim != 2:
        raise ValueError("Jacobian spectrum analysis supports 2D models only")
    time_grid = [float(t) for t in time_grid]
    if sorted(time_grid) != time_grid:
        raise ValueError("time_grid must be ascending")
    if solver.method not in FIXED_STEP_METHODS:
        raise ValueError("spectrum marching uses a fixed-step solver")
    x = gaussian_sample(rng, n_samples, 2)
    rows = []
    for i, t in enumerate(time_grid):
        jac = _jacobians_batched(model.params, x, t)
        eig1, eig2 = eig2x2(jac)
        rows.append(
            SpectrumRow(
                t=t,
                eig1_re_mean=float(eig1.real.mean()),
                eig1_re_std=float(eig1.real.std()),
                eig2_re_mean=float(eig2.real.mean()),
                eig2_re_std=float(eig2.real.std()),
                cond_median=float(np.median(cond2x2(jac))),
            )
        )
        if i + 1 < len(time_grid):
            t_next = time_grid[i + 1]
            n_seg = max(1, round((solver.n_steps or 1) * (t_next - t)))
            f = cfm.velocity_field(model.params, n_samples, 2)
            y, _ = integrate_fixed(f, x.ravel(), t, t_next, n_seg, solver.method)
            x = y.reshape(n_samples, 2)
    return rows


# ---------------------------------------------------------------------------
# adaptive step allocation

@dataclass
class StepSummary:
    """Accepted step sizes bucketed by start time."""

    bin_edges: np.ndarray
    counts: np.ndarray
    mean_h: np.ndarray  # nan where a bin is empty
    accepted: list  # raw (t_start, h) pairs

    def mean_h_over(self, t_lo, t_hi):
        """Mean accepted step size over start times in [t_lo, t_hi]."""
        hs = [h for t, h in self.accepted if t_lo <= t <= t_hi]
        if not hs:
            return float("nan")
        return float(np.mean(hs))


def dopri_step_summary(trace, bins=10):
    """Bucket the accepted steps of an adaptive trace into uniform time bins.

    Returns per-bin counts and mean step size plus the raw accepted pairs.
    Raises on a trace with no accepted steps.
    """
    accepted = [(s.t, s.h) for s in trace.steps if s.accepted]
    if not accepted:
        raise ValueError("trace has no accepted steps")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    t0 = accepted[0][0]
    t1 = accepted[-1][0] + accepted[-1][1]
    edges = np.linspace(t0, t1, bins + 1)
    counts = np.zeros(bins, dtype=int)
    sums = np.zeros(bins)
    for t, h in accepted:
        idx = min(int((t - t0) / (t1 - t0) * bins), bins - 1)
        counts[idx] += 1
        sums[idx] += h
    mean_h = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return StepSummary(bin_edges=edges, counts=counts, mean_h=mean_h, accepted=accepted)


# ---------------------------------------------------------------------------
# explicit-method blow-up demo

@dataclass
class DemoTrace:
    h: float
    y: np.ndarray  # y_0 .. y_N
    diverged: bool


def stability_demo(lam, h_values, t1, n_report=200):
    """Euler on y' = lam * y (lam < 0) for each step size in h_values.

    Integrates from y(0) = 1 for ceil(t1/h) steps, capped at n_report, and
    flags divergence once |y_n| exceeds 1e3 * |y_0|.  Step sizes with
    |1 + h*lam| < 1 decay; past the stability boundary the iterates blow up
    geometrically.
    """
    if lam >= 0:
        raise ValueError("demo expects a decaying field (lam < 0)")
    traces = []
    for h in h_values:
        n_steps = min(int(math.ceil(t1 / h - 1e-12)), int(n_report))
        f = VectorField(lambda t, y: lam * y)
        y = np.array([1.0])
        ys = [1.0]
        for n in range(n_steps):
            y = step_euler(f, n * h, y, h)
            ys.append(float(y[0]))
        ys = np.array(ys)
        traces.append(DemoTrace(h=h, y=ys, diverged=bool(np.any(np.abs(ys) > DIVERGENCE_FACTOR))))
    return traces
