"""Quantitative diagnostics: SWD, convergence orders, Pareto benchmarks,
Jacobian spectra along trajectories, adaptive step summaries and the
classic Euler blow-up demonstration.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cfm, ode
from .data import generate
from .numeric import cond2x2, eig2x2, gaussian_sample
from .ode import EULER, IntegrationError, SolverSpec, VectorField, integrate_fixed, rk_step

__all__ = [
    "swd",
    "ConvergenceRow",
    "DecayProblem",
    "convergence_study",
    "dopri5_tolerance_study",
    "slope_above_floor",
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
    Finite batches whose projected distances pass the float range give inf,
    without a float warning.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"batch shapes disagree: {a.shape} vs {b.shape}")
    d = a.shape[1]
    dirs = gaussian_sample(rng, n_projections, d)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    with np.errstate(all="ignore"):
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
    """y' = lam * y with y(0) = y0 on [0, t1] for the fixed constants below,
    optionally replicated across ``dim`` identical components to exercise
    the tensor path."""

    lam = -1.0
    y0 = 1.0
    t1 = 1.0
    dim: int = 1


def convergence_study(problem, methods, h_list):
    """Global error at t1 versus step size, plus fitted log-log slopes.

    Each h runs n = max(1, round(t1 / h)) steps; its row records the step
    t1 / n taken, and at least 4 distinct n are needed.  The reference is
    the exact y0 * exp(lam * t1); each method's slope is an ordinary least
    squares fit of log error against log h above the round-off floor.

    Returns ``(rows, slopes)`` with slopes a dict method -> fitted slope.
    """
    steps = [max(1, round(problem.t1 / h)) for h in h_list]
    if len(set(steps)) < 4:
        raise ValueError("need at least 4 distinct step counts")
    rows, slopes = [], {}
    for method in methods:
        method_rows = [ConvergenceRow(method, problem.t1 / n,
                                      _global_error(problem, integrate_fixed, n, method))
                       for n in steps]
        rows += method_rows
        slopes[method] = slope_above_floor(method_rows)
    return rows, slopes


def dopri5_tolerance_study(problem, tol_list):
    """Adaptive-solver counterpart of :func:`convergence_study`: global error
    as the shared atol=rtol tolerance is swept.  Rows reuse ConvergenceRow
    with the tolerance in the h slot."""
    rows = []
    for tol in tol_list:
        # ode.integrate_dopri5 is looked up per call, as perfbench's tracer wraps it there
        err = _global_error(problem, ode.integrate_dopri5, SolverSpec("dopri5", atol=tol, rtol=tol))
        rows.append(ConvergenceRow(method="dopri5", h=tol, global_error=err))
    return rows


def _global_error(problem, integrate, *args):
    """Max-norm error of ``integrate(f, y0, 0, t1, *args)`` on the decay
    problem, against the exact solution y0 * exp(lam * t1)."""
    f = VectorField(lambda t, y: problem.lam * y)
    y_final, _ = integrate(f, np.full(problem.dim, float(problem.y0)), 0.0, problem.t1, *args)
    return float(np.max(np.abs(y_final - problem.y0 * math.exp(problem.lam * problem.t1))))


def slope_above_floor(rows):
    """:func:`fit_loglog_slope` of the ConvergenceRows with error above ERROR_FLOOR."""
    return fit_loglog_slope([(r.h, r.global_error) for r in rows if r.global_error > ERROR_FLOOR])


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


def pareto_benchmark(model, grid, n_samples, n_projections, rng):
    """One (NFE, SWD) row per solver spec, measured against a fresh draw of
    ``n_samples`` points from the model's training dataset (substream 1).

    Common random numbers: every spec integrates the same Gaussian starts
    (substream 2 of ``rng``) and is scored on the same projections
    (substream 3), so rows differ by solver only, whatever the grid order.
    A failing solver run does not abort the grid: the offending spec is
    reported in the second return value together with its error.  Reference
    points that overflow (a model file's dataset noise near the float range)
    raise :class:`IntegrationError` before any solver runs.
    """
    with np.errstate(all="ignore"):
        reference = generate(replace(model.config.dataset, n=n_samples), rng.stream_rng(1))
    if not np.isfinite(reference).all():
        raise IntegrationError(
            f"the reference points overflow at dataset noise {model.config.dataset.noise:g}")
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
    """(n, 2, 2) Jacobians of a planar field at the rows of an (n, 2) batch x,
    by central differences; ``field(t, xs)`` maps such a batch to velocities.

    Entry (i, j) is perturbed by eps = 1e-4 * (1 + |x_ij|), balancing
    truncation against round-off for fields with O(1) curvature.  Each sign
    and column is one call on all rows: 4 field evaluations, not 4n.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) batch of points, got shape {x.shape}")
    jac = np.empty((x.shape[0], 2, 2))
    for j in range(2):
        eps = 1e-4 * (1.0 + np.abs(x[:, j]))
        xp = x.copy()
        xm = x.copy()
        xp[:, j] += eps
        xm[:, j] -= eps
        fp = field(t, xp)
        fm = field(t, xm)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise IntegrationError(f"non-finite field while differencing at t={t}", t=t, y=x)
        with np.errstate(all="ignore"):  # a derivative past the float range is inf
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

    Integrates ``n_samples`` trajectories of the learned flow, in the
    network's standardized space, from Gaussian noise at t = 0 (the grid's
    first time) and at every grid time computes each sample's 2x2 Jacobian
    by central differences, its eigenvalue pair and its condition number,
    eigenvalues by descending real part ("eig1" is the slower/unstabler).

    The solver spec controls the marching between grid times; its n_steps
    budget is spread over [0, 1] proportionally to each segment length.
    A non-finite eigenvalue raises :class:`IntegrationError` naming t; an
    infinite condition number (a singular Jacobian) is a valid result.
    """
    if model.data_dim != 2:
        raise ValueError("Jacobian spectrum analysis supports 2D models only")
    time_grid = [float(t) for t in time_grid]
    if not time_grid or sorted(time_grid) != time_grid:
        raise ValueError("time_grid must be a non-empty ascending list")
    if time_grid[0] != 0.0:
        raise ValueError(f"time_grid must start at 0.0, got {time_grid[0]}")
    if solver.adaptive:
        raise ValueError("spectrum marching uses a fixed-step solver")
    x = gaussian_sample(rng, n_samples, 2)
    f = cfm.velocity_field(model.params)
    rows = []
    for i, t in enumerate(time_grid):
        jac = jacobian_fd(f, x, t)
        eig1, eig2 = eig2x2(jac)
        if not (np.isfinite(eig1).all() and np.isfinite(eig2).all()):
            raise IntegrationError(f"non-finite Jacobian eigenvalue at t={t}", t=t, y=x)
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
            n_seg = max(1, round(solver.n_steps * (t_next - t)))
            x, _ = integrate_fixed(f, x, t, t_next, n_seg, solver.method)
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
    accepted = [(s.t, s.h) for s in trace.accepted_steps]
    if not accepted:
        raise ValueError("trace has no accepted steps")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    ts, hs = np.array(accepted).T
    t0, t1 = ts[0], ts[-1] + hs[-1]
    edges = np.linspace(t0, t1, bins + 1)
    idx = np.minimum(((ts - t0) / (t1 - t0) * bins).astype(int), bins - 1)
    counts = np.bincount(idx, minlength=bins)
    sums = np.bincount(idx, weights=hs, minlength=bins)
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
    geometrically.  Every h, like t1, must be finite and > 0 (ValueError).
    """
    if lam >= 0:
        raise ValueError("demo expects a decaying field (lam < 0)")
    if not (math.isfinite(t1) and t1 > 0):
        raise ValueError(f"demo horizon t1 must be finite and > 0, got {t1}")
    traces = []
    for h in h_values:
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"demo step sizes must be finite and > 0, got h={h}")
        # min first: t1 / h may be inf, which has no ceiling
        n_steps = math.ceil(min(t1 / h - 1e-12, n_report))
        f = VectorField(lambda t, y: lam * y)
        y = np.array([1.0])
        ys = [1.0]
        for n in range(n_steps):
            y = rk_step(EULER, f, n * h, y, h)
            ys.append(float(y[0]))
        ys = np.array(ys)
        traces.append(DemoTrace(h=h, y=ys, diverged=bool(np.any(np.abs(ys) > DIVERGENCE_FACTOR))))
    return traces
