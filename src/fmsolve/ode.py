"""Explicit Runge-Kutta integrators built from first principles.

Four methods are provided: forward Euler (order 1), explicit midpoint
(order 2), classical RK4 (order 4) and the adaptive Dormand-Prince 5(4)
embedded pair.  Each method is only its Butcher tableau in
:data:`TABLEAUS`: one stage loop runs all of them, and their stability
polynomials come from the same coefficients, so a new explicit
fixed-step method is one more tableau.  All state is flat float64 arrays;
the right-hand side is wrapped in a :class:`VectorField` whose evaluation
counter gives the NFE cost metric used throughout the benchmarks.
"""

from dataclasses import dataclass, field

import numpy as np

from .numeric import write_csv

__all__ = [
    "VectorField",
    "IntegrationError",
    "ButcherTableau",
    "EULER",
    "MIDPOINT",
    "RK4",
    "DOPRI5",
    "TABLEAUS",
    "FIXED_STEP_METHODS",
    "StepRecord",
    "SolveTrace",
    "StepControlConfig",
    "step_euler",
    "step_midpoint",
    "step_rk4",
    "integrate_fixed",
    "error_norm",
    "propose_step",
    "initial_step_guess",
    "integrate_dopri5",
    "stability_value",
    "stability_region_grid",
]


class IntegrationError(RuntimeError):
    """A solver failed: non-finite state, or the step budget ran out.

    Carries the failure context so callers can report where the run died.
    """

    def __init__(self, message, t=None, y=None, h=None, step_index=None):
        super().__init__(message)
        self.t = t
        self.y = y
        self.h = h
        self.step_index = step_index


class VectorField:
    """Callable wrapper around a right-hand side f(t, y) -> dy/dt.

    Counts evaluations in ``nfe`` (one per call, regardless of how many
    trajectories a batched state packs) and hands the callee a read-only
    view of the state so f cannot mutate it.
    """

    def __init__(self, fn):
        self._fn = fn
        self.nfe = 0

    def __call__(self, t, y):
        self.nfe += 1
        view = y.view()
        view.flags.writeable = False
        out = np.asarray(self._fn(t, view), dtype=float)
        if out.shape != y.shape:
            raise ValueError(f"field output shape {out.shape} != state shape {y.shape}")
        return out


def _check_finite(value, t, y, h=None, step_index=None):
    if not np.all(np.isfinite(value)):
        raise IntegrationError(
            f"non-finite field output at t={t!r}", t=t, y=np.array(y), h=h, step_index=step_index
        )
    return value


# ---------------------------------------------------------------------------
# Butcher tableaus

@dataclass(frozen=True)
class ButcherTableau:
    """Nodes c, strictly lower-triangular coefficients A and weights b of an
    explicit RK method, plus the embedded lower-order weights b_star of an
    adaptive pair (None for fixed-step methods)."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    b_star: np.ndarray | None = None

    @property
    def n_stages(self):
        return len(self.c)

    def stability_coefficients(self):
        """Coefficients of the stability polynomial R(z) = sum c_k z^k.

        c_0 = 1 and c_k = b . A^(k-1) . 1; for an explicit s-stage scheme the
        series terminates at z^s.  Trailing zero coefficients are dropped, so
        dopri5's FSAL zero weight leaves degree 6 from its 7 stages.
        """
        s = self.n_stages
        coeffs = [1.0]
        v = np.ones(s)
        for _ in range(s):
            coeffs.append(float(self.b @ v))
            v = self.a @ v
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        return np.array(coeffs)


EULER = ButcherTableau(c=np.array([0.0]), a=np.zeros((1, 1)), b=np.array([1.0]))

# A half Euler step probes the field at the interval midpoint; the full step
# then uses that midpoint slope, matching the exact solution through order 2.
MIDPOINT = ButcherTableau(
    c=np.array([0.0, 0.5]), a=np.array([[0.0, 0.0], [0.5, 0.0]]), b=np.array([0.0, 1.0])
)

# Slopes at the endpoints and (twice) at the midpoint, with Simpson weights.
RK4 = ButcherTableau(
    c=np.array([0.0, 0.5, 0.5, 1.0]),
    a=np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]),
    b=np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]),
)


def _dopri5_tableau():
    a = np.zeros((7, 7))
    a[1, :1] = [1 / 5]
    a[2, :2] = [3 / 40, 9 / 40]
    a[3, :3] = [44 / 45, -56 / 15, 32 / 9]
    a[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
    a[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
    a[6, :6] = [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]
    c = np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1], dtype=float)
    b = np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0], dtype=float)
    b_star = np.array(
        [5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40],
        dtype=float,
    )
    return ButcherTableau(c=c, a=a, b=b, b_star=b_star)


DOPRI5 = _dopri5_tableau()

#: method name -> tableau; the one place that defines the solver names
TABLEAUS = {"euler": EULER, "midpoint": MIDPOINT, "rk4": RK4, "dopri5": DOPRI5}

#: methods without an embedded pair, run by :func:`integrate_fixed`
FIXED_STEP_METHODS = tuple(name for name, tab in TABLEAUS.items() if tab.b_star is None)


# ---------------------------------------------------------------------------
# the stage loop

def _weighted_sum(weights, k):
    # sum_j w_j k_j left to right over the nonzero weights only, so a zero
    # coefficient costs no array operation.  zip stops at the last slope
    # computed so far, which makes a full row of A usable as the weights.
    terms = [w * kj for w, kj in zip(weights.tolist(), k) if w != 0.0]
    return sum(terms[1:], terms[0])


def _rk_stages(tab, f, t, y, h, k1=None, step_index=None):
    """Stage slopes k_i = f(t + c_i h, y + h sum_j a_ij k_j) of one step.

    ``k1`` = f(t, y) is reused when the caller already has it (FSAL), which
    saves the first evaluation; otherwise every stage costs one.  Each
    slope is checked finite, a failure carrying t, y, h and step_index.
    """
    k = [_check_finite(f(t, y), t, y, h, step_index) if k1 is None else k1]
    for i in range(1, tab.n_stages):
        yi = y + h * _weighted_sum(tab.a[i], k)
        k.append(_check_finite(f(t + tab.c[i] * h, yi), t, y, h, step_index))
    return k


def _rk_step(tab, f, t, y, h, step_index=None):
    return y + h * _weighted_sum(tab.b, _rk_stages(tab, f, t, y, h, step_index=step_index))


def step_euler(f, t, y, h):
    """One forward Euler step: y + h*f(t, y).  One field evaluation."""
    return _rk_step(EULER, f, t, y, h)


def step_midpoint(f, t, y, h):
    """One explicit midpoint step.  Two field evaluations."""
    return _rk_step(MIDPOINT, f, t, y, h)


def step_rk4(f, t, y, h):
    """One classical RK4 step.  Four field evaluations."""
    return _rk_step(RK4, f, t, y, h)


# ---------------------------------------------------------------------------
# traces

@dataclass
class StepRecord:
    """One attempted step: start time, size, error norm (None for fixed-step
    runs), whether it was accepted, and the cumulative NFE afterwards."""

    t: float
    h: float
    err: float | None
    accepted: bool
    nfe_cum: int


@dataclass
class SolveTrace:
    """Per-step log of an integration run."""

    steps: list[StepRecord] = field(default_factory=list)
    nfe_total: int = 0

    @property
    def accepted_steps(self):
        return [s for s in self.steps if s.accepted]

    @property
    def n_rejected(self):
        return sum(1 for s in self.steps if not s.accepted)

    def write_csv(self, path):
        """Write the trace as CSV with columns t,h,err,accepted,nfe_cum."""
        # float(): a run started at an integer t0 still writes 0.0
        rows = [(float(s.t), float(s.h), None if s.err is None else float(s.err),
                 int(s.accepted), s.nfe_cum) for s in self.steps]
        write_csv(path, ["t", "h", "err", "accepted", "nfe_cum"], rows)


def integrate_fixed(f, y0, t0, t1, n_steps, method):
    """Integrate y' = f(t, y) from t0 to t1 with a uniform step size.

    Parameters
    ----------
    f : VectorField
    y0 : array_like, initial state (flattened to 1D internally is not done;
        any shape broadcastable under ``y + h*k`` works, 1D is canonical)
    n_steps : number of equal steps, >= 1
    method : one of :data:`FIXED_STEP_METHODS`

    Returns ``(y_final, SolveTrace)``.  NFE is n_steps times the stage count
    of the method (1, 2 or 4).
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if method not in FIXED_STEP_METHODS:
        raise ValueError(f"unknown fixed-step method {method!r}")
    tab = TABLEAUS[method]

    y = np.array(y0, dtype=float)
    h = (t1 - t0) / n_steps
    nfe0 = f.nfe
    trace = SolveTrace()
    for n in range(n_steps):
        t = t0 + n * h
        y = _rk_step(tab, f, t, y, h, step_index=n)
        if not np.all(np.isfinite(y)):
            raise IntegrationError(
                f"state became non-finite at step {n} (t={t})", t=t, y=y, h=h, step_index=n
            )
        trace.steps.append(StepRecord(t=t, h=h, err=None, accepted=True, nfe_cum=f.nfe - nfe0))
    trace.nfe_total = f.nfe - nfe0
    return y, trace


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)

@dataclass
class StepControlConfig:
    """Tolerances, optional starting step and attempt budget of the adaptive
    integrator."""

    atol: float = 1e-5
    rtol: float = 1e-5
    h_init: float | None = None
    max_steps: int = 100_000

    def __post_init__(self):
        if not (self.atol > 0 and self.rtol > 0):
            raise ValueError("tolerances must be positive")


# Step-size controller: the next step is
# h * min(ALPHA_MAX, max(ALPHA_MIN, SAFETY * err^(-1/6))), with err the scaled
# error norm of the attempt; the standard values of Hairer, Norsett & Wanner,
# Solving ODEs I, II.4.
SAFETY = 0.9
ALPHA_MIN = 0.2
ALPHA_MAX = 5.0


# Smallest step relative to |t| the adaptive loop attempts.  Below it t + h
# carries too few significant bits of h for the error estimate to mean
# anything (Hairer, Norsett & Wanner, Solving ODEs I, II.4); a controller
# driving h there is chasing a singularity.
_H_MIN_FACTOR = 16.0 * np.finfo(float).eps


def _scaled_rms(v, scale):
    return float(np.sqrt(np.mean((v / scale) ** 2)))


def error_norm(e, y_n, y_next, atol, rtol):
    """Scaled RMS norm of a local error estimate.

    sqrt( (1/d) * sum_j ( e_j / (atol + max(|y_n_j|, |y_next_j|) * rtol) )^2 )
    """
    return _scaled_rms(e, atol + np.maximum(np.abs(y_n), np.abs(y_next)) * rtol)


def propose_step(h, err):
    """Controller update for the step size given the last error norm.

    err = 0 hits the ALPHA_MAX clamp (no division by zero).
    """
    if err == 0.0:
        return h * ALPHA_MAX
    return h * min(ALPHA_MAX, max(ALPHA_MIN, SAFETY * err ** (-1.0 / 6.0)))


def initial_step_guess(f, t0, y0, t1, cfg, f0=None):
    """Initial step size for the adaptive run.

    Returns cfg.h_init when set.  Otherwise, with f0 = f(t0, y0) (evaluated
    here unless the caller passes it), d0 = ||y0|| and d1 = ||f0|| in the
    tolerance-scaled RMS norm, a first guess h0 = 0.01 * d0 / d1 is refined
    by one trial Euler step: with d2 = ||f(t0+h0, y0+h0*f0) - f0|| / h0, the
    guess becomes h = min(100*h0, (0.01 / max(d1, d2))^(1/6)), the exponent
    matching the order-5 propagating solution.  An (almost) flat field makes
    the guess infinite; the result is always clipped to the interval length.
    The trial costs one field evaluation unless the flat-field shortcut
    triggers.
    """
    if cfg.h_init is not None:
        return float(cfg.h_init)
    y0 = np.asarray(y0, dtype=float)
    if f0 is None:
        f0 = _check_finite(f(t0, y0), t0, y0)
    span = t1 - t0
    scale = cfg.atol + np.abs(y0) * cfg.rtol
    d0 = _scaled_rms(y0, scale)
    d1 = _scaled_rms(f0, scale)
    if d1 < 1e-12:
        return span
    h0 = 0.01 * d0 / d1 if d0 >= 1e-5 else 1e-6
    h0 = min(h0, span)
    f_trial = _check_finite(f(t0 + h0, y0 + h0 * f0), t0, y0, h0)
    d2 = _scaled_rms(f_trial - f0, scale) / h0
    dmax = max(d1, d2)
    if dmax <= 1e-15:
        return span
    h1 = (0.01 / dmax) ** (1.0 / 6.0)
    return min(100.0 * h0, h1, span)


def integrate_dopri5(f, y0, t0, t1, cfg):
    """Adaptive Dormand-Prince 5(4) integration of y' = f(t, y).

    The embedded 4th-order weights give a free local error estimate; a step
    is accepted when its scaled error norm is <= 1, and the controller of
    :func:`propose_step` picks the next size.  The last stage of an accepted
    step is reused as the first stage of the next (FSAL), so an accepted or
    rejected attempt costs 6 evaluations on top of a single up-front k1.
    When no explicit cfg.h_init is given the starting-step heuristic spends
    at most 1 further evaluation, so

        NFE = 1 + 6 * (accepted + rejected) (+1 for the heuristic trial).

    The final step is clipped to land on t1 exactly.  After a rejection the
    growth factor is capped at 1 until the next acceptance, which damps
    accept/reject oscillation.  Raises :class:`IntegrationError` when
    cfg.max_steps attempts are exhausted, a stage goes non-finite, or the
    step size underflows (h < 16*eps*|t|, as near a finite-time blow-up).

    Returns ``(y_final, SolveTrace)``; the trace records every attempt,
    rejections included.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    db = DOPRI5.b - DOPRI5.b_star

    y = np.array(y0, dtype=float)
    t = t0
    nfe0 = f.nfe
    trace = SolveTrace()

    k1 = _check_finite(f(t, y), t, y)
    h = min(initial_step_guess(f, t0, y, t1, cfg, f0=k1), t1 - t0)

    just_rejected = False
    while t < t1:
        attempt = len(trace.steps)
        if attempt >= cfg.max_steps:
            raise IntegrationError(
                f"max_steps={cfg.max_steps} exhausted at t={t}, h={h}", t=t, y=y, h=h
            )
        if h < _H_MIN_FACTOR * abs(t):
            raise IntegrationError(
                f"step size underflow at t={t}: h={h} < 16*eps*|t|", t=t, y=y, h=h,
                step_index=attempt,
            )
        h = min(h, t1 - t)
        is_last = h == t1 - t
        k = _rk_stages(DOPRI5, f, t, y, h, k1=k1, step_index=attempt)
        y5 = y + h * _weighted_sum(DOPRI5.b, k)
        e = h * _weighted_sum(db, k)
        _check_finite(y5, t, y, h, attempt)
        err = error_norm(e, y, y5, cfg.atol, cfg.rtol)
        accepted = err <= 1.0
        trace.steps.append(
            StepRecord(t=t, h=h, err=err, accepted=accepted, nfe_cum=f.nfe - nfe0)
        )
        h_next = propose_step(h, err)
        if accepted:
            y = y5
            t = t1 if is_last else t + h
            k1 = k[-1]  # FSAL
            if just_rejected:
                h_next = min(h_next, h)
                just_rejected = False
        else:
            just_rejected = True
            h_next = min(h_next, h)
        h = h_next
    trace.nfe_total = f.nfe - nfe0
    return y, trace


# ---------------------------------------------------------------------------
# stability functions

def _stability_polynomial(method, z):
    # Horner evaluation of R(z); z may be a complex scalar or array.
    if method not in TABLEAUS:
        raise ValueError(f"unknown method {method!r}")
    acc = 0j
    for ck in TABLEAUS[method].stability_coefficients()[::-1]:
        acc = acc * z + ck
    return acc


def stability_value(method, z):
    """Amplification factor R(z) of a method applied to y' = lambda*y, z = h*lambda.

    The polynomial comes from the method's Butcher tableau via
    R(z) = 1 + sum_k (b . A^(k-1) . 1) z^k: 1 + z for Euler, 1 + z + z^2/2 for
    midpoint, the exponential series truncated at order 4 for RK4, and a
    degree-6 polynomial for dopri5.
    """
    return _stability_polynomial(method, complex(z))


@dataclass
class StabilityRaster:
    """|R(z)| sampled on a rectangular grid; rows run over im, columns over re."""

    method: str
    re: np.ndarray
    im: np.ndarray
    magnitude: np.ndarray
    inside: np.ndarray

    def real_axis_extent(self):
        """Leftmost re with |R| <= 1 on the grid row closest to im = 0."""
        row = int(np.argmin(np.abs(self.im)))
        cols = np.nonzero(self.inside[row])[0]
        if cols.size == 0:
            return float("nan")
        return float(self.re[cols[0]])

    def write_csv(self, path):
        """CSV grid of |R|: header row carries the re axis, first column the im axis."""
        rows = ([imv] + mags for imv, mags in zip(self.im.tolist(), self.magnitude.tolist()))
        write_csv(path, ["im\\re"] + self.re.tolist(), rows)


def stability_region_grid(method, re_range, im_range, resolution):
    """Rasterize the stability region {z : |R(z)| <= 1} of a method.

    ``resolution`` is the number of grid points per axis (a single int or a
    (re, im) pair), at least 2 per axis.
    """
    if np.isscalar(resolution):
        n_re = n_im = int(resolution)
    else:
        n_re, n_im = (int(r) for r in resolution)
    if n_re < 2 or n_im < 2:
        raise ValueError("resolution must be >= 2 per axis")
    re = np.linspace(re_range[0], re_range[1], n_re)
    im = np.linspace(im_range[0], im_range[1], n_im)
    z = re[None, :] + 1j * im[:, None]
    mag = np.abs(_stability_polynomial(method, z))
    return StabilityRaster(method=method, re=re, im=im, magnitude=mag, inside=mag <= 1.0)
