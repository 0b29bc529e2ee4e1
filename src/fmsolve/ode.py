"""Explicit Runge-Kutta integrators built from first principles.

Four methods are provided: forward Euler (order 1), explicit midpoint
(order 2), classical RK4 (order 4) and the adaptive Dormand-Prince 5(4)
embedded pair.  Each method is only its Butcher tableau in
:data:`TABLEAUS`: one stage loop runs all of them, and their stability
polynomials come from the same coefficients, so a new explicit
fixed-step method is one more tableau.  States are float64 arrays of any
shape (the sampler's is the (n, d) batch); the right-hand side is wrapped
in a :class:`VectorField` whose evaluation counter gives the NFE cost
metric used throughout the benchmarks.
"""

from dataclasses import dataclass, field

import numpy as np

from .numeric import check_field_types, csv_text

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
    "SolverSpec",
    "StepRecord",
    "SolveTrace",
    "rk_step",
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

#: step budget of one run: the most steps a fixed-step run takes, and the
#: attempts, accepted or rejected, of an adaptive run
MAX_STEPS = 100_000
MAX_RESOLUTION = 2_000  #: grid points per axis of a stability raster


@dataclass(frozen=True)
class SolverSpec:
    """One solver run: fixed-step methods take n_steps, adaptive ones (a
    tableau with an embedded pair) take tolerances and an optional starting
    step h_init, which :meth:`to_dict` leaves out of files."""

    method: str
    n_steps: int | None = None
    atol: float = 1e-5
    rtol: float = 1e-5
    h_init: float | None = None

    def __post_init__(self):
        check_field_types(self)
        if self.method not in TABLEAUS:
            raise ValueError(f"unknown solver {self.method!r}")
        if not self.adaptive:
            if self.n_steps is None or self.n_steps < 1:
                raise ValueError(f"{self.method} needs n_steps >= 1")
            if self.n_steps > MAX_STEPS:
                raise ValueError(f"{self.method} takes at most MAX_STEPS={MAX_STEPS} steps, "
                                 f"got {self.n_steps}")
        elif not (self.atol > 0 and self.rtol > 0):
            raise ValueError("tolerances must be positive")
        # round-off alone fails an error test this tight (solve_ivp floors rtol there)
        elif max(self.atol, self.rtol) < 100 * np.finfo(float).eps:
            raise ValueError(f"atol={self.atol:g} and rtol={self.rtol:g} are both below 100*eps")
        # a zero step is "accepted" without advancing until MAX_STEPS runs out
        elif self.h_init is not None and self.h_init <= 0:
            raise ValueError(f"h_init must be positive, got {self.h_init}")

    @property
    def adaptive(self):
        return TABLEAUS[self.method].b_star is not None

    @property
    def steps_label(self):
        return "adaptive" if self.adaptive else str(self.n_steps)

    def to_dict(self):
        if self.adaptive:
            return {"method": self.method, "atol": self.atol, "rtol": self.rtol}
        return {"method": self.method, "steps": self.n_steps}

    @classmethod
    def from_dict(cls, d):
        """Inverse of :meth:`to_dict`.  Keys it would not write (steps for
        dopri5, atol/rtol for fixed-step methods, h_init) are rejected."""
        rest = dict(d)
        spec = cls(n_steps=rest.pop("steps", None), **rest)
        inapplicable = sorted(set(d) - set(spec.to_dict()))
        if inapplicable:
            raise ValueError(f"{spec.method} does not take {inapplicable}")
        return spec


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
        with np.errstate(all="ignore"):  # overflow shows in a later slope or the state
            yi = y + h * _weighted_sum(tab.a[i], k)
        k.append(_check_finite(f(t + tab.c[i] * h, yi), t, y, h, step_index))
    return k


def rk_step(tab, f, t, y, h, step_index=None):
    """One step y + h sum_i b_i k_i of the method with tableau ``tab``.

    Costs one field evaluation per stage (1 for Euler, 2 for midpoint, 4
    for RK4); ``step_index`` only labels a non-finite-stage failure.
    """
    k = _rk_stages(tab, f, t, y, h, step_index=step_index)
    with np.errstate(all="ignore"):
        return y + h * _weighted_sum(tab.b, k)


def _check_state(y, t, h, step_index):
    # the state after a step can overflow even when every stage was finite
    if not np.all(np.isfinite(y)):
        msg = f"state became non-finite at step {step_index} (t={t})"
        raise IntegrationError(msg, t=t, y=y, h=h, step_index=step_index)


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
    """Per-step log of an integration run; its NFE total is the last record's."""

    steps: list[StepRecord] = field(default_factory=list)

    @property
    def nfe_total(self):
        return self.steps[-1].nfe_cum if self.steps else 0

    @property
    def accepted_steps(self):
        return [s for s in self.steps if s.accepted]

    @property
    def n_rejected(self):
        return sum(1 for s in self.steps if not s.accepted)

    def csv_text(self):
        """The trace as CSV text with columns t,h,err,accepted,nfe_cum."""
        # float(): a run started at an integer t0 still writes 0.0
        rows = [(float(s.t), float(s.h), None if s.err is None else float(s.err),
                 int(s.accepted), s.nfe_cum) for s in self.steps]
        return csv_text(["t", "h", "err", "accepted", "nfe_cum"], rows)


def integrate_fixed(f, y0, t0, t1, n_steps, method):
    """Integrate y' = f(t, y), a :class:`VectorField`, from t0 to t1 in
    ``n_steps`` equal steps of a fixed-step ``method``, checked as
    ``SolverSpec(method, n_steps)`` (1 <= n_steps <= :data:`MAX_STEPS`)
    before the first evaluation; the state y0 may have any shape.

    Returns ``(y_final, SolveTrace)``.  NFE is n_steps times the stage count
    of the method (1, 2 or 4).
    """
    if SolverSpec(method, n_steps).adaptive:
        raise ValueError(f"integrate_fixed needs a fixed-step method, got {method!r}")
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    tab = TABLEAUS[method]

    y = np.array(y0, dtype=float)
    h = (t1 - t0) / n_steps
    nfe0 = f.nfe
    trace = SolveTrace()
    for n in range(n_steps):
        t = t0 + n * h
        y = rk_step(tab, f, t, y, h, step_index=n)
        _check_state(y, t, h, n)
        trace.steps.append(StepRecord(t=t, h=h, err=None, accepted=True, nfe_cum=f.nfe - nfe0))
    return y, trace


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4)

# Step-size controller: the next step is
# h * min(ALPHA_MAX, max(ALPHA_MIN, SAFETY * err^(-ORDER_EXPONENT))), with err
# the scaled error norm of the attempt; the standard values of Hairer, Norsett
# & Wanner, Solving ODEs I, II.4.  ORDER_EXPONENT = 1/(5+1) matches the order-5
# propagated solution, and the starting-step heuristic uses it too.
SAFETY = 0.9
ALPHA_MIN = 0.2
ALPHA_MAX = 5.0
ORDER_EXPONENT = 1.0 / 6.0

# Stiffness test of dopri5 (Hairer & Wanner, Solving ODEs II, IV.2): stages 6
# and 7 both sit at t + h, so h*|lambda| ~ h * ||k7 - k6|| / ||y5 - y6||, with
# y5 - y6 = h * sum_j (b_j - a_6j) k_j (nan when both see one state).  An
# accepted step past 3.25 (dopri5's real-axis boundary is 3.3066) is stiff; 6
# non-stiff ones in a row reset the count, and 15 stiff ones stop a run whose
# step cannot reach t1 in the attempts left.
_STIFF_H_LAMBDA, _STIFF_STEPS, _CALM_STEPS = 3.25, 15, 6
_STAGE_GAP = DOPRI5.b - DOPRI5.a[5]


# Smallest step relative to |t| the adaptive loop attempts.  Below it t + h
# carries too few significant bits of h for the error estimate to mean
# anything (Hairer, Norsett & Wanner, Solving ODEs I, II.4); a controller
# driving h there is chasing a singularity.
_H_MIN_FACTOR = 16.0 * np.finfo(float).eps


def error_norm(e, y_n, y_next, atol, rtol):
    """Scaled RMS norm of a local error estimate; inf past the float range,
    which fails the step, and 0 against a scale past it:

    sqrt( (1/d) * sum_j ( e_j / (atol + max(|y_n_j|, |y_next_j|) * rtol) )^2 )
    """
    with np.errstate(all="ignore"):
        scale = atol + np.maximum(np.abs(y_n), np.abs(y_next)) * rtol
        return float(np.sqrt(np.mean((e / scale) ** 2)))


def propose_step(h, err):
    """Controller update for the step size given the last error norm.

    err = 0 hits the ALPHA_MAX clamp (no division by zero).
    """
    if err == 0.0:
        return h * ALPHA_MAX
    return h * min(ALPHA_MAX, max(ALPHA_MIN, SAFETY * err ** -ORDER_EXPONENT))


def initial_step_guess(f, t0, y0, t1, spec, f0):
    """Initial step size for the adaptive run of the :class:`SolverSpec` spec.

    Returns spec.h_init when set.  Otherwise, with f0 = f(t0, y0) (the
    caller's first stage, already checked finite), d0 = ||y0|| and
    d1 = ||f0|| in the :func:`error_norm` of y0, a first guess
    h0 = 0.01 * d0 / d1 is refined by one trial Euler step: with
    d2 = ||f(t0+h0, y0+h0*f0) - f0|| / h0, the guess becomes
    h = min(100*h0, (0.01 / max(d1, d2))^ORDER_EXPONENT).  An (almost) flat
    field makes the guess infinite, one whose scaled norm overflows makes
    it 0; the result is always clipped to the interval length.  The trial
    costs one field evaluation unless the flat-field shortcut triggers.
    """
    span = t1 - t0
    if spec.h_init is not None:
        return min(float(spec.h_init), span)
    y0 = np.asarray(y0, dtype=float)
    d0 = error_norm(y0, y0, y0, spec.atol, spec.rtol)
    d1 = error_norm(f0, y0, y0, spec.atol, spec.rtol)
    if d1 < 1e-12:
        return span
    if d1 == np.inf:  # no step is small enough for the heuristic
        return 0.0
    h0 = 0.01 * d0 / d1 if d0 >= 1e-5 else 1e-6
    h0 = min(h0, span)
    with np.errstate(all="ignore"):  # the trial point can overflow
        y_trial = y0 + h0 * f0
    f_trial = _check_finite(f(t0 + h0, y_trial), t0, y0, h0)
    with np.errstate(all="ignore"):  # and so can the slope difference
        d2 = error_norm(f_trial - f0, y0, y0, spec.atol, spec.rtol) / h0
    h1 = (0.01 / max(d1, d2)) ** ORDER_EXPONENT
    return min(100.0 * h0, h1, span)


def integrate_dopri5(f, y0, t0, t1, spec):
    """Adaptive Dormand-Prince 5(4) integration of y' = f(t, y) as the
    adaptive :class:`SolverSpec` spec describes (ValueError for another).

    The embedded 4th-order weights give a free local error estimate; a step
    is accepted when its scaled error norm is <= 1, and the controller of
    :func:`propose_step` picks the next size.  The last stage of an accepted
    step is reused as the first stage of the next (FSAL), so an accepted or
    rejected attempt costs 6 evaluations on top of a single up-front k1.
    When no explicit spec.h_init is given the starting-step heuristic spends
    at most 1 further evaluation, so

        NFE = 1 + 6 * (accepted + rejected) (+1 for the heuristic trial).

    The final step is clipped to land on t1 exactly.  After a rejection the
    growth factor is capped at 1 up to and including the next accepted
    step, which damps accept/reject oscillation.  Raises
    :class:`IntegrationError` when :data:`MAX_STEPS` attempts are exhausted, a
    stage goes non-finite, the proposed state goes non-finite ("state
    became non-finite", as in :func:`integrate_fixed`), the step size
    underflows (h = 0 or h < 16*eps*|t|, as near a finite-time blow-up), or
    the run is "stability-bound": 15 accepted steps were stiff (see
    _STIFF_H_LAMBDA; the test costs no evaluation) and (t1 - t) / h steps
    more would pass the attempts left.  An error norm beyond the float
    range rejects the attempt.

    Returns ``(y_final, SolveTrace)``; the trace records every attempt,
    rejections included.
    """
    if not t1 > t0:
        raise ValueError(f"need t1 > t0, got [{t0}, {t1}]")
    if not spec.adaptive:
        raise ValueError(f"integrate_dopri5 needs an adaptive SolverSpec, got {spec.method!r}")
    db = DOPRI5.b - DOPRI5.b_star

    y = np.array(y0, dtype=float)
    t = t0
    nfe0 = f.nfe
    trace = SolveTrace()

    k1 = _check_finite(f(t, y), t, y)
    h = initial_step_guess(f, t0, y, t1, spec, f0=k1)

    just_rejected = False
    stiff = calm = 0  # stiff accepted steps; non-stiff ones in a row
    while t < t1:
        attempt = len(trace.steps)
        if attempt >= MAX_STEPS:
            raise IntegrationError(
                f"max_steps={MAX_STEPS} exhausted at t={t}, h={h}", t=t, y=y, h=h
            )
        if h < _H_MIN_FACTOR * abs(t) or h == 0.0:
            raise IntegrationError(
                f"step size underflow at t={t}: h={h} <= 16*eps*|t|", t=t, y=y, h=h,
                step_index=attempt,
            )
        h = min(h, t1 - t)
        is_last = h == t1 - t
        k = _rk_stages(DOPRI5, f, t, y, h, k1=k1, step_index=attempt)
        with np.errstate(all="ignore"):
            y5 = y + h * _weighted_sum(DOPRI5.b, k)
            e = h * _weighted_sum(db, k)
        _check_state(y5, t, h, attempt)
        err = error_norm(e, y, y5, spec.atol, spec.rtol)
        accepted = err <= 1.0
        trace.steps.append(
            StepRecord(t=t, h=h, err=err, accepted=accepted, nfe_cum=f.nfe - nfe0)
        )
        if accepted:
            y = y5
            t = t1 if is_last else t + h
            k1 = k[-1]  # FSAL
            with np.errstate(all="ignore"):
                h_lambda = float(np.sqrt(np.sum(np.square(k[6] - k[5]))
                                         / np.sum(np.square(_weighted_sum(_STAGE_GAP, k)))))
            calm = 0 if h_lambda > _STIFF_H_LAMBDA else calm + 1
            stiff = 0 if calm == _CALM_STEPS else stiff + (calm == 0)
            if stiff >= _STIFF_STEPS and (t1 - t) / h > MAX_STEPS - len(trace.steps):
                raise IntegrationError(
                    f"stability-bound at t={t}: h={h} (h*|lambda|={h_lambda:.3g}) cannot "
                    f"reach t1={t1} in the {MAX_STEPS - len(trace.steps)} attempts left",
                    t=t, y=y, h=h, step_index=attempt,
                )
        h_next = propose_step(h, err)
        h = min(h_next, h) if not accepted or just_rejected else h_next
        just_rejected = not accepted
    return y, trace


# ---------------------------------------------------------------------------
# stability functions

def stability_value(method, z):
    """Amplification factor R(z) of a method applied to y' = lambda*y, z = h*lambda.

    The polynomial comes from the method's Butcher tableau via
    R(z) = 1 + sum_k (b . A^(k-1) . 1) z^k: 1 + z for Euler, 1 + z + z^2/2 for
    midpoint, the exponential series truncated at order 4 for RK4, and a
    degree-6 polynomial for dopri5; ``z`` may be a scalar or an array.
    Where R(z) passes the float range, its parts are inf or nan.
    """
    if method not in TABLEAUS:
        raise ValueError(f"unknown method {method!r}")
    if np.ndim(z) == 0:
        z = complex(z)
    acc = 0j  # Horner
    with np.errstate(all="ignore"):
        for ck in TABLEAUS[method].stability_coefficients()[::-1]:
            acc = acc * z + ck
    return acc


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

    def csv_text(self):
        """CSV grid of |R|: header row carries the re axis, first column the im axis."""
        rows = ([imv] + mags.tolist() for imv, mags in zip(self.im.tolist(), self.magnitude))
        return csv_text(["im\\re"] + self.re.tolist(), rows)


def stability_region_grid(method, re_range, im_range, resolution):
    """Rasterize the stability region {z : |R(z)| <= 1} of a method.

    ``re_range`` and ``im_range`` are (min, max) pairs with min < max and
    a finite span max - min; ``resolution`` is the number of grid points
    per axis, 2 to MAX_RESOLUTION.  Where R(z) passes the float range, |R| is
    inf: outside the region.
    """
    if not 2 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be 2 to {MAX_RESOLUTION}, got {resolution}")
    for name, (lo, hi) in (("re_range", re_range), ("im_range", im_range)):
        # float(): a numpy scalar's overflowing difference would warn
        if not (lo < hi and np.isfinite(float(hi) - float(lo))):
            raise ValueError(f"{name} must be finite with min < max and a finite span, "
                             f"got ({lo}, {hi})")
    re = np.linspace(re_range[0], re_range[1], resolution)
    im = np.linspace(im_range[0], im_range[1], resolution)
    z = re[None, :] + 1j * im[:, None]
    with np.errstate(all="ignore"):
        mag = np.abs(stability_value(method, z))
    mag[np.isnan(mag)] = np.inf  # R(z) overflowed into inf - inf or inf * 0
    return StabilityRaster(method=method, re=re, im=im, magnitude=mag, inside=mag <= 1.0)
