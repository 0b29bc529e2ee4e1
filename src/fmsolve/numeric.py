"""Deterministic numeric primitives shared by every other module.

Randomness policy: all stochastic code in this package draws from an
``Rng``, a thin wrapper around the counter-based Philox 4x64 bit
generator keyed by ``(seed, stream)``.  Substreams obtained with
:meth:`Rng.stream_rng` are statistically independent and reproducible, so
batched or sharded work can be re-run bit-identically; ``stream_rng`` keys
on the seed alone, so substreams do not nest.  Gaussian draws
use the trigonometric Box-Muller transform on Philox uniforms; the
transform is fixed here so every module shares one documented mapping
from uniforms to normals.

Float-error policy: overflow shows as inf or nan in a result, never as a warning.
"""

import csv
import io
import math
import numbers
import sys
import typing
from dataclasses import fields

import numpy as np

__all__ = [
    "Rng",
    "gaussian_sample",
    "eig2x2",
    "cond2x2",
    "csv_text",
    "check_field_types",
    "check_keys",
    "check_version",
]


class Rng:
    """Deterministic PRNG keyed by a 64-bit seed plus a stream index.

    Identical ``(seed, stream)`` gives an identical draw sequence on any
    platform.  An ``Rng`` is single-owner mutable state: never share one
    between concurrent consumers, hand each worker its own substream.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        key = (self.seed & 0xFFFFFFFFFFFFFFFF) | ((int(stream) & 0xFFFFFFFFFFFFFFFF) << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def stream_rng(self, stream):
        """Independent substream of the same seed (fresh state, index `stream`)."""
        return Rng(self.seed, stream)

    def uniform(self, size=None, low=0.0, high=1.0):
        """Uniform draws on [low, high)."""
        return self._gen.random(size) * (high - low) + low

    def normal(self, size):
        """Standard-normal draws of shape ``size`` via the Box-Muller transform.

        Draws pairs (u1, u2) of uniforms on (0,1] x [0,1) and maps
        z1 = sqrt(-2 ln u1) cos(2 pi u2), z2 = sqrt(-2 ln u1) sin(2 pi u2).
        """
        shape = (size,) if np.isscalar(size) else tuple(size)
        n = int(np.prod(shape)) if shape else 1
        half = (n + 1) // 2
        # 1 - random() lies in (0, 1], so the log is finite.
        u1 = 1.0 - self._gen.random(half)
        u2 = self._gen.random(half)
        r = np.sqrt(-2.0 * np.log(u1))
        z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
        return z[:n].reshape(shape)

    def integers(self, low, high, size=None):
        return self._gen.integers(low, high, size=size)

    def permutation(self, n):
        return self._gen.permutation(n)


def gaussian_sample(rng, n, d):
    """Matrix of ``n x d`` i.i.d. standard-normal draws.

    Deterministic for a fixed ``rng`` state; invalid counts are rejected.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    return rng.normal(size=(int(n), int(d)))


def eig2x2(m):
    """Both eigenvalues of a real 2x2 matrix, via the characteristic polynomial.

    Returns a pair of complex numbers ordered by descending real part,
    ties broken by descending imaginary part.  A ``(..., 2, 2)`` batch gives
    a pair of complex arrays of shape ``(...)`` instead.  Entries near the
    float range give non-finite eigenvalues, without a float warning.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(all="ignore"):
        tr = m[..., 0, 0] + m[..., 1, 1]
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        disc = tr * tr - 4.0 * det
        real = disc >= 0.0
        s = np.sqrt(np.abs(disc))
        # s >= 0, so the "+" root already has the larger real part (real roots)
        # or the positive imaginary part (complex pair): no reordering needed.
        lam1 = np.where(real, (tr + s) / 2.0, tr / 2.0).astype(complex)
        lam2 = np.where(real, (tr - s) / 2.0, tr / 2.0).astype(complex)
        lam1.imag = np.where(real, 0.0, s / 2.0)
        lam2.imag = np.where(real, 0.0, -s / 2.0)
    if m.ndim == 2:
        return complex(lam1), complex(lam2)
    return lam1, lam2


def cond2x2(m):
    """Spectral condition number sigma_max / sigma_min of a 2x2 matrix.

    Singular values come from the closed-form eigenvalues of m^T m, after
    each matrix is scaled by the power of two that brings its largest
    |entry| into [0.5, 1), which is exact and leaves the ratio as it is.
    Returns ``math.inf`` when sigma_min == 0 (rank-deficient input).  A
    ``(..., 2, 2)`` batch gives an array of shape ``(...)`` instead.  A
    non-finite entry gives inf or nan, without a float warning.
    """
    m = np.asarray(m, dtype=float)
    with np.errstate(all="ignore"):
        _, e = np.frexp(np.abs(m).max(axis=(-2, -1), keepdims=True))
        m = np.ldexp(m, -e)
        # Gram matrix is symmetric PSD; its eigenvalues are the squared singular values.
        t = m[..., 0, 0] ** 2 + m[..., 0, 1] ** 2 + m[..., 1, 0] ** 2 + m[..., 1, 1] ** 2
        d = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        s = np.sqrt(np.maximum(t * t - 4.0 * d * d, 0.0))
        smax_sq = (t + s) / 2.0
        smin_sq = np.maximum((t - s) / 2.0, 0.0)
        cond = np.where(smin_sq == 0.0, np.inf, np.sqrt(smax_sq / smin_sq))
    if m.ndim == 2:
        return float(cond)
    return cond


def csv_text(header, rows):
    """A header row and data rows as CSV text; the one renderer of every CSV.

    Floats are written as the repr of a plain float, which round-trips
    exactly; None is an empty cell; other values go through str.
    """
    buf = io.StringIO()
    w = csv.writer(buf)
    for row in [header, *rows]:
        w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# What the int and float annotations accept, so numpy scalars count too.
_NUMBER_KINDS = {int: numbers.Integral, float: numbers.Real}


def check_field_types(obj):
    """Raise ValueError if a dataclass field does not fit its annotation.

    An ``int`` field takes an integer, a ``float`` field any finite real
    number, other annotations their instances; bool is never a number, and
    None fits only a union with None.  JSON values such as 1.5, true or NaN
    would otherwise pass the range checks and fail deep inside a run, or
    not at all.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        kinds = typing.get_args(f.type) or (f.type,)
        accepted = tuple(_NUMBER_KINDS.get(kind, kind) for kind in kinds)
        if not isinstance(value, accepted) or (isinstance(value, bool) and bool not in kinds):
            expected = " or ".join(kind.__name__ for kind in kinds)
            raise ValueError(f"{type(obj).__name__}.{f.name}: expected {expected}, got {value!r}")
        # an int past the float range overflows wherever it meets a float
        too_big = isinstance(value, int) and abs(value) > sys.float_info.max
        if float in kinds and (too_big or isinstance(value, float | np.floating)
                               and not math.isfinite(value)):
            raise ValueError(f"{type(obj).__name__}.{f.name}: expected a finite number, got {value!r}")


def check_keys(d, path, required, optional=()):
    """Raise ValueError unless d is a dict with every required key and only optional others."""
    if not isinstance(d, dict):
        raise ValueError(f"{path}: expected an object")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{path}: missing required keys {missing}")
    unknown = [k for k in d if k not in required and k not in optional]
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown}")


def check_version(value, expected, path):
    """Raise ValueError unless a format_version is the integer expected."""
    # true and 1.0 compare equal to 1 but are not versions
    if type(value) is not int or value != expected:
        raise ValueError(f"{path}: unsupported format_version {value!r}")
