"""Deterministic numeric primitives shared by every other module.

Randomness policy: all stochastic code in this package draws from an
``Rng``, a thin wrapper around the counter-based Philox 4x64 bit
generator keyed by ``(seed, stream)``.  Substreams obtained with
:meth:`Rng.stream` are statistically independent and reproducible, so
batched or sharded work can be re-run bit-identically.  Gaussian draws
use the trigonometric Box-Muller transform on Philox uniforms; the
transform is fixed here so every module shares one documented mapping
from uniforms to normals.
"""

import csv

import numpy as np

__all__ = [
    "Rng",
    "gaussian_sample",
    "eig2x2",
    "cond2x2",
    "wasserstein2_1d",
    "write_csv",
]


class Rng:
    """Deterministic PRNG keyed by a 64-bit seed plus a stream index.

    Identical ``(seed, stream)`` gives an identical draw sequence on any
    platform.  An ``Rng`` is single-owner mutable state: never share one
    between concurrent consumers, hand each worker its own substream.
    """

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        key = (self.seed & 0xFFFFFFFFFFFFFFFF) | ((self.stream & 0xFFFFFFFFFFFFFFFF) << 64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def stream_rng(self, stream):
        """Independent substream of the same seed (fresh state, index `stream`)."""
        return Rng(self.seed, stream)

    def uniform(self, size=None, low=0.0, high=1.0):
        """Uniform draws on [low, high)."""
        return self._gen.random(size) * (high - low) + low

    def normal(self, size=None):
        """Standard-normal draws via the Box-Muller transform.

        Draws pairs (u1, u2) of uniforms on (0,1] x [0,1) and maps
        z1 = sqrt(-2 ln u1) cos(2 pi u2), z2 = sqrt(-2 ln u1) sin(2 pi u2).
        """
        if size is None:
            return self.normal(size=1)[0]
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
    a pair of complex arrays of shape ``(...)`` instead.
    """
    m = np.asarray(m, dtype=float)
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

    Singular values come from the closed-form eigenvalues of m^T m.
    Returns ``math.inf`` when sigma_min == 0 (rank-deficient input).  A
    ``(..., 2, 2)`` batch gives an array of shape ``(...)`` instead.
    """
    m = np.asarray(m, dtype=float)
    # Gram matrix is symmetric PSD; its eigenvalues are the squared singular values.
    t = m[..., 0, 0] ** 2 + m[..., 0, 1] ** 2 + m[..., 1, 0] ** 2 + m[..., 1, 1] ** 2
    d = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    s = np.sqrt(np.maximum(t * t - 4.0 * d * d, 0.0))
    smax_sq = (t + s) / 2.0
    smin_sq = np.maximum((t - s) / 2.0, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(smin_sq == 0.0, np.inf, np.sqrt(smax_sq / smin_sq))
    if m.ndim == 2:
        return float(cond)
    return cond


def wasserstein2_1d(a, b):
    """W2 distance between two equal-weight 1D empirical measures.

    Root mean squared difference of the sorted order statistics.  The
    inputs need not be sorted; lengths must match.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise ValueError(f"sample sizes differ: {a.size} != {b.size}")
    if a.size == 0:
        raise ValueError("need at least one sample")
    diff = np.sort(a) - np.sort(b)
    return float(np.sqrt(np.mean(diff * diff)))


def write_csv(path, header, rows):
    """Write a header row and data rows as CSV; the one writer of every CSV.

    Floats are written as the repr of a plain float, which round-trips
    exactly; None is an empty cell; other values go through str.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        for row in [header, *rows]:
            w.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
