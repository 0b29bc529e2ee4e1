"""Deterministic 2D toy dataset generators plus a replicated Gaussian.

The arc parameterizations follow the de-facto standard toy generators so
scatter plots stay visually comparable to the usual renderings: moons are
two interleaved half circles, circles two concentric rings.  Angles are
sampled uniformly (not grid-spaced) so points are i.i.d., which the sliced
Wasserstein metric assumes.
"""

from dataclasses import dataclass

import numpy as np

from .numeric import check_field_types

__all__ = ["DatasetSpec", "generate", "component_sizes", "DATASET_KINDS"]

DATASET_KINDS = ("moons", "circles", "gaussian_nd")

DEFAULT_NOISE = 0.05


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    n: int = 2000
    noise: float = DEFAULT_NOISE
    dim: int = 2  # gaussian_nd only; moons/circles are 2D

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in DATASET_KINDS:
            raise ValueError(f"unknown dataset kind {self.kind!r}; choose from {DATASET_KINDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.kind == "gaussian_nd":
            if self.dim < 1:
                raise ValueError("dim must be >= 1")
        elif self.dim != 2:
            raise ValueError(f"{self.kind} is 2D only")

    @property
    def data_dim(self):
        return self.dim if self.kind == "gaussian_nd" else 2

    def to_dict(self):
        d = {"kind": self.kind, "n": self.n, "noise": self.noise}
        if self.kind == "gaussian_nd":
            d["dim"] = self.dim
        return d


def component_sizes(spec):
    """Points per component: (ceil(n/2), floor(n/2)) for the two-part sets,
    (n,) for gaussian_nd."""
    if spec.kind == "gaussian_nd":
        return (spec.n,)
    n0 = (spec.n + 1) // 2
    return (n0, spec.n - n0)


def generate(spec, rng):
    """Point batch for a dataset spec; byte-identical for a fixed rng state.

    Rows are ordered component-first (all first-component points, then all
    second-component points), matching :func:`component_sizes`.
    """
    if spec.kind == "gaussian_nd":
        return rng.normal(size=(spec.n, spec.dim))

    n0, _ = component_sizes(spec)
    th = rng.uniform(size=spec.n, high=np.pi if spec.kind == "moons" else 2.0 * np.pi)
    pts = np.column_stack([np.cos(th), np.sin(th)])
    if spec.kind == "moons":  # the outer half circle, then the inner one shifted and flipped
        pts[n0:] = [1.0, 0.5] - pts[n0:]
    else:  # circles: the unit ring, then the half-radius ring
        pts[n0:] *= 0.5
    if spec.noise > 0:
        pts = pts + spec.noise * rng.normal(size=pts.shape)
    return pts

