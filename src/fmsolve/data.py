"""Deterministic 2D toy dataset generators plus a replicated Gaussian.

The arc parameterizations follow the de-facto standard toy generators so
scatter plots stay visually comparable to the usual renderings: moons are
two interleaved half circles, circles two concentric rings.  Angles are
sampled uniformly (not grid-spaced) so points are i.i.d., which the sliced
Wasserstein metric assumes.
"""

from dataclasses import dataclass

import numpy as np

from .numeric import write_csv

__all__ = ["DatasetSpec", "generate", "component_sizes", "export_csv", "DATASET_KINDS"]

DATASET_KINDS = ("moons", "circles", "gaussian_nd")

DEFAULT_NOISE = 0.05


@dataclass(frozen=True)
class DatasetSpec:
    kind: str
    n: int = 2000
    noise: float = DEFAULT_NOISE
    dim: int = 2  # gaussian_nd only; moons/circles are 2D

    def __post_init__(self):
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

    @classmethod
    def from_dict(cls, d):
        return cls(**d)


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

    n0, n1 = component_sizes(spec)
    if spec.kind == "moons":
        th0 = rng.uniform(size=n0, low=0.0, high=np.pi)
        th1 = rng.uniform(size=n1, low=0.0, high=np.pi)
        outer = np.column_stack([np.cos(th0), np.sin(th0)])
        inner = np.column_stack([1.0 - np.cos(th1), 0.5 - np.sin(th1)])
        pts = np.concatenate([outer, inner], axis=0)
    else:  # circles
        th0 = rng.uniform(size=n0, low=0.0, high=2.0 * np.pi)
        th1 = rng.uniform(size=n1, low=0.0, high=2.0 * np.pi)
        ring0 = np.column_stack([np.cos(th0), np.sin(th0)])
        ring1 = 0.5 * np.column_stack([np.cos(th1), np.sin(th1)])
        pts = np.concatenate([ring0, ring1], axis=0)
    if spec.noise > 0:
        pts = pts + spec.noise * rng.normal(size=pts.shape)
    return pts


def export_csv(spec, points, path):
    """Write a generated point batch as x0..x{d-1}[,label].

    The label column (component index, matching the row order of
    :func:`generate`) is emitted for the two-component datasets only.
    """
    points = np.asarray(points, dtype=float)
    sizes = component_sizes(spec)
    header = [f"x{i}" for i in range(points.shape[1])]
    rows = points.tolist()
    if len(sizes) == 2:
        if points.shape[0] != spec.n:
            raise ValueError(f"expected {spec.n} rows for {spec.kind}, got {points.shape[0]}")
        header.append("label")
        rows = [row + [label] for row, label in zip(rows, [0] * sizes[0] + [1] * sizes[1])]
    write_csv(path, header, rows)
