import hashlib

import numpy as np
import pytest

from fmsolve.data import DatasetSpec, component_sizes, generate
from fmsolve.numeric import Rng


class TestSpecs:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DatasetSpec("spirals")

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            DatasetSpec("moons", n=0)
        with pytest.raises(ValueError):
            DatasetSpec("moons", noise=-0.1)
        with pytest.raises(ValueError):
            DatasetSpec("gaussian_nd", dim=0)

    def test_moons_is_2d_only(self):
        with pytest.raises(ValueError):
            DatasetSpec("moons", dim=3)

    def test_dict_round_trip(self):
        for spec in (DatasetSpec("moons", n=100, noise=0.1),
                     DatasetSpec("gaussian_nd", n=50, dim=7)):
            assert DatasetSpec(**spec.to_dict()) == spec


class TestGenerate:
    def test_moons_noise_free_on_curves(self):
        spec = DatasetSpec("moons", n=101, noise=0.0)
        pts = generate(spec, Rng(0))
        n0, n1 = component_sizes(spec)
        assert (n0, n1) == (51, 50)
        outer, inner = pts[:n0], pts[n0:]
        assert np.max(np.abs(np.linalg.norm(outer, axis=1) - 1.0)) < 1e-12
        assert np.all(outer[:, 1] >= -1e-12)
        r_inner = np.linalg.norm(inner - np.array([1.0, 0.5]), axis=1)
        assert np.max(np.abs(r_inner - 1.0)) < 1e-12
        assert np.all(inner[:, 1] <= 0.5 + 1e-12)

    def test_circles_noise_free_radii(self):
        spec = DatasetSpec("circles", n=64, noise=0.0)
        pts = generate(spec, Rng(1))
        n0, _ = component_sizes(spec)
        r = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(r[:n0] - 1.0)) < 1e-12
        assert np.max(np.abs(r[n0:] - 0.5)) < 1e-12

    def test_deterministic(self):
        spec = DatasetSpec("moons", n=200, noise=0.05)
        a = generate(spec, Rng(42))
        b = generate(spec, Rng(42))
        assert a.tobytes() == b.tobytes()

    def test_gaussian_nd_shape_and_moments(self):
        pts = generate(DatasetSpec("gaussian_nd", n=20000, dim=5, noise=0.0), Rng(3))
        assert pts.shape == (20000, 5)
        assert np.max(np.abs(pts.mean(axis=0))) < 0.05
        assert np.max(np.abs(pts.var(axis=0) - 1.0)) < 0.1

    def test_noise_perturbs_points(self):
        spec_clean = DatasetSpec("circles", n=50, noise=0.0)
        pts = generate(DatasetSpec("circles", n=50, noise=0.05), Rng(9))
        r = np.linalg.norm(pts, axis=1)
        n0, _ = component_sizes(spec_clean)
        assert np.abs(r[:n0] - 1.0).max() > 1e-6  # actually noisy
        assert np.abs(r[:n0] - 1.0).max() < 0.5   # but close to the ring

    def test_odd_split_balance(self):
        for n in (1, 2, 7, 13):
            n0, n1 = component_sizes(DatasetSpec("moons", n=n))
            assert n0 + n1 == n and n0 - n1 in (0, 1)


# sha256 of the points of generate(DatasetSpec(kind, n, noise), Rng(11)),
# each written with 10 decimals: SIMD builds of numpy's sin, cos and log
# differ in the last bit between CPUs, so raw float bytes would pin the
# machine, while 10 decimals still pin every draw, its order and the arcs.
GENERATE_DIGESTS = {
    ("moons", 7, 0.0): "3a332a212d70b81f71d52817f76db005011eabe3e9b008aab354c99baf935b0f",
    ("moons", 7, 0.05): "efce8bddf57ec867c44dfeb7af72b655c7f3bc38e833c2b092fc923a20d3ea37",
    ("circles", 7, 0.0): "47838421de34bf5c5f5fc611c21fae8700d1ddbc6cb49ee059500846e74c5632",
    ("circles", 7, 0.05): "742742606d62b2859f12aadbdf16792518b970af859805cd43daf3ad7ab4c4e3",
    ("moons", 33, 0.0): "de8561fce3de52bcc5c2009b4f7eaacac4f57a8108375e1252bb081e753f7855",
    ("moons", 33, 0.05): "d93ebc8fecd132f1deb4f361f714811b1adffc30d8ec36a3b98c51796edf9c64",
    ("circles", 33, 0.0): "88c9a5cfbd9f29c55a9b5f82a5cdf952074a6bd8bf75ce5bc4e9355a88bed691",
    ("circles", 33, 0.05): "48fc23ae285234984f173fc4fc8638393fc51551b36dbdac6d344c2b74192a28",
}


@pytest.mark.parametrize("kind, n, noise", GENERATE_DIGESTS)
def test_generate_pinned(kind, n, noise):
    pts = generate(DatasetSpec(kind, n=n, noise=noise), Rng(11))
    text = ",".join(f"{v:.10f}" for v in pts.ravel())
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATE_DIGESTS[kind, n, noise]
