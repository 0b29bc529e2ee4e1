import csv

import numpy as np
import pytest

from fmsolve.data import DatasetSpec, component_sizes, export_csv, generate
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
            assert DatasetSpec.from_dict(spec.to_dict()) == spec


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


class TestExportCsv:
    def test_exact_bytes(self, tmp_path):
        # integer-valued and tiny coordinates still come out as full float reprs
        path = tmp_path / "moons.csv"
        export_csv(DatasetSpec("moons", n=3), [[0.5, -1], [2, 3e-20], [1 / 3, 0.1]], path)
        assert path.read_bytes() == (
            b"x0,x1,label\r\n0.5,-1.0,0\r\n2.0,3e-20,0\r\n0.3333333333333333,0.1,1\r\n"
        )

    def test_labeled_two_component_export(self, tmp_path):
        spec = DatasetSpec("moons", n=9, noise=0.0)
        pts = generate(spec, Rng(0))
        path = tmp_path / "moons.csv"
        export_csv(spec, pts, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "x1", "label"]
        labels = [r[2] for r in rows[1:]]
        assert labels == ["0"] * 5 + ["1"] * 4
        assert float(rows[1][0]) == pts[0, 0]  # full-precision round trip

    def test_gaussian_export_has_no_label(self, tmp_path):
        spec = DatasetSpec("gaussian_nd", n=4, dim=3, noise=0.0)
        pts = generate(spec, Rng(1))
        path = tmp_path / "g.csv"
        export_csv(spec, pts, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x0", "x1", "x2"]
        assert len(rows) == 5
