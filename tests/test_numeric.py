import numpy as np
import pytest

from fmsolve.cfm import TrainConfig
from fmsolve.data import DatasetSpec
from fmsolve.nn import MlpConfig
from fmsolve.numeric import Rng, cond2x2, csv_text, eig2x2, gaussian_sample
from fmsolve.ode import SolverSpec


class TestRng:
    def test_gaussian_moments(self):
        x = gaussian_sample(Rng(42), 100_000, 2)
        assert np.all(np.abs(x.mean(axis=0)) < 0.02)
        assert np.all(np.abs(x.var(axis=0) - 1.0) < 0.05)

    def test_determinism_byte_identical(self):
        a = gaussian_sample(Rng(7), 1, 3)
        b = gaussian_sample(Rng(7), 1, 3)
        assert a.tobytes() == b.tobytes()

    def test_substreams_differ(self):
        a = gaussian_sample(Rng(7, stream=0), 4, 4)
        b = gaussian_sample(Rng(7, stream=1), 4, 4)
        assert not np.array_equal(a, b)

    def test_substream_matches_direct_construction(self):
        assert np.array_equal(Rng(3).stream_rng(9).normal(size=8), Rng(3, 9).normal(size=8))

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            gaussian_sample(Rng(0), 0, 2)
        with pytest.raises(ValueError):
            gaussian_sample(Rng(0), 2, 0)

    def test_uniform_range(self):
        u = Rng(1).uniform(size=1000, low=-2.0, high=3.0)
        assert u.min() >= -2.0 and u.max() < 3.0


class TestEig2x2:
    def test_identity(self):
        assert eig2x2(np.eye(2)) == (1 + 0j, 1 + 0j)

    def test_rotation_is_conjugate_pair(self):
        lam1, lam2 = eig2x2([[0.0, -1.0], [1.0, 0.0]])
        assert lam1 == 1j and lam2 == -1j

    def test_symmetric(self):
        lam1, lam2 = eig2x2([[2.0, 1.0], [1.0, 2.0]])
        assert lam1 == pytest.approx(3.0) and lam2 == pytest.approx(1.0)

    def test_trace_det_invariants(self):
        rng = Rng(123)
        batch = np.array([rng.normal(size=(2, 2)) * 3.0 for _ in range(1000)])
        batch1, batch2 = eig2x2(batch)
        assert batch1.shape == batch2.shape == (1000,)
        for i, m in enumerate(batch):
            lam1, lam2 = eig2x2(m)
            assert (batch1[i], batch2[i]) == (lam1, lam2)  # batch matches per-matrix
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            scale = max(abs(tr), abs(det), 1.0)
            assert abs((lam1 + lam2) - tr) <= 1e-12 * scale
            assert abs((lam1 * lam2) - det) <= 1e-12 * scale

    def test_ordering_descending(self):
        lam1, lam2 = eig2x2([[1.0, 0.0], [0.0, 5.0]])
        assert lam1.real >= lam2.real

    def test_batch_matches_special_cases(self):
        ms = np.array([np.eye(2), [[0.0, -1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 2.0]], np.zeros((2, 2))])
        lam1, lam2 = eig2x2(ms.reshape(2, 2, 2, 2))
        assert lam1.shape == (2, 2)
        assert list(zip(lam1.ravel(), lam2.ravel())) == [eig2x2(m) for m in ms]

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_range_give_non_finite_values_quietly(self):
        lam1, lam2 = eig2x2([[1e155, 1.0], [1.0, -1e155]])
        assert not (np.isfinite(lam1) and np.isfinite(lam2))


class TestCond2x2:
    def test_identity(self):
        assert cond2x2(np.eye(2)) == 1.0

    def test_diagonal(self):
        assert cond2x2([[3.0, 0.0], [0.0, 1.0]]) == pytest.approx(3.0)

    def test_singular_is_inf(self):
        assert cond2x2([[1.0, 0.0], [0.0, 0.0]]) == float("inf")
        assert cond2x2(np.zeros((2, 2))) == float("inf")
        batch = np.array([[[1.0, 0.0], [0.0, 0.0]], np.zeros((2, 2)), np.eye(2)])
        assert cond2x2(batch).tolist() == [float("inf"), float("inf"), 1.0]

    @pytest.mark.filterwarnings("error")
    def test_entries_near_the_float_range_scale_away(self):
        # the Gram terms of the raw entries overflowed: inf - inf gave nan for
        # a singular matrix and for a symmetric one whose eigenvalues are +-r
        assert cond2x2([[1.0, 1e200], [0.0, 0.0]]) == float("inf")
        assert cond2x2([[1e155, 1.0], [1.0, -1e155]]) == 1.0
        assert cond2x2([[1e300, 0.0], [0.0, 1e299]]) == pytest.approx(10.0)
        assert np.isnan(cond2x2([[np.nan, 0.0], [0.0, 1.0]]))

    def test_at_least_one_and_scale_invariant(self):
        rng = Rng(5)
        batch = np.array([rng.normal(size=(2, 2)) for _ in range(300)])
        batch_cond = cond2x2(batch)
        assert batch_cond.shape == (300,)
        for m, cb in zip(batch, batch_cond):
            c = cond2x2(m)
            assert cb == c  # batch matches per-matrix
            assert c >= 1.0
            if np.isfinite(c):
                for s in (2.0, -0.5, 1e3):
                    assert cond2x2(s * m) == pytest.approx(c, rel=1e-9)


class TestFieldTypes:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: SolverSpec("rk4", 2.5),
            lambda: DatasetSpec("moons", n=True),
            lambda: MlpConfig(hidden=2.5),
            lambda: DatasetSpec("moons", noise=False),
            lambda: DatasetSpec(7),
            lambda: MlpConfig(hidden=None),
            lambda: SolverSpec("dopri5", atol="1e-5"),
        ],
        ids=["fractional-steps", "bool-count", "fractional-hidden", "bool-number",
             "int-for-str", "none-for-int", "str-for-float"],
    )
    def test_wrong_type_raises_value_error(self, build):
        with pytest.raises(ValueError, match="expected"):
            build()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DatasetSpec("moons", noise=float("nan")),
            lambda: TrainConfig.default(DatasetSpec("moons"), seed=0, lr=float("inf")),
            lambda: SolverSpec("dopri5", atol=-float("inf")),
            lambda: SolverSpec("dopri5", h_init=float("nan")),
            lambda: SolverSpec("dopri5", rtol=np.float32("nan")),
            lambda: TrainConfig.default(DatasetSpec("moons"), seed=0, lr=10**400),
        ],
        ids=["nan-noise", "inf-lr", "minus-inf-atol", "nan-optional", "numpy-nan",
             "int-past-floats"],
    )
    def test_non_finite_float_raises_value_error(self, build):
        with pytest.raises(ValueError, match="expected a finite number"):
            build()

    def test_numpy_scalars_and_optional_none_accepted(self):
        assert DatasetSpec("moons", n=np.int64(64), noise=np.float32(0.5)).n == 64
        assert SolverSpec("dopri5", atol=1, rtol=np.float64(1e-4)).n_steps is None
        assert MlpConfig(hidden=np.int32(5)).hidden == 5
        assert SolverSpec("dopri5", h_init=None).h_init is None


class TestWriteCsv:
    def test_exact_bytes(self):
        # integer-valued and tiny floats still come out as full float reprs,
        # numpy floats as plain ones, ints via str and None as an empty cell
        rows = [[0.5, -1.0, 0], [2.0, 3e-20, 0], [1 / 3, np.float64(0.1), 1], [None, 4.0, 2]]
        assert csv_text(["x0", "x1", "label"], rows).encode() == (
            b"x0,x1,label\r\n0.5,-1.0,0\r\n2.0,3e-20,0\r\n0.3333333333333333,0.1,1\r\n"
            b",4.0,2\r\n"
        )
