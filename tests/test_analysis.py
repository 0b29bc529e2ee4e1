import numpy as np
import pytest

from fmsolve import analysis, cfm, nn
from fmsolve.analysis import (
    DecayProblem,
    convergence_study,
    dopri5_tolerance_study,
    dopri_step_summary,
    fit_loglog_slope,
    jacobian_fd,
    pareto_benchmark,
    spectrum_along_trajectory,
    stability_demo,
    swd,
)
from fmsolve.data import DatasetSpec
from fmsolve.numeric import Rng
from fmsolve.ode import SolveTrace, StepRecord, VectorField


def tiny_model(seed=0, epochs=3):
    config = cfm.TrainConfig.default(
        DatasetSpec("moons", n=256, noise=0.05), seed=seed, epochs=epochs, batch_size=128,
        mlp={"hidden": 16, "n_blocks": 1, "time_embed_dim": 8},
    )
    return cfm.train(config)


class TestSwd:
    def test_identical_batches(self):
        a = Rng(0).normal(size=(500, 2))
        assert swd(a, a, 100, Rng(1)) == 0.0

    def test_translation_matches_dense_angle_oracle(self):
        # brute-force oracle: for B = A + (a, 0), each slice contributes
        # |a cos(theta)|; the RMS over a dense uniform angle grid is a/sqrt(2)
        shift = 2.0
        thetas = np.linspace(0.0, 2 * np.pi, 100_000, endpoint=False)
        oracle = np.sqrt(np.mean((shift * np.cos(thetas)) ** 2))
        assert oracle == pytest.approx(shift / np.sqrt(2), rel=1e-9)

        a = Rng(2).normal(size=(2000, 2))
        b = a + np.array([shift, 0.0])
        val = swd(a, b, 2000, Rng(3))
        assert val == pytest.approx(oracle, rel=0.05)

    def test_symmetric_under_shared_seed(self):
        a = Rng(4).normal(size=(300, 2))
        b = Rng(5).normal(size=(300, 2)) + 1.0
        assert swd(a, b, 64, Rng(6)) == pytest.approx(swd(b, a, 64, Rng(6)), rel=1e-12)

    def test_nonnegative_and_rotation_invariant(self):
        rng = Rng(7)
        a = rng.normal(size=(1000, 2))
        b = rng.normal(size=(1000, 2)) * 1.3 + 0.2
        base = swd(a, b, 2000, Rng(8))
        assert base >= 0.0
        th = 1.1
        rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rotated = swd(a @ rot.T, b @ rot.T, 2000, Rng(8))
        assert abs(rotated - base) / base < 0.05

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            swd(np.zeros((3, 2)), np.zeros((4, 2)), 10, Rng(0))


class TestSlopeFit:
    def test_linear_errors(self):
        pairs = [(h, 3.0 * h) for h in (0.1, 0.05, 0.02, 0.01)]
        assert fit_loglog_slope(pairs) == pytest.approx(1.0, abs=1e-12)

    def test_quartic_errors(self):
        pairs = [(h, 0.7 * h**4) for h in (0.1, 0.05, 0.02, 0.01)]
        assert fit_loglog_slope(pairs) == pytest.approx(4.0, abs=1e-12)

    def test_two_point_slope(self):
        assert fit_loglog_slope([(0.1, 1e-3), (0.01, 1e-5)]) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([(0.1, 0.0), (0.01, 1e-5)])
        with pytest.raises(ValueError):
            fit_loglog_slope([(0.1, 1e-3)])


class TestConvergence:
    H_LIST = [2.0**-k for k in range(3, 11)]

    def test_orders_match_theory(self):
        _, slopes = convergence_study(DecayProblem(), ("euler", "midpoint", "rk4"), self.H_LIST)
        assert slopes["euler"] == pytest.approx(1.0, abs=0.1)
        assert slopes["midpoint"] == pytest.approx(2.0, abs=0.1)
        assert slopes["rk4"] == pytest.approx(4.0, abs=0.2)

    def test_high_dimensional_replication(self):
        _, s1 = convergence_study(DecayProblem(dim=1), ("euler", "rk4"), self.H_LIST)
        _, s100 = convergence_study(DecayProblem(dim=100), ("euler", "rk4"), self.H_LIST)
        for m in ("euler", "rk4"):
            assert s100[m] == pytest.approx(s1[m], abs=0.05)

    def test_rows_cover_grid(self):
        rows, _ = convergence_study(DecayProblem(), ("euler",), self.H_LIST)
        assert len(rows) == len(self.H_LIST)
        assert all(r.global_error >= 0 for r in rows)

    def test_needs_enough_steps(self):
        with pytest.raises(ValueError):
            convergence_study(DecayProblem(), ("euler",), [0.1, 0.1, 0.1])

    def test_dopri5_error_tracks_tolerance(self):
        rows = dopri5_tolerance_study(DecayProblem(), [1e-4, 1e-6, 1e-8])
        errs = [r.global_error for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert all(r.global_error <= 10 * r.h for r in rows)


class TestJacobianFd:
    def test_linear_field_recovers_matrix(self):
        a = np.array([[0.3, -1.2], [2.0, 0.7]])
        f = VectorField(lambda t, y: a @ y)
        jac = jacobian_fd(f, np.array([0.4, -0.9]), 0.0)
        assert jac == pytest.approx(a, abs=1e-6)

    def test_quadratic_field(self):
        f = VectorField(lambda t, y: np.array([y[1] ** 2, y[0]]))
        jac = jacobian_fd(f, np.array([0.0, 1.0]), 0.0)
        assert jac == pytest.approx(np.array([[0.0, 2.0], [1.0, 0.0]]), abs=1e-6)

    def test_constant_field_zero_jacobian(self):
        f = VectorField(lambda t, y: np.array([3.0, -1.0]))
        jac = jacobian_fd(f, np.array([5.0, 5.0]), 0.5)
        assert np.max(np.abs(jac)) < 1e-8

    def test_batched_helper_matches_pointwise(self):
        model = tiny_model()
        x = Rng(9).normal(size=(7, 2))
        batched = analysis._jacobians_batched(model.params, x, 0.3)
        for i in range(7):
            f = VectorField(lambda t, y: nn.forward(model.params, y[None, :], t)[0])
            assert batched[i] == pytest.approx(jacobian_fd(f, x[i], 0.3), rel=1e-9, abs=1e-12)


class TestSpectrum:
    def test_zero_field_spectrum(self):
        config = cfm.TrainConfig.default(
            DatasetSpec("moons", n=64), seed=0, epochs=1,
            mlp={"hidden": 8, "n_blocks": 1, "time_embed_dim": 4},
        )
        model = cfm.TrainedModel(
            params=nn.init_params(config.mlp, Rng(0)), config=config,
            data_mean=np.zeros(2), data_std=np.ones(2),
        )
        rows = spectrum_along_trajectory(model, 10, [0.0, 0.5, 1.0], cfm.SolverSpec("rk4", 10), Rng(1))
        for r in rows:
            assert r.eig1_re_mean == 0.0 and r.eig2_re_mean == 0.0
            assert r.cond_median == float("inf")

    def test_trained_model_rows(self):
        model = tiny_model(epochs=5)
        grid = list(np.linspace(0, 1, 11))
        rows = spectrum_along_trajectory(model, 20, grid, cfm.SolverSpec("rk4", 20), Rng(2))
        assert [r.t for r in rows] == pytest.approx(grid)
        assert all(np.isfinite(r.eig1_re_mean) for r in rows)

    def test_requires_2d(self):
        config = cfm.TrainConfig.default(DatasetSpec("gaussian_nd", n=32, dim=3), seed=0, epochs=1,
                                         mlp={"hidden": 8, "n_blocks": 1, "time_embed_dim": 4})
        model = cfm.TrainedModel(params=nn.init_params(config.mlp, Rng(0)), config=config,
                                 data_mean=np.zeros(3), data_std=np.ones(3))
        with pytest.raises(ValueError, match="2D"):
            spectrum_along_trajectory(model, 5, [0.0, 1.0], cfm.SolverSpec("rk4", 5), Rng(0))


class TestStepSummary:
    def test_single_step(self):
        trace = SolveTrace(steps=[StepRecord(0.0, 1.0, 0.5, True, 7)], nfe_total=7)
        s = dopri_step_summary(trace, bins=5)
        assert s.counts.sum() == 1
        assert s.mean_h[0] == 1.0

    def test_counts_conserved_and_means(self):
        model = tiny_model(epochs=4)
        _, trace = cfm.sample(model, cfm.SolverSpec("dopri5"), 64, Rng(3))
        s = dopri_step_summary(trace, bins=10)
        assert s.counts.sum() == len(trace.accepted_steps)
        assert len(s.bin_edges) == 11
        occupied = s.counts > 0
        assert np.all(np.isfinite(s.mean_h[occupied]))
        lo = s.mean_h_over(0.0, 0.2)
        assert np.isfinite(lo) and lo > 0

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            dopri_step_summary(SolveTrace(steps=[], nfe_total=0))


class TestStabilityDemo:
    def test_stable_step_decays(self):
        (tr,) = stability_demo(-15.0, [0.1], t1=4.0)
        mags = np.abs(tr.y)
        assert not tr.diverged
        assert np.all(np.diff(mags) < 0)  # |R| = 0.5, strictly decreasing
        assert mags[-1] < 1e-10

    def test_unstable_step_diverges(self):
        (tr,) = stability_demo(-15.0, [1.0 / 6.0], t1=35.0, n_report=200)
        assert tr.diverged
        assert np.max(np.abs(tr.y)) > 1e3

    def test_boundary_step_neutral(self):
        # |1 + h*lam| = 1 at h = 2/15: pure oscillation, no divergence flag
        (tr,) = stability_demo(-15.0, [2.0 / 15.0], t1=10.0, n_report=200)
        assert not tr.diverged
        assert np.max(np.abs(tr.y)) == pytest.approx(1.0)

    def test_step_cap(self):
        (tr,) = stability_demo(-15.0, [0.01], t1=100.0, n_report=50)
        assert len(tr.y) == 51

    def test_requires_decay(self):
        with pytest.raises(ValueError):
            stability_demo(1.0, [0.1], t1=1.0)


class TestParetoBenchmark:
    def test_nfe_accounting_per_method(self):
        model = tiny_model(epochs=2)
        grid = [cfm.SolverSpec("euler", 10), cfm.SolverSpec("rk4", 10), cfm.SolverSpec("dopri5")]
        rows, failures = pareto_benchmark(model, model.config.dataset, grid, 64, 32, Rng(5))
        assert not failures
        by_method = {r.method: r for r in rows}
        assert by_method["euler"].nfe == 10
        assert by_method["rk4"].nfe == 40
        assert by_method["dopri5"].steps == "adaptive"
        assert by_method["dopri5"].nfe >= 8  # true trace cost, not a step count
        assert all(r.swd >= 0 for r in rows)

    def test_repeated_spec_gives_identical_rows(self):
        # common random numbers: every spec integrates the same starts and is
        # scored on the same projections, whatever runs before it
        model = tiny_model(epochs=2)
        euler = cfm.SolverSpec("euler", 10)
        grid = [euler, cfm.SolverSpec("rk4", 10), euler]
        rows, _ = pareto_benchmark(model, model.config.dataset, grid, 64, 32, Rng(5))
        assert rows[0] == rows[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failing_spec_does_not_abort_grid(self):
        model = tiny_model(epochs=2)
        # huge weights overflow the forward pass -> integration error
        broken = tiny_model(epochs=2)
        broken.params.w_in[...] = 1e200
        broken.params.w_out[...] = 1e200
        model.params.w_in[...] = broken.params.w_in
        model.params.w_out[...] = broken.params.w_out
        grid = [cfm.SolverSpec("euler", 5)]
        rows, failures = pareto_benchmark(model, model.config.dataset, grid, 16, 8, Rng(6))
        assert rows == []
        assert len(failures) == 1 and failures[0][0].method == "euler"
