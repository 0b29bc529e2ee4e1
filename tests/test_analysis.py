import numpy as np
import pytest

from fmsolve import cfm, nn
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
from fmsolve.ode import MAX_STEPS, IntegrationError, SolveTrace, StepRecord, VectorField


def tiny_model(seed=0, epochs=3):
    config = cfm.TrainConfig.default(
        DatasetSpec("moons", n=256, noise=0.05), seed=seed, epochs=epochs, batch_size=128,
        mlp={"hidden": 16, "n_blocks": 1, "time_embed_dim": 8},
    )
    return cfm.train(config)


def zero_field_model():
    # untrained parameters keep the zero output layer: v = 0 everywhere
    config = cfm.TrainConfig.default(
        DatasetSpec("moons", n=64), seed=0, epochs=1,
        mlp={"hidden": 8, "n_blocks": 1, "time_embed_dim": 4},
    )
    return cfm.TrainedModel(
        params=nn.init_params(config.mlp, Rng(0)), config=config,
        data_mean=np.zeros(2), data_std=np.ones(2),
    )


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

    @pytest.mark.filterwarnings("error")
    def test_distances_past_the_float_range_give_inf(self):
        a = Rng(9).normal(size=(50, 2))
        assert swd(a + 1e308, a, 8, Rng(10)) == np.inf


def w2_1d(a, b):
    # one column: every unit direction is +-1, so each slice is the plain 1D
    # W2, the root mean squared difference of the sorted samples
    return swd(np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[:, None], 4, Rng(0))


class TestSwdOneColumn:
    def test_identical_is_zero(self):
        a = [3.0, -1.0, 0.5]
        assert w2_1d(a, a) == 0.0

    def test_pure_shift(self):
        assert w2_1d([0.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_sorted_difference_formula(self):
        # direct evaluation: diffs (0-0, 0-2) -> sqrt((0+4)/2)
        assert w2_1d([0.0, 0.0], [0.0, 2.0]) == pytest.approx(np.sqrt(2.0))

    def test_unsorted_input_allowed(self):
        assert w2_1d([1.0, 0.0], [2.0, 1.0]) == pytest.approx(1.0)

    def test_symmetry_and_triangle(self):
        rng = Rng(9)
        for _ in range(100):
            a = rng.normal(size=20)
            b = rng.normal(size=20) * 2.0
            c = rng.normal(size=20) + 1.0
            dab = w2_1d(a, b)
            assert dab == pytest.approx(w2_1d(b, a), rel=1e-9, abs=1e-15)
            assert dab <= w2_1d(a, c) + w2_1d(c, b) + 1e-9

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            w2_1d([0.0], [0.0, 1.0])


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

    def test_records_the_step_size_taken(self):
        # h = 0.3 runs round(1 / 0.3) = 3 steps of 1/3: the fit sees the steps taken
        rows, slopes = convergence_study(DecayProblem(), ("euler", "rk4"),
                                         [0.3, 0.2, 0.15, 0.1, 0.07])
        assert [r.h for r in rows[:5]] == [1 / 3, 1 / 5, 1 / 7, 1 / 10, 1 / 14]
        assert slopes["rk4"] == pytest.approx(4.14, abs=0.01)
        assert slopes["euler"] == pytest.approx(1.08, abs=0.01)

    def test_needs_four_distinct_step_counts(self):
        # four distinct sizes, but 0.1 and 0.099 both run 10 steps
        with pytest.raises(ValueError, match="at least 4 distinct step counts"):
            convergence_study(DecayProblem(), ("euler",), [0.1, 0.099, 0.05, 0.025])

    def test_step_sizes_within_the_step_budget(self):
        # h = 1 / (MAX_STEPS + 1) is one Euler step past the budget
        with pytest.raises(ValueError, match="MAX_STEPS"):
            convergence_study(DecayProblem(), ("euler",), [0.1, 0.05, 0.025, 1 / (MAX_STEPS + 1)])

    def test_dopri5_error_tracks_tolerance(self):
        rows = dopri5_tolerance_study(DecayProblem(), [1e-4, 1e-6, 1e-8])
        errs = [r.global_error for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert all(r.global_error <= 10 * r.h for r in rows)


class TestJacobianFd:
    def test_linear_field_recovers_matrix(self):
        a = np.array([[0.3, -1.2], [2.0, 0.7]])
        f = VectorField(lambda t, y: y @ a.T)
        jac = jacobian_fd(f, np.array([[0.4, -0.9], [-2.0, 3.0]]), 0.0)
        assert jac.shape == (2, 2, 2)
        for j in jac:
            assert j == pytest.approx(a, abs=1e-6)

    def test_quadratic_field(self):
        f = VectorField(lambda t, y: np.stack([y[:, 1] ** 2, y[:, 0]], axis=1))
        jac = jacobian_fd(f, np.array([[0.0, 1.0]]), 0.0)
        assert jac[0] == pytest.approx(np.array([[0.0, 2.0], [1.0, 0.0]]), abs=1e-6)

    def test_constant_field_zero_jacobian(self):
        f = VectorField(lambda t, y: np.full_like(y, 3.0))
        jac = jacobian_fd(f, np.array([[5.0, 5.0]]), 0.5)
        assert np.max(np.abs(jac)) < 1e-8

    def test_batched_helper_matches_pointwise(self):
        # rows are differenced independently: each row of a batch gets the
        # Jacobian it gets alone, with its own eps
        model = tiny_model()
        x = Rng(9).normal(size=(7, 2))
        f = cfm.velocity_field(model.params)
        batched = jacobian_fd(f, x, 0.3)
        for i in range(7):
            alone = jacobian_fd(f, x[i:i + 1], 0.3)[0]
            assert batched[i] == pytest.approx(alone, rel=1e-9, abs=1e-12)

    def test_needs_a_batch_of_planar_points(self):
        f = VectorField(lambda t, y: y)
        for x in (np.zeros(2), np.zeros((4, 3))):
            with pytest.raises(ValueError, match=r"expected an \(n, 2\) batch"):
                jacobian_fd(f, x, 0.0)

    def test_non_finite_field_raises(self):
        f = VectorField(lambda t, y: np.full_like(y, np.inf))
        with pytest.raises(IntegrationError, match="non-finite field while differencing at t=0.5"):
            jacobian_fd(f, np.zeros((3, 2)), 0.5)


class TestSpectrum:
    def test_zero_field_spectrum(self):
        rows = spectrum_along_trajectory(zero_field_model(), 10, [0.0, 0.5, 1.0],
                                         cfm.SolverSpec("rk4", 10), Rng(1))
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

    @pytest.mark.parametrize("grid", [[], [0.5, 0.0]], ids=["empty", "descending"])
    def test_time_grid_must_ascend(self, grid):
        with pytest.raises(ValueError, match="non-empty ascending"):
            spectrum_along_trajectory(zero_field_model(), 5, grid, cfm.SolverSpec("rk4", 5), Rng(0))

    def test_time_grid_must_start_at_zero(self):
        # the trajectories start as Gaussian noise, the flow's state at t = 0 only
        with pytest.raises(ValueError, match="time_grid must start at 0.0, got 0.5"):
            spectrum_along_trajectory(zero_field_model(), 5, [0.5, 0.9, 1.0],
                                      cfm.SolverSpec("rk4", 5), Rng(0))

    def test_needs_a_fixed_step_solver(self):
        with pytest.raises(ValueError, match="fixed-step"):
            spectrum_along_trajectory(zero_field_model(), 5, [0.0, 1.0], cfm.SolverSpec("dopri5"),
                                      Rng(0))


class TestStepSummary:
    def test_single_step(self):
        trace = SolveTrace(steps=[StepRecord(0.0, 1.0, 0.5, True, 7)])
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

    def test_literal_trace(self):
        # four bins of width 0.25 on [0, 1]; the steps at 0.25 and 0.5 start
        # on inner edges and fall in the upper bin; the rejection is skipped
        steps = [StepRecord(0.0, 0.125, 0.5, True, 7), StepRecord(0.125, 0.125, 0.5, True, 13),
                 StepRecord(0.25, 0.25, 0.5, True, 19), StepRecord(0.5, 0.5, 2.0, False, 25),
                 StepRecord(0.5, 0.5, 0.5, True, 31)]
        s = dopri_step_summary(SolveTrace(steps=steps), bins=4)
        assert s.bin_edges.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert s.counts.tolist() == [2, 1, 1, 0]
        assert s.mean_h[:3].tolist() == [0.125, 0.25, 0.5]
        assert np.isnan(s.mean_h[3])
        assert np.isnan(s.mean_h_over(0.8, 0.9))  # no accepted step starts there

    def test_empty_trace_raises(self):
        with pytest.raises(ValueError):
            dopri_step_summary(SolveTrace(steps=[]))

    def test_bins_must_be_positive(self):
        trace = SolveTrace(steps=[StepRecord(0.0, 1.0, 0.5, True, 7)])
        with pytest.raises(ValueError, match="bins must be >= 1"):
            dopri_step_summary(trace, bins=0)


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

    def test_step_cap_when_t1_over_h_passes_the_float_range(self):
        # 1e308 / 0.1 is inf, which has no ceiling
        (tr,) = stability_demo(-15.0, [0.1], t1=1e308, n_report=50)
        assert len(tr.y) == 51

    def test_requires_decay(self):
        with pytest.raises(ValueError):
            stability_demo(1.0, [0.1], t1=1.0)

    @pytest.mark.parametrize("t1", [float("inf"), float("nan"), 0.0, -1.0])
    def test_requires_finite_positive_horizon(self, t1):
        with pytest.raises(ValueError, match="t1"):
            stability_demo(-15.0, [0.1], t1=t1)

    @pytest.mark.parametrize("h", [0.0, float("nan"), -0.1, float("inf")])
    def test_requires_finite_positive_steps(self, h):
        with pytest.raises(ValueError, match="step sizes"):
            stability_demo(-15.0, [0.1, h], t1=1.0)


class TestParetoBenchmark:
    def test_nfe_accounting_per_method(self):
        model = tiny_model(epochs=2)
        grid = [cfm.SolverSpec("euler", 10), cfm.SolverSpec("rk4", 10), cfm.SolverSpec("dopri5")]
        rows, failures = pareto_benchmark(model, grid, 64, 32, Rng(5))
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
        rows, _ = pareto_benchmark(model, grid, 64, 32, Rng(5))
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
        rows, failures = pareto_benchmark(model, grid, 16, 8, Rng(6))
        assert rows == []
        assert len(failures) == 1 and failures[0][0].method == "euler"
