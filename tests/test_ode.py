from dataclasses import fields

import numpy as np
import pytest

from fmsolve import ode
from fmsolve.numeric import Rng
from fmsolve.ode import (
    ALPHA_MAX,
    ALPHA_MIN,
    DOPRI5,
    EULER,
    FIXED_STEP_METHODS,
    MIDPOINT,
    RK4,
    SAFETY,
    TABLEAUS,
    IntegrationError,
    SolveTrace,
    SolverSpec,
    VectorField,
    error_norm,
    initial_step_guess,
    integrate_dopri5,
    integrate_fixed,
    propose_step,
    rk_step,
    stability_region_grid,
    stability_value,
)

ONE = np.array([1.0])


def decay_field(lam=-1.0):
    return VectorField(lambda t, y: lam * y)


class TestSingleSteps:
    def test_euler_decay(self):
        f = decay_field()
        assert rk_step(EULER, f, 0.0, ONE, 0.5) == pytest.approx([0.5])
        assert f.nfe == 1

    def test_euler_constant_solution(self):
        f = VectorField(lambda t, y: 0.0 * y)
        for h in (0.1, 2.0, -0.5):
            assert rk_step(EULER, f, 0.0, np.array([3.0, -1.0]), h) == pytest.approx([3.0, -1.0])

    def test_euler_stiff_input(self):
        f = decay_field(-15.0)
        assert rk_step(EULER, f, 0.0, ONE, 0.1) == pytest.approx([-0.5])

    def test_midpoint_decay(self):
        # hand evaluation: k1 = -1, k2 = -(1 - 0.25) = -0.75, y = 1 - 0.375
        f = decay_field()
        assert rk_step(MIDPOINT, f, 0.0, ONE, 0.5) == pytest.approx([0.625])
        assert f.nfe == 2

    def test_midpoint_exact_on_constants(self):
        f = VectorField(lambda t, y: np.full_like(y, 2.5))
        assert rk_step(MIDPOINT, f, 0.0, ONE, 0.3) == pytest.approx([1.75])

    def test_midpoint_exact_on_linear_time(self):
        f = VectorField(lambda t, y: np.full_like(y, t))
        assert rk_step(MIDPOINT, f, 0.0, np.array([0.0]), 1.0) == pytest.approx([0.5])

    def test_rk4_decay_matches_stability_polynomial(self):
        f = decay_field()
        expected = stability_value("rk4", -0.1).real  # 0.9048375 exactly
        assert expected == pytest.approx(0.9048375, abs=1e-15)
        assert rk_step(RK4, f, 0.0, ONE, 0.1) == pytest.approx([expected], rel=1e-15)
        assert f.nfe == 4

    def test_rk4_exact_on_cubic(self):
        f = VectorField(lambda t, y: np.full_like(y, t**3))
        assert rk_step(RK4, f, 0.0, np.array([0.0]), 1.0) == pytest.approx([0.25])

    def test_rk4_zero_field(self):
        f = VectorField(lambda t, y: 0.0 * y)
        assert rk_step(RK4, f, 0.0, np.array([7.0]), 0.4) == pytest.approx([7.0])

    def test_non_finite_output_raises_with_context(self):
        f = VectorField(lambda t, y: y * np.nan)
        with pytest.raises(IntegrationError) as exc_info:
            rk_step(EULER, f, 0.25, ONE, 0.1)
        assert exc_info.value.t == 0.25

    def test_field_cannot_mutate_state(self):
        def bad(t, y):
            y[0] = 99.0
            return y

        f = VectorField(bad)
        with pytest.raises(ValueError):
            f(0.0, ONE.copy())

    def test_field_output_shape_must_match_state(self):
        f = VectorField(lambda t, y: np.zeros(3))
        with pytest.raises(ValueError, match=r"field output shape \(3,\) != state shape \(1,\)"):
            f(0.0, ONE)


class TestIntegrateFixed:
    def test_euler_closed_form(self):
        f = decay_field()
        y, trace = integrate_fixed(f, ONE, 0.0, 1.0, 100, "euler")
        assert y[0] == pytest.approx(0.99**100, rel=1e-13)
        assert trace.nfe_total == 100

    def test_rk4_ten_steps_near_exponential(self):
        f = decay_field()
        y, _ = integrate_fixed(f, ONE, 0.0, 1.0, 10, "rk4")
        # oracle: R(-0.1)^10; its distance to exp(-1) is 3.33e-7
        oracle = stability_value("rk4", -0.1).real ** 10
        assert y[0] == pytest.approx(oracle, rel=1e-13)
        assert abs(y[0] - np.exp(-1.0)) < 4e-7

    def test_nfe_accounting(self):
        for method, per_step in (("euler", 1), ("midpoint", 2), ("rk4", 4)):
            f = decay_field()
            _, trace = integrate_fixed(f, ONE, 0.0, 1.0, 5, method)
            assert trace.nfe_total == 5 * per_step
            assert trace.steps[-1].nfe_cum == trace.nfe_total

    def test_trace_tiles_interval(self):
        f = decay_field()
        _, trace = integrate_fixed(f, ONE, 0.0, 1.0, 100, "euler")
        assert sum(s.h for s in trace.accepted_steps) == pytest.approx(1.0, abs=1e-12)
        assert all(s.err is None for s in trace.steps)

    def test_failure_carries_step_index(self):
        def blows_up(t, y):
            return y * (np.nan if t > 0.5 else -1.0)

        f = VectorField(blows_up)
        with pytest.raises(IntegrationError) as exc_info:
            integrate_fixed(f, ONE, 0.0, 1.0, 10, "euler")
        assert exc_info.value.step_index == 6

    def test_argument_validation(self):
        for t0, t1, n_steps, method in [
            (0.0, 1.0, 0, "euler"), (1.0, 0.0, 5, "euler"), (0.0, 1.0, 5, "rk5"),
            (0.0, 1.0, 5, "dopri5"), (0.0, 1.0, True, "euler"), (0.0, 1.0, 10.0, "euler"),
        ]:
            f = decay_field()
            with pytest.raises(ValueError):
                integrate_fixed(f, ONE, t0, t1, n_steps, method)
            assert f.nfe == 0

    def test_step_budget_checked_before_the_first_evaluation(self):
        # SolverSpec's budget holds for library calls too
        f = decay_field()
        with pytest.raises(ValueError, match="MAX_STEPS"):
            integrate_fixed(f, ONE, 0.0, 1.0, ode.MAX_STEPS + 1, "euler")
        assert f.nfe == 0

    def test_linear_field_matches_stability_oracle(self):
        # on y' = lam*y every fixed-step method is exactly y0 * R(h*lam)^n
        rng = Rng(2024)
        for _ in range(100):
            lam = float(rng.uniform(low=-2.0, high=0.5))
            h = float(rng.uniform(low=0.02, high=0.3))
            n = int(rng.integers(1, 60))
            for method in ("euler", "midpoint", "rk4"):
                f = decay_field(lam)
                y, _ = integrate_fixed(f, ONE, 0.0, n * h, n, method)
                ref = stability_value(method, h * lam).real ** n
                assert y[0] == pytest.approx(ref, rel=1e-12)

    def test_affine_equivariance(self):
        # solvers commute with the shift y -> y + c for shifted fields
        rng = Rng(77)
        c = rng.normal(size=3)
        y0 = rng.normal(size=3)

        def base(t, y):
            return np.sin(y) - 0.5 * y + t

        for method in ("euler", "midpoint", "rk4"):
            fa = VectorField(base)
            fb = VectorField(lambda t, y: base(t, y - c))
            ya, _ = integrate_fixed(fa, y0, 0.0, 1.0, 17, method)
            yb, _ = integrate_fixed(fb, y0 + c, 0.0, 1.0, 17, method)
            assert yb - c == pytest.approx(ya, rel=1e-12, abs=1e-12)


class TestTableau:
    @pytest.mark.parametrize("tab", TABLEAUS.values(), ids=TABLEAUS.keys())
    def test_row_consistency(self, tab):
        assert np.max(np.abs(tab.a.sum(axis=1) - tab.c)) <= 1e-15
        assert np.array_equal(tab.a, np.tril(tab.a, -1))  # explicit method

    @pytest.mark.parametrize("tab", TABLEAUS.values(), ids=TABLEAUS.keys())
    def test_weight_sums(self, tab):
        assert abs(tab.b.sum() - 1.0) <= 1e-15
        if tab.b_star is not None:
            assert abs(tab.b_star.sum() - 1.0) <= 1e-15

    @pytest.mark.parametrize(
        "method, closed_form",
        [
            ("euler", [1.0, 1.0]),  # 1 + z
            ("midpoint", [1.0, 1.0, 1 / 2]),  # 1 + z + z^2/2
            ("rk4", [1.0, 1.0, 1 / 2, 1 / 6, 1 / 24]),  # exp(z) through z^4
        ],
    )
    def test_stability_coefficients_closed_forms(self, method, closed_form):
        coeffs = TABLEAUS[method].stability_coefficients()
        assert len(coeffs) == len(closed_form)
        assert coeffs == pytest.approx(closed_form, abs=1e-15)

    def test_fsal_row(self):
        expected = np.concatenate([DOPRI5.b[:6], [0.0]])
        assert np.array_equal(DOPRI5.a[6], expected)
        assert DOPRI5.b[6] == 0.0

    def test_stability_coefficients_match_order(self):
        # an order-5 pair reproduces 1/k! through k=5; z^6 departs from exp
        coeffs = DOPRI5.stability_coefficients()
        assert len(coeffs) == 7
        facts = [1.0, 1.0, 0.5, 1 / 6, 1 / 24, 1 / 120]
        for k, fk in enumerate(facts):
            assert coeffs[k] == pytest.approx(fk, abs=1e-14)
        assert coeffs[6] == pytest.approx(1 / 600, rel=1e-12)


class TestErrorNorm:
    def test_zero_error(self):
        assert error_norm(np.zeros(3), np.ones(3), np.ones(3), 1e-5, 1e-5) == 0.0

    def test_direct_evaluation(self):
        val = error_norm(np.array([0.001]), np.array([1.0]), np.array([1.0]), 1e-5, 1e-5)
        assert val == pytest.approx(50.0)

    def test_homogeneous_in_error(self):
        rng = Rng(4)
        e = rng.normal(size=5)
        y = rng.normal(size=5)
        v1 = error_norm(e, y, y, 1e-6, 1e-4)
        v2 = error_norm(2.0 * e, y, y, 1e-6, 1e-4)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_uses_larger_state_magnitude(self):
        lo = error_norm(np.array([1.0]), np.array([0.0]), np.array([10.0]), 1.0, 1.0)
        hi = error_norm(np.array([1.0]), np.array([0.0]), np.array([0.0]), 1.0, 1.0)
        assert lo < hi

    def test_overflow_is_inf_without_a_warning(self):
        # (1e200 / 1e-200)^2 is past the float range
        assert error_norm(np.array([1e200]), np.zeros(1), np.zeros(1), 1e-200, 1e-3) == np.inf

    def test_scale_past_the_float_range_is_zero_without_a_warning(self):
        # atol + 10 * rtol overflows at rtol = 1e308: the error is nothing beside it
        assert error_norm(np.ones(2), np.full(2, 10.0), np.zeros(2), 1e308, 1e308) == 0.0


class TestProposeStep:
    def test_controller_constants(self):
        assert (SAFETY, ALPHA_MIN, ALPHA_MAX) == (0.9, 0.2, 5.0)

    def test_unit_error_applies_safety(self):
        assert propose_step(0.2, 1.0) == pytest.approx(0.2 * SAFETY)

    def test_zero_error_hits_growth_clamp(self):
        assert propose_step(0.2, 0.0) == pytest.approx(0.2 * ALPHA_MAX)

    def test_large_error_factor(self):
        # 64^(1/6) = 2, so the factor is 0.45
        assert propose_step(1.0, 64.0) == pytest.approx(0.45)

    def test_shrink_clamped_at_alpha_min(self):
        assert propose_step(1.0, 1e12) == pytest.approx(ALPHA_MIN)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverSpec("dopri5", atol=0.0)
        with pytest.raises(ValueError):
            SolverSpec("dopri5", rtol=-1e-5)

    @pytest.mark.parametrize("atol, rtol", [(1e-300, 1e-300), (1e-20, 1e-20), (1e-14, 2e-14)])
    def test_config_rejects_tolerances_below_round_off(self, atol, rtol):
        # at 1e-300 the norms overflowed into a NaN first step; at 1e-20 the
        # run spent all 100,000 attempts (600,002 NFE) before failing
        with pytest.raises(ValueError, match="100\\*eps"):
            SolverSpec("dopri5", atol=atol, rtol=rtol)

    @pytest.mark.parametrize("atol, rtol", [(1e-8, 1e-15), (1e-15, 1e-8), (1e-300, 1e-3)])
    def test_config_takes_one_tolerance_below_round_off(self, atol, rtol):
        cfg = SolverSpec("dopri5", atol=atol, rtol=rtol)
        assert (cfg.atol, cfg.rtol) == (atol, rtol)

    @pytest.mark.parametrize("bad", [{"h_init": 0.0}, {"h_init": -0.1}])
    def test_config_rejects_runs_that_cannot_advance(self, bad):
        # h_init = 0 was accepted and "advanced" by zero steps until the
        # attempt budget ran out; a negative one ended in a misleading step
        # size underflow
        with pytest.raises(ValueError):
            SolverSpec("dopri5", **bad)

    @pytest.mark.parametrize("method", FIXED_STEP_METHODS)
    def test_fixed_step_count_within_the_step_budget(self, method):
        # --steps 10**12 ran until it was killed; dopri5's attempt budget
        # bounds fixed-step runs too
        assert SolverSpec(method, ode.MAX_STEPS).n_steps == 100_000
        with pytest.raises(ValueError, match=f"^{method} takes at most MAX_STEPS=100000 steps"):
            SolverSpec(method, ode.MAX_STEPS + 1)
        with pytest.raises(ValueError, match="MAX_STEPS"):
            SolverSpec.from_dict({"method": method, "steps": 10**12})

    def test_config_fields(self):
        assert [f.name for f in fields(SolverSpec)] == [
            "method", "n_steps", "atol", "rtol", "h_init"]


class TestInitialStepGuess:
    CFG = SolverSpec("dopri5", atol=1e-5, rtol=1e-5)

    def test_explicit_override(self):
        cfg = SolverSpec("dopri5", h_init=0.01)
        assert initial_step_guess(decay_field(), 0.0, ONE, 1.0, cfg, -ONE) == 0.01

    def test_explicit_override_clips_to_interval(self):
        cfg = SolverSpec("dopri5", h_init=5.0)
        assert initial_step_guess(decay_field(), 0.0, ONE, 1.0, cfg, -ONE) == 1.0

    def test_zero_field_clips_to_interval(self):
        f = VectorField(lambda t, y: 0.0 * y)
        assert initial_step_guess(f, 0.0, ONE, 1.0, self.CFG, f(0.0, ONE)) == 1.0

    def test_stiff_field_gets_small_step(self):
        f = decay_field(-15.0)
        h = initial_step_guess(f, 0.0, ONE, 1.0, self.CFG, f(0.0, ONE))
        assert 0.0 < h <= 0.1

    def test_non_finite_trial_raises(self):
        # an infinite trial slope would otherwise yield h = 0 and a run that
        # never advances
        f = VectorField(lambda t, y: y * (np.inf if t > 0.0 else -1.0))
        with pytest.raises(IntegrationError):
            initial_step_guess(f, 0.0, ONE, 1.0, self.CFG, f(0.0, ONE))

    def test_trial_point_past_the_float_range_is_quiet(self):
        # y0 + h0 * f0 overflows to inf; a constant field is finite there,
        # so the guess stands, without a float warning
        f = VectorField(lambda t, y: np.full_like(y, 1e306))
        y0 = np.full((1, 2), 1.79e308)
        h = initial_step_guess(f, 0.0, y0, 1.0, SolverSpec("dopri5"), f(0.0, y0))
        assert 0.0 < h < 1.0

    def test_trial_difference_past_the_float_range_is_a_zero_step(self):
        # both slopes are finite, but f_trial - f0 = 2e308 overflows: the guess
        # is 0, and dopri5 reports the step size, without a float warning
        f = VectorField(lambda t, y: np.full_like(y, 1e308 if t > 0.0 else -1e308))
        spec = SolverSpec("dopri5", atol=1e300)
        assert initial_step_guess(f, 0.0, ONE, 1.0, spec, f(0.0, ONE)) == 0.0
        with pytest.raises(IntegrationError, match=r"^step size underflow at t=0\.0: h=0\.0"):
            integrate_dopri5(f, ONE, 0.0, 1.0, spec)


class TestDopri5:
    CFG = SolverSpec("dopri5", atol=1e-5, rtol=1e-5)

    def test_fixed_step_spec_rejected(self):
        # dopri5 at the default tolerances must not stand in for the rk4 run asked for
        with pytest.raises(ValueError, match="adaptive SolverSpec, got 'rk4'"):
            integrate_dopri5(decay_field(), ONE, 0.0, 1.0, SolverSpec("rk4", 10))

    def test_decay_accuracy(self):
        f = decay_field()
        y, trace = integrate_dopri5(f, ONE, 0.0, 1.0, self.CFG)
        err = abs(y[0] - np.exp(-1.0))
        assert err <= 1e-5
        # fewer evaluations than Euler needs for the same accuracy: n Euler
        # steps on y' = -y give (1 - 1/n)^n (test_euler_closed_form) for n
        # evaluations, and the n found here is past MAX_STEPS
        n_euler = 40
        while n_euler < 2_000_000 and abs((1 - 1 / n_euler) ** n_euler - np.exp(-1.0)) > err:
            n_euler *= 2
        assert trace.nfe_total < n_euler

    def test_accepted_steps_tile_and_pass(self):
        f = decay_field()
        _, trace = integrate_dopri5(f, ONE, 0.0, 1.0, self.CFG)
        acc = trace.accepted_steps
        assert sum(s.h for s in acc) == pytest.approx(1.0, abs=1e-12)
        assert all(s.err <= 1.0 for s in acc)
        assert acc[0].t == 0.0
        assert acc[-1].t + acc[-1].h == pytest.approx(1.0, abs=1e-15)

    def test_fsal_nfe_accounting(self):
        f = decay_field()
        _, trace = integrate_dopri5(f, ONE, 0.0, 1.0, self.CFG)
        # 1 up-front stage + 1 heuristic trial + 6 per attempt
        assert trace.nfe_total == 2 + 6 * len(trace.steps)

    def test_fsal_nfe_with_explicit_h_init(self):
        f = decay_field()
        _, trace = integrate_dopri5(f, ONE, 0.0, 1.0, SolverSpec("dopri5", h_init=0.1))
        assert trace.nfe_total == 1 + 6 * len(trace.steps)

    def test_constant_field_single_accepted_step(self):
        f = VectorField(lambda t, y: 0.0 * y)
        y, trace = integrate_dopri5(f, np.array([4.25]), 0.0, 1.0, self.CFG)
        assert y[0] == 4.25
        assert [s.accepted for s in trace.steps] == [True]
        hs = [s.h for s in trace.steps]
        assert hs == sorted(hs)  # monotone growth up to the clamp

    def test_rejection_shrinks_step(self):
        # a kink at t=0.5 forces at least one rejection at loose first steps
        def kinky(t, y):
            return -y * (1.0 + 1000.0 * (t > 0.5))

        f = VectorField(kinky)
        _, trace = integrate_dopri5(f, ONE, 0.0, 1.0, SolverSpec("dopri5", atol=1e-8, rtol=1e-8))
        rejected = [i for i, s in enumerate(trace.steps) if not s.accepted]
        assert rejected, "expected at least one rejection"
        for i in rejected:
            if i + 1 < len(trace.steps):
                assert trace.steps[i + 1].h < trace.steps[i].h

    def test_no_growth_right_after_a_rejection(self):
        # the first step accepted after a rejection is followed by an attempt
        # no larger than itself; later accepted steps may grow again
        f = VectorField(lambda t, y: -y * (1.0 + 1000.0 * (t > 0.5)))
        _, trace = integrate_dopri5(f, ONE, 0.0, 1.0, SolverSpec("dopri5", atol=1e-8, rtol=1e-8))
        steps = trace.steps
        recovered = [i for i in range(1, len(steps) - 1)
                     if steps[i].accepted and not steps[i - 1].accepted]
        assert recovered, "expected an acceptance right after a rejection"
        for i in recovered:
            assert steps[i + 1].h <= steps[i].h
        grew = [i for i in range(1, len(steps) - 1)
                if steps[i].accepted and steps[i - 1].accepted and steps[i + 1].h > steps[i].h]
        assert grew, "growth is capped only right after a rejection"

    def test_max_steps_exhaustion(self, monkeypatch):
        monkeypatch.setattr(ode, "MAX_STEPS", 10)
        f = decay_field(-1e6)
        cfg = SolverSpec("dopri5", atol=1e-12, rtol=1e-12)
        with pytest.raises(IntegrationError, match="max_steps=10 exhausted at t=") as exc_info:
            integrate_dopri5(f, ONE, 0.0, 1.0, cfg)
        assert exc_info.value.t is not None and exc_info.value.h is not None

    def test_stability_bound_run_stops_promptly(self):
        # at y' = -1e7 y the step is held at dopri5's stability boundary,
        # h ~ 3.3e-7, and t1 is 3 million attempts away: the stiffness test
        # stops the run, which took all 100,000 attempts (600,002 NFE)
        f = decay_field(-1e7)
        with pytest.raises(IntegrationError, match=r"^stability-bound at t=") as exc_info:
            integrate_dopri5(f, ONE, 0.0, 1.0, self.CFG)
        assert exc_info.value.step_index < 100
        assert f.nfe <= 2 + 6 * 100

    def test_stability_bound_run_within_the_budget_finishes(self, monkeypatch):
        # y' = -1e4 y is held at the boundary as well (h ~ 3.3e-4), but t1 is
        # about 3,100 attempts away: the run stops only on a smaller budget
        _, trace = integrate_dopri5(decay_field(-1e4), ONE, 0.0, 1.0, self.CFG)
        assert 3000 < len(trace.steps) < 3200
        monkeypatch.setattr(ode, "MAX_STEPS", 2000)
        with pytest.raises(IntegrationError, match=r"^stability-bound at t=") as exc_info:
            integrate_dopri5(decay_field(-1e4), ONE, 0.0, 1.0, self.CFG)
        assert exc_info.value.step_index < 100

    def test_needs_t1_after_t0(self):
        for t1 in (0.0, -1.0):
            with pytest.raises(ValueError, match="need t1 > t0"):
                integrate_dopri5(decay_field(), ONE, 0.0, t1, self.CFG)

    def test_tolerances_at_the_float_range_edge(self):
        # the tolerance scale overflows, so every norm is 0: one step spans
        # the interval, and the starting-step heuristic needs no trial
        f = decay_field()
        y, trace = integrate_dopri5(f, np.array([2.0, -3.0]), 0.0, 1.0,
                                    SolverSpec("dopri5", atol=1e308, rtol=1e308))
        assert [(s.h, s.accepted) for s in trace.steps] == [(1.0, True)]
        assert trace.nfe_total == 7
        assert y == pytest.approx(np.array([2.0, -3.0]) * np.exp(-1.0), rel=1e-2)

    def test_step_size_underflow_stops_promptly(self):
        # y' = y^2, y(0) = 1.01 blows up at t = 1/1.01: h collapses towards the
        # pole and must be reported as an underflow long before t + h == t
        f = VectorField(lambda t, y: y * y)
        with pytest.raises(IntegrationError, match="underflow") as exc_info:
            integrate_dopri5(f, np.array([1.01]), 0.0, 1.0, self.CFG)
        assert f.nfe <= 2000
        assert exc_info.value.t == pytest.approx(1 / 1.01, abs=1e-3)

    def test_overflowing_error_norm_rejects_the_attempt(self, monkeypatch):
        # an atol-dominated norm of a field of size 1e200: every error norm
        # overflows, so each attempt is rejected with the largest shrink
        monkeypatch.setattr(ode, "MAX_STEPS", 10)
        f = VectorField(lambda t, y: np.full_like(y, 1e200 * t**5))
        cfg = SolverSpec("dopri5", atol=1e-8, rtol=1e-300, h_init=0.5)
        with pytest.raises(IntegrationError, match="max_steps") as exc_info:
            integrate_dopri5(f, ONE, 0.0, 1.0, cfg)
        assert exc_info.value.t == 0.0
        assert exc_info.value.h == pytest.approx(0.5 * ALPHA_MIN**10)

    def test_overflowing_field_norm_stops_before_a_step(self):
        # a field norm past the float range leaves the starting-step
        # heuristic at 0, so no step is tried; its trial step divided by 0
        f = VectorField(lambda t, y: np.full_like(y, 1e200))
        with pytest.raises(IntegrationError, match="underflow"):
            integrate_dopri5(f, ONE, 0.0, 1.0, SolverSpec("dopri5", atol=1e-8, rtol=1e-300))
        assert f.nfe == 1

    def test_non_finite_stage_raises(self):
        f = VectorField(lambda t, y: y * (np.inf if t > 0.1 else -1.0))
        with pytest.raises(IntegrationError):
            integrate_dopri5(f, ONE, 0.0, 1.0, self.CFG)

    def test_state_overflow_names_the_state(self):
        # every field output is finite; only y + h * sum(b_i k_i) overflows,
        # and both integrators say so in the same words, without a float warning
        big = np.array([1.5e308])
        f = VectorField(lambda t, y: np.full_like(y, 1.5e308))
        with pytest.raises(IntegrationError, match=r"^state became non-finite at step 0 \(t=0\.0\)"):
            integrate_dopri5(f, big, 0.0, 1.0, SolverSpec("dopri5", h_init=0.5))
        with pytest.raises(IntegrationError, match=r"^state became non-finite at step 0 \(t=0\.0\)"):
            integrate_fixed(f, big, 0.0, 1.0, 2, "euler")

    def test_affine_equivariance(self):
        # shift-independent control settings: an explicit h_init and an
        # atol-dominated norm, since rtol scales with |y| and would otherwise
        # steer the two runs onto different step sequences
        c = np.array([2.0, -3.0])

        def base(t, y):
            return np.cos(y) - y

        fa = VectorField(base)
        fb = VectorField(lambda t, y: base(t, y - c))
        y0 = np.array([0.3, 1.1])
        cfg = SolverSpec("dopri5", atol=1e-8, rtol=1e-15, h_init=0.05)
        ya, tra = integrate_dopri5(fa, y0, 0.0, 1.0, cfg)
        yb, trb = integrate_dopri5(fb, y0 + c, 0.0, 1.0, cfg)
        assert len(tra.steps) == len(trb.steps)
        assert yb - c == pytest.approx(ya, rel=1e-12, abs=1e-12)


class TestTraceCsv:
    HEADER = b"t,h,err,accepted,nfe_cum\r\n"

    def test_adaptive_trace_bytes(self):
        # an integer t0 still writes its first start time as a float
        cfg = SolverSpec("dopri5", atol=1e-3, rtol=1e-3, h_init=0.5)
        _, trace = integrate_dopri5(decay_field(), ONE, 0, 1, cfg)
        assert trace.csv_text().encode() == self.HEADER + (
            b"0.0,0.5,0.015332031250000697,1,7\r\n0.5,0.5,0.01157699955725824,1,13\r\n"
        )

    def test_fixed_step_trace_has_empty_err(self):
        _, trace = integrate_fixed(decay_field(), ONE, 0, 1, 2, "midpoint")
        assert trace.csv_text().encode() == self.HEADER + (
            b"0.0,0.5,,1,2\r\n0.5,0.5,,1,4\r\n"
        )

    @pytest.mark.parametrize("method", TABLEAUS)
    def test_nfe_total_is_read_from_the_records(self, method):
        f = decay_field()
        if method == "dopri5":
            _, trace = integrate_dopri5(f, ONE, 0.0, 1.0, SolverSpec(method))
        else:
            _, trace = integrate_fixed(f, ONE, 0.0, 1.0, 5, method)
        assert trace.nfe_total == trace.steps[-1].nfe_cum == f.nfe
        with pytest.raises(AttributeError):
            trace.nfe_total = 0
        assert SolveTrace().nfe_total == 0


class TestStability:
    def test_euler_boundary_value(self):
        assert stability_value("euler", -2.0) == -1.0

    def test_r_at_origin_is_one(self):
        for m in ("euler", "midpoint", "rk4", "dopri5"):
            assert stability_value(m, 0.0) == 1.0

    def test_rk4_real_axis_reach(self):
        assert 0.99 <= abs(stability_value("rk4", -2.78)) <= 1.01

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            stability_value("heun", 0.0)

    @pytest.mark.parametrize("method", sorted(TABLEAUS))
    def test_array_matches_scalar_calls_and_grid(self, method):
        r = stability_region_grid(method, (-3, 1), (-2, 2), 9)
        z = r.re[None, :] + 1j * r.im[:, None]
        values = stability_value(method, z)
        assert values.shape == z.shape
        scalar = [[stability_value(method, zk) for zk in row] for row in z.tolist()]
        # numpy's vectorized complex product may round differently from
        # Python's in the last bit, so elementwise agreement is to 1e-14
        np.testing.assert_allclose(values, np.array(scalar), rtol=1e-14, atol=1e-15)
        assert np.array_equal(np.abs(values), r.magnitude)

    def test_grid_contains_euler_disk_center(self):
        r = stability_region_grid("euler", (-3, 1), (-2, 2), 81)
        i = int(np.argmin(np.abs(r.im)))
        j = int(np.argmin(np.abs(r.re + 1.0)))
        assert r.inside[i, j]

    def test_positive_real_axis_outside(self):
        for m in ("euler", "midpoint", "rk4", "dopri5"):
            r = stability_region_grid(m, (-3, 2), (-2, 2), 41)
            i = int(np.argmin(np.abs(r.im)))
            j = int(np.argmin(np.abs(r.re - 1.0)))
            assert not r.inside[i, j]
            # no cell of re in [1, 2] is inside, so there is no extent
            assert np.isnan(stability_region_grid(m, (1, 2), (-1, 1), 11).real_axis_extent())

    def test_rk4_extent_matches_known_boundary(self):
        r = stability_region_grid("rk4", (-5, 2), (-4, 4), 281)
        cell = r.re[1] - r.re[0]
        assert abs(r.real_axis_extent() - (-2.78)) <= cell

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            stability_region_grid("euler", (-1, 1), (-1, 1), 1)
        # past the ceiling: rejected before the raster is allocated
        with pytest.raises(ValueError, match=f"resolution must be 2 to {ode.MAX_RESOLUTION}"):
            stability_region_grid("euler", (-1, 1), (-1, 1), ode.MAX_RESOLUTION + 1)

    @pytest.mark.parametrize(
        "re_range, im_range",
        [((3, -3), (-1, 1)), ((-1, 1), (1, 1)), ((np.nan, 1), (-1, 1)), ((-1, 1), (-1, np.inf)),
         ((-1e308, 1e308), (-1, 1))],
        ids=["reversed", "empty", "nan", "inf", "span-overflow"],
    )
    def test_range_validation(self, re_range, im_range):
        with pytest.raises(ValueError, match="must be finite with min < max"):
            stability_region_grid("euler", re_range, im_range, 5)

    def test_values_past_the_float_range_lie_outside(self):
        # |R(z)| of rk4 passes the float range at |z| = 5e99: inf, not nan
        r = stability_region_grid("rk4", (-1e100, 1e100), (-1, 1), 5)
        far = r.magnitude[:, [0, 1, 3, 4]]
        assert np.isinf(far).all() and not r.inside[:, [0, 1, 3, 4]].any()
        assert r.inside[2, 2]  # z = 0

    def test_raster_csv_exact_bytes(self):
        r = stability_region_grid("euler", (-2, 0), (-1, 1), 3)
        assert r.csv_text().encode() == (
            b"im\\re,-2.0,-1.0,0.0\r\n"
            b"-1.0,1.4142135623730951,1.0,1.4142135623730951\r\n"
            b"0.0,1.0,0.0,1.0\r\n"
            b"1.0,1.4142135623730951,1.0,1.4142135623730951\r\n"
        )

    def test_raster_csv_round_trip(self):
        r = stability_region_grid("euler", (-3, 1), (-2, 2), 9)
        lines = r.csv_text().strip().splitlines()
        assert lines[0].startswith("im\\re,")
        assert len(lines) == 10
        first_data = lines[1].split(",")
        assert float(first_data[0]) == -2.0
        assert float(first_data[1]) == abs(stability_value("euler", complex(-3, -2)))
