"""The benchmark's workloads: set-up, one operation sequence, output checks.

Every workload drives fmsolve only through its public API.  The workload
seed decides every input: the training seed of the models, the Gaussian
starts of every sample and the reference draw for SWD.  The library never
sees the seed in any other form.

A sequence is the list of library calls one workload makes; the run repeats
it for the measuring time.  Each call is one attempted operation.  It fails
when it raises IntegrationError or TrainingError, or when an output check
fails.  The checks are:

* NFE identity on every sampling call: fixed-step NFE is steps x 1/2/4,
  dopri5 NFE is 1 + 6 * attempts, plus 1 for the starting-step heuristic;
* points, losses and spectra are finite;
* SWD of the rk4 points is below ``Sizes.swd_bound``;
* the last epoch's loss is below the first epoch's;
* ``load_model(save_model(m))`` gives back bit-identical arrays;
* every repetition of set-up and of the sequence hashes to the same
  parameters, points and step traces as the first one.
"""

import hashlib
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Rng streams of the workload seed.  The training streams 0-2 belong to
# cfm.train; the benchmark draws from its own.
STREAM_SAMPLE = 10
STREAM_REFERENCE = 11
STREAM_SWD = 12
STREAM_SPECTRUM = 13

NFE_PER_STEP = {"euler": 1, "midpoint": 2, "rk4": 4}
WARMUP_STEPS = 4

# Leftmost real-axis point of each stability region (Hairer & Wanner).
STABILITY_EXTENT = {"euler": -2.0, "midpoint": -2.0, "rk4": -2.7853, "dopri5": -3.3066}
CONVERGENCE_ORDER = {"euler": 1.0, "midpoint": 2.0, "rk4": 4.0}
ORDER_TOLERANCE = 0.25


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  FULL is the benchmark; SMOKE runs the same code on a
    toy network in about a second."""

    mlp: dict = field(default_factory=dict)  # MlpConfig overrides; {} is the 256x4 default
    dataset_n: int = 2000
    train_epochs: int = 4
    fixture_epochs: int = 5
    setup_reps: int = 3
    sample_n: int = 2000
    rk4_steps: int = 20
    sample_tol: float = 1e-3
    swd_projections: int = 200
    swd_bound: float = 0.5
    traj_n: int = 64
    traj_tol: float = 1e-7
    spectrum_samples: int = 200
    spectrum_times: int = 11
    spectrum_steps: int = 50
    study_dim: int = 100
    study_h: tuple = tuple(2.0**-e for e in range(3, 11))
    study_tols: tuple = tuple(10.0**-e for e in range(3, 11))
    stability_box: tuple = ((-5.0, 2.0), (-4.0, 4.0))
    stability_resolution: int = 281


FULL = Sizes()
SMOKE = Sizes(
    mlp={"hidden": 16, "n_blocks": 1, "time_embed_dim": 8},
    dataset_n=256,
    train_epochs=3,
    fixture_epochs=3,
    setup_reps=2,
    sample_n=128,
    rk4_steps=4,
    swd_bound=3.0,
    traj_n=16,
    traj_tol=1e-4,
    spectrum_samples=16,
    spectrum_times=3,
    spectrum_steps=4,
    study_dim=4,
    study_h=(0.25, 0.125, 0.0625, 0.03125),
    study_tols=(1e-3, 1e-5),
    stability_resolution=41,
)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


def params_digest(params):
    return digest(*(arr for _, arr in params.named()))


def trace_digest(trace):
    rows = [(s.t, s.h, math.nan if s.err is None else s.err, s.accepted, s.nfe_cum)
            for s in trace.steps]
    return digest(np.array(rows, dtype=float), [trace.nfe_total])


def nfe_problem(trace, method, n_steps=None, h_init=None):
    """Why a solve trace breaks the NFE identity, or None when it holds."""
    if method == "dopri5":
        expected = 1 + 6 * len(trace.steps) + (0 if h_init is not None else 1)
    else:
        if len(trace.steps) != n_steps:
            return f"{method}: {len(trace.steps)} steps recorded, {n_steps} requested"
        expected = n_steps * NFE_PER_STEP[method]
    if trace.nfe_total != expected:
        return f"{method}: NFE {trace.nfe_total} != expected {expected}"
    return None


class Ledger:
    """Counts attempted and failed operations and keeps the failure reasons."""

    def __init__(self, library_errors):
        self.library_errors = library_errors
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, name, fn, *args):
        """Run one library call; returns (result, seconds), result None on failure."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except self.library_errors as exc:
            self.fail(name, f"{type(exc).__name__}: {exc}")
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def fail(self, name, problem):
        self.failed += 1
        self.problems.append(f"{name}: {problem}")

    def check(self, name, problems):
        problems = [p for p in problems if p]
        if problems:
            self.fail(name, "; ".join(problems))


def finite(what, *arrays):
    ok = all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)
    return None if ok else f"non-finite {what}"


class Workload:
    """Set-up and one operation sequence; subclasses fill in the library calls."""

    name = ""
    unit = ""  # what ms_per_unit divides by

    def __init__(self, fm, sizes, seed, scratch_dir):
        self.fm = fm
        self.sizes = sizes
        self.seed = seed
        self.scratch_dir = scratch_dir
        self.ledger = Ledger((fm.IntegrationError, fm.cfm.TrainingError))
        self.reference_hashes = {}

    def train_config(self, epochs):
        fm = self.fm
        dataset = fm.DatasetSpec("moons", n=self.sizes.dataset_n)
        return fm.TrainConfig.default(dataset, seed=self.seed, epochs=epochs, mlp=dict(self.sizes.mlp))

    def rng(self, stream):
        return self.fm.Rng(self.seed, stream)

    def same_as_first(self, key, value):
        """Determinism check: every repetition must reproduce the first hash."""
        first = self.reference_hashes.setdefault(key, value)
        return None if first == value else f"{key} hash {value} != first {first}"

    def train_fixture(self, name, epochs):
        """Train a model with the code under test and check it."""
        fm = self.fm
        model, seconds = self.ledger.call(name, fm.cfm.train, self.train_config(epochs))
        if model is None:
            raise RuntimeError(f"{name} failed: {self.ledger.problems[-1]}")
        curve = model.loss_curve
        self.ledger.check(name, [
            finite("loss", curve),
            None if len(curve) < 2 or curve[-1] < curve[0]
            else f"final loss {curve[-1]} not below first epoch loss {curve[0]}",
            self.same_as_first(name + ".params", params_digest(model.params)),
        ])
        return model, seconds

    def setup(self):
        """One repetition of set-up; returns the seconds it took."""
        raise NotImplementedError

    def sequence(self):
        """One pass over the operation sequence.

        Returns a dict with the ``ops`` seconds per call, the ``units`` of
        work done (optimizer steps or NFE) and reported ``values``; None when
        a call failed.
        """
        raise NotImplementedError

    def sample_checked(self, name, model, solver, n):
        """cfm.sample plus the NFE identity, finiteness and determinism checks."""
        fm = self.fm
        out, seconds = self.ledger.call(name, fm.cfm.sample, model, solver, n, self.rng(STREAM_SAMPLE))
        if out is None:
            return None, seconds
        points, trace = out
        if solver.method == "dopri5":
            problem = nfe_problem(trace, "dopri5", h_init=None)
        else:
            problem = nfe_problem(trace, solver.method, n_steps=solver.n_steps)
        self.ledger.check(name, [
            problem,
            finite("points", points),
            self.same_as_first(name + ".points", digest(points)),
            self.same_as_first(name + ".trace", trace_digest(trace)),
        ])
        return (points, trace), seconds

    def record_hashes(self):
        return dict(sorted(self.reference_hashes.items()))


class Train(Workload):
    """cfm.train on the default moons config, then save_model and load_model."""

    name = "train"
    unit = "optimizer step"

    def steps_per_call(self):
        batches = -(-self.sizes.dataset_n // self.train_config(1).batch_size)
        return self.sizes.train_epochs * batches

    def setup(self):
        # Warm the training path once (allocator, BLAS buffers) at batch 256.
        _, seconds = self.train_fixture("setup.train", 1)
        return seconds

    def sequence(self):
        fm = self.fm
        ledger = self.ledger
        model, train_s = self.train_fixture("cfm.train", self.sizes.train_epochs)
        path = os.path.join(self.scratch_dir, f"model-{self.seed}.json")
        _, save_s = ledger.call("cfm.save_model", fm.cfm.save_model, model, path)
        model_bytes = os.path.getsize(path)
        loaded, load_s = ledger.call("cfm.load_model", fm.cfm.load_model, path)
        os.remove(path)
        if loaded is None:
            return None
        ledger.check("cfm.load_model", [
            None if params_digest(loaded.params) == params_digest(model.params)
            else "loaded parameters differ from the saved ones",
            None if digest(loaded.data_mean, loaded.data_std, loaded.loss_curve)
            == digest(model.data_mean, model.data_std, model.loss_curve)
            else "loaded standardization or loss curve differs",
            None if loaded.config == model.config else "loaded config differs",
        ])
        return {
            "ops": {"cfm.train": train_s, "cfm.save_model": save_s, "cfm.load_model": load_s},
            "units": self.steps_per_call(),
            "unit_s": train_s,
            "values": {"final_loss": model.final_loss, "model_bytes": model_bytes},
        }

    def specific(self, seqs):
        return {
            "ms_per_step": median(s["unit_s"] / s["units"] for s in seqs) * 1e3,
            "final_loss": seqs[0]["values"]["final_loss"],
        }


class FixtureWorkload(Workload):
    """Workloads that sample a fixture model trained during set-up."""

    fixture = None

    def warm_batches(self):
        """Batch sizes whose first network calls set-up takes out of the timing."""
        raise NotImplementedError

    def setup(self):
        self.fixture, seconds = self.train_fixture("setup.fixture", self.sizes.fixture_epochs)
        # The first few forwards at a new batch size run up to twice as slow
        # (allocator growth, first-touch page faults).
        for n in self.warm_batches():
            _, warm_s = self.sample_checked(f"setup.warmup.n{n}", self.fixture,
                                            self.fm.SolverSpec("euler", WARMUP_STEPS), n)
            seconds += warm_s
        return seconds


class Sample(FixtureWorkload):
    """Large-batch inference: rk4 and dopri5 at n=2000, then SWD against the data."""

    name = "sample"
    unit = "NFE"

    def warm_batches(self):
        return (self.sizes.sample_n,)

    def sequence(self):
        fm = self.fm
        sz = self.sizes
        ledger = self.ledger
        rk4, rk4_s = self.sample_checked("cfm.sample.rk4", self.fixture,
                                         fm.SolverSpec("rk4", sz.rk4_steps), sz.sample_n)
        dopri, dopri_s = self.sample_checked(
            "cfm.sample.dopri5", self.fixture,
            fm.SolverSpec("dopri5", atol=sz.sample_tol, rtol=sz.sample_tol), sz.sample_n)
        dataset = fm.DatasetSpec("moons", n=sz.sample_n)
        reference, generate_s = ledger.call("data.generate", fm.data.generate, dataset,
                                            self.rng(STREAM_REFERENCE))
        if rk4 is None or dopri is None or reference is None:
            return None
        dist, swd_s = ledger.call("analysis.swd", fm.analysis.swd, rk4[0], reference,
                                  sz.swd_projections, self.rng(STREAM_SWD))
        ledger.check("analysis.swd", [
            finite("swd", dist),
            None if dist < sz.swd_bound else f"swd {dist} >= bound {sz.swd_bound}",
        ])
        nfe = rk4[1].nfe_total + dopri[1].nfe_total
        return {
            "ops": {"cfm.sample.rk4": rk4_s, "cfm.sample.dopri5": dopri_s,
                    "data.generate": generate_s, "analysis.swd": swd_s},
            "units": nfe,
            "unit_s": rk4_s + dopri_s,
            "values": {"swd": dist, "dopri5_nfe": dopri[1].nfe_total,
                       "dopri5_attempts": len(dopri[1].steps),
                       "dopri5_rejected": dopri[1].n_rejected},
        }

    def specific(self, seqs):
        return {
            "ms_per_nfe": median(s["unit_s"] / s["units"] for s in seqs) * 1e3,
            "dopri5_s": median(s["ops"]["cfm.sample.dopri5"] for s in seqs),
            "swd": seqs[0]["values"]["swd"],
            "final_loss": self.fixture.final_loss,
        }


class Trajectory(FixtureWorkload):
    """Many small calls: dopri5 at n=64 and tight tolerance, the Jacobian
    spectrum, and the analytic-field studies."""

    name = "trajectory"
    unit = "NFE"

    def warm_batches(self):
        return (self.sizes.traj_n, self.sizes.spectrum_samples)

    def sequence(self):
        fm = self.fm
        sz = self.sizes
        ledger = self.ledger
        dopri, dopri_s = self.sample_checked(
            "cfm.sample.dopri5", self.fixture,
            fm.SolverSpec("dopri5", atol=sz.traj_tol, rtol=sz.traj_tol), sz.traj_n)
        grid = list(np.linspace(0.0, 1.0, sz.spectrum_times))
        rows, spectrum_s = ledger.call(
            "analysis.spectrum", fm.analysis.spectrum_along_trajectory, self.fixture,
            sz.spectrum_samples, grid, fm.SolverSpec("rk4", sz.spectrum_steps),
            self.rng(STREAM_SPECTRUM))
        studies_s, studies_ok = self.studies()
        if dopri is None or rows is None or not studies_ok:
            return None
        values = np.array([list(vars(r).values()) for r in rows], dtype=float)
        ledger.check("analysis.spectrum", [
            finite("spectrum", values),
            self.same_as_first("analysis.spectrum.rows", digest(values)),
        ])
        return {
            "ops": {"cfm.sample.dopri5": dopri_s, "analysis.spectrum": spectrum_s,
                    "analysis.studies": studies_s},
            "units": dopri[1].nfe_total,
            "unit_s": dopri_s,
            "values": {"dopri5_nfe": dopri[1].nfe_total, "dopri5_attempts": len(dopri[1].steps),
                       "dopri5_rejected": dopri[1].n_rejected},
        }

    def studies(self):
        """Convergence orders, dopri5 tolerance sweep and stability rasters of
        the analytic decay problem; returns (seconds, all calls succeeded)."""
        fm = self.fm
        sz = self.sizes
        ledger = self.ledger
        problem = fm.analysis.DecayProblem(dim=sz.study_dim)
        out, conv_s = ledger.call("analysis.convergence_study", fm.analysis.convergence_study,
                                  problem, tuple(CONVERGENCE_ORDER), sz.study_h)
        if out is None:
            return conv_s, False
        slopes = out[1]
        ledger.check("analysis.convergence_study", [
            None if abs(slopes[m] - order) <= ORDER_TOLERANCE
            else f"{m} slope {slopes[m]:.3f}, expected {order}"
            for m, order in CONVERGENCE_ORDER.items()
        ])
        rows, tol_s = ledger.call("analysis.dopri5_tolerance_study",
                                  fm.analysis.dopri5_tolerance_study, problem, sz.study_tols)
        if rows is None:
            return conv_s + tol_s, False
        errors = [r.global_error for r in rows]
        ledger.check("analysis.dopri5_tolerance_study", [
            finite("global error", errors),
            None if errors[-1] < errors[0] else f"error {errors[-1]} at the tightest tolerance "
                                                 f"not below {errors[0]} at the loosest",
        ])
        (re_lo, re_hi), im_box = sz.stability_box
        spacing = (re_hi - re_lo) / (sz.stability_resolution - 1)
        stab_s = 0.0
        for method, extent in STABILITY_EXTENT.items():
            raster, seconds = ledger.call("ode.stability_region_grid", fm.ode.stability_region_grid,
                                          method, (re_lo, re_hi), im_box, sz.stability_resolution)
            stab_s += seconds
            if raster is None:
                return conv_s + tol_s + stab_s, False
            got = raster.real_axis_extent()
            ledger.check("ode.stability_region_grid", [
                None if abs(got - extent) <= 2 * spacing
                else f"{method} real-axis extent {got}, expected {extent}",
            ])
        return conv_s + tol_s + stab_s, True

    def specific(self, seqs):
        return {
            "ms_per_nfe": median(s["unit_s"] / s["units"] for s in seqs) * 1e3,
            "dopri5_s": median(s["ops"]["cfm.sample.dopri5"] for s in seqs),
            "spectrum_s": median(s["ops"]["analysis.spectrum"] for s in seqs),
            "final_loss": self.fixture.final_loss,
        }


WORKLOADS = {cls.name: cls for cls in (Train, Sample, Trajectory)}


def median(values):
    return statistics.median(list(values))
