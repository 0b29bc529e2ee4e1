import copy
import hashlib
import io
import json
import random
import tracemalloc

import numpy as np
import pytest

from fmsolve import analysis, cfm, nn
from fmsolve.data import DatasetSpec, generate
from fmsolve.numeric import Rng, gaussian_sample


def tiny_config(seed=0, kind="moons", **overrides):
    defaults = dict(
        epochs=overrides.pop("epochs", 5),
        batch_size=overrides.pop("batch_size", 64),
        mlp=overrides.pop("mlp", {"hidden": 16, "n_blocks": 1, "time_embed_dim": 8}),
    )
    dataset = DatasetSpec(kind, n=overrides.pop("n", 256), noise=0.05,
                          **({"dim": 2} if kind == "gaussian_nd" else {}))
    return cfm.TrainConfig.default(dataset, seed=seed, **defaults, **overrides)


def first_train_batch(data, rng, batch_size):
    # the pairing train uses: a slice of the epoch's permutation of the rows
    return cfm._pairs(data[rng.permutation(data.shape[0])[:batch_size]], rng)


def default_size_model():
    """The 256x4 default network, untrained, with its file's other entries."""
    config = cfm.TrainConfig.default(DatasetSpec("moons", n=512), seed=3, epochs=2, mlp={})
    return cfm.TrainedModel(params=nn.init_params(config.mlp, Rng(0)), config=config,
                            data_mean=np.array([0.5, 0.25]), data_std=np.array([0.875, 0.5]),
                            loss_curve=[1.25, 0.75])


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBatches:
    def test_interpolation_identities_bitwise(self):
        data = Rng(1).normal(size=(100, 2))
        batch = first_train_batch(data, Rng(2), 32)
        tt = batch.t[:, None]
        assert np.array_equal(batch.x_t, (1.0 - tt) * batch.x0 + tt * batch.x1)
        assert np.array_equal(batch.u_t, batch.x1 - batch.x0)
        # rearranged identity holds up to one rounding of the subtraction
        assert batch.u_t + batch.x0 == pytest.approx(batch.x1, rel=1e-15, abs=1e-15)

    def test_endpoint_semantics(self):
        # the interpolation formula pins t=0 to x0 and t=1 to x1 exactly
        x0 = Rng(3).normal(size=(8, 2))
        x1 = Rng(4).normal(size=(8, 2))
        for t, expect in ((0.0, x0), (1.0, x1)):
            x_t = (1.0 - t) * x0 + t * x1
            assert np.array_equal(x_t, expect)

    def test_batch_shapes_and_validation(self):
        data = Rng(1).normal(size=(50, 3))
        batch = first_train_batch(data, Rng(2), 17)
        assert batch.x_t.shape == (17, 3)
        assert np.all((batch.t >= 0) & (batch.t < 1))
        with pytest.raises(ValueError):
            tiny_config(batch_size=0)


# sha256 of the parameters and loss curve of TestTrain.test_train_pinned's model
TRAIN_DIGEST = "b0268a360ec306f55387a68314906bce8d2bdbedbed4d4eca7157c1ad6d8bfad"


class TestTrain:
    def test_loss_decreases_on_moons(self):
        model = cfm.train(tiny_config(seed=1, epochs=30, n=1024, batch_size=256,
                                      mlp={"hidden": 32, "n_blocks": 2, "time_embed_dim": 8}))
        assert model.loss_curve[-1] < model.loss_curve[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(epochs=0)
        with pytest.raises(ValueError):
            cfm.TrainConfig(
                dataset=DatasetSpec("gaussian_nd", n=10, dim=3),
                mlp=nn.MlpConfig(data_dim=2, hidden=4, n_blocks=1, time_embed_dim=2),
            )

    def test_optimizer_step_ceiling(self):
        # 10**30 epochs trained until the process was killed
        with pytest.raises(ValueError, match=r"train\.epochs=.* ceiling of 10000000$"):
            cfm.TrainConfig.default(DatasetSpec("moons"), epochs=10**30)
        at = cfm.MAX_TRAIN_STEPS // 8  # ceil(2000 / 256) = 8 steps an epoch
        assert cfm.TrainConfig.default(DatasetSpec("moons"), epochs=at).epochs == at
        with pytest.raises(ValueError, match="train.epochs"):
            cfm.TrainConfig.default(DatasetSpec("moons"), epochs=at + 1)

    def test_deterministic_loss_curves(self):
        a = cfm.train(tiny_config(seed=7))
        b = cfm.train(tiny_config(seed=7))
        assert a.loss_curve == b.loss_curve
        for (_, x), (_, y) in zip(a.params.named(), b.params.named()):
            assert np.array_equal(x, y)

    def test_different_seeds_differ(self):
        a = cfm.train(tiny_config(seed=1, epochs=2))
        b = cfm.train(tiny_config(seed=2, epochs=2))
        assert a.loss_curve != b.loss_curve

    def test_train_pinned(self):
        # 3 epochs over 160 points: two 64-row batches and a 32-row one;
        # values with 10 decimals as in test_generate_pinned, a rounded zero
        # without its sign
        model = cfm.train(tiny_config(seed=7, epochs=3, n=160,
                                      mlp={"hidden": 8, "n_blocks": 2, "time_embed_dim": 4}))
        text = ",".join(f"{v:.10f}" for v in [*model.params.flat, *model.loss_curve])
        text = text.replace("-0.0000000000", "0.0000000000")
        assert hashlib.sha256(text.encode()).hexdigest() == TRAIN_DIGEST

    @pytest.mark.filterwarnings("error")  # the overflow is reported by the error alone
    def test_nonfinite_loss_aborts_with_location(self):
        with pytest.raises(cfm.TrainingError, match="epoch 0, step 1") as exc_info:
            cfm.train(tiny_config(seed=3, epochs=2, lr=1e200))
        assert (exc_info.value.epoch, exc_info.value.step) == (0, 1)

    def test_peak_holds_the_model_its_moments_and_one_batch_of_activations(self):
        # 256x4, two 256-row steps.  The activations the backward pass reads:
        # the input rows, the hidden state entering each block and leaving the
        # last, per block xhat and 1/std, and three batch x hidden scratch
        # arrays, into which it recomputes each block's LayerNorm output, sigmoid
        # and silu.  Keeping g, sig and s per block and two tile-sized
        # scratch arrays took 5.5 MiB more; keeping the last step's gradient
        # vector through the next step as well peaked at 32.2 MiB
        config = cfm.TrainConfig.default(DatasetSpec("moons", n=512), seed=3, epochs=1, mlp={})
        cfg, b = config.mlp, config.batch_size
        activations = (b * (cfg.data_dim + cfg.time_embed_dim)
                       + (2 * cfg.n_blocks + 1) * b * cfg.hidden + cfg.n_blocks * b
                       + 3 * b * cfg.hidden) * 8
        bound = 3 * nn.MlpParams(cfg).flat.nbytes + activations + 2 * 2**20
        Rng(0)  # numpy imports its random module (0.7 MiB) on first use
        tracemalloc.start()
        try:
            cfm.train(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestSample:
    def test_fixed_step_nfe(self):
        model = cfm.train(tiny_config(seed=5, epochs=1))
        _, trace = cfm.sample(model, cfm.SolverSpec("euler", 200), 50, Rng(0))
        assert trace.nfe_total == 200
        _, trace = cfm.sample(model, cfm.SolverSpec("rk4", 20), 50, Rng(0))
        assert trace.nfe_total == 80

    def test_deterministic(self):
        model = cfm.train(tiny_config(seed=5, epochs=1))
        a, _ = cfm.sample(model, cfm.SolverSpec("midpoint", 10), 64, Rng(9))
        b, _ = cfm.sample(model, cfm.SolverSpec("midpoint", 10), 64, Rng(9))
        assert np.array_equal(a, b)

    def test_zero_field_is_identity_flow(self):
        # untrained params (zero output layer): z(1) = z(0), so the samples
        # are exactly the de-standardized Gaussian starts
        config = tiny_config(seed=11, epochs=1)
        raw = generate(config.dataset, Rng(config.seed, stream=cfm.STREAM_DATASET))
        model = cfm.TrainedModel(
            params=nn.init_params(config.mlp, Rng(0)),
            config=config,
            data_mean=raw.mean(axis=0),
            data_std=raw.std(axis=0),
        )
        pts, trace = cfm.sample(model, cfm.SolverSpec("euler", 5), 40, Rng(21))
        z0 = gaussian_sample(Rng(21), 40, 2)
        assert pts == pytest.approx(z0 * model.data_std + model.data_mean, rel=1e-14)
        assert trace.nfe_total == 5

    def test_gaussian_target_stays_gaussian(self):
        # on a standard-normal dataset the learned flow should keep samples
        # near N(0, I): SWD to fresh draws within 1.5x the SWD between two
        # independent Gaussian batches
        config = tiny_config(seed=13, kind="gaussian_nd", epochs=30, n=512,
                             mlp={"hidden": 32, "n_blocks": 1, "time_embed_dim": 8})
        model = cfm.train(config)
        pts, _ = cfm.sample(model, cfm.SolverSpec("rk4", 25), 1000, Rng(31))
        fresh_a = gaussian_sample(Rng(41), 1000, 2)
        fresh_b = gaussian_sample(Rng(42), 1000, 2)
        d_model = analysis.swd(pts, fresh_a, 200, Rng(50))
        d_base = analysis.swd(fresh_b, fresh_a, 200, Rng(50))
        assert d_model < 1.5 * d_base

    def test_adaptive_spec_reaches_the_integrator(self):
        # h_init set: no starting-step trial, so NFE = 1 + 6 * attempts
        model = cfm.train(tiny_config(seed=5, epochs=1))
        _, trace = cfm.sample(model, cfm.SolverSpec("dopri5", h_init=0.25), 16, Rng(0))
        assert trace.steps[0].h == 0.25
        assert trace.nfe_total == 1 + 6 * len(trace.steps)

    def test_bad_args(self):
        model = cfm.train(tiny_config(seed=5, epochs=1))
        with pytest.raises(ValueError):
            cfm.sample(model, cfm.SolverSpec("euler", 10), 0, Rng(0))
        with pytest.raises(ValueError):
            cfm.SolverSpec("euler")  # missing steps
        with pytest.raises(ValueError):
            cfm.SolverSpec("rk44", 10)

    @pytest.mark.parametrize(
        "bad_key, d",
        [
            ("steps", {"method": "dopri5", "atol": 1e-4, "rtol": 1e-4}),
            ("atol", {"method": "euler", "steps": 20}),
            ("rtol", {"method": "rk4", "steps": 20}),
        ],
    )
    def test_spec_rejects_inapplicable_keys(self, bad_key, d):
        assert cfm.SolverSpec.from_dict(d).to_dict() == d
        with pytest.raises(ValueError, match="does not take"):
            cfm.SolverSpec.from_dict({**d, bad_key: 20})

    @pytest.mark.parametrize("tols", [{"atol": -1.0}, {"rtol": 0.0}, {"atol": 0.0, "rtol": 0.0}])
    def test_adaptive_spec_rejects_nonpositive_tolerances(self, tols):
        # checked when the spec is built, not when sampling starts
        with pytest.raises(ValueError, match="tolerances must be positive"):
            cfm.SolverSpec("dopri5", **tols)
        with pytest.raises(ValueError, match="tolerances must be positive"):
            cfm.SolverSpec.from_dict({"method": "dopri5", **tols})

    def test_adaptive_follows_the_tableau(self):
        from fmsolve.ode import TABLEAUS

        for method, tab in TABLEAUS.items():
            spec = cfm.SolverSpec(method, 10)
            assert spec.adaptive == (tab.b_star is not None)
        spec = cfm.SolverSpec("dopri5")
        assert (spec.atol, spec.rtol) == (1e-5, 1e-5)

    def test_one_solver_description(self):
        import fmsolve
        from fmsolve import ode

        assert cfm.SolverSpec is ode.SolverSpec is fmsolve.SolverSpec
        assert not hasattr(fmsolve, "StepControlConfig")


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        model = cfm.train(tiny_config(seed=17, epochs=2))
        path = tmp_path / "model.json"
        cfm.save_model(model, path)
        loaded = cfm.load_model(path)
        for (_, a), (_, b) in zip(model.params.named(), loaded.params.named()):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.data_mean, model.data_mean)
        assert np.array_equal(loaded.data_std, model.data_std)
        assert loaded.loss_curve == model.loss_curve
        assert loaded.config == model.config

    def test_save_is_reproducible(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        cfm.save_model(cfm.train(tiny_config(seed=19, epochs=2)), p1)
        cfm.save_model(cfm.train(tiny_config(seed=19, epochs=2)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_writes_the_bytes_of_one_json_dump(self, tmp_path):
        # the file is the whole-document json.dump it replaced, byte for byte
        path = tmp_path / "model.json"
        for model in (cfm.train(tiny_config(seed=17, epochs=2)), default_size_model()):
            cfm.save_model(model, path)
            doc = {
                "format_version": cfm.MODEL_FORMAT_VERSION,
                "config": model.config.to_dict(),
                "seed": model.config.seed,
                "params": {name: arr.tolist() for name, arr in model.params.named()},
                "training_meta": {
                    "epochs": model.config.epochs,
                    "final_loss": model.final_loss,
                    "loss_curve": list(model.loss_curve),
                    "data_mean": model.data_mean.tolist(),
                    "data_std": model.data_std.tolist(),
                },
            }
            whole = io.StringIO()
            json.dump(doc, whole, sort_keys=True)
            assert path.read_bytes() == (whole.getvalue() + "\n").encode()

    def test_save_and_load_peaks_stay_below_the_file_size(self, tmp_path):
        # one tensor at a time: load's peak is the decoded arrays and the
        # parameter vector they are copied into.  For this 11.4 MiB file,
        # decoding the whole document into lists first peaked at 29.5 MiB,
        # reading its whole text before decoding a tensor at a time at 22.9
        # MiB, and encoding the document with one json.dump at 16.9 MiB
        model, path = default_size_model(), tmp_path / "model.json"
        save_peak = traced_peak(cfm.save_model, model, path)
        load_peak = traced_peak(cfm.load_model, path)
        size = path.stat().st_size
        assert save_peak < 0.8 * size
        assert load_peak < size

    def test_block_count_checked_before_allocating(self, tmp_path):
        # a file whose config names 10**4 blocks but holds one: rejected
        # before a 10**4-block layout (12.8 MB at width 8) is built; 10**5
        # blocks took 3.4 s and 10**30 never finished
        model = cfm.train(tiny_config(seed=17, epochs=1,
                                      mlp={"hidden": 8, "n_blocks": 1, "time_embed_dim": 4}))
        path = tmp_path / "model.json"
        cfm.save_model(model, path)
        doc = json.loads(path.read_text())
        doc["config"]["mlp"]["n_blocks"] = 10**4
        path.write_text(json.dumps(doc))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="missing parameter tensor 'block1.w1'"):
                cfm.load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_version_check(self, tmp_path):
        model = cfm.train(tiny_config(seed=17, epochs=1))
        path = tmp_path / "model.json"
        cfm.save_model(model, path)
        doc = path.read_text().replace('"format_version": 1', '"format_version": 99')
        path.write_text(doc)
        with pytest.raises(ValueError, match="format_version"):
            cfm.load_model(path)

    @pytest.mark.parametrize(
        "text", ['{"format_version": 1, 2: 3}', '{"params": {"in.w": [], 7: []}}'],
        ids=["top-level", "params"],
    )
    def test_non_string_key_gives_the_json_error(self, text, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(json.JSONDecodeError) as got:
            cfm.load_model(path)
        assert str(got.value) == str(expected.value)

    def test_json_nested_too_deeply_is_a_value_error(self, tmp_path):
        # json's decoder raises RecursionError past about 1,000 levels
        path = tmp_path / "model.json"
        path.write_text('{"seed": ' + "[" * 3000 + "]" * 3000 + "}")
        with pytest.raises(ValueError, match="JSON nested too deeply") as exc_info:
            cfm.load_model(path)
        assert str(exc_info.value).startswith(f"model file {path}: ")


# ---------------------------------------------------------------------------
# model files: generated edits, loaded against json.load plus the validation

VALUE_POOL = [None, True, False, 0, -1, 1.5, 1e308, -1e308, 1e-320, float("nan"),
              float("inf"), float("-inf"), "", "x", "1.5", [], {}, 10**30, 10**400]
DAMAGE_CHARS = '{}[]:,"0123456789.-+eE aNIfinytrul\n\t\\é'


def _random_path(doc, rng):
    """A key path found by descending from the root, stopping early now and then."""
    path, node = (), doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.9:
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        path, node = (*path, key), node[key]
    return path


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _members(pairs):
    """A JSON object from (key, encoded value) pairs, which may repeat a key."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in pairs) + "}"


def _shuffled(node, rng):
    if isinstance(node, dict):
        keys = list(node)
        rng.shuffle(keys)
        return {k: _shuffled(node[k], rng) for k in keys}
    return node


def _delete_key(doc, rng):
    path = _random_path(doc, rng) or (rng.choice(list(doc)),)
    del _at(doc, path[:-1])[path[-1]]
    return json.dumps(doc)


def _replace_value(doc, rng):
    path, value = _random_path(doc, rng), rng.choice(VALUE_POOL)
    if not path:
        return json.dumps(value)
    _at(doc, path[:-1])[path[-1]] = value
    return json.dumps(doc)


def _reshape_tensor(doc, rng):
    params = doc["params"]
    name = rng.choice(sorted(params))
    tensor = params[name]
    if rng.random() < 0.3:
        params[name] = [tensor]
    elif isinstance(tensor[0], list) and rng.random() < 0.5:
        row = rng.randrange(len(tensor))
        tensor[row] = tensor[row][:-1]
    else:
        params[name] = tensor[:-1]
    return json.dumps(doc)


def _foreign_entry(doc, rng):
    tensor = doc["params"][rng.choice(sorted(doc["params"]))]
    while isinstance(tensor[0], list):
        tensor = rng.choice(tensor)
    tensor[rng.randrange(len(tensor))] = rng.choice(["x", True, None, float("nan")])
    return json.dumps(doc)


def _duplicate_key(doc, rng):
    # a repeated name keeps its first position and its last value
    inner = rng.random() < 0.7
    obj = doc["params"] if inner else doc
    pairs = [(k, json.dumps(v)) for k, v in obj.items()]
    key = rng.choice(list(obj))
    value = rng.choice([obj[key], rng.choice(VALUE_POOL)])
    pairs.insert(rng.randrange(len(pairs) + 1), (key, json.dumps(value)))
    if not inner:
        return _members(pairs)
    return _members((k, _members(pairs) if k == "params" else json.dumps(v)) for k, v in doc.items())


def _reorder_keys(doc, rng):
    return json.dumps(_shuffled(doc, rng))


def _reindent(doc, rng):
    return json.dumps(doc, indent=rng.choice([1, "\t"]), sort_keys=rng.random() < 0.5)


def _damage_char(doc, rng):
    text = json.dumps(doc, sort_keys=True)
    at, edit = rng.randrange(len(text)), rng.choice(["insert", "replace", "delete"])
    char = "" if edit == "delete" else rng.choice(DAMAGE_CHARS)
    return text[:at] + char + text[at + (edit != "insert"):]


MODEL_FILE_EDITS = [_delete_key, _replace_value, _reshape_tensor, _foreign_entry, _duplicate_key,
                    _reorder_keys, _reindent, _damage_char]


def edited_model_texts(doc, seed, budget):
    """``budget`` model-file texts, each ``doc`` after one edit drawn from MODEL_FILE_EDITS."""
    rng = random.Random(seed)
    for _ in range(budget):
        yield rng.choice(MODEL_FILE_EDITS)(copy.deepcopy(doc), rng)


def load_outcome(load, path):
    """What a load gives back: the exception's type and message, or the exact
    bits of the model (reprs keep 1 apart from 1.0 and -0.0 apart from 0.0)."""
    try:
        model = load(path)
    except Exception as exc:  # every failure is an outcome to compare
        return type(exc), str(exc)
    return (model.params.flat.tobytes(), repr(model.config), model.data_mean.tobytes(),
            model.data_std.tobytes(), repr(model.loss_curve))


def json_load_then_validate(path):
    """The reference: the whole document through json.load, then load_model's checks."""
    with open(path) as fh:
        return cfm._model_from_document(json.load(fh), path)


class TestEditedModelFiles:
    BUDGET = 480

    # a 61-character window cuts the tiny model's file inside keys, numbers
    # and rows, as the default one cuts the file of a large model
    @pytest.mark.parametrize("window", [cfm._WINDOW, 61])
    def test_load_matches_json_load_then_validation(self, window, tmp_path, monkeypatch):
        monkeypatch.setattr(cfm, "_WINDOW", window)
        model = cfm.train(tiny_config(seed=17, epochs=2,
                                      mlp={"hidden": 8, "n_blocks": 1, "time_embed_dim": 4}))
        path = tmp_path / "model.json"
        cfm.save_model(model, path)
        doc = json.loads(path.read_text())
        outcomes, mismatches = [], []
        for i, text in enumerate(edited_model_texts(doc, seed=16, budget=self.BUDGET)):
            path.write_text(text)
            got = load_outcome(cfm.load_model, path)
            want = load_outcome(json_load_then_validate, path)
            outcomes.append(got)
            if got != want:
                mismatches.append((i, text[:200], got, want))
        assert not mismatches, mismatches[:3]
        loaded = sum(not isinstance(o[0], type) for o in outcomes)
        assert 0.1 * self.BUDGET < loaded < 0.9 * self.BUDGET
