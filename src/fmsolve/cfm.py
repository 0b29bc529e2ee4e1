"""Conditional flow matching: straight-path training and ODE sampling.

Training regresses the network onto the constant velocity u = x1 - x0 of
the straight interpolation x_t = (1-t) x0 + t x1 between Gaussian noise
and data.  Sampling integrates the learned field from t=0 to t=1 with any
of the solvers in :mod:`fmsolve.ode`; the solver state is the (n, d)
sample batch itself, so each solver stage costs exactly one network call,
which is what the NFE counter measures.

Data is standardized to zero mean and unit per-axis variance before
training (the Gaussian source and the data must share scale) and samples
are mapped back to original coordinates on the way out.  The trained
model bundle carries the standardization so sampling is self-contained.

Seed discipline: stream 0 of the training seed generates the dataset,
stream 1 initializes parameters, stream 2 drives the epoch shuffles and
batch draws.  Sampling uses whatever rng the caller passes.
"""

import json
import math
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn
from .data import DatasetSpec, generate
from .numeric import Rng, check_field_types, check_keys, check_version, gaussian_sample
from .ode import IntegrationError, SolverSpec, VectorField, integrate_dopri5, integrate_fixed

__all__ = [
    "TrainConfig",
    "MAX_TRAIN_STEPS",
    "SolverSpec",
    "TrainedModel",
    "TrainingError",
    "train",
    "sample",
    "velocity_field",
    "model_text",
    "save_model",
    "load_model",
    "MODEL_FORMAT_VERSION",
]

MODEL_FORMAT_VERSION = 1

STREAM_DATASET = 0
STREAM_INIT = 1
STREAM_TRAIN = 2

#: optimizer steps, epochs * ceil(dataset.n / batch_size), one training run
#: may take: the defaults take 2,400, and 10**7 is about 3.5 days at 30 ms a step
MAX_TRAIN_STEPS = 10**7


class TrainingError(RuntimeError):
    """Training aborted: the data or its statistics overflow, or the loss became
    non-finite, which carries the epoch and step index."""

    def __init__(self, message, epoch=None, step=None):
        super().__init__(message)
        self.epoch = epoch
        self.step = step


@dataclass(frozen=True)
class TrainConfig:
    dataset: DatasetSpec
    mlp: nn.MlpConfig
    epochs: int = 300
    batch_size: int = 256
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        steps = self.epochs * -(-self.dataset.n // self.batch_size)
        if steps > MAX_TRAIN_STEPS:
            raise ValueError(f"train.epochs={self.epochs} gives {steps} optimizer steps, "
                             f"past the ceiling of {MAX_TRAIN_STEPS}")
        if self.mlp.data_dim != self.dataset.data_dim:
            raise ValueError(
                f"mlp.data_dim={self.mlp.data_dim} does not match "
                f"dataset dimension {self.dataset.data_dim}"
            )

    @classmethod
    def default(cls, dataset, seed=0, **overrides):
        """Default hyperparameters (300 epochs, batch 256, lr 1e-3, 256x4 net)."""
        mlp_over = overrides.pop("mlp", {})
        mlp = nn.MlpConfig(data_dim=dataset.data_dim, **mlp_over)
        return cls(dataset=dataset, mlp=mlp, seed=seed, **overrides)

    def to_dict(self):
        """Dict without the seed (persisted separately in the model file)."""
        return {
            "dataset": self.dataset.to_dict(),
            "mlp": asdict(self.mlp),
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "lr": self.lr,
        }

    @classmethod
    def from_dict(cls, d, seed):
        """Inverse of :meth:`to_dict`; every key it writes is required."""
        check_keys(d, "config", required=("dataset", "mlp", "epochs", "batch_size", "lr"))
        nested = {"dataset": DatasetSpec(**d["dataset"]), "mlp": nn.MlpConfig(**d["mlp"])}
        return cls(**{**d, **nested}, seed=seed)


def _pairs(x1, rng):
    """Interpolation batch ``(x_t, t, u_t)`` for given data rows: draw noise
    x0 and times t, build x_t = (1-t) x0 + t x1 and u_t = x1 - x0.  Pairing
    is independent: no minibatch coupling between x0 and x1."""
    n, d = x1.shape
    x0 = gaussian_sample(rng, n, d)
    t = rng.uniform(size=n)
    tt = t[:, None]
    x_t = (1.0 - tt) * x0 + tt * x1
    u_t = x1 - x0
    return x_t, t, u_t


@dataclass
class TrainedModel:
    """Parameters plus everything sampling needs: the training config and
    the standardization of the data space."""

    params: nn.MlpParams
    config: TrainConfig
    data_mean: np.ndarray
    data_std: np.ndarray
    loss_curve: list = field(default_factory=list)

    @property
    def data_dim(self):
        return self.params.config.data_dim

    @property
    def final_loss(self):
        return self.loss_curve[-1] if self.loss_curve else float("nan")


def train(config):
    """Train the velocity network; returns a :class:`TrainedModel` whose
    ``loss_curve`` holds the per-epoch mean loss.

    One epoch is a full pass over the fixed pre-generated dataset,
    reshuffled each epoch.  Deterministic for a fixed config and seed.
    Raises :class:`TrainingError` if the data points, their mean or their
    standard deviation overflow, or if a step's loss goes non-finite (which
    :meth:`nn.Workspace.step` also reports for an overflowed Adam moment).
    """
    root = Rng(config.seed)
    with np.errstate(all="ignore"):
        raw = generate(config.dataset, root.stream_rng(STREAM_DATASET))
        mean, std = raw.mean(axis=0), raw.std(axis=0)
    if not (np.isfinite(mean).all() and np.isfinite(std).all()):
        raise TrainingError("the dataset's points, mean or standard deviation overflow")
    std = np.where(std > 0, std, 1.0)  # guard degenerate axes
    data = (raw - mean) / std

    params = nn.init_params(config.mlp, root.stream_rng(STREAM_INIT))
    state = nn.AdamState.for_params(params)
    loop_rng = root.stream_rng(STREAM_TRAIN)

    n = data.shape[0]
    workspace = nn.Workspace(params, min(n, config.batch_size))  # dropped on return
    loss_curve = []
    for epoch in range(config.epochs):
        perm = loop_rng.permutation(n)
        total = 0.0
        for step, lo in enumerate(range(0, n, config.batch_size)):
            x_t, t, u_t = _pairs(data[perm[lo : lo + config.batch_size]], loop_rng)
            loss = workspace.step(params, state, x_t, t, u_t, config.lr)
            if not np.isfinite(loss):
                raise TrainingError(
                    f"non-finite loss at epoch {epoch}, step {step}", epoch=epoch, step=step
                )
            total += loss * len(x_t)
        loss_curve.append(total / n)
    return TrainedModel(params=params, config=config, data_mean=mean, data_std=std,
                        loss_curve=loss_curve)


def velocity_field(params):
    """The learned field as a :class:`VectorField` on an (n, d) batch of
    states: one network call evaluates all n trajectories."""
    return VectorField(lambda t, x: nn.forward(params, x, t))


def sample(model, solver, n, rng):
    """Integrate n Gaussian starts through the learned flow.

    Returns ``(points, trace)`` with points already mapped back to original
    data coordinates.  The trace covers the whole batch; its NFE counts
    network calls, i.e. solver stages.  Raises :class:`IntegrationError`
    when a point overflows in that map.
    """
    z0 = gaussian_sample(rng, n, model.data_dim)
    f = velocity_field(model.params)
    if solver.adaptive:
        z1, trace = integrate_dopri5(f, z0, 0.0, 1.0, solver)
    else:
        z1, trace = integrate_fixed(f, z0, 0.0, 1.0, solver.n_steps, solver.method)
    with np.errstate(all="ignore"):
        points = z1 * model.data_std + model.data_mean
    if not np.isfinite(points).all():
        raise IntegrationError("samples overflow in the map to data coordinates", t=1.0, y=z1)
    return points, trace


# ---------------------------------------------------------------------------
# persistence

def model_text(model):
    """The model file's text in pieces, which join to one ``json.dumps`` of
    {format_version, config, seed, params, training_meta} with keys sorted.

    Floats are serialized with repr round-tripping, so reloading is bit-exact.
    The tensors are encoded one matrix row at a time into the place the rest
    of the document leaves for them, so at most one row is a Python list.
    """
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "config": model.config.to_dict(),
        "seed": model.config.seed,
        "params": {},
        "training_meta": {
            "epochs": model.config.epochs,
            "final_loss": model.final_loss,
            "loss_curve": list(model.loss_curve),
            "data_mean": model.data_mean.tolist(),
            "data_std": model.data_std.tolist(),
        },
    }
    head, _, tail = json.dumps(doc, sort_keys=True).partition('"params": {}')
    yield head + '"params": {'
    for i, (name, arr) in enumerate(sorted(model.params.named())):
        yield f"{', ' if i else ''}{json.dumps(name)}: ["
        for j, row in enumerate(arr):
            yield f"{', ' if j else ''}{json.dumps(row.tolist())}"
        yield "]"
    yield "}" + tail + "\n"


def save_model(model, path):
    """Write the model bundle as JSON, each piece of :func:`model_text` as it is made."""
    with open(path, "w") as fh:
        fh.writelines(model_text(model))


_WHITESPACE = re.compile(r"[ \t\n\r]*")  # what JSON allows between tokens
_WINDOW = 2**16  # characters of a model file read at a time


def _read_document(path):
    """The JSON document of a model file: what json.load returns, except that
    each params tensor is already a float array.

    The top level, ``params`` and each tensor's outer list are walked one
    entry at a time through a window of the file's text, and each tensor
    becomes an array as soon as its last row is decoded.  So neither the
    whole text nor more than one tensor's lists are held at once.  A
    repeated key keeps its first position and its last value, as in
    json.load.  A document the walk does not expect (a top level that is no
    object, any syntax error) goes to json.loads; its syntax error, and
    JSON nested past json's recursion limit, raise ValueError naming the file.
    """
    decoder = json.JSONDecoder()
    with open(path) as fh:
        text, i = "", 0  # the text not yet decoded starts at text[i]

        def more():
            # at least double what is left, so a long value is decoded at
            # most a few times over before it fits
            nonlocal text, i
            chunk = fh.read(max(_WINDOW, len(text) - i))
            if not chunk:
                raise ValueError("unexpected end of the model file")
            text, i = text[i:] + chunk, 0

        def peek():
            nonlocal i
            while (i := _WHITESPACE.match(text, i).end()) == len(text):
                more()
            return text[i]

        def take(char):
            nonlocal i
            if peek() != char:
                raise ValueError(f"expected {char!r}")
            i += 1

        def value():
            nonlocal i
            peek()
            while True:
                try:
                    decoded, end = decoder.raw_decode(text, i)
                    if end < len(text):  # a number at the window's end may go on
                        i = end
                        return decoded
                except json.JSONDecodeError:  # cut off by the window's end, or malformed
                    pass
                more()

        def entries(open_, close):
            # yields once per entry of an object or array, which the loop
            # body decodes before the separator is looked for
            take(open_)
            if peek() != close:
                yield
                while peek() == ",":
                    take(",")
                    yield
            take(close)

        def members(member_value):
            obj = {}
            for _ in entries("{", "}"):
                key = value()
                if not isinstance(key, str):
                    raise ValueError("expected a key")
                take(":")
                obj[key] = member_value(key)
            return obj

        def tensor(_):
            if peek() != "[":
                return value()
            rows = [value() for _ in entries("[", "]")]
            try:
                return np.asarray(rows, dtype=float)
            except (TypeError, ValueError, OverflowError):
                return rows  # params_from_arrays raises the same error on it

        def top(key):
            return members(tensor) if key == "params" and peek() == "{" else value()

        try:
            doc = members(top)
            if _WHITESPACE.fullmatch(text[i:] + fh.read()):
                return doc
        except (ValueError, RecursionError):  # json.loads raises what json.load would
            pass
        fh.seek(0)
        try:
            return json.loads(fh.read())
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path}: {exc}") from exc
        except RecursionError:
            raise ValueError(f"model file {path}: JSON nested too deeply") from None


def load_model(path):
    """Inverse of :func:`save_model`.

    The top-level keys must be exactly those :func:`save_model` writes, and
    training_meta must be what it writes: config's epochs, that many finite
    losses and the last as final_loss.  A malformed file raises ValueError
    naming what is wrong.
    """
    return _model_from_document(_read_document(path), path)


def _model_from_document(doc, path):
    """The checks of :func:`load_model` on the decoded document of ``path``."""
    where = f"model file {path}"
    check_keys(doc, where, required=("format_version", "config", "seed", "params", "training_meta"))
    check_version(doc["format_version"], MODEL_FORMAT_VERSION, where)
    try:
        config = TrainConfig.from_dict(doc["config"], seed=doc["seed"])
        params = nn.params_from_arrays(config.mlp, doc["params"])
        meta = doc["training_meta"]
        check_keys(meta, "training_meta",
                   required=("data_mean", "data_std", "epochs", "final_loss", "loss_curve"))
        mean, std = (np.asarray(meta[k], dtype=float) for k in ("data_mean", "data_std"))
        # sampling maps every point back through mean and std
        if mean.shape != (config.mlp.data_dim,) or std.shape != mean.shape:
            raise ValueError(f"training_meta: data_mean and data_std need {config.mlp.data_dim} "
                             f"entries each")
        if not (np.isfinite(mean).all() and np.isfinite(std).all() and (std > 0).all()):
            raise ValueError("training_meta: data_mean must be finite, data_std finite and > 0")
        epochs, curve, final = meta["epochs"], meta["loss_curve"], meta["final_loss"]
        if type(epochs) is not int or epochs != config.epochs:
            raise ValueError(f"training_meta: epochs {epochs!r} != config epochs {config.epochs}")
        # type(): true is not a number; an int is always finite
        if not (isinstance(curve, list) and len(curve) == epochs and all(
                type(v) is int or type(v) is float and math.isfinite(v) for v in curve)):
            raise ValueError(f"training_meta: loss_curve must be {epochs} finite numbers")
        if type(final) not in (int, float) or final != curve[-1]:
            raise ValueError(f"training_meta: final_loss {final!r} != last loss_curve entry")
        return TrainedModel(params=params, config=config, data_mean=mean, data_std=std,
                            loss_curve=curve)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: malformed entry {exc}") from exc
