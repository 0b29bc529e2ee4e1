"""Residual MLP velocity network with hand-written reverse-mode gradients.

The network maps a batch of states x and per-row times t to velocities of
the same shape as x.  Architecture: the sinusoidal time embedding is
concatenated to x, projected to the hidden width, passed through
``n_blocks`` residual blocks of the form

    h <- h + W2 @ silu(layernorm(W1 @ h + b1)) + b2

and projected back to the data dimension.  The output projection is
zero-initialized so an untrained network is the zero field.  Everything is
float64; gradients are accumulated by explicit backward passes through
each primitive (linear, LayerNorm including its mean/variance paths, SiLU,
residual adds), which keeps the whole training loop free of autodiff
frameworks and bit-reproducible.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .numeric import check_field_types

__all__ = [
    "MlpConfig",
    "BlockParams",
    "MlpParams",
    "AdamState",
    "time_embed",
    "forward",
    "loss_and_grad",
    "adam_update",
    "init_params",
    "params_to_arrays",
    "params_from_arrays",
]

# LayerNorm variance guard.  Small enough that rows with O(1) spread are
# normalized to unit variance well below the 1e-10 test tolerance.
LAYERNORM_EPS = 1e-12

TIME_FREQ_MIN = 1.0
TIME_FREQ_MAX = 1000.0


@dataclass(frozen=True)
class MlpConfig:
    data_dim: int = 2
    hidden: int = 256
    n_blocks: int = 4
    time_embed_dim: int = 64

    def __post_init__(self):
        check_field_types(self)
        if self.data_dim < 1:
            raise ValueError("data_dim must be >= 1")
        if self.hidden < 1 or self.n_blocks < 1:
            raise ValueError("hidden and n_blocks must be >= 1")
        if self.time_embed_dim < 2 or self.time_embed_dim % 2 != 0:
            raise ValueError("time_embed_dim must be an even count >= 2")


@dataclass
class BlockParams:
    w1: np.ndarray
    b1: np.ndarray
    gamma: np.ndarray
    beta: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


def _tensor_shapes(config):
    """(name, shape) of every parameter tensor, in the canonical order."""
    d_in = config.data_dim + config.time_embed_dim
    h = config.hidden
    block = {"w1": (h, h), "b1": (h,), "gamma": (h,), "beta": (h,), "w2": (h, h), "b2": (h,)}
    shapes = [("in.w", (d_in, h)), ("in.b", (h,))]
    for i in range(config.n_blocks):
        shapes += [(f"block{i}.{key}", shape) for key, shape in block.items()]
    shapes += [("out.w", (h, config.data_dim)), ("out.b", (config.data_dim,))]
    return shapes


class MlpParams:
    """All learnable tensors.  Weight matrices are (fan_in, fan_out).

    Every tensor is a named view into one contiguous float64 vector
    ``flat``, laid out in :meth:`named` order, so whole-model operations
    (copies, finiteness checks, optimizer updates) are single array
    operations.  A new instance is all zeros.
    """

    def __init__(self, config):
        shapes = _tensor_shapes(config)
        sizes = [math.prod(shape) for _, shape in shapes]
        self.config = config
        self.flat = np.zeros(sum(sizes))
        parts = np.split(self.flat, np.cumsum(sizes)[:-1])
        self._named = [(name, part.reshape(shape)) for (name, shape), part in zip(shapes, parts)]
        views = dict(self._named)
        self.w_in, self.b_in = views["in.w"], views["in.b"]
        self.blocks = [
            BlockParams(**{f.name: views[f"block{i}.{f.name}"] for f in fields(BlockParams)})
            for i in range(config.n_blocks)
        ]
        self.w_out, self.b_out = views["out.w"], views["out.b"]
        self._buffers = None

    def named(self):
        """(name, array) pairs in a fixed canonical order."""
        return iter(self._named)

    def zeros_like(self):
        return MlpParams(self.config)

    def check_finite(self):
        if not np.isfinite(self.flat).all():
            name = next(name for name, arr in self._named if not np.isfinite(arr).all())
            raise ValueError(f"non-finite values in parameter tensor {name!r}")

    def _forward_buffers(self, n):
        """:func:`forward`'s work arrays for n rows (the input rows, four
        n x hidden floats, an n x hidden mask), kept for the latest n only."""
        if self._buffers is None or len(self._buffers[0]) != n:
            cfg = self.config
            self._buffers = (np.empty((n, cfg.data_dim + cfg.time_embed_dim)),
                             *(np.empty((n, cfg.hidden)) for _ in range(4)),
                             np.empty((n, cfg.hidden), dtype=bool))
        return self._buffers


# ---------------------------------------------------------------------------
# primitives

def _sigmoid(x, out=None, denom=None, mask=None):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: exp(-|x|) never overflows.
    # Given x-shaped ``out``, ``denom`` and bool ``mask``, allocates nothing
    # and returns ``out``.
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    denom = np.add(1.0, e, out=denom)
    np.putmask(e, np.greater_equal(x, 0.0, out=mask), 1.0)
    return np.divide(e, denom, out=e)


def _time_frequencies(dim):
    n_freq = dim // 2
    if n_freq == 1:
        return np.array([TIME_FREQ_MIN])
    return TIME_FREQ_MIN * (TIME_FREQ_MAX / TIME_FREQ_MIN) ** (
        np.arange(n_freq) / (n_freq - 1)
    )


def time_embed(t, dim):
    """Sinusoidal features of a time: pairs [sin(w_j t), cos(w_j t)].

    Frequencies w_j are geometrically spaced from 1 to 1000 over the dim/2
    pairs, covering the unit time interval at multiple scales.  A scalar
    ``t`` gives shape (dim,), an array of times t.shape + (dim,).
    """
    if dim < 2 or dim % 2 != 0:
        raise ValueError("dim must be an even count >= 2")
    phase = np.multiply.outer(np.asarray(t, dtype=float), _time_frequencies(dim))
    out = np.empty(phase.shape[:-1] + (dim,))
    out[..., 0::2] = np.sin(phase)
    out[..., 1::2] = np.cos(phase)
    return out


def _layernorm_forward(a, gamma, beta, out=None, scratch=None):
    """Row-wise LayerNorm; returns (gamma * xhat + beta, xhat, inv_std).

    Given a-shaped ``out`` (which may be ``a`` itself) and ``scratch``, the
    only arrays allocated are n x 1; xhat then shares ``out`` and has been
    overwritten by the result, which is all :func:`forward` reads.
    """
    centered = np.subtract(a, a.mean(axis=1, keepdims=True), out=out)
    var = np.square(centered, out=scratch).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = np.multiply(centered, inv_std, out=centered)
    y = np.multiply(xhat, gamma, out=out)
    y += beta
    return y, xhat, inv_std


def _layernorm_backward(dout, xhat, inv_std, gamma):
    # Exact row-wise Jacobian: the mean and variance paths contribute the
    # two subtracted means.
    dxhat = dout * gamma
    dgamma = (dout * xhat).sum(axis=0)
    dbeta = dout.sum(axis=0)
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
    da = inv_std * (dxhat - m1 - xhat * m2)
    return da, dgamma, dbeta


# ---------------------------------------------------------------------------
# forward / backward

def _input_rows(cfg, x, t, out=None):
    """The rows [x, time_embed(t)] the input projection reads."""
    # a scalar t (every sampling call) embeds once and is shared by the rows
    emb = np.broadcast_to(time_embed(t, cfg.time_embed_dim), (x.shape[0], cfg.time_embed_dim))
    return np.concatenate([x, emb], axis=1, out=out)


def _forward_cached(params, x, t):
    z = _input_rows(params.config, x, t)
    h = z @ params.w_in + params.b_in
    caches = []
    for blk in params.blocks:
        a = h @ blk.w1 + blk.b1
        g, xhat, inv_std = _layernorm_forward(a, blk.gamma, blk.beta)
        sig = _sigmoid(g)
        s = g * sig
        caches.append((h, g, xhat, inv_std, sig, s))
        h = h + s @ blk.w2 + blk.b2
    v = h @ params.w_out + params.b_out
    return v, (z, h, caches)


def _forward_in_place(params, x, t):
    z, h, a, tmp, denom, mask = params._forward_buffers(x.shape[0])
    _input_rows(params.config, x, t, out=z)
    np.matmul(z, params.w_in, out=h)
    h += params.b_in
    for blk in params.blocks:
        np.matmul(h, blk.w1, out=a)
        a += blk.b1
        _layernorm_forward(a, blk.gamma, blk.beta, out=a, scratch=tmp)
        a *= _sigmoid(a, out=tmp, denom=denom, mask=mask)  # silu
        h += np.matmul(a, blk.w2, out=tmp)
        h += blk.b2
    v = h @ params.w_out
    v += params.b_out
    return v


def forward(params, x, t):
    """Velocity batch v(x, t); a new array of the shape of x.

    ``t`` is a scalar shared by the batch or a per-row vector.  Times
    slightly outside [0, 1] are accepted (adaptive solvers probe past the
    endpoints).  Raises ValueError if any parameter tensor is non-finite.

    Computes the floats of :func:`_forward_cached` in the same order but
    keeps no backward cache: the blocks work in place in buffers ``params``
    holds for the latest row count, so a model must not be evaluated from
    two threads at once.  A non-finite parameter always makes the output
    non-finite or raises a floating-point error, and only then are the
    parameters scanned, to name it; with finite parameters the pass reruns
    under the caller's ``np.errstate``, which reports an input overflow.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.config.data_dim:
        raise ValueError(f"expected batch of shape (n, {params.config.data_dim}), got {x.shape}")
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            v = _forward_in_place(params, x, t)
    except FloatingPointError:
        params.check_finite()
        v = _forward_in_place(params, x, t)
    if not (v.size and np.isfinite(v).all()):
        params.check_finite()
    return v


def loss_and_grad(params, x_t, t, u_t):
    """Mean squared velocity-regression loss and its parameter gradients.

    loss = mean over rows of || v(x_t, t) - u_t ||^2.  Returns the scalar
    loss and an :class:`MlpParams`-shaped gradient structure.
    """
    x_t = np.asarray(x_t, dtype=float)
    u_t = np.asarray(u_t, dtype=float)
    if x_t.shape != u_t.shape:
        raise ValueError(f"batch shapes disagree: {x_t.shape} vs {u_t.shape}")
    params.check_finite()
    v, (z, h_last, caches) = _forward_cached(params, x_t, t)
    n = x_t.shape[0]
    r = v - u_t
    loss = float(np.sum(r * r) / n)
    grads = params.zeros_like()

    dv = (2.0 / n) * r
    grads.w_out[...] = h_last.T @ dv
    grads.b_out[...] = dv.sum(axis=0)
    dh = dv @ params.w_out.T
    for blk, gblk, cache in zip(params.blocks[::-1], grads.blocks[::-1], caches[::-1]):
        h_in, g, xhat, inv_std, sig, s = cache
        gblk.w2[...] = s.T @ dh
        gblk.b2[...] = dh.sum(axis=0)
        ds = dh @ blk.w2.T
        dg = ds * (sig * (1.0 + g * (1.0 - sig)))
        da, dgamma, dbeta = _layernorm_backward(dg, xhat, inv_std, blk.gamma)
        gblk.gamma[...] = dgamma
        gblk.beta[...] = dbeta
        gblk.w1[...] = h_in.T @ da
        gblk.b1[...] = da.sum(axis=0)
        dh = dh + da @ blk.w1.T  # residual passthrough + branch
    grads.w_in[...] = z.T @ dh
    grads.b_in[...] = dh.sum(axis=0)
    return loss, grads


# ---------------------------------------------------------------------------
# init / optimizer

def init_params(config, rng):
    """Fresh parameters: linear layers uniform in +-1/sqrt(fan_in), LayerNorm
    at identity, output projection zeroed so the initial field is zero.

    Draw order is fixed (input projection, then each block's w1, b1, w2, b2)
    so a given rng state always yields the same parameters.
    """
    params = MlpParams(config)

    def linear(w, b):
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(size=w.shape, low=-bound, high=bound)
        b[...] = rng.uniform(size=b.shape, low=-bound, high=bound)

    linear(params.w_in, params.b_in)
    for blk in params.blocks:
        linear(blk.w1, blk.b1)
        linear(blk.w2, blk.b2)
        blk.gamma[...] = 1.0
    return params


@dataclass
class AdamState:
    """First/second moment accumulators, flat vectors laid out like
    :attr:`MlpParams.flat`."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def for_params(cls, params):
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_update(params, grads, state, lr):
    """One bias-corrected Adam step (beta1=0.9, beta2=0.999, eps=1e-8).

    Mutates ``params`` and ``state`` in place.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    g, m, v = grads.flat, state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    params.flat -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


# ---------------------------------------------------------------------------
# persistence

def params_to_arrays(params):
    """Named row-major nested lists, ready for JSON."""
    return {name: arr.tolist() for name, arr in params.named()}


def params_from_arrays(config, arrays):
    """Inverse of :func:`params_to_arrays`; validates names and shapes, and
    that every value is finite (the error names the first bad tensor)."""
    params = MlpParams(config)
    seen = set()
    for name, arr in params.named():
        if name not in arrays:
            raise ValueError(f"missing parameter tensor {name!r}")
        loaded = np.asarray(arrays[name], dtype=float)
        if loaded.shape != arr.shape:
            raise ValueError(f"shape mismatch for {name!r}: {loaded.shape} != {arr.shape}")
        arr[...] = loaded
        seen.add(name)
    extra = set(arrays) - seen
    if extra:
        raise ValueError(f"unknown parameter tensors: {sorted(extra)}")
    params.check_finite()
    return params
