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

import itertools
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
    """(name, shape) of every parameter tensor, in the canonical order,
    generated one at a time."""
    d_in = config.data_dim + config.time_embed_dim
    h = config.hidden
    block = {"w1": (h, h), "b1": (h,), "gamma": (h,), "beta": (h,), "w2": (h, h), "b2": (h,)}
    yield from [("in.w", (d_in, h)), ("in.b", (h,))]
    for i in range(config.n_blocks):
        yield from ((f"block{i}.{key}", shape) for key, shape in block.items())
    yield from [("out.w", (h, config.data_dim)), ("out.b", (config.data_dim,))]


class MlpParams:
    """All learnable tensors.  Weight matrices are (fan_in, fan_out).

    Every tensor is a named view into one contiguous float64 vector
    ``flat``, laid out in :meth:`named` order, so whole-model operations
    (copies, finiteness checks, optimizer updates) are single array
    operations.  A new instance is all zeros.
    """

    def __init__(self, config, _alloc=np.zeros):
        shapes = list(_tensor_shapes(config))
        sizes = [math.prod(shape) for _, shape in shapes]
        self.config = config
        self.flat = _alloc(sum(sizes))
        parts = np.split(self.flat, np.cumsum(sizes)[:-1])
        self._named = [(name, part.reshape(shape)) for (name, shape), part in zip(shapes, parts)]
        views = dict(self._named)
        self.w_in, self.b_in = views["in.w"], views["in.b"]
        self.blocks = [
            BlockParams(**{f.name: views[f"block{i}.{f.name}"] for f in fields(BlockParams)})
            for i in range(config.n_blocks)
        ]
        self.w_out, self.b_out = views["out.w"], views["out.b"]
        self._buffers = None  # forward's arrays for the latest row count

    def named(self):
        """(name, array) pairs in a fixed canonical order."""
        return iter(self._named)

    def zeros_like(self):
        return MlpParams(self.config)

    def check_finite(self):
        if not np.isfinite(self.flat).all():
            name = next(name for name, arr in self._named if not np.isfinite(arr).all())
            raise ValueError(f"non-finite values in parameter tensor {name!r}")


# ---------------------------------------------------------------------------
# primitives

def _sigmoid(x, out=None, denom=None):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: exp(-|x|) never overflows,
    # and the numerator max(e, copysign(1, x)) needs no branch.  Given x-shaped
    # ``out`` and ``denom``, allocates nothing and returns ``out``.
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numer = np.maximum(e, np.copysign(1.0, x, out=denom), out=denom)
    e += 1.0
    return np.divide(numer, e, out=e)


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


def _layernorm_forward(a, gamma, beta, out=None, xhat=None, scratch=None):
    """Row-wise LayerNorm; returns (gamma * xhat + beta, xhat, inv_std).

    Given a-shaped ``out``, ``xhat`` and ``scratch`` (``out`` and ``xhat``
    may be ``a`` itself), the only arrays allocated are n x 1; an ``xhat``
    that shares ``out`` has been overwritten by the result.
    """
    centered = np.subtract(a, a.mean(axis=1, keepdims=True), out=xhat)
    var = np.square(centered, out=scratch).mean(axis=1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = np.multiply(centered, inv_std, out=centered)
    y = np.multiply(xhat, gamma, out=out)
    y += beta
    return y, xhat, inv_std


def _layernorm_backward(dout, xhat, inv_std, gamma, da=None, dgamma=None, dbeta=None,
                        scratch=None):
    # (da, dgamma, dbeta) by the exact row-wise Jacobian: the mean and variance
    # paths contribute the two subtracted means.  Each goes into the array handed
    # for it (``da`` may be ``dout``), temporaries into ``scratch``; None: fresh.
    dgamma = np.sum(np.multiply(dout, xhat, out=scratch), axis=0, out=dgamma)
    dbeta = np.sum(dout, axis=0, out=dbeta)
    dxhat = np.multiply(dout, gamma, out=da)
    m1 = dxhat.mean(axis=1, keepdims=True)
    m2 = np.multiply(dxhat, xhat, out=scratch).mean(axis=1, keepdims=True)
    dxhat -= m1
    dxhat -= np.multiply(xhat, m2, out=scratch)
    return np.multiply(inv_std, dxhat, out=dxhat), dgamma, dbeta


# ---------------------------------------------------------------------------
# forward / backward

_TILE_ROWS = 512  # most rows one tile of the network pass has


def _tiles(n):
    """Row slices of the ceil(n / _TILE_ROWS) tiles of an n-row pass, in
    order, whose sizes differ by at most one.  With two or more tiles each
    has at least 256 rows: the input and hidden products give the same bits
    on any rows but a single one, which numpy sends to gemv."""
    k = -(-n // _TILE_ROWS)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def _forward(params, x, t, keep):
    """The network pass: ``(v, (z, hs, caches))`` with the input rows z, the
    hidden state entering each block and leaving the last, and per block
    (g, xhat, inv_std, sig, s), which the backward pass reads.

    The input projection and the blocks run on one tile of rows (see _tiles)
    before the next; the output projection is one product over all rows,
    because a row split changes its bits.  Each operation writes into the
    rows of the array it is handed.  With ``keep`` these are n-row arrays of
    this call, beside two tile-sized scratch arrays; otherwise ``params``
    holds, for the latest row count, the hidden state of all n rows and four
    tile-sized buffers: the input rows, one array for g, xhat and s, one for
    sig and the w2 product, and the scratch.
    """
    cfg, n = params.config, x.shape[0]
    d_in, width, m = cfg.data_dim + cfg.time_embed_dim, cfg.hidden, min(n, _TILE_ROWS)
    if keep:
        z, product, denom = np.empty((n, d_in)), *np.empty((2, m, width))
        hs = [np.empty((n, width)) for _ in range(cfg.n_blocks + 1)]
        caches = [[np.empty((n, w)) for w in (width, width, 1, width, width)]
                  for _ in range(cfg.n_blocks)]
    else:
        if params._buffers is None or len(params._buffers[1]) != n:
            params._buffers = (np.empty((m, d_in)), np.empty((n, width)),
                               *(np.empty((m, width)) for _ in range(3)))
        z, h, a, product, denom = params._buffers
        hs = [h] * (cfg.n_blocks + 1)
        caches = [(a, a, np.empty((m, 1)), product, a)] * cfg.n_blocks
    # a scalar t (every sampling call) embeds once and is shared by the rows
    emb = np.broadcast_to(time_embed(t, cfg.time_embed_dim), (n, cfg.time_embed_dim))
    for rows in _tiles(n):
        tile = slice(0, rows.stop - rows.start)
        own = rows if keep else tile  # the rows of z and caches
        z_rows = np.concatenate([x[rows], emb[rows]], axis=1, out=z[own])
        h = np.matmul(z_rows, params.w_in, out=hs[0][rows])
        h += params.b_in
        for blk, h_out, (g, xhat, inv_std, sig, s) in zip(params.blocks, hs[1:], caches):
            g = np.matmul(h, blk.w1, out=g[own])
            g += blk.b1
            _, _, inv_std[own] = _layernorm_forward(g, blk.gamma, blk.beta, out=g,
                                                    xhat=xhat[own], scratch=denom[tile])
            sig = _sigmoid(g, out=sig[own], denom=denom[tile])
            s = np.multiply(g, sig, out=s[own])  # silu
            h = np.add(h, np.matmul(s, blk.w2, out=product[tile]), out=h_out[rows])
            h += blk.b2
    v = hs[-1] @ params.w_out
    v += params.b_out
    return v, (z, hs, caches)


def _guarded(params, run, finite):
    """``run()`` with float errors raised; only if one is, or ``finite``
    rejects the result, are the parameters scanned to name a non-finite one.
    With finite parameters a raising run reruns under the caller's errstate."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = run()
    except FloatingPointError:
        params.check_finite()
        result = run()
    if not finite(result):
        params.check_finite()
    return result


def forward(params, x, t):
    """Velocity batch v(x, t); a new array of the shape of x.

    ``t`` is a scalar shared by the batch or a per-row vector.  Times
    slightly outside [0, 1] are accepted (adaptive solvers probe past the
    endpoints).  Raises ValueError if any parameter tensor is non-finite.

    It runs the pass of :func:`loss_and_grad`, so training and inference
    compute the same floats by construction, but in buffers ``params``
    holds for the latest row count, so a model must not be evaluated from
    two threads at once.  A non-finite parameter always makes the output
    non-finite or raises a floating-point error, and only then are the
    parameters scanned (see :func:`_guarded`).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.config.data_dim:
        raise ValueError(f"expected batch of shape (n, {params.config.data_dim}), got {x.shape}")
    return _guarded(params, lambda: _forward(params, x, t, keep=False)[0],
                    lambda v: v.size and np.isfinite(v).all())


def loss_and_grad(params, x_t, t, u_t):
    """Mean squared velocity-regression loss and its parameter gradients.

    loss = mean over rows of || v(x_t, t) - u_t ||^2.  Returns the scalar
    loss and an :class:`MlpParams`-shaped gradient structure.  Raises
    ValueError if a parameter tensor is non-finite, scanned for as in forward.
    """
    x_t = np.asarray(x_t, dtype=float)
    u_t = np.asarray(u_t, dtype=float)
    if x_t.shape != u_t.shape:
        raise ValueError(f"batch shapes disagree: {x_t.shape} vs {u_t.shape}")
    return _guarded(params, lambda: _loss_and_grad(params, x_t, t, u_t),
                    lambda result: np.isfinite(result[0]))


def _loss_and_grad(params, x_t, t, u_t, alloc=np.empty):
    # The backward pass writes every gradient into its view of grads.flat, a
    # vector from ``alloc`` left unfilled, and its n x hidden temporaries into
    # a block's cached s, sig and g once dead.
    v, (z, hs, caches) = _forward(params, x_t, t, keep=True)
    n = x_t.shape[0]
    r = v - u_t
    loss = float(np.sum(r * r) / n)
    grads = MlpParams(params.config, _alloc=alloc)

    dv = (2.0 / n) * r
    np.matmul(hs[-1].T, dv, out=grads.w_out)
    np.sum(dv, axis=0, out=grads.b_out)
    dh = dv @ params.w_out.T
    for blk, gblk, h_in, (g, xhat, inv_std, sig, s) in zip(
            params.blocks[::-1], grads.blocks[::-1], hs[-2::-1], caches[::-1]):
        np.matmul(s.T, dh, out=gblk.w2)
        np.sum(dh, axis=0, out=gblk.b2)
        dsilu = np.multiply(g, np.subtract(1.0, sig, out=s), out=s)  # sig * (1 + g * (1 - sig))
        dsilu = np.multiply(sig, np.add(1.0, dsilu, out=s), out=s)
        dg = np.multiply(np.matmul(dh, blk.w2.T, out=g), dsilu, out=g)
        da, _, _ = _layernorm_backward(dg, xhat, inv_std, blk.gamma, da=dg,
                                       dgamma=gblk.gamma, dbeta=gblk.beta, scratch=sig)
        np.matmul(h_in.T, da, out=gblk.w1)
        np.sum(da, axis=0, out=gblk.b1)
        dh += np.matmul(da, blk.w1.T, out=s)  # residual passthrough + branch
    np.matmul(z.T, dh, out=grads.w_in)
    np.sum(dh, axis=0, out=grads.b_in)
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
_ADAM_CHUNK = 2**15  # entries updated at a time, in two scratch arrays this long


def adam_update(params, grads, state, lr):
    """One bias-corrected Adam step (beta1=0.9, beta2=0.999, eps=1e-8).

    Mutates ``params`` and ``state`` in place, a chunk at a time, in the float
    operations of ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    scratch = np.empty((2, min(_ADAM_CHUNK, params.flat.size)))
    for lo in range(0, params.flat.size, _ADAM_CHUNK):
        p, g, m, v = (a[lo:lo + _ADAM_CHUNK] for a in (params.flat, grads.flat, state.m, state.v))
        a, b = scratch[:, :p.size]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=b), out=b)
        denom = np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPS, out=b)
        p -= np.divide(np.multiply(lr, np.divide(m, c1, out=a), out=a), denom, out=a)


# ---------------------------------------------------------------------------
# persistence

def params_to_arrays(params):
    """Named row-major nested lists, ready for JSON."""
    return {name: arr.tolist() for name, arr in params.named()}


def params_from_arrays(config, arrays):
    """Inverse of :func:`params_to_arrays`; validates names and shapes, and
    that every value is finite (the error names the first bad tensor).
    Nothing of the size ``config`` gives is allocated before ``arrays`` is
    known to fill it, so a config from a file cannot outgrow the file."""
    loaded = {}
    # a layout longer than arrays misses a name among its first len(arrays) + 1
    for name, shape in itertools.islice(_tensor_shapes(config), len(arrays) + 1):
        if name not in arrays:
            raise ValueError(f"missing parameter tensor {name!r}")
        loaded[name] = arr = np.asarray(arrays[name], dtype=float)
        if arr.shape != shape:
            raise ValueError(f"shape mismatch for {name!r}: {arr.shape} != {shape}")
    extra = set(arrays) - set(loaded)
    if extra:
        raise ValueError(f"unknown parameter tensors: {sorted(extra)}")
    params = MlpParams(config)
    params.flat[...] = np.concatenate([arr.ravel() for arr in loaded.values()])  # named order
    params.check_finite()
    return params
