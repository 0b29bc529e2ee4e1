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
from dataclasses import dataclass, replace

import numpy as np

from .numeric import check_field_types

__all__ = [
    "MlpConfig",
    "BlockParams",
    "MlpParams",
    "AdamState",
    "Workspace",
    "time_embed",
    "forward",
    "loss_and_grad",
    "adam_update",
    "init_params",
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


def _segments(config):
    """Lists of (name, shape): the input projection, each block, the output."""
    d_in = config.data_dim + config.time_embed_dim
    h = config.hidden
    block = {"w1": (h, h), "b1": (h,), "gamma": (h,), "beta": (h,), "w2": (h, h), "b2": (h,)}
    yield [("in.w", (d_in, h)), ("in.b", (h,))]
    for i in range(config.n_blocks):
        yield [(f"block{i}.{key}", shape) for key, shape in block.items()]
    yield [("out.w", (h, config.data_dim)), ("out.b", (config.data_dim,))]


def _views(buf, segment):
    """A segment's tensors as views of the leading entries of ``buf``."""
    ends = itertools.accumulate(math.prod(shape) for _, shape in segment)
    return [buf[end - math.prod(shape):end].reshape(shape) for (_, shape), end in zip(segment, ends)]


class MlpParams:
    """All learnable tensors.  Weight matrices are (fan_in, fan_out).

    Every tensor is a named view into one contiguous float64 vector
    ``flat``, laid out in :meth:`named` order, so whole-model operations
    (copies, finiteness checks, optimizer updates) are single array
    operations.  ``segments`` pairs each _segments list with its slice of
    ``flat``.  A new instance is all zeros.
    """

    def __init__(self, config):
        # sized from one block before the blocks are listed: a huge n_blocks fails at once
        head, block, tail = (sum(math.prod(s) for _, s in seg)
                             for seg in _segments(replace(config, n_blocks=1)))
        self.config = config
        self.flat = np.zeros(head + config.n_blocks * block + tail)
        layout = list(_segments(config))
        ends = list(itertools.accumulate(sum(math.prod(s) for _, s in seg) for seg in layout))
        self.segments = [(slice(lo, end), seg) for lo, end, seg in zip([0, *ends], ends, layout)]
        views = [_views(self.flat[s], seg) for s, seg in self.segments]
        (self.w_in, self.b_in), *blocks, (self.w_out, self.b_out) = views
        self.blocks = [BlockParams(*vs) for vs in blocks]

    def named(self):
        """(name, array) pairs in a fixed canonical order."""
        return ((name, v) for s, seg in self.segments
                for (name, _), v in zip(seg, _views(self.flat[s], seg)))

    def check_finite(self):
        if not np.isfinite(self.flat).all():
            name = next(name for name, arr in self.named() if not np.isfinite(arr).all())
            raise ValueError(f"non-finite values in parameter tensor {name!r}")


# ---------------------------------------------------------------------------
# primitives

def _sigmoid(x, out=None, denom=None):
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below: exp(-|x|) never overflows,
    # and the numerator max(e, x >= 0) needs no branch.  Given x-shaped
    # ``out`` and ``denom``, allocates nothing and returns ``out``.
    e = np.abs(x, out=out)
    np.negative(e, out=e)
    np.exp(e, out=e)
    numer = np.maximum(e, np.greater_equal(x, 0.0, out=denom), out=denom)
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
# Every network computation (pass, loss, backward pass, Adam) runs once under
# these float error settings and reports overflow only through its result.
_QUIET = {"over": "ignore", "divide": "ignore", "invalid": "ignore"}


def _tiles(n):
    """Row slices of the ceil(n / _TILE_ROWS) tiles of an n-row pass, in
    order, whose sizes differ by at most one.  With two or more tiles each
    has at least 256 rows: the input and hidden products give the same bits
    on any rows but a single one, which numpy sends to gemv."""
    k = -(-n // _TILE_ROWS)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def _activations(config, rows):
    """New (z, hs, caches, y, sig, a) for up to ``rows`` rows: per block
    (xhat, inv_std), and three hidden-width scratch arrays."""
    d_in, width, blocks = config.data_dim + config.time_embed_dim, config.hidden, config.n_blocks
    caches = [(np.empty((rows, width)), np.empty((rows, 1))) for _ in range(blocks)]
    return (np.empty((rows, d_in)), list(np.empty((blocks + 1, rows, width))), caches,
            *np.empty((3, rows, width)))


def _forward(params, x, t, keep):
    """The network pass: ``(v, (z, hs, caches, y, sig, a))`` with the input
    rows z, the hidden state entering each block and leaving the last, per
    block (xhat, inv_std), and three scratch arrays for the backward pass.

    The input projection and the blocks run on one tile of rows (see _tiles)
    before the next; the output projection is one product over all rows,
    because a row split changes its bits.  Each block writes LayerNorm's
    output into y, the sigmoid into sig, its denominator and then the silu
    into a, and the w2 product into y.  Each operation writes into the rows
    of the array it is handed: the leading n rows of ``keep``'s (see
    _activations), or else of new ones, the hidden state of all n rows and
    four tile-sized arrays (input rows; y, which xhat shares; sig; a).
    """
    cfg, n = params.config, x.shape[0]
    dim, width, m = cfg.time_embed_dim, cfg.hidden, min(n, _TILE_ROWS)
    if not keep:
        h, (y, sig, a) = np.empty((n, width)), np.empty((3, m, width))
        arrays = (np.empty((m, cfg.data_dim + dim)), [h] * (cfg.n_blocks + 1),
                  [(y, np.empty((m, 1)))] * cfg.n_blocks, y, sig, a)
    z, hs, caches, *scratch = keep or arrays
    z, hs, scratch = z[:n], [h[:n] for h in hs], [a[:n] for a in scratch]
    caches = [[a[:n] for a in c] for c in caches]
    # a scalar t (every sampling call) embeds once, per-row times by tile
    shared = np.broadcast_to(time_embed(t, dim), (n, dim)) if np.ndim(t) == 0 else None
    t = np.broadcast_to(t, n)
    for rows in _tiles(n):
        own = rows if keep else slice(0, rows.stop - rows.start)  # rows of z, caches, scratch
        y, sig, a = (b[own] for b in scratch)
        z_rows = np.concatenate([x[rows], time_embed(t[rows], dim) if shared is None
                                 else shared[rows]], axis=1, out=z[own])
        h = np.matmul(z_rows, params.w_in, out=hs[0][rows])
        h += params.b_in
        for blk, h_out, (xhat, inv_std) in zip(params.blocks, hs[1:], caches):
            g = np.matmul(h, blk.w1, out=y)
            g += blk.b1
            _, _, inv_std[own] = _layernorm_forward(g, blk.gamma, blk.beta, out=y,
                                                    xhat=xhat[own], scratch=sig)
            s = np.multiply(y, _sigmoid(y, out=sig, denom=a), out=a)  # silu
            h = np.add(h, np.matmul(s, blk.w2, out=y), out=h_out[rows])
            h += blk.b2
    v = hs[-1] @ params.w_out
    v += params.b_out
    return v, (z, hs, caches, *scratch)


def forward(params, x, t):
    """Velocity batch v(x, t); a new array of the shape of x.

    ``t`` is a scalar shared by the batch or a per-row vector.  Times
    slightly outside [0, 1] are accepted (adaptive solvers probe past the
    endpoints).  Raises ValueError if any parameter tensor is non-finite.

    It runs the pass of :func:`loss_and_grad`, so training and inference
    compute the same floats by construction, in arrays of its own that it
    drops on return: a model holds nothing but its parameters.  The pass
    emits no float warnings.  A non-finite parameter always makes the
    output non-finite, and only then are the parameters scanned; finite
    parameters whose output overflows return it.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != params.config.data_dim:
        raise ValueError(f"expected batch of shape (n, {params.config.data_dim}), got {x.shape}")
    with np.errstate(**_QUIET):
        v = _forward(params, x, t, keep=False)[0]
    if not (v.size and np.isfinite(v).all()):
        params.check_finite()
    return v


def loss_and_grad(params, x_t, t, u_t):
    """Mean squared velocity-regression loss and its parameter gradients.

    loss = mean over rows of || v(x_t, t) - u_t ||^2.  Returns the scalar
    loss and an :class:`MlpParams`-shaped gradient structure.  Raises
    ValueError if a parameter tensor is non-finite, scanned for as in forward.
    """
    with np.errstate(**_QUIET):
        loss, cache, dv = _loss(params, _activations(params.config, len(x_t)), x_t, t, u_t)
        grads = MlpParams(params.config)
        _backward(params, cache, dv, lambda s: grads.flat[s], lambda s, grad: None)
    return loss, grads


def _loss(params, keep, x_t, t, u_t):
    """``(loss, cache, dloss/dv)`` by :func:`_forward` into ``keep``; only a
    non-finite loss makes it scan the parameters."""
    x_t, u_t = np.asarray(x_t, dtype=float), np.asarray(u_t, dtype=float)
    if x_t.shape != u_t.shape:
        raise ValueError(f"batch shapes disagree: {x_t.shape} vs {u_t.shape}")
    v, cache = _forward(params, x_t, t, keep)
    r = v - u_t
    loss = float(np.sum(r * r) / len(r))
    if not np.isfinite(loss):
        params.check_finite()
    return loss, cache, (2.0 / len(r)) * r


def _backward(params, cache, dv, target, done):
    """The backward pass over :func:`_forward`'s cache, one parameter segment
    at a time from the last.  The gradients of the one at slice s of the flat
    layout go into ``grad = target(s)[:len]``, then ``done(s, grad)`` runs.
    dh goes into the dead hs[-1].  Each block recomputes from xhat, by the
    forward pass's operations, LayerNorm's output y, the sigmoid sig and the
    silu a, which then hold its temporaries until its ``done`` runs."""
    z, hs, caches, y, sig, a = cache
    grads = [(s, target(s)[:s.stop - s.start]) for s, _ in params.segments]
    views = [_views(grad, seg) for (_, grad), (_, seg) in zip(grads, params.segments)]
    np.matmul(hs[-1].T, dv, out=views[-1][0])
    np.sum(dv, axis=0, out=views[-1][1])
    dh = np.matmul(dv, params.w_out.T, out=hs[-1])
    done(*grads[-1])
    for k, blk, h_in, (xhat, inv_std) in zip(
            range(len(params.blocks), 0, -1), params.blocks[::-1], hs[-2::-1], caches[::-1]):
        gblk = BlockParams(*views[k])
        np.multiply(xhat, blk.gamma, out=y)  # as in _layernorm_forward
        y += blk.beta
        s = np.multiply(y, _sigmoid(y, out=sig, denom=a), out=a)
        np.matmul(s.T, dh, out=gblk.w2)
        np.sum(dh, axis=0, out=gblk.b2)
        dsilu = np.multiply(y, np.subtract(1.0, sig, out=a), out=a)  # sig * (1 + y * (1 - sig))
        dsilu = np.multiply(sig, np.add(1.0, dsilu, out=a), out=a)
        dg = np.multiply(np.matmul(dh, blk.w2.T, out=y), dsilu, out=y)
        da, _, _ = _layernorm_backward(dg, xhat, inv_std, blk.gamma, da=dg,
                                       dgamma=gblk.gamma, dbeta=gblk.beta, scratch=sig)
        np.matmul(h_in.T, da, out=gblk.w1)
        np.sum(da, axis=0, out=gblk.b1)
        dh += np.matmul(da, blk.w1.T, out=a)  # residual passthrough + branch
        done(*grads[k])
    np.matmul(z.T, dh, out=views[0][0])
    np.sum(dh, axis=0, out=views[0][1])
    done(*grads[0])


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
_ADAM_CHUNK = 2**15  # most entries updated at a time


def adam_update(params, grads, state, lr):
    """One bias-corrected Adam step (beta1=0.9, beta2=0.999, eps=1e-8).

    Mutates ``params`` and ``state`` in place, a chunk at a time (see _adam).
    """
    state.step += 1
    scratch = np.empty((2, min(_ADAM_CHUNK, params.flat.size)))
    with np.errstate(**_QUIET):
        _adam((params.flat, grads.flat, state.m, state.v), scratch, lr, state.step)


def _adam(segment, scratch, lr, step):
    # Adam's update ``step`` of matching slices of the parameters, gradients
    # and two moments, p -= lr * (m / c1) / (sqrt(v / c2) + eps), in chunks as
    # long as the two scratch vectors; elementwise, so slicing keeps the floats
    c1, c2 = 1.0 - ADAM_BETA1**step, 1.0 - ADAM_BETA2**step
    chunk = len(scratch[0])
    for lo in range(0, segment[0].size, chunk):
        p, g, m, v = (a[lo:lo + chunk] for a in segment)
        a, b = (x[:p.size] for x in scratch)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=a)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=b), out=b)
        denom = np.add(np.sqrt(np.divide(v, c2, out=b), out=b), ADAM_EPS, out=b)
        p -= np.divide(np.multiply(lr, np.divide(m, c1, out=a), out=a), denom, out=a)


class Workspace:
    """Training steps' arrays for up to ``rows`` rows: activations, a window
    as long as the longest parameter segment for its gradients, and as Adam's
    scratch two of the pass's scratch arrays, which hold nothing live
    whenever the backward pass hands a segment to Adam."""

    def __init__(self, params, rows):
        self.activations = _activations(params.config, rows)
        self.window = np.empty(max(s.stop - s.start for s, _ in params.segments))
        self.scratch = [a.reshape(-1)[:_ADAM_CHUNK] for a in self.activations[-2:]]

    def step(self, params, state, x_t, t, u_t, lr):
        """The floats of :func:`loss_and_grad` then :func:`adam_update`, but
        Adam updates each parameter segment once the backward pass is done
        with it; returns the loss.  A non-finite one changes nothing.  The
        step emits no float warnings: overflow shows in the loss it returns,
        which is inf when Adam's second moment overflows (after the update)."""
        with np.errstate(**_QUIET):
            loss, cache, dv = _loss(params, self.activations, x_t, t, u_t)
            if not np.isfinite(loss):
                return loss
            state.step += 1
            _backward(params, cache, dv, lambda s: self.window,
                      lambda s, grad: _adam((params.flat[s], grad, state.m[s], state.v[s]),
                                            self.scratch, lr, state.step))
        return loss if state.v.max() < np.inf else math.inf  # a NaN max fails too


# ---------------------------------------------------------------------------
# persistence

def params_from_arrays(config, arrays):
    """Inverse of ``dict(params.named())`` (arrays or nested lists); checks names,
    shapes and that every value is finite (the error names the first bad tensor).
    Nothing of the size ``config`` gives is allocated before ``arrays`` is
    known to fill it, so a config from a file cannot outgrow the file."""
    loaded = {}
    for name, shape in itertools.chain.from_iterable(_segments(config)):
        if name not in arrays:
            raise ValueError(f"missing parameter tensor {name!r}")
        loaded[name] = arr = np.asarray(arrays[name], dtype=float)
        if arr.shape != shape:
            raise ValueError(f"shape mismatch for {name!r}: {arr.shape} != {shape}")
    extra = set(arrays) - set(loaded)
    if extra:
        raise ValueError(f"unknown parameter tensors: {sorted(extra)}")
    params = MlpParams(config)
    for (_, view), arr in zip(params.named(), loaded.values()):  # both in named order
        view[...] = arr
    params.check_finite()
    return params
