import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from fmsolve import nn
from fmsolve.numeric import Rng

TINY = nn.MlpConfig(data_dim=2, hidden=8, n_blocks=1, time_embed_dim=4)


def tiny_setup(seed=0, batch=4):
    rng = Rng(seed)
    params = nn.init_params(TINY, rng)
    # give the zero output layer some structure so gradients flow everywhere
    params.w_out[...] = rng.normal(size=params.w_out.shape) * 0.3
    params.b_out[...] = rng.normal(size=params.b_out.shape) * 0.1
    x = rng.normal(size=(batch, 2))
    t = rng.uniform(size=batch)
    u = rng.normal(size=(batch, 2))
    return params, x, t, u


def finite_difference_grads(params, x, t, u, eps=1e-5):
    """Central-difference gradient of the loss for every parameter entry."""
    fd = params.zeros_like()
    fd_named = dict(fd.named())
    for name, arr in params.named():
        target = fd_named[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            keep = arr[idx]
            arr[idx] = keep + eps
            lp, _ = nn.loss_and_grad(params, x, t, u)
            arr[idx] = keep - eps
            lm, _ = nn.loss_and_grad(params, x, t, u)
            arr[idx] = keep
            target[idx] = (lp - lm) / (2.0 * eps)
    return fd


def max_rel_error(grads, fd):
    worst = 0.0
    for (_, g), (_, f) in zip(grads.named(), fd.named()):
        denom = np.maximum(np.maximum(np.abs(g), np.abs(f)), 1e-8)
        worst = max(worst, float(np.max(np.abs(g - f) / denom)))
    return worst


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def default_setup(n=256):
    """The 256x4 default network with a nonzero output layer, and a batch."""
    rng = Rng(13)
    params = nn.init_params(nn.MlpConfig(), rng)
    params.w_out[...] = rng.normal(size=params.w_out.shape) * 0.1
    return params, rng.normal(size=(n, 2)), rng.uniform(size=n), rng.normal(size=(n, 2))


def digest(*arrays):
    """sha256 of the values written with 10 decimals, as in
    test_generate_pinned: BLAS kernels differ in the last bits between
    CPUs, while 10 decimals still pin every float operation that matters.
    A rounded zero is written without its sign."""
    text = ",".join(f"{v:.10f}" for a in arrays for v in np.ravel(a))
    return hashlib.sha256(text.replace("-0.0000000000", "0.0000000000").encode()).hexdigest()


# (config, seed) of the pinned networks; each is perturbed off its init so
# every tensor, the zeroed output layer included, shapes the output
PINNED = {
    "tiny": (TINY, 3),
    "3d-16x2": (nn.MlpConfig(data_dim=3, hidden=16, n_blocks=2, time_embed_dim=6), 4),
    "2d-32x3": (nn.MlpConfig(data_dim=2, hidden=32, n_blocks=3, time_embed_dim=8), 5),
}


def pinned_setup(key):
    cfg, seed = PINNED[key]
    rng = Rng(seed)
    params = nn.init_params(cfg, rng)
    params.flat[...] += 0.1 * rng.normal(size=params.flat.shape)
    # row counts 7/3/256/208, scalar and per-row times alternating
    batches = []
    for i, n in enumerate((7, 3, 256, 208)):
        x = rng.normal(size=(n, cfg.data_dim))
        t = rng.uniform(size=n) if i % 2 else float(rng.uniform(size=1)[0])
        batches.append((x, t, rng.normal(size=(n, cfg.data_dim))))
    return params, batches


# sha256 (see digest) of forward over the four batches of pinned_setup
FORWARD_DIGESTS = {
    "tiny": "1885db318ebbdd23953c4f6458c60835ba2c0ca333cda4098af2f9417f9e9695",
    "3d-16x2": "f101d6c292b6e7ee7b656dceb786c5986982a2aed81cded264d835b89583235d",
    "2d-32x3": "20559f89b165131c4852be01dae708758d4a4995738b9c8ac3b3de7f62170ec0",
}

# ... and of each batch's loss followed by its flat gradient
LOSS_AND_GRAD_DIGESTS = {
    "tiny": "b37d6e584567e58b4a5c2a0c45ca03692fed5d7e42411f3377e2460961ab27f7",
    "3d-16x2": "ef5d77eac287083a24518473f187ab44e0b3688cdcf6119a9c102136f2b7ee18",
    "2d-32x3": "bb271aec60e8870872b87833c1ca0295097f896c5830079e368e690e842a75eb",
}


@pytest.mark.parametrize("key", PINNED)
def test_forward_pinned(key):
    params, batches = pinned_setup(key)
    outputs = [nn.forward(params, x, t).copy() for x, t, _ in batches]
    assert digest(*outputs) == FORWARD_DIGESTS[key]


@pytest.mark.parametrize("key", PINNED)
def test_loss_and_grad_pinned(key):
    params, batches = pinned_setup(key)
    values = []
    for x, t, u in batches:
        loss, grads = nn.loss_and_grad(params, x, t, u)
        values += [loss, grads.flat]
    assert digest(*values) == LOSS_AND_GRAD_DIGESTS[key]


class TestTimeEmbed:
    def test_zero_time(self):
        e = nn.time_embed(0.0, 6)
        assert np.array_equal(e[0::2], np.zeros(3))
        assert np.array_equal(e[1::2], np.ones(3))

    def test_output_dimension(self):
        for dim in (2, 4, 64):
            assert nn.time_embed(0.37, dim).shape == (dim,)

    def test_lowest_frequency_period(self):
        # first pair has frequency 1, so t and t + 2*pi agree there
        a = nn.time_embed(0.2, 8)
        b = nn.time_embed(0.2 + 2 * np.pi, 8)
        assert a[:2] == pytest.approx(b[:2], abs=1e-9)

    def test_frequency_range(self):
        w = nn._time_frequencies(64)
        assert w[0] == 1.0 and w[-1] == pytest.approx(1000.0)

    def test_vector_of_times_matches_scalar_calls(self):
        ts = np.array([0.0, 0.25, 0.731, 1.0, 1.02])
        expected = np.stack([nn.time_embed(t, 64) for t in ts])
        assert np.array_equal(nn.time_embed(ts, 64), expected)

    def test_odd_dim_rejected(self):
        with pytest.raises(ValueError):
            nn.time_embed(0.0, 5)


class TestForward:
    def test_zero_init_gives_zero_field(self):
        params = nn.init_params(TINY, Rng(1))
        x = Rng(2).normal(size=(5, 2))
        assert np.array_equal(nn.forward(params, x, 0.5), np.zeros((5, 2)))

    def test_batch_shape(self):
        params, x, t, _ = tiny_setup()
        assert nn.forward(params, x, t).shape == x.shape

    def test_row_permutation_equivariance(self):
        params, x, t, _ = tiny_setup(batch=6)
        v = nn.forward(params, x, t)
        perm = [3, 1, 5, 0, 2, 4]
        v_perm = nn.forward(params, x[perm], t[perm])
        assert np.array_equal(v_perm, v[perm])

    def test_scalar_time_broadcast(self):
        params, x, _, _ = tiny_setup()
        a = nn.forward(params, x, 0.25)
        b = nn.forward(params, x, np.full(x.shape[0], 0.25))
        assert np.array_equal(a, b)

    def test_finite_for_huge_inputs(self):
        params, _, _, _ = tiny_setup()
        x = np.array([[1e6, -1e6], [1e6, 1e6]])
        assert np.all(np.isfinite(nn.forward(params, x, 0.9)))

    def test_non_finite_params_identified(self):
        params, x, t, _ = tiny_setup()
        params.blocks[0].w1[0, 0] = np.nan
        with pytest.raises(ValueError, match="block0.w1"):
            nn.forward(params, x, t)
        with pytest.raises(ValueError, match="block0.w1"):  # no output row to poison
            nn.forward(params, x[:0], t[:0])

    @pytest.mark.parametrize("per_row_t", [False, True], ids=["scalar-t", "per-row-t"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [name for name, _ in nn.MlpParams(TINY).named()])
    def test_non_finite_param_named(self, name, bad, per_row_t):
        params, x, t, _ = tiny_setup()
        dict(params.named())[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"tensor '{re.escape(name)}'"):
            nn.forward(params, x, t if per_row_t else 0.5)

    def test_overflow_from_extreme_inputs_still_warns(self):
        # finite parameters: the overflow comes from the input and is
        # reported under the caller's error handling, with the usual output
        params, _, _, _ = tiny_setup()
        x = np.array([[1e200, -1e200], [0.1, 0.2]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            v = nn.forward(params, x, 0.9)
        with np.errstate(over="ignore"):
            assert v.tobytes() == nn._forward(params, x, 0.9, nn._activations(params.config, 2))[0].tobytes()

    def test_matches_cached_forward_bit_for_bit(self):
        # forward reuses per-model buffers; every result must equal the
        # pass in its training layout and stay intact after later calls
        for cfg, seed in ((TINY, 3), (nn.MlpConfig(data_dim=3, hidden=16, n_blocks=2,
                                                    time_embed_dim=6), 4)):
            rng = Rng(seed)
            params = nn.init_params(cfg, rng)
            params.flat[...] += 0.1 * rng.normal(size=params.flat.shape)
            results = []
            for i, n in enumerate((7, 3, 7, 7)):
                x = rng.normal(size=(n, cfg.data_dim))
                t = rng.uniform(size=n) if i % 2 else float(rng.uniform(size=1)[0])
                x_before = x.copy()
                x.setflags(write=False)
                v = nn.forward(params, x, t)
                assert v.tobytes() == nn._forward(params, x, t, nn._activations(cfg, n))[0].tobytes()
                assert np.array_equal(x, x_before)
                results.append((v, v.copy()))
            assert all(np.array_equal(v, kept) for v, kept in results)

    def test_repeat_call_allocates_less_than_one_hidden_array(self):
        cfg = nn.MlpConfig(data_dim=2, hidden=64, n_blocks=2)
        rng = Rng(6)
        params = nn.init_params(cfg, rng)
        params.w_out[...] = rng.normal(size=params.w_out.shape)
        x = rng.normal(size=(512, 2))
        nn.forward(params, x, 0.3)  # sizes the buffers for 512 rows
        tracemalloc.start()
        try:
            nn.forward(params, x, 0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 64 * 8

    @pytest.mark.parametrize("per_row_t", [False, True], ids=["scalar-t", "per-row-t"])
    @pytest.mark.parametrize("n", [511, 512, 513, 1023, 1025, 2000, 2051])
    @pytest.mark.parametrize("key", ["256x4", "3d-16x2"])
    def test_matches_untiled_pass_bit_for_bit(self, key, n, per_row_t):
        # the tiles must leave every product and row-wise kernel as it is on
        # all n rows at once, here built from nn's primitives
        if key == "256x4":
            params, x, t, _ = default_setup(n)
        else:
            params, _ = pinned_setup(key)
            rng = Rng(n)
            x, t = rng.normal(size=(n, 3)), rng.uniform(size=n)
        t = t if per_row_t else 0.41
        cfg = params.config
        emb = np.broadcast_to(nn.time_embed(t, cfg.time_embed_dim), (n, cfg.time_embed_dim))
        h = np.concatenate([x, emb], axis=1) @ params.w_in + params.b_in
        for blk in params.blocks:
            g, _, _ = nn._layernorm_forward(h @ blk.w1 + blk.b1, blk.gamma, blk.beta)
            h = h + (g * nn._sigmoid(g)) @ blk.w2 + blk.b2
        expected = h @ params.w_out + params.b_out
        assert nn.forward(params, x, t).tobytes() == expected.tobytes()

    def test_tiles_split_rows_evenly_with_no_single_row_tile(self):
        for n in range(1, 5001):
            tiles = nn._tiles(n)
            sizes = [rows.stop - rows.start for rows in tiles]
            assert len(tiles) == -(-n // 512)
            assert tiles[0].start == 0 and tiles[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
            assert max(sizes) - min(sizes) <= 1
            assert min(sizes) >= 2 or n == 1

    def test_first_call_holds_one_hidden_array_and_four_tiles(self):
        # a sampling call: 2000 rows, one time; buffers of n rows throughout
        # (the input rows and four hidden-width arrays) peaked at 16.8 MiB
        params, x, _, _ = default_setup(2000)
        bound = (2000 + 4 * 512) * params.config.hidden * 8
        assert traced_peak(nn.forward, params, x, 0.3) < bound

    def test_first_per_row_call_embeds_a_tile_at_a_time(self):
        # per-row times within the scalar-t bound above plus the n x 2
        # inputs; embedding all n rows up front peaked at 9.1 MiB
        params, x, t, _ = default_setup(2000)
        bound = (2000 + 4 * 512) * params.config.hidden * 8 + x.nbytes
        assert traced_peak(nn.forward, params, x, t) < bound

    def test_wrong_dim_rejected(self):
        params, _, _, _ = tiny_setup()
        with pytest.raises(ValueError):
            nn.forward(params, np.zeros((3, 5)), 0.0)
        for n_t in (2, 4):  # a per-row t whose length is not the row count
            with pytest.raises(ValueError):
                nn.forward(params, np.zeros((3, 2)), np.zeros(n_t))

    def test_identity_block_property(self):
        # zeroed second linears reduce the net to the two projections
        params, x, t, _ = tiny_setup()
        for blk in params.blocks:
            blk.w2[...] = 0.0
            blk.b2[...] = 0.0
        emb = np.stack([nn.time_embed(ti, TINY.time_embed_dim) for ti in t])
        z = np.concatenate([x, emb], axis=1)
        expected = (z @ params.w_in + params.b_in) @ params.w_out + params.b_out
        assert nn.forward(params, x, t) == pytest.approx(expected, rel=1e-14)


class TestLossAndGrad:
    def test_perfect_prediction_gives_zero(self):
        params, x, t, _ = tiny_setup()
        u = nn.forward(params, x, t)
        loss, grads = nn.loss_and_grad(params, x, t, u)
        assert loss == 0.0
        assert all(np.all(g == 0) for _, g in grads.named())

    def test_quadratic_scaling(self):
        params, x, t, u = tiny_setup()
        v = nn.forward(params, x, t)
        l1, _ = nn.loss_and_grad(params, x, t, u)
        l2, _ = nn.loss_and_grad(params, x, t, v - 2.0 * (v - u))  # doubled residual
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)

    def test_gradcheck_end_to_end(self):
        params, x, t, u = tiny_setup()
        _, grads = nn.loss_and_grad(params, x, t, u)
        fd = finite_difference_grads(params, x, t, u)
        assert max_rel_error(grads, fd) < 1e-4

    def test_gradcheck_deeper_net(self):
        cfg = nn.MlpConfig(data_dim=1, hidden=4, n_blocks=2, time_embed_dim=2)
        rng = Rng(11)
        params = nn.init_params(cfg, rng)
        params.w_out[...] = rng.normal(size=params.w_out.shape)
        x = rng.normal(size=(3, 1))
        t = rng.uniform(size=3)
        u = rng.normal(size=(3, 1))
        _, grads = nn.loss_and_grad(params, x, t, u)
        fd = finite_difference_grads(params, x, t, u)
        assert max_rel_error(grads, fd) < 1e-4

    @pytest.mark.parametrize("setup", [tiny_setup, default_setup], ids=["tiny", "256x4"])
    def test_backward_writes_every_gradient_entry(self, setup):
        # the public call hands the backward pass an uninitialized vector
        params, x, t, u = setup()
        loss, got = nn.loss_and_grad(params, x, t, u, _alloc=lambda size: np.full(size, np.nan))
        expected_loss, expected = nn.loss_and_grad(params, x, t, u)
        assert loss == expected_loss and got.flat.tobytes() == expected.flat.tobytes()

    def test_shape_mismatch_rejected(self):
        params, x, t, _ = tiny_setup()
        with pytest.raises(ValueError):
            nn.loss_and_grad(params, x, t, np.zeros((2, 2)))
        with pytest.raises(ValueError):  # one column must not broadcast to two
            nn.loss_and_grad(params, x[:, :1], t, x[:, :1])

    def test_allocates_little_beyond_its_activations_and_gradients(self):
        # one fresh gradient vector, each block's five kept n x hidden arrays
        # (its input h, g, xhat, sig and s) and four more: the hidden state
        # the last block leaves, the two scratch arrays of the pass and dh
        params, x, t, u = default_setup()
        n, cfg = x.shape[0], params.config
        bound = params.flat.nbytes + (5 * cfg.n_blocks + 4) * n * cfg.hidden * 8
        assert traced_peak(nn.loss_and_grad, params, x, t, u) < bound

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [name for name, _ in nn.MlpParams(TINY).named()])
    def test_non_finite_param_named(self, name, bad):
        params, x, t, u = tiny_setup()
        dict(params.named())[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"tensor '{re.escape(name)}'"):
            nn.loss_and_grad(params, x, t, u)


def step_batches(config, sizes):
    rng = Rng(17)
    d = config.data_dim
    return [(rng.normal(size=(n, d)), rng.uniform(size=n), rng.normal(size=(n, d))) for n in sizes]


class TestTrainStep:
    @pytest.mark.parametrize("setup, sizes", [(tiny_setup, (4, 4, 3)),
                                              (default_setup, (256, 256, 208))],
                             ids=["tiny", "256x4"])
    def test_matches_loss_and_grad_then_adam_update_bit_for_bit(self, setup, sizes):
        # three steps in one workspace, the last on a shorter batch
        params, ref = setup()[0], setup()[0]
        state, ref_state = nn.AdamState.for_params(params), nn.AdamState.for_params(ref)
        workspace = nn.Workspace(params, sizes[0])
        for x, t, u in step_batches(params.config, sizes):
            loss = workspace.step(params, state, x, t, u, 3e-3)
            ref_loss, grads = nn.loss_and_grad(ref, x, t, u)
            nn.adam_update(ref, grads, ref_state, 3e-3)
            assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes()
        assert state.step == ref_state.step == 3
        for got, expected in ((params.flat, ref.flat), (state.m, ref_state.m),
                              (state.v, ref_state.v)):
            assert got.tobytes() == expected.tobytes()

    def test_non_finite_loss_leaves_params_and_state_untouched(self):
        params, x, t, u = default_setup()
        state = nn.AdamState.for_params(params)
        workspace = nn.Workspace(params, 256)
        workspace.step(params, state, x, t, u, 1e-3)
        before = [a.copy() for a in (params.flat, state.m, state.v)]
        u[5, 1] = np.nan
        assert np.isnan(workspace.step(params, state, x, t, u, 1e-3))
        assert state.step == 1
        for got, kept in zip((params.flat, state.m, state.v), before):
            assert got.tobytes() == kept.tobytes()

    def test_later_step_allocates_less_than_one_hidden_array(self):
        # the activations, gradients and Adam scratch all live in the
        # workspace; fresh activations each step let the allocator hand
        # their pages back and fault them in again
        params, x, t, u = default_setup()
        state = nn.AdamState.for_params(params)
        workspace = nn.Workspace(params, 256)
        workspace.step(params, state, x, t, u, 1e-3)
        peak = traced_peak(workspace.step, params, state, x, t, u, 1e-3)
        assert peak < 256 * params.config.hidden * 8


class TestLayerPrimitives:
    """Finite-difference checks of each layer's backward rule in isolation."""

    def test_layernorm_jacobian(self):
        rng = Rng(21)
        a = rng.normal(size=(3, 6))
        gamma = rng.normal(size=6) + 1.5
        beta = rng.normal(size=6)
        w = rng.normal(size=(3, 6))  # random linear functional of the output

        def scalar(a_):
            out, _, _ = nn._layernorm_forward(a_, gamma, beta)
            return float(np.sum(w * out))

        out, xhat, inv_std = nn._layernorm_forward(a, gamma, beta)
        da, dgamma, dbeta = nn._layernorm_backward(w, xhat, inv_std, gamma)
        eps = 1e-6
        fd = np.zeros_like(a)
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                ap, am = a.copy(), a.copy()
                ap[i, j] += eps
                am[i, j] -= eps
                fd[i, j] = (scalar(ap) - scalar(am)) / (2 * eps)
        assert da == pytest.approx(fd, rel=1e-6, abs=1e-8)
        # affine parameter gradients
        assert dgamma == pytest.approx((w * xhat).sum(axis=0), rel=1e-12)
        assert dbeta == pytest.approx(w.sum(axis=0), rel=1e-12)

    def test_layernorm_statistics(self):
        a = Rng(3).normal(size=(50, 32)) * 2.0 + 1.0
        _, xhat, _ = nn._layernorm_forward(a, np.ones(32), np.zeros(32))
        assert np.max(np.abs(xhat.mean(axis=1))) < 1e-10
        assert np.max(np.abs(xhat.var(axis=1) - 1.0)) < 1e-10

    def test_silu_derivative(self):
        g = np.linspace(-6, 6, 41)
        sig = nn._sigmoid(g)
        analytic = sig * (1.0 + g * (1.0 - sig))
        eps = 1e-6
        silu = lambda v: v * nn._sigmoid(v)
        fd = (silu(g + eps) - silu(g - eps)) / (2 * eps)
        assert analytic == pytest.approx(fd, abs=1e-9)

    @pytest.mark.parametrize("buffers", [False, True], ids=["fresh", "out-denom"])
    def test_sigmoid_matches_reference_bit_for_bit(self, buffers):
        # the stable logistic written out: 1/(1+e^-x) for x >= 0, e^x/(1+e^x) below
        tiny = np.finfo(float).smallest_subnormal
        x = np.concatenate([
            [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 745.0, -745.0, 800.0, -800.0,
             np.inf, -np.inf, np.nan, -np.nan],
            Rng(31).normal(size=400) * 5.0,
        ]).reshape(-1, 2)
        e = np.exp(-np.abs(x))
        expected = np.where(x >= 0, 1.0, e) / (1.0 + e)
        if buffers:
            out, denom = np.empty_like(x), np.empty_like(x)
            got = nn._sigmoid(x, out=out, denom=denom)
            assert got is out
        else:
            got = nn._sigmoid(x)
        assert got.tobytes() == expected.tobytes()

    def test_sigmoid_stable_at_extremes(self):
        with np.errstate(over="raise"):
            v = nn._sigmoid(np.array([-np.inf, -1e4, -750.0, 750.0, 1e4, np.inf]))
        assert v == pytest.approx([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], abs=1e-12)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params, _, _, _ = tiny_setup()
        before = params.flat.copy()
        state = nn.AdamState.for_params(params)
        nn.adam_update(params, params.zeros_like(), state, lr=1e-3)
        assert state.step == 1
        assert np.array_equal(params.flat, before)

    def test_first_step_magnitude(self):
        # bias correction makes m_hat/sqrt(v_hat) = g/|g| on step one
        params, _, _, _ = tiny_setup()
        grads = params.zeros_like()
        for _, g in grads.named():
            g[...] = 0.37
        before = params.flat.copy()
        state = nn.AdamState.for_params(params)
        nn.adam_update(params, grads, state, lr=1e-3)
        assert np.abs(np.abs(params.flat - before) - 1e-3).max() < 1e-9

    def test_identical_grads_update_identically(self):
        params, _, _, _ = tiny_setup()
        grads = params.zeros_like()
        for _, g in grads.named():
            g[...] = -0.8
        state = nn.AdamState.for_params(params)
        nn.adam_update(params, grads, state, lr=1e-2)
        d1 = params.blocks[0].w1 - tiny_setup()[0].blocks[0].w1
        d2 = params.blocks[0].w2 - tiny_setup()[0].blocks[0].w2
        assert d1 == pytest.approx(d2)


    @pytest.mark.parametrize("cfg", [TINY, nn.MlpConfig()], ids=["tiny", "256x4"])
    def test_matches_whole_vector_formula_bit_for_bit(self, cfg):
        # 256x4 has 546,050 = 2 * 273,025 entries, so no power-of-two chunk
        # from 4 up divides its vector; TINY's is shorter than one chunk
        rng = Rng(12)
        params = nn.init_params(cfg, rng)
        ref_p, ref_m, ref_v = params.flat.copy(), np.zeros_like(params.flat), np.zeros_like(params.flat)
        state = nn.AdamState.for_params(params)
        grads = params.zeros_like()
        for t in range(1, 4):
            grads.flat[...] = rng.normal(size=grads.flat.shape) * 10.0 ** (t - 2)
            nn.adam_update(params, grads, state, lr=3e-3)
            g = grads.flat
            ref_m = ref_m * 0.9 + (1.0 - 0.9) * g
            ref_v = ref_v * 0.999 + (1.0 - 0.999) * (g * g)
            ref_p = ref_p - 3e-3 * (ref_m / (1.0 - 0.9**t)) / (np.sqrt(ref_v / (1.0 - 0.999**t)) + 1e-8)
        assert state.step == 3
        for got, expected in ((params.flat, ref_p), (state.m, ref_m), (state.v, ref_v)):
            assert got.tobytes() == expected.tobytes()

    def test_allocates_less_than_half_the_flat_vector(self):
        params, x, t, u = default_setup()
        _, grads = nn.loss_and_grad(params, x, t, u)
        state = nn.AdamState.for_params(params)
        assert traced_peak(nn.adam_update, params, grads, state, 1e-3) < params.flat.nbytes / 2


class TestInitAndPersistence:
    def test_deterministic_init(self):
        a = nn.init_params(TINY, Rng(5))
        b = nn.init_params(TINY, Rng(5))
        for (_, x), (_, y) in zip(a.named(), b.named()):
            assert np.array_equal(x, y)

    def test_parameter_count_regression(self):
        # frozen count for the default 2D configuration (~0.55M)
        cfg = nn.MlpConfig(data_dim=2, hidden=256, n_blocks=4, time_embed_dim=64)
        assert nn.MlpParams(cfg).flat.size == 546_050
        assert nn.init_params(cfg, Rng(0)).flat.size == 546_050

    def test_init_bounds(self):
        params = nn.init_params(TINY, Rng(8))
        bound = 1.0 / np.sqrt(TINY.hidden)
        assert np.abs(params.blocks[0].w1).max() <= bound
        assert np.array_equal(params.blocks[0].gamma, np.ones(TINY.hidden))
        assert np.array_equal(params.w_out, np.zeros_like(params.w_out))

    def test_json_round_trip_bit_exact(self):
        params, _, _, _ = tiny_setup()
        blob = json.dumps(nn.params_to_arrays(params))
        loaded = nn.params_from_arrays(TINY, json.loads(blob))
        for (_, a), (_, b) in zip(params.named(), loaded.named()):
            assert np.array_equal(a, b)

    def test_load_copies_each_tensor_into_its_view(self):
        # the arrays, as load_model hands them over, go straight into the
        # parameter vector; concatenating them first peaked at twice its size
        params = nn.init_params(nn.MlpConfig(), Rng(0))
        arrays = {name: arr.copy() for name, arr in params.named()}
        assert traced_peak(nn.params_from_arrays, params.config, arrays) < 1.25 * params.flat.nbytes

    def test_load_rejects_bad_payloads(self):
        params, _, _, _ = tiny_setup()
        arrays = nn.params_to_arrays(params)
        missing = dict(arrays)
        del missing["out.w"]
        with pytest.raises(ValueError, match="missing"):
            nn.params_from_arrays(TINY, missing)
        extra = dict(arrays)
        extra["bogus"] = [0.0]
        with pytest.raises(ValueError, match="unknown"):
            nn.params_from_arrays(TINY, extra)
        wrong = dict(arrays)
        wrong["in.b"] = [0.0]
        with pytest.raises(ValueError, match="shape"):
            nn.params_from_arrays(TINY, wrong)

    def test_load_rejects_non_finite_values(self):
        params, _, _, _ = tiny_setup()
        params.blocks[0].w1[0, 0] = np.nan
        with pytest.raises(ValueError, match="block0.w1"):
            nn.params_from_arrays(TINY, nn.params_to_arrays(params))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            nn.MlpConfig(data_dim=2, hidden=0)
        with pytest.raises(ValueError):
            nn.MlpConfig(data_dim=2, time_embed_dim=7)
