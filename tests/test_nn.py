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
            assert v.tobytes() == nn._forward(params, x, 0.9, keep=True)[0].tobytes()

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
                assert v.tobytes() == nn._forward(params, x, t, keep=True)[0].tobytes()
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

    def test_wrong_dim_rejected(self):
        params, _, _, _ = tiny_setup()
        with pytest.raises(ValueError):
            nn.forward(params, np.zeros((3, 5)), 0.0)

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

    def test_shape_mismatch_rejected(self):
        params, x, t, _ = tiny_setup()
        with pytest.raises(ValueError):
            nn.loss_and_grad(params, x, t, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", [name for name, _ in nn.MlpParams(TINY).named()])
    def test_non_finite_param_named(self, name, bad):
        params, x, t, u = tiny_setup()
        dict(params.named())[name].flat[0] = bad
        with pytest.raises(ValueError, match=f"tensor '{re.escape(name)}'"):
            nn.loss_and_grad(params, x, t, u)


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
