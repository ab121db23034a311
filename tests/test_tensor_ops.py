"""Forward semantics of every op against the nested-loop oracles."""

import numpy as np
import pytest

from stnet import ops
from stnet.tensor import NumericsError, Tensor

import naive_reference as ref


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def conv3d_t311(x, w):
    """The TM conv on a [B,C,T,H,W] input with a (O,C,3,1,1) kernel: conv2d
    with a (3, 1) kernel on the [C,B,T,H*W] view, as the model runs it."""
    b, c, t, h, wd = x.shape
    y = ops.conv2d(t64(x.transpose(1, 0, 2, 3, 4).reshape(c, b, t, h * wd)),
                   t64(w[:, :, :, :, 0].reshape(w.shape[0], c, 3, 1)))
    return y.data.reshape(-1, b, t, h, wd).transpose(1, 0, 2, 3, 4)


class TestConv2d:
    def test_box_sum_symmetry(self):
        x = t64(np.ones((1, 1, 4, 4)))
        w = t64(np.ones((1, 1, 3, 3)))
        y = ops.conv2d(x, w, stride=1).data[0, 0]
        assert y[1, 1] == y[1, 2] == 9
        assert y[0, 0] == y[0, 3] == y[3, 0] == y[3, 3] == 4

    def test_super_image_stem_shape(self):
        # 5 stacked frames -> 15 input channels; 7x7 stride-2 stem halves 8 -> 4
        rng = np.random.default_rng(0)
        x = t64(rng.standard_normal((15, 1, 8, 8)))
        w = t64(rng.standard_normal((64, 15, 7, 7)))
        y = ops.conv2d(x, w, stride=2)
        assert y.shape == (64, 1, 4, 4)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        got = ops.conv2d(t64(x.transpose(1, 0, 2, 3)), t64(w), stride=1)
        assert ref.relative_error(got.data.transpose(1, 0, 2, 3),
                                  ref.conv2d_ref(x, w, 1)) < 1e-6

    def test_channel_mismatch_raises(self):
        x = t64(np.zeros((3, 1, 4, 4)))
        w = t64(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ops.conv2d(x, w)


class TestConv3dT311:
    def test_window_average_with_zero_padding(self):
        c, v = 4, 2.5
        x = np.full((1, c, 5, 2, 2), v)
        w = np.full((c, c, 3, 1, 1), 1.0 / (3 * c))
        y = conv3d_t311(x, w)
        assert np.allclose(y[:, :, 1:-1], v)
        assert np.allclose(y[:, :, 0], 2 * v / 3)
        assert np.allclose(y[:, :, -1], 2 * v / 3)

    def test_three_frame_sequence(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1, 1)
        y = conv3d_t311(x, np.ones((1, 1, 3, 1, 1)))
        assert np.allclose(y.ravel(), [3, 6, 5])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 5, 2, 2))
        w = rng.standard_normal((3, 4, 3, 1, 1))
        got = conv3d_t311(x, w)
        assert ref.relative_error(got, ref.conv3d_t311_ref(x, w, np.zeros(3))) < 1e-6


class TestTemporalConv3Input:
    def test_wrong_weight_shape_rejected(self):
        x = t64(np.zeros((1, 3, 2)))
        for shape in ((3, 3), (2, 2, 2), (1, 2, 3, 1, 1)):
            with pytest.raises(ValueError, match="weight must have shape"):
                ops.temporal_conv3(x, t64(np.zeros(shape)), t64(np.zeros(shape[0])))

    def test_spatial_input_rejected(self):
        # Only the heads' sequences: the TM conv runs through conv2d.
        with pytest.raises(ValueError, match=r"expects \[B,T,C\]"):
            ops.temporal_conv3(t64(np.zeros((1, 3, 2, 4, 4))), t64(np.zeros((2, 2, 3))),
                               t64(np.zeros(2)))

    @pytest.mark.parametrize("shape", [(3, 2), (1, 3, 2, 4)])
    def test_only_batched_sequences_accepted(self, shape):
        with pytest.raises(ValueError, match=r"expects \[B,T,C\]"):
            ops.temporal_conv3(t64(np.zeros(shape)), t64(np.zeros((2, 3))), t64(np.zeros(2)))
        with pytest.raises(ValueError, match=r"expects \[B,T,C\]"):
            ops.temporal_max_pool(t64(np.zeros(shape)))


class TestConv1dChannelwise:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        w = np.zeros((4, 3))
        w[:, 1] = 1.0
        y = ops.temporal_conv3(t64(x[None]), t64(w), t64(np.zeros(4)))
        assert np.allclose(y.data[0], x)

    def test_three_step_sequence(self):
        y = ops.temporal_conv3(t64([[[1.0], [2.0], [3.0]]]),
                               t64(np.ones((1, 3))), t64(np.zeros(1)))
        assert np.allclose(y.data.ravel(), [3, 6, 5])

    def test_batched_equals_per_sequence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5, 2))
        w, b = rng.standard_normal((2, 3)), rng.standard_normal(2)
        batched = ops.temporal_conv3(t64(x), t64(w), t64(b)).data
        for i in range(3):
            single = ops.temporal_conv3(t64(x[i:i + 1]), t64(w), t64(b)).data
            assert np.allclose(batched[i], single[0])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 3))
        w, b = rng.standard_normal((3, 3)), rng.standard_normal(3)
        got = ops.temporal_conv3(t64(x[None]), t64(w), t64(b))
        assert ref.relative_error(got.data[0], ref.conv1d_channelwise_ref(x, w, b)) < 1e-6

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ops.temporal_conv3(t64(np.zeros((1, 4, 3))),
                               t64(np.zeros((2, 3))), t64(np.zeros(2)))


class TestConv1dTemporalwise:
    def test_identity_weight(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3))
        y = ops.linear(t64(x), t64(np.eye(3)), t64(np.zeros(3)))
        assert np.allclose(y.data, x)

    def test_dot_product_example(self):
        y = ops.linear(t64([[1.0, 2.0], [3.0, 4.0]]),
                       t64([[1.0, 1.0]]), t64([0.5]))
        assert np.allclose(y.data, [[3.5], [7.5]])

    def test_equals_matmul_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 4))
        w, b = rng.standard_normal((3, 4)), rng.standard_normal(3)
        got = ops.linear(t64(x), t64(w), t64(b)).data
        assert np.allclose(got, x @ w.T + b)
        assert ref.relative_error(got, ref.conv1d_temporalwise_ref(x, w, b)) < 1e-6


class TestConv1dFull:
    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 3))
        w, b = rng.standard_normal((4, 3, 3)), rng.standard_normal(4)
        got = ops.temporal_conv3(t64(x[None]), t64(w), t64(b))
        assert ref.relative_error(got.data[0], ref.conv1d_full_ref(x, w, b)) < 1e-6


class TestBatchNorm:
    @staticmethod
    def _params(c, **overrides):
        base = {"alpha": np.ones(c), "beta": np.zeros(c),
                "mean": np.zeros(c), "var": np.full(c, 1.0 - ops.BN_EPS)}
        base.update(overrides)
        return {k: t64(v) for k, v in base.items()}

    def test_identity_configuration(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3))
        p = self._params(4)
        y = ops.batch_norm(t64(x), p["alpha"], p["beta"], p["mean"], p["var"],
                           training=False)
        assert np.allclose(y.data, x)

    def test_inference_formula(self):
        p = self._params(1, alpha=[3.0], beta=[1.0], mean=[2.0],
                         var=[4.0 - ops.BN_EPS])
        y = ops.batch_norm(t64([[4.0]]), p["alpha"], p["beta"], p["mean"],
                           p["var"], training=False)
        assert np.allclose(y.data, 3 * (4 - 2) / 2 + 1)

    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((5, 64)) * 2 + 3
        p = self._params(5)
        y = ops.batch_norm(t64(x), p["alpha"], p["beta"], p["mean"], p["var"],
                           training=True)
        assert np.abs(y.data.mean(axis=1)).max() < 1e-5
        assert np.abs(y.data.var(axis=1) - 1).max() < 1e-5

    def test_matches_oracle_infer_and_train(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 4))
        alpha, beta = rng.standard_normal(3), rng.standard_normal(3)
        mean, var = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        for training in (False, True):
            p = self._params(3, alpha=alpha, beta=beta, mean=mean, var=var)
            got = ops.batch_norm(t64(x.transpose(1, 0, 2, 3)), p["alpha"], p["beta"],
                                 p["mean"], p["var"], training=training)
            want = ref.batch_norm_ref(x, alpha, beta, mean, var, 1, training)
            assert ref.relative_error(got.data.transpose(1, 0, 2, 3), want) < 1e-6

    def test_running_stats_update(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 256)) + 5.0
        p = self._params(2)
        ops.batch_norm(t64(x), p["alpha"], p["beta"], p["mean"], p["var"],
                       training=True)
        # momentum 0.9: new = 0.9 * old + 0.1 * batch
        assert np.allclose(p["mean"].data, 0.1 * x.mean(axis=1))

    def test_empty_batch_in_train_mode(self):
        p = self._params(2)
        with pytest.raises(ValueError, match="non-empty"):
            ops.batch_norm(t64(np.zeros((2, 0))), p["alpha"], p["beta"],
                           p["mean"], p["var"], training=True)

    def test_non_finite_batch_statistics_raise_before_running_update(self):
        # float32 entries near 1e20 overflow xc*xc, so the batch variance is
        # inf: the op must raise, not return beta and store inf running stats.
        x = Tensor(np.array([[1e20, -1e20], [1.0, 2.0]], dtype=np.float32))
        p = {k: Tensor(t.data.astype(np.float32)) for k, t in self._params(2).items()}
        before = {k: p[k].data.tobytes() for k in ("mean", "var")}
        with np.errstate(over="ignore"):
            with pytest.raises(NumericsError,
                               match="non-finite batch statistics in op 'batch_norm'"):
                ops.batch_norm(x, p["alpha"], p["beta"], p["mean"], p["var"],
                               training=True)
        assert {k: p[k].data.tobytes() for k in ("mean", "var")} == before

    # (geometry, reduction over the clip-major layout the network carried
    # before activations were channel-major, the same data channel-major).
    # Backbone: [B*T, C, H, W] over every axis but C. TM: the [B, T, C, H, W]
    # view of a [B, C, T, H, W] buffer. TXB head: a [B, T, C] sequence.
    CLIP_MAJOR_SUMS = {
        "backbone": ((64, 16, 32, 32), lambda a: a.sum(axis=(0, 2, 3)),
                     lambda a: a.transpose(1, 0, 2, 3)),
        "backbone_1x1": ((8, 64, 7, 7), lambda a: a.sum(axis=(0, 2, 3)),
                         lambda a: a.transpose(1, 0, 2, 3)),
        "tm": ((16, 32, 4, 16, 16), lambda a: a.swapaxes(1, 2).sum(axis=(0, 1, 3, 4)),
               lambda a: a.transpose(1, 0, 2, 3, 4)),
        "txb": ((16, 4, 64), lambda a: a.sum(axis=(0, 1)),
                lambda a: a.reshape(-1, a.shape[-1]).T),
    }

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", sorted(CLIP_MAJOR_SUMS))
    def test_channel_sum_rounds_as_the_clip_major_sums(self, layout, dtype):
        # _channel_sum of the channel-major data gives the bytes of numpy's
        # reduction over the clip-major layout, so training sums did not move
        # with the layout; a strided view of the data gives them too.
        shape, clip_major_sum, channel_major = self.CLIP_MAJOR_SUMS[layout]
        a = (np.random.default_rng(7).standard_normal(shape) + 3).astype(dtype)
        want = clip_major_sum(a)
        view = channel_major(a)
        assert ops._channel_sum(view).tobytes() == want.tobytes()
        assert ops._channel_sum(np.ascontiguousarray(view)).tobytes() == want.tobytes()

    def test_infer_mode_is_affine(self):
        rng = np.random.default_rng(13)
        p = self._params(3, alpha=rng.standard_normal(3),
                         beta=rng.standard_normal(3),
                         mean=rng.standard_normal(3), var=rng.uniform(0.5, 2, 3))

        def bn(arr):
            return ops.batch_norm(t64(arr), p["alpha"], p["beta"], p["mean"],
                                  p["var"], training=False).data

        x1, x2 = rng.standard_normal((2, 3, 4))
        zero = bn(np.zeros((3, 4)))
        assert np.allclose((bn(x1) - zero) + (bn(x2) - zero), bn(x1 + x2) - zero)


class TestBatchNormRelu:
    """``batch_norm(..., relu=True)`` against a batch norm followed by a relu."""

    @staticmethod
    def _draw(rng, c, dtype):
        return {"alpha": rng.standard_normal(c).astype(dtype),
                "beta": rng.standard_normal(c).astype(dtype),
                "mean": rng.standard_normal(c).astype(dtype),
                "var": rng.uniform(0.5, 2.0, c).astype(dtype)}

    @staticmethod
    def _run(fn, xd, p, g):
        """Output, gradients of x, alpha and beta, and running buffers of one call."""
        x = Tensor(xd, requires_grad=True)
        alpha, beta = (Tensor(p[k].copy(), requires_grad=True) for k in ("alpha", "beta"))
        mean, var = Tensor(p["mean"].copy()), Tensor(p["var"].copy())
        y = fn(x, alpha, beta, mean, var)
        y.backward(g)
        return y.data, x.grad, alpha.grad, beta.grad, mean.data, var.data

    # A backbone [C, B*T, H, W] activation, and a TM block's [C, B, T, H, W].
    @pytest.mark.parametrize("shape", [(5, 6, 4, 3), (5, 2, 3, 4, 3)], ids=["backbone", "tm"])
    def test_train_mode_is_byte_equal_to_separate_relu(self, shape):
        rng = np.random.default_rng(21)
        xd = rng.standard_normal(shape).astype(np.float32)
        p = self._draw(rng, shape[0], np.float32)
        g = rng.standard_normal(xd.shape).astype(np.float32)
        fused = self._run(lambda x, a, b, m, v: ops.batch_norm(
            x, a, b, m, v, training=True, relu=True), xd, p, g)
        separate = self._run(lambda x, a, b, m, v: ops.relu(ops.batch_norm(
            x, a, b, m, v, training=True)), xd, p, g)
        assert 0 < np.count_nonzero(fused[0]) < fused[0].size
        for got, want in zip(fused, separate):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    def test_infer_mode_matches_oracle_and_relu(self, dtype, tol):
        rng = np.random.default_rng(22)
        xd = rng.standard_normal((3, 4, 5, 2)).astype(dtype)
        p = self._draw(rng, 4, dtype)
        g = rng.standard_normal(xd.shape).astype(dtype)
        # The op runs on the channel-major [C, B, H, W] transpose of the NCHW draw.
        y, gx, ga, gb, mean, var = self._run(lambda x, a, b, m, v: ops.batch_norm(
            x, a, b, m, v, training=False, relu=True),
            np.ascontiguousarray(xd.transpose(1, 0, 2, 3)), p,
            np.ascontiguousarray(g.transpose(1, 0, 2, 3)))
        y, gx = y.transpose(1, 0, 2, 3), gx.transpose(1, 0, 2, 3)
        pre = ref.batch_norm_ref(xd.astype(np.float64), p["alpha"], p["beta"],
                                 p["mean"], p["var"], 1, False)
        assert y.dtype == dtype
        assert 0 < np.count_nonzero(y) < y.size
        # Gradients of relu(A * x + B), with A = alpha / sqrt(var + eps).
        bshape = (1, -1, 1, 1)
        inv = 1 / np.sqrt(p["var"].astype(np.float64) + ops.BN_EPS)
        gm = g * (pre > 0)
        xhat = (xd - p["mean"].reshape(bshape)) * inv.reshape(bshape)
        for got, want in ((y, np.maximum(pre, 0)),
                          (gx, gm * (p["alpha"] * inv).reshape(bshape)),
                          (ga, np.sum(gm * xhat, axis=(0, 2, 3))),
                          (gb, np.sum(gm, axis=(0, 2, 3)))):
            # Relative to the largest entry: a sum that cancels to near 0 keeps
            # the rounding of its terms.
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))
        assert mean.tobytes() == p["mean"].tobytes() and var.tobytes() == p["var"].tobytes()

    @pytest.mark.parametrize("relu", [False, True])
    def test_infer_output_dtype_follows_every_input(self, relu):
        # float32 activations with one float64 parameter give float64, as the
        # unfolded (x - m) * inv * alpha + beta does.
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
        p = self._draw(rng, 3, np.float32)
        for name in p:
            q = {k: Tensor(v.astype(np.float64) if k == name else v) for k, v in p.items()}
            y = ops.batch_norm(x, q["alpha"], q["beta"], q["mean"], q["var"],
                               training=False, relu=relu)
            assert y.dtype == np.float64, name
        q = {k: Tensor(v) for k, v in p.items()}
        y = ops.batch_norm(x, q["alpha"], q["beta"], q["mean"], q["var"],
                           training=False, relu=relu)
        assert y.dtype == np.float32

    @staticmethod
    def _out_of_place_grads(xd, p, g, training):
        """Gradients of x, alpha and beta of the fused op, each step a new array."""
        c = xd.shape[0]
        bshape = (c,) + (1,) * (xd.ndim - 1)
        if training:
            n = xd.size // c
            xc = xd - (ops._channel_sum(xd) / n).reshape(bshape)
            inv = 1.0 / np.sqrt(ops._channel_sum(xc * xc) / n + ops.BN_EPS)
            xhat = xc * inv.reshape(bshape)
            y = xhat * p["alpha"].reshape(bshape) + p["beta"].reshape(bshape)
        else:
            inv = 1.0 / np.sqrt(p["var"] + ops.BN_EPS)
            xhat = (xd - p["mean"].reshape(bshape)) * inv.reshape(bshape)
            a = p["alpha"] * inv
            y = xd * a.reshape(bshape) + (p["beta"] - p["mean"] * a).reshape(bshape)
        gm = g * (y > 0)
        ga = gm * p["alpha"].reshape(bshape)
        if training:
            s1 = ops._channel_sum(ga).reshape(bshape)
            s2 = ops._channel_sum(ga * xhat).reshape(bshape)
            gx = (inv.reshape(bshape) / n) * (n * ga - s1 - xhat * s2)
        else:
            gx = ga * inv.reshape(bshape)
        return gx, ops._channel_sum(gm * xhat), ops._channel_sum(gm)

    @pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
    def test_in_place_backward_keeps_seed_and_out_of_place_bytes(self, training):
        # The backward works in the node's own gradient buffer: the caller's
        # seed is left as it was, and an output used twice (its gradient is
        # g + g) gets the gradients of the out-of-place formulas, byte for byte.
        rng = np.random.default_rng(24)
        xd = rng.standard_normal((5, 6, 4, 3)).astype(np.float32)
        p = self._draw(rng, 5, np.float32)
        g = rng.standard_normal(xd.shape).astype(np.float32)
        seed = g.copy()

        def bn(x, a, b, m, v):
            return ops.batch_norm(x, a, b, m, v, training=training, relu=True)

        def bn_twice(*args):
            y = bn(*args)
            return y + y
        for fn, g_out in ((bn, g), (bn_twice, g + g)):
            _, gx, galpha, gbeta, _, _ = self._run(fn, xd, p, g)
            assert g.tobytes() == seed.tobytes()
            want = self._out_of_place_grads(xd, p, g_out, training)
            for got, w in zip((gx, galpha, gbeta), want):
                assert got.dtype == w.dtype and got.tobytes() == w.tobytes()


class TestReluAndPooling:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_relu_is_byte_equal_to_where(self, dtype):
        tiny = np.finfo(dtype).smallest_subnormal
        x = np.array([-0.0, 0.0, -1.5, 2.0, tiny, -tiny, -3.0, 7.25], dtype=dtype)
        y = ops.relu(Tensor(x)).data
        want = np.where(x > 0, x, 0)
        assert y.dtype == want.dtype == dtype
        assert y.tobytes() == want.tobytes()
        assert not np.signbit(y).any()

    def test_relu_basic(self):
        y = ops.relu(t64([-1.0, 0.0, 2.0]))
        assert np.allclose(y.data, [0, 0, 2])

    def test_relu_all_negative_zero_gradient(self):
        x = t64(-np.ones(4), grad=True)
        y = ops.relu(x)
        y.backward(np.ones(4))
        assert np.all(y.data == 0) and np.all(x.grad == 0)

    def test_relu_positive_gradient_passthrough(self):
        x = t64([1.0, 2.0], grad=True)
        up = np.array([0.3, -0.7])
        ops.relu(x).backward(up)
        assert np.array_equal(x.grad, up)

    def test_relu_backward_keeps_the_seed(self):
        x = t64([-1.0, 2.0, 0.5], grad=True)
        g = np.array([0.3, -0.7, 1.5])
        y = ops.relu(x)
        (y + y).backward(g)
        assert np.array_equal(g, [0.3, -0.7, 1.5])
        assert np.array_equal(x.grad, [0.0, -1.4, 3.0])
        x = t64([-1.0, 2.0, 0.5], grad=True)
        ops.relu(x).backward(g)
        assert np.array_equal(g, [0.3, -0.7, 1.5])
        assert np.array_equal(x.grad, [0.0, -0.7, 1.5])

    def test_gap_constant(self):
        y = ops.mean_over(t64(np.full((2, 3, 4, 5), 7.0)), (2, 3))
        assert np.allclose(y.data, 7.0)

    def test_gap_mean(self):
        y = ops.mean_over(t64(np.array([1.0, 2, 3, 4]).reshape(1, 1, 2, 2)), (2, 3))
        assert np.allclose(y.data, 2.5)

    def test_gap_backward_uniform(self):
        x = t64(np.zeros((1, 2, 2, 2)), grad=True)
        ops.mean_over(x, (2, 3)).backward(np.array([[1.0, 2.0]]))
        assert np.allclose(x.grad[0, 0], 0.25)
        assert np.allclose(x.grad[0, 1], 0.5)

    @pytest.mark.parametrize("axis", [1, (2, 3), (1, 3)])
    def test_gap_over_an_empty_axis_names_it(self, axis):
        with pytest.raises(ValueError, match=r"mean_over: axis \d of \(2, 0, 4, 0\) is empty"):
            ops.mean_over(t64(np.zeros((2, 0, 4, 0))), axis)

    def test_tmax_t1_identity(self):
        x = t64(np.array([[[1.0, -2.0, 3.0]]]))
        assert np.allclose(ops.temporal_max_pool(x).data[0], [1, -2, 3])

    def test_tmax_columnwise(self):
        y = ops.temporal_max_pool(t64([[[1.0, 5.0], [3.0, 2.0]]]))
        assert np.allclose(y.data[0], [3, 5])

    def test_tmax_tie_routes_to_first(self):
        x = t64([[[2.0], [2.0]]], grad=True)
        ops.temporal_max_pool(x).backward(np.array([[1.0]]))
        assert np.allclose(x.grad[0], [[1.0], [0.0]])

    def test_tmax_matches_oracle(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 4))
        got = ops.temporal_max_pool(t64(x[None])).data[0]
        assert np.allclose(got, ref.temporal_max_pool_ref(x))

    def test_max_pool2d_matches_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 7, 8))
        got = ops.max_pool2d(t64(x)).data
        assert np.allclose(got, ref.max_pool2d_ref(x))

    def test_max_pool2d_tie_routes_to_first_in_bounds(self):
        # On an all-zero 5x5 map every 3x3/2 window ties; output row i reads
        # input rows 2i-1..2i+1, whose first in-bounds row is 0, 1, 3.
        x = t64(np.zeros((1, 1, 5, 5)), grad=True)
        g = np.arange(1.0, 10.0).reshape(1, 1, 3, 3)
        y = ops.max_pool2d(x)
        y.backward(g)
        assert np.array_equal(y.data, np.zeros((1, 1, 3, 3)))
        want = np.zeros((1, 1, 5, 5))
        want[:, :, [[0], [1], [3]], [0, 1, 3]] = g
        assert np.array_equal(x.grad, want)


class TestFcAndLosses:
    def test_fc_identity(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((3, 4))
        y = ops.linear(t64(x), t64(np.eye(4)), t64(np.zeros(4)))
        assert np.allclose(y.data, x)

    def test_fc_matches_matmul_oracle(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((3, 5))
        w, b = rng.standard_normal((2, 5)), rng.standard_normal(2)
        got = ops.linear(t64(x), t64(w), t64(b)).data
        assert ref.relative_error(got, ref.fc_ref(x, w, b)) < 1e-6

    def test_uniform_logits_loss(self):
        loss = ops.softmax_cross_entropy(t64(np.zeros((3, 4))), np.array([0, 1, 3]))
        assert np.allclose(loss.data, np.log(4))

    def test_large_margin_loss_vanishes(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 60.0
        loss = ops.softmax_cross_entropy(t64(logits), np.array([2]))
        assert loss.item() < 1e-12

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(18)
        z = rng.standard_normal((4, 3))
        labels = np.array([0, 2, 1, 1])
        logits = t64(z, grad=True)
        ops.softmax_cross_entropy(logits, labels).backward()
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1
        assert np.allclose(logits.grad, p / 4)

    @pytest.mark.parametrize("shape, axis", [((0, 3), 0), ((2, 0), 1)])
    def test_empty_logits_name_the_empty_axis(self, shape, axis):
        with pytest.raises(ValueError, match=f"axis {axis} of logits .* is empty"):
            ops.softmax_cross_entropy(t64(np.zeros(shape)), np.zeros(shape[0], int))

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label out of range"):
            ops.softmax_cross_entropy(t64(np.zeros((1, 3))), np.array([3]))


class TestReceptiveFields:
    def test_two_channelwise_convs_have_rf_5(self):
        rng = np.random.default_rng(19)
        t = 11
        w1, b1 = rng.standard_normal((2, 3)), rng.standard_normal(2)
        w2, b2 = rng.standard_normal((2, 3)), rng.standard_normal(2)

        def net(x):
            h = ops.temporal_conv3(t64(x[None]), t64(w1), t64(b1))
            return ops.temporal_conv3(h, t64(w2), t64(b2)).data[0]

        x = rng.standard_normal((t, 2))
        base = net(x)
        for t0 in range(t):
            bumped = x.copy()
            bumped[t0] += 1.0
            changed = np.abs(net(bumped) - base).max(axis=1) > 1e-12
            affected = np.nonzero(changed)[0]
            assert all(abs(int(i) - t0) <= 2 for i in affected)
            assert changed[t0]

    def test_temporalwise_conv_has_rf_1(self):
        rng = np.random.default_rng(20)
        w, b = rng.standard_normal((3, 2)), rng.standard_normal(3)
        x = rng.standard_normal((7, 2))
        base = ops.linear(t64(x), t64(w), t64(b)).data
        for t0 in range(7):
            bumped = x.copy()
            bumped[t0] += 1.0
            out = ops.linear(t64(bumped), t64(w), t64(b)).data
            changed = np.nonzero(np.abs(out - base).max(axis=1) > 1e-12)[0]
            assert list(changed) == [t0]


class TestGraphPlumbing:
    def test_reshape_transpose_round_trip(self):
        rng = np.random.default_rng(21)
        x = t64(rng.standard_normal((2, 3, 4)), grad=True)
        y = x.reshape((6, 4)).reshape((2, 3, 4))
        assert np.array_equal(y.data, x.data)
        z = x.transpose((2, 0, 1)).transpose((1, 2, 0))
        assert np.array_equal(z.data, x.data)
        (y + z).backward(np.ones((2, 3, 4)))
        assert np.allclose(x.grad, 2.0)

    def test_gradients_accumulate_into_shared_inputs(self):
        x = t64([1.0, 2.0], grad=True)
        y = ops.relu(x) + ops.relu(x)
        y.backward(np.ones(2))
        assert np.allclose(x.grad, 2.0)

    def test_first_gradient_keeps_negative_zero(self):
        # The first gradient is copied, not added to zeros (0.0 + -0.0 is +0.0).
        x = Tensor(np.ones(3, np.float32), requires_grad=True)
        x.accumulate_grad(np.array([-0.0, 1.0, -0.0], np.float32))
        assert np.signbit(x.grad).tolist() == [True, False, True]
        x.accumulate_grad(np.zeros(3, np.float32))
        assert not np.signbit(x.grad).any()

    def test_first_gradient_takes_the_leaf_layout(self):
        # A leaf that is a transposed view gets a gradient with its own
        # strides, whatever the layout of the gradient handed to it.
        x = Tensor(np.arange(12, dtype=np.float32).reshape(3, 4).T, requires_grad=True)
        g = np.ascontiguousarray(np.arange(12, dtype=np.float32).reshape(4, 3))
        x.accumulate_grad(g)
        assert x.grad.strides == x.data.strides != g.strides
        assert np.array_equal(x.grad, g)

    def test_non_finite_result_raises(self):
        big = Tensor(np.full((1, 2), 3e38, dtype=np.float32), requires_grad=True)
        w = Tensor(np.full((2, 2), 3e38, dtype=np.float32))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericsError, match="linear"):
                ops.linear(big, w, Tensor(np.zeros(2, dtype=np.float32)))

    def test_non_finite_leaf_raises(self):
        with pytest.raises(NumericsError):
            Tensor(np.array([1.0, np.nan]))


SHAPE_CASES = 25  # per op family; keeps the whole sweep well under the budget


class TestRandomOracleSweep:
    """Vectorized forwards match the nested-loop oracles on random shapes."""

    def test_conv2d_sweep(self):
        rng = np.random.default_rng(100)
        for _ in range(SHAPE_CASES):
            b, c, o = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            k = int(rng.integers(1, 4))
            s = int(rng.integers(1, 3))
            rng.integers(0, 3)  # the draw of a padding, now k // 2: later shapes stay as they were
            h = int(rng.integers(k, k + 4))
            w = int(rng.integers(k, k + 4))
            x = rng.standard_normal((b, c, h, w))
            wt = rng.standard_normal((o, c, k, k))
            rng.standard_normal(o)  # the draw of a conv bias: later shapes stay as they were
            got = ops.conv2d(t64(x.transpose(1, 0, 2, 3)), t64(wt),
                             stride=s).data.transpose(1, 0, 2, 3)
            assert ref.relative_error(got, ref.conv2d_ref(x, wt, s)) < 1e-6

    def test_conv3d_sweep(self):
        rng = np.random.default_rng(101)
        for _ in range(SHAPE_CASES):
            b, c, o = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            t, h, w = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = rng.standard_normal((b, c, t, h, w))
            wt = rng.standard_normal((o, c, 3, 1, 1))
            rng.standard_normal(o)  # the draw of a bias: later shapes stay as they were
            got = conv3d_t311(x, wt)
            assert ref.relative_error(got, ref.conv3d_t311_ref(x, wt, np.zeros(o))) < 1e-6

    def test_seq_conv_sweep(self):
        rng = np.random.default_rng(102)
        for _ in range(SHAPE_CASES):
            t, ci, co = int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = rng.standard_normal((t, ci))
            wc, bc = rng.standard_normal((ci, 3)), rng.standard_normal(ci)
            got = ops.temporal_conv3(t64(x[None]), t64(wc), t64(bc)).data[0]
            assert ref.relative_error(got, ref.conv1d_channelwise_ref(x, wc, bc)) < 1e-6
            wt, bt = rng.standard_normal((co, ci)), rng.standard_normal(co)
            got = ops.linear(t64(x), t64(wt), t64(bt)).data
            assert ref.relative_error(got, ref.conv1d_temporalwise_ref(x, wt, bt)) < 1e-6
            wf, bf = rng.standard_normal((co, ci, 3)), rng.standard_normal(co)
            got = ops.temporal_conv3(t64(x[None]), t64(wf), t64(bf)).data[0]
            assert ref.relative_error(got, ref.conv1d_full_ref(x, wf, bf)) < 1e-6

    def test_bn_and_pool_sweep(self):
        rng = np.random.default_rng(103)
        for _ in range(SHAPE_CASES):
            shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5))))
            axis = 1 if len(shape) == 4 else len(shape) - 1
            c = shape[axis]
            x = rng.standard_normal(shape)
            alpha, beta = rng.standard_normal(c), rng.standard_normal(c)
            mean, var = rng.standard_normal(c), rng.uniform(0.5, 2, c)
            for training in (False, True):
                if training and int(np.prod(shape)) // c < 1:
                    continue
                got = np.moveaxis(ops.batch_norm(
                    t64(np.moveaxis(x, axis, 0)), t64(alpha), t64(beta), t64(mean.copy()),
                    t64(var.copy()), training=training).data, 0, axis)
                want = ref.batch_norm_ref(x, alpha, beta, mean, var, axis, training)
                assert ref.relative_error(got, want) < 1e-6
            x4 = rng.standard_normal((2, 3, int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            assert ref.relative_error(ops.mean_over(t64(x4), (2, 3)).data,
                                      ref.global_avg_pool2d_ref(x4)) < 1e-6
            xs = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 5))))
            assert np.allclose(ops.temporal_max_pool(t64(xs[None])).data[0],
                               ref.temporal_max_pool_ref(xs))
