"""Forward semantics of every op against the nested-loop oracles."""

import numpy as np
import pytest

from stnet import ops
from stnet.tensor import NumericsError, Tensor

import naive_reference as ref


def t64(arr, grad=False):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def conv3d_t311(x, w, b):
    """temporal_conv3 on a [B,C,T,H,W] input with a (O,C,3,1,1) kernel."""
    y = ops.temporal_conv3(t64(x.transpose(0, 2, 1, 3, 4)), t64(w[:, :, :, 0, 0]), t64(b))
    return y.data.transpose(0, 2, 1, 3, 4)


class TestConv2d:
    def test_box_sum_symmetry(self):
        x = t64(np.ones((1, 1, 4, 4)))
        w = t64(np.ones((1, 1, 3, 3)))
        y = ops.conv2d(x, w, stride=1, padding=1).data[0, 0]
        assert y[1, 1] == y[1, 2] == 9
        assert y[0, 0] == y[0, 3] == y[3, 0] == y[3, 3] == 4

    def test_super_image_stem_shape(self):
        # 5 stacked frames -> 15 input channels; 7x7 stride-2 stem halves 8 -> 4
        rng = np.random.default_rng(0)
        x = t64(rng.standard_normal((1, 15, 8, 8)))
        w = t64(rng.standard_normal((64, 15, 7, 7)))
        y = ops.conv2d(x, w, stride=2, padding=3)
        assert y.shape == (1, 64, 4, 4)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 5, 5))
        w = rng.standard_normal((4, 3, 3, 3))
        got = ops.conv2d(t64(x), t64(w), stride=1, padding=1)
        assert ref.relative_error(got.data, ref.conv2d_ref(x, w, 1, 1)) < 1e-6

    def test_channel_mismatch_raises(self):
        x = t64(np.zeros((1, 3, 4, 4)))
        w = t64(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channel mismatch"):
            ops.conv2d(x, w)


class TestConv3dT311:
    def test_window_average_with_zero_padding(self):
        c, v = 4, 2.5
        x = np.full((1, c, 5, 2, 2), v)
        w = np.full((c, c, 3, 1, 1), 1.0 / (3 * c))
        y = conv3d_t311(x, w, np.zeros(c))
        assert np.allclose(y[:, :, 1:-1], v)
        assert np.allclose(y[:, :, 0], 2 * v / 3)
        assert np.allclose(y[:, :, -1], 2 * v / 3)

    def test_three_frame_sequence(self):
        x = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3, 1, 1)
        y = conv3d_t311(x, np.ones((1, 1, 3, 1, 1)), np.zeros(1))
        assert np.allclose(y.ravel(), [3, 6, 5])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 4, 5, 2, 2))
        w = rng.standard_normal((3, 4, 3, 1, 1))
        b = rng.standard_normal(3)
        got = conv3d_t311(x, w, b)
        assert ref.relative_error(got, ref.conv3d_t311_ref(x, w, b)) < 1e-6

    def test_channel_sums_follow_clip_major_layout(self):
        # Per-channel sums over the [B,T,C,H,W] output (the TM block's batch
        # norm) must add in the order of a contiguous [B,C,T,H,W] 3D-conv
        # output, or training results depend on the axis order of the call.
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((4, 4, 8, 8, 8)).astype(np.float32))
        w = Tensor(rng.standard_normal((8, 8, 3)).astype(np.float32))
        y = ops.temporal_conv3(x, w, Tensor(np.zeros(8, np.float32))).data
        clip_major = np.ascontiguousarray(y.transpose(0, 2, 1, 3, 4))
        assert np.array_equal(y.sum(axis=(0, 1, 3, 4)), clip_major.sum(axis=(0, 2, 3, 4)))

    def test_wrong_weight_shape_rejected(self):
        x = t64(np.zeros((1, 3, 2, 4, 4)))
        for shape in ((3, 3), (2, 2, 2), (1, 2, 3, 1, 1)):
            with pytest.raises(ValueError, match="weight must have shape"):
                ops.temporal_conv3(x, t64(np.zeros(shape)), t64(np.zeros(shape[0])))


class TestConv1dChannelwise:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 4))
        w = np.zeros((4, 3))
        w[:, 1] = 1.0
        y = ops.temporal_conv3(t64(x), t64(w), t64(np.zeros(4)))
        assert np.allclose(y.data, x)

    def test_three_step_sequence(self):
        y = ops.temporal_conv3(t64([[1.0], [2.0], [3.0]]),
                               t64(np.ones((1, 3))), t64(np.zeros(1)))
        assert np.allclose(y.data.ravel(), [3, 6, 5])

    def test_batched_equals_per_sequence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 5, 2))
        w, b = rng.standard_normal((2, 3)), rng.standard_normal(2)
        batched = ops.temporal_conv3(t64(x), t64(w), t64(b)).data
        for i in range(3):
            single = ops.temporal_conv3(t64(x[i]), t64(w), t64(b)).data
            assert np.allclose(batched[i], single)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((7, 3))
        w, b = rng.standard_normal((3, 3)), rng.standard_normal(3)
        got = ops.temporal_conv3(t64(x), t64(w), t64(b))
        assert ref.relative_error(got.data, ref.conv1d_channelwise_ref(x, w, b)) < 1e-6

    def test_channel_count_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ops.temporal_conv3(t64(np.zeros((4, 3))),
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
        got = ops.temporal_conv3(t64(x), t64(w), t64(b))
        assert ref.relative_error(got.data, ref.conv1d_full_ref(x, w, b)) < 1e-6


class TestBatchNorm:
    @staticmethod
    def _params(c, **overrides):
        base = {"alpha": np.ones(c), "beta": np.zeros(c),
                "mean": np.zeros(c), "var": np.full(c, 1.0 - ops.BN_EPS)}
        base.update(overrides)
        return {k: t64(v) for k, v in base.items()}

    def test_identity_configuration(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4))
        p = self._params(4)
        y = ops.batch_norm(t64(x), p["alpha"], p["beta"], p["mean"], p["var"],
                           axis=1, training=False)
        assert np.allclose(y.data, x)

    def test_inference_formula(self):
        p = self._params(1, alpha=[3.0], beta=[1.0], mean=[2.0],
                         var=[4.0 - ops.BN_EPS])
        y = ops.batch_norm(t64([[4.0]]), p["alpha"], p["beta"], p["mean"],
                           p["var"], axis=1, training=False)
        assert np.allclose(y.data, 3 * (4 - 2) / 2 + 1)

    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((64, 5)) * 2 + 3
        p = self._params(5)
        y = ops.batch_norm(t64(x), p["alpha"], p["beta"], p["mean"], p["var"],
                           axis=1, training=True)
        assert np.abs(y.data.mean(axis=0)).max() < 1e-5
        assert np.abs(y.data.var(axis=0) - 1).max() < 1e-5

    def test_matches_oracle_infer_and_train(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 4, 4))
        alpha, beta = rng.standard_normal(3), rng.standard_normal(3)
        mean, var = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
        for training in (False, True):
            p = self._params(3, alpha=alpha, beta=beta, mean=mean, var=var)
            got = ops.batch_norm(t64(x), p["alpha"], p["beta"], p["mean"],
                                 p["var"], axis=1, training=training)
            want = ref.batch_norm_ref(x, alpha, beta, mean, var, 1, training)
            assert ref.relative_error(got.data, want) < 1e-6

    def test_running_stats_update(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((256, 2)) + 5.0
        p = self._params(2)
        ops.batch_norm(t64(x), p["alpha"], p["beta"], p["mean"], p["var"],
                       axis=1, training=True)
        # momentum 0.9: new = 0.9 * old + 0.1 * batch
        assert np.allclose(p["mean"].data, 0.1 * x.mean(axis=0))

    def test_empty_batch_in_train_mode(self):
        p = self._params(2)
        with pytest.raises(ValueError, match="non-empty"):
            ops.batch_norm(t64(np.zeros((0, 2))), p["alpha"], p["beta"],
                           p["mean"], p["var"], axis=1, training=True)

    def test_non_finite_batch_statistics_raise_before_running_update(self):
        # float32 entries near 1e20 overflow xc*xc, so the batch variance is
        # inf: the op must raise, not return beta and store inf running stats.
        x = Tensor(np.array([[1e20, 1.0], [-1e20, 2.0]], dtype=np.float32))
        p = {k: Tensor(t.data.astype(np.float32)) for k, t in self._params(2).items()}
        before = {k: p[k].data.tobytes() for k in ("mean", "var")}
        with np.errstate(over="ignore"):
            with pytest.raises(NumericsError,
                               match="non-finite batch statistics in op 'batch_norm'"):
                ops.batch_norm(x, p["alpha"], p["beta"], p["mean"], p["var"],
                               axis=1, training=True)
        assert {k: p[k].data.tobytes() for k in ("mean", "var")} == before

    def test_infer_mode_is_affine(self):
        rng = np.random.default_rng(13)
        p = self._params(3, alpha=rng.standard_normal(3),
                         beta=rng.standard_normal(3),
                         mean=rng.standard_normal(3), var=rng.uniform(0.5, 2, 3))

        def bn(arr):
            return ops.batch_norm(t64(arr), p["alpha"], p["beta"], p["mean"],
                                  p["var"], axis=1, training=False).data

        x1, x2 = rng.standard_normal((2, 4, 3))
        zero = bn(np.zeros((4, 3)))
        assert np.allclose((bn(x1) - zero) + (bn(x2) - zero), bn(x1 + x2) - zero)


class TestReluAndPooling:
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

    def test_tmax_t1_identity(self):
        x = t64(np.array([[1.0, -2.0, 3.0]]))
        assert np.allclose(ops.temporal_max_pool(x).data, [1, -2, 3])

    def test_tmax_columnwise(self):
        y = ops.temporal_max_pool(t64([[1.0, 5.0], [3.0, 2.0]]))
        assert np.allclose(y.data, [3, 5])

    def test_tmax_tie_routes_to_first(self):
        x = t64([[2.0], [2.0]], grad=True)
        ops.temporal_max_pool(x).backward(np.array([1.0]))
        assert np.allclose(x.grad, [[1.0], [0.0]])

    def test_tmax_matches_oracle(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((6, 4))
        got = ops.temporal_max_pool(t64(x)).data
        assert np.allclose(got, ref.temporal_max_pool_ref(x))

    def test_max_pool2d_matches_oracle(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((2, 3, 7, 8))
        got = ops.max_pool2d(t64(x)).data
        assert np.allclose(got, ref.max_pool2d_ref(x))


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
            h = ops.temporal_conv3(t64(x), t64(w1), t64(b1))
            return ops.temporal_conv3(h, t64(w2), t64(b2)).data

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
            s, p = int(rng.integers(1, 3)), int(rng.integers(0, 3))
            h = int(rng.integers(k, k + 4))
            w = int(rng.integers(k, k + 4))
            x = rng.standard_normal((b, c, h, w))
            wt = rng.standard_normal((o, c, k, k))
            rng.standard_normal(o)  # the draw of a conv bias: later shapes stay as they were
            got = ops.conv2d(t64(x), t64(wt), stride=s, padding=p).data
            assert ref.relative_error(got, ref.conv2d_ref(x, wt, s, p)) < 1e-6

    def test_conv3d_sweep(self):
        rng = np.random.default_rng(101)
        for _ in range(SHAPE_CASES):
            b, c, o = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
            t, h, w = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = rng.standard_normal((b, c, t, h, w))
            wt = rng.standard_normal((o, c, 3, 1, 1))
            bi = rng.standard_normal(o)
            got = conv3d_t311(x, wt, bi)
            assert ref.relative_error(got, ref.conv3d_t311_ref(x, wt, bi)) < 1e-6

    def test_seq_conv_sweep(self):
        rng = np.random.default_rng(102)
        for _ in range(SHAPE_CASES):
            t, ci, co = int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = rng.standard_normal((t, ci))
            wc, bc = rng.standard_normal((ci, 3)), rng.standard_normal(ci)
            got = ops.temporal_conv3(t64(x), t64(wc), t64(bc)).data
            assert ref.relative_error(got, ref.conv1d_channelwise_ref(x, wc, bc)) < 1e-6
            wt, bt = rng.standard_normal((co, ci)), rng.standard_normal(co)
            got = ops.linear(t64(x), t64(wt), t64(bt)).data
            assert ref.relative_error(got, ref.conv1d_temporalwise_ref(x, wt, bt)) < 1e-6
            wf, bf = rng.standard_normal((co, ci, 3)), rng.standard_normal(co)
            got = ops.temporal_conv3(t64(x), t64(wf), t64(bf)).data
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
                got = ops.batch_norm(t64(x), t64(alpha), t64(beta), t64(mean.copy()),
                                     t64(var.copy()), axis=axis, training=training).data
                want = ref.batch_norm_ref(x, alpha, beta, mean, var, axis, training)
                assert ref.relative_error(got, want) < 1e-6
            x4 = rng.standard_normal((2, 3, int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            assert ref.relative_error(ops.mean_over(t64(x4), (2, 3)).data,
                                      ref.global_avg_pool2d_ref(x4)) < 1e-6
            xs = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 5))))
            assert np.allclose(ops.temporal_max_pool(t64(xs)).data,
                               ref.temporal_max_pool_ref(xs))
