"""Analytic gradients vs central finite differences (double precision)."""

import numpy as np
import pytest

from stnet import ops
from stnet.gradcheck import OP_CHECKS, grad_check, run_op_checks
from stnet.tensor import Tensor, make_node

TOL = 1e-4


def _t(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _dim(rng, lo, hi):
    return int(rng.integers(lo, hi))


def _seq_shape(rng, c):
    return (_dim(rng, 1, 3), _dim(rng, 1, 6), c)


def _case_conv3d_t311(rng):
    # TM block: conv2d with a (3, 1) kernel on [C,B,T,H*W], through both kernels.
    b, t, c, o = _dim(rng, 1, 3), _dim(rng, 1, 5), _dim(rng, 1, 4), _dim(rng, 1, 4)
    x = _t(rng, (c, b, t, _dim(rng, 1, 4) * _dim(rng, 1, 4)))
    w = _t(rng, (o, c, 3, 1))
    return max(grad_check(lambda *a: kernel(*a, 1), [x, w])
               for kernel in (ops._conv2d_taps, ops._conv2d_shift))


def _case_conv1d_channelwise(rng):
    # TXB channel-wise conv: depthwise [C,3] weight on [B,T,C].
    c = _dim(rng, 1, 5)
    return grad_check(ops.temporal_conv3, [_t(rng, _seq_shape(rng, c)),
                                           _t(rng, (c, 3)), _t(rng, (c,))])


def _case_conv1d_full(rng):
    # Ordinary temporal-conv head: dense [O,C,3] weight on [B,T,C].
    c, o = _dim(rng, 1, 4), _dim(rng, 1, 4)
    return grad_check(ops.temporal_conv3, [_t(rng, _seq_shape(rng, c)),
                                           _t(rng, (o, c, 3)), _t(rng, (o,))])


def _case_conv1d_temporalwise(rng):
    # TXB temporal-wise conv: linear on [B,T,C].
    ci, co = _dim(rng, 1, 5), _dim(rng, 1, 5)
    return grad_check(ops.linear, [_t(rng, _seq_shape(rng, ci)),
                                   _t(rng, (co, ci)), _t(rng, (co,))])


def _case_fc(rng):
    # Classifier: linear on [B,C].
    b, ci, co = _dim(rng, 1, 4), _dim(rng, 1, 6), _dim(rng, 1, 6)
    return grad_check(ops.linear, [_t(rng, (b, ci)), _t(rng, (co, ci)), _t(rng, (co,))])


def _case_global_avg_pool2d(rng):
    # Spatial pooling of the backbone features: mean_over axes (2, 3) of [B,C,H,W].
    shape = (_dim(rng, 1, 3), _dim(rng, 1, 4), _dim(rng, 1, 5), _dim(rng, 1, 5))
    return grad_check(lambda x: ops.mean_over(x, (2, 3)), [_t(rng, shape)])


# Each fixed-rank call the model makes through conv2d, temporal_conv3, linear
# and mean_over, checked on its own so that a rank-specific fault is named by its caller.
CALL_CASES = {
    "conv3d_t311": _case_conv3d_t311,
    "conv1d_channelwise": _case_conv1d_channelwise,
    "conv1d_full": _case_conv1d_full,
    "conv1d_temporalwise": _case_conv1d_temporalwise,
    "fc": _case_fc,
    "global_avg_pool2d": _case_global_avg_pool2d,
}
CHECKS = {**OP_CHECKS, **CALL_CASES}


def test_call_cases_do_not_shadow_op_checks():
    assert not set(CALL_CASES) & set(OP_CHECKS)


@pytest.mark.parametrize("op_name", sorted(CHECKS))
def test_op_gradients(op_name):
    rng = np.random.default_rng(7)
    worst = max(CHECKS[op_name](rng) for _ in range(5))
    assert worst < TOL, f"{op_name}: max relative error {worst:.3e}"


# Fixed shapes for the conv geometries that the random draws of
# ``_check_conv2d`` (kernel <= 3) never reach: the 7x7/2 stem, padded by 3,
# of the ResNet presets, and the 1x1/2 downsample shortcut. Inputs are
# channel-major, [C, B, H, W]; each runs through both conv2d kernels.
CONV2D_GEOMETRIES = {
    "stem_7x7_s2_p3": ((2, 1, 9, 9), (3, 2, 7, 7), 2),
    "downsample_1x1_s2_p0": ((3, 2, 5, 5), (4, 3, 1, 1), 2),
}


@pytest.mark.parametrize("geometry", sorted(CONV2D_GEOMETRIES))
def test_conv2d_fixed_geometry_gradients(geometry):
    x_shape, w_shape, stride = CONV2D_GEOMETRIES[geometry]
    rng = np.random.default_rng(11)
    inputs = [_t(rng, x_shape), _t(rng, w_shape)]
    for kernel in (ops._conv2d_taps, ops._conv2d_shift):
        worst = grad_check(lambda *a: kernel(*a, stride), inputs)
        assert worst < TOL, f"{kernel.__name__} {geometry}: max relative error {worst:.3e}"


def test_relu_away_from_zero_is_nearly_exact():
    x = Tensor(np.array([2.0, -3.0, 0.5]), requires_grad=True, dtype=np.float64)
    assert grad_check(ops.relu, [x]) < 1e-8


def test_run_op_checks_filters_and_validates():
    res = run_op_checks(op="linear", instances=3)
    assert set(res) == {"linear"} and res["linear"] < TOL
    with pytest.raises(ValueError, match="unknown op"):
        run_op_checks(op="definitely_not_an_op")


def test_roundoff_allowance_passes_exact_and_fails_scaled_gradients(monkeypatch):
    # The worst entry of this draw is an exact 3.9e-7 whose central difference
    # is off by about twice eps*|f|/h; its plain relative error read 1.93e-4.
    case = dict(op="batch_norm_train", instances=2, seed=200009)
    assert run_op_checks(**case)["batch_norm_train"] < TOL
    batch_norm = ops.batch_norm

    def scaled(*args, **kwargs):
        y = batch_norm(*args, **kwargs)
        return make_node(y.data, (y,), "scaled", lambda g: y.accumulate_grad(g * 1.001))
    monkeypatch.setattr(ops, "batch_norm", scaled)
    assert run_op_checks(**case)["batch_norm_train"] > TOL


def test_requires_float64_inputs():
    x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="float64"):
        grad_check(ops.relu, [x])
