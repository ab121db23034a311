"""Finite-difference validation of analytic gradients.

All checks run in double precision with central differences; the step is
1e-5 scaled by the magnitude of the perturbed value.
"""

from __future__ import annotations

import zlib
from functools import partial

import numpy as np

from .tensor import NumericsError, Tensor
from . import ops


class GradCheckFailure(RuntimeError):
    """Raised when an op produces non-finite values during checking."""


def grad_check(fn, inputs):
    """Max relative error between analytic and numeric gradients.

    ``fn`` maps the given double-precision Tensors to one output Tensor.
    The output is projected to a scalar ``f = sum(out * w)`` with fixed
    random weights so the whole Jacobian is exercised. Each evaluation of
    ``f`` is rounded by up to about ``eps * sum|out * w|``, so the central
    difference carries a roundoff of ``r = eps * sum|out * w| / h``. Returns
    max max(|analytic - numeric| - r, 0) / max(|analytic|, |numeric|, 1e-8)
    over every element of every input.
    """
    name = getattr(fn, "__name__", "op")
    for t in inputs:
        if t.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        t.zero_grad()
    try:
        out = fn(*inputs)
    except NumericsError as exc:
        raise GradCheckFailure(f"non-finite forward value in '{name}': {exc}") from exc
    w = np.random.default_rng(0).standard_normal(out.shape)
    out.backward(w)
    roundoff = np.finfo(np.float64).eps * float(np.sum(np.abs(out.data * w)))

    # Detached views share the data buffers, so the in-place perturbation
    # below shows through them, and the two forwards per element build no graph.
    views = [t.detach() for t in inputs]

    def scalar():
        return float(np.sum(fn(*views).data * w))

    worst = 0.0
    for t in inputs:
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            h = 1e-5 * max(1.0, abs(orig))
            flat[i] = orig + h
            try:
                fp = scalar()
                flat[i] = orig - h
                fm = scalar()
            except NumericsError as exc:
                raise GradCheckFailure(
                    f"non-finite value while perturbing '{name}': {exc}") from exc
            finally:
                flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            a = analytic.reshape(-1)[i]
            err = max(abs(a - numeric) - roundoff / h, 0.0) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, err)
    return worst


def _t(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def _t_away_from_zero(rng, shape, margin=0.1):
    data = rng.standard_normal(shape)
    data = data + np.where(data >= 0, margin, -margin)
    return Tensor(data, requires_grad=True, dtype=np.float64)


def _distinct_levels(rng, shape, axis):
    # Well-separated levels shuffled along ``axis``: keeps every max along
    # it unique, so a max-pool subgradient is exact under perturbation.
    base = np.arange(shape[axis], dtype=np.float64) * 0.5
    bshape = tuple(shape[axis] if i == axis else 1 for i in range(len(shape)))
    data = rng.permuted(np.broadcast_to(base.reshape(bshape), shape).copy(), axis=axis)
    return Tensor(data + rng.standard_normal(shape) * 0.01,
                  requires_grad=True, dtype=np.float64)


def _check_conv2d(rng):
    # Both conv2d kernels on one draw: the rule would pick the tap-copy one
    # for every convolution this small. The kernel's height and width are
    # drawn apart, so (3, 1) kernels, as the TM block runs, come up.
    b, c, o = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    kh, kw, s = (int(rng.integers(1, 4)) for _ in range(3))
    h, w = int(rng.integers(kh, kh + 4)), int(rng.integers(kw, kw + 4))
    x, wt = _t(rng, (c, b, h, w)), _t(rng, (o, c, kh, kw))
    return max(grad_check(lambda *a: kernel(*a, s), [x, wt])
               for kernel in (ops._conv2d_taps, ops._conv2d_shift))


def _check_temporal_conv3(rng):
    # One [B,T,C] input through the dense weight and the depthwise one,
    # each with a bias, as the heads call it.
    b, t, c, o = (int(rng.integers(1, hi)) for hi in (3, 6, 4, 4))
    x = _t(rng, (b, t, c))
    dense = grad_check(ops.temporal_conv3, [x, _t(rng, (o, c, 3)), _t(rng, (o,))])
    depthwise = grad_check(ops.temporal_conv3, [x, _t(rng, (c, 3)), _t(rng, (c,))])
    return max(dense, depthwise)


def _check_linear(rng):
    ci, co = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    lead = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3))))
    return grad_check(ops.linear, [_t(rng, lead + (ci,)), _t(rng, (co, ci)), _t(rng, (co,))])


def _bn_inputs(rng):
    # A [N, C], [N, T, C] or [N, C, H, W] draw, handed to the op channel
    # first. N >= 8 keeps batch variances away from zero, where the
    # curvature of the train-mode normalization would dominate the
    # central-difference truncation error.
    ndim = int(rng.integers(2, 5))
    shape = (int(rng.integers(8, 13)),) + tuple(
        int(rng.integers(2, 5)) for _ in range(ndim - 1))
    axis = 1 if ndim == 4 else ndim - 1
    c = shape[axis]
    x = Tensor(np.ascontiguousarray(np.moveaxis(rng.standard_normal(shape), axis, 0)),
               requires_grad=True, dtype=np.float64)
    al, be = _t(rng, (c,)), _t(rng, (c,))
    m = Tensor(rng.standard_normal(c), dtype=np.float64)
    v = Tensor(rng.uniform(0.5, 2.0, c), dtype=np.float64)
    return x, al, be, m, v


def _check_batch_norm(rng, training):
    x, al, be, m, v = _bn_inputs(rng)
    return grad_check(
        lambda x_, a_, b_: ops.batch_norm(x_, a_, b_, m, v, training),
        [x, al, be])


def _check_batch_norm_relu(rng, training):
    # x takes 8 levels 0.5 apart, plus noise of std 0.01, so every channel's
    # normalized values fall in clusters with wide gaps between them. beta
    # puts each channel's relu kink in the middle of its widest gap, so no
    # pre-relu output lies within |alpha| * gap / 2 of 0.
    x, _, _, m, v = _bn_inputs(rng)
    x.data[...] = rng.integers(0, 8, x.shape) * 0.5 + rng.standard_normal(x.shape) * 0.01
    c = x.shape[0]
    al = _t_away_from_zero(rng, (c,))
    xhat = ops.batch_norm(x.detach(), Tensor(np.ones(c)), Tensor(np.zeros(c)),
                          Tensor(m.data.copy()), Tensor(v.data.copy()), training).data
    xs = np.sort(xhat.reshape(c, -1), axis=1)
    k = np.diff(xs, axis=1).argmax(axis=1)
    mid = (xs[np.arange(c), k] + xs[np.arange(c), k + 1]) / 2
    be = Tensor(-al.data * mid, requires_grad=True)
    return grad_check(
        lambda x_, a_, b_: ops.batch_norm(x_, a_, b_, m, v, training, relu=True),
        [x, al, be])


def _check_relu(rng):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4))))
    return grad_check(ops.relu, [_t_away_from_zero(rng, shape)])


def _check_temporal_max_pool(rng):
    shape = (int(rng.integers(1, 3)), int(rng.integers(1, 6)), int(rng.integers(1, 4)))
    return grad_check(ops.temporal_max_pool, [_distinct_levels(rng, shape, 1)])


def _check_max_pool2d(rng):
    b, c = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    h, w = int(rng.integers(1, 6)), int(rng.integers(1, 6))
    # Levels are distinct over each whole map, so no window max ties.
    x = _distinct_levels(rng, (b, c, h * w), 2)
    return grad_check(lambda x_: ops.max_pool2d(x_.reshape((b, c, h, w))), [x])


def _check_softmax(rng):
    shape = (int(rng.integers(1, 4)), int(rng.integers(2, 6)))
    return grad_check(ops.softmax, [_t(rng, shape)])


def _check_mean_over(rng):
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 4)))
    axis = int(rng.integers(0, 3))
    return grad_check(lambda x: ops.mean_over(x, axis), [_t(rng, shape)])


def _check_softmax_cross_entropy(rng):
    b, k = int(rng.integers(1, 5)), int(rng.integers(2, 6))
    labels = rng.integers(0, k, size=b)
    return grad_check(lambda z: ops.softmax_cross_entropy(z, labels), [_t(rng, (b, k))])


def _check_add(rng):
    shape = tuple(int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4))))
    return grad_check(lambda a, b: a + b, [_t(rng, shape), _t(rng, shape)])


def _check_reshape(rng):
    b, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    return grad_check(lambda x: x.reshape((c, b)), [_t(rng, (b, c))])


def _check_transpose(rng):
    shape = tuple(int(rng.integers(1, 4)) for _ in range(3))
    axes = tuple(np.random.default_rng(int(rng.integers(1 << 30))).permutation(3))
    return grad_check(lambda x: x.transpose(axes), [_t(rng, shape)])


OP_CHECKS = {
    "conv2d": _check_conv2d,
    "temporal_conv3": _check_temporal_conv3,
    "linear": _check_linear,
    "batch_norm_train": partial(_check_batch_norm, training=True),
    "batch_norm_infer": partial(_check_batch_norm, training=False),
    "batch_norm_train_relu": partial(_check_batch_norm_relu, training=True),
    "batch_norm_infer_relu": partial(_check_batch_norm_relu, training=False),
    "relu": _check_relu,
    "temporal_max_pool": _check_temporal_max_pool,
    "max_pool2d": _check_max_pool2d,
    "softmax": _check_softmax,
    "mean_over": _check_mean_over,
    "softmax_cross_entropy": _check_softmax_cross_entropy,
    "add": _check_add,
    "reshape": _check_reshape,
    "transpose": _check_transpose,
}


def run_op_checks(op=None, instances=20, seed=0):
    """Run the standard gradient-check suite.

    Returns {op name: max relative error over ``instances`` random
    shapes}. ``op`` limits the run to a single op.
    """
    if instances < 1:
        raise ValueError(f"instances: must be >= 1, got {instances!r}")
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed!r}")
    names = [op] if op else sorted(OP_CHECKS)
    unknown = [n for n in names if n not in OP_CHECKS]
    if unknown:
        raise ValueError(f"unknown op {unknown[0]!r}; known: {', '.join(sorted(OP_CHECKS))}")
    results = {}
    for name in names:
        rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, OP_CHECKS[name](rng))
        results[name] = worst
    return results
