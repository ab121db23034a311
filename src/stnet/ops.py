"""Forward/backward operators for the network graph.

All ops take and return :class:`~stnet.tensor.Tensor`; gradients flow
only to inputs with ``requires_grad``. Convolutions use cross-correlation
(no kernel flip) and zero padding.
"""

from __future__ import annotations

import numpy as np

from .tensor import NumericsError, make_node

BN_EPS = 1e-5
BN_MOMENTUM = 0.9


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


# ---------------------------------------------------------------------------
# Convolutions and affine maps
# ---------------------------------------------------------------------------

def conv2d(x, weight, stride=1, padding=0):
    """Strided 2D cross-correlation: [B,C,H,W] -> [B,O,H',W'].

    H' = floor((H + 2*padding - kh) / stride) + 1, likewise W'. There is no
    bias: every conv of the network feeds a batch norm, which cancels it.

    One matrix product per kernel tap (i, j), with no im2col copy. The
    padded input is held channel-major, [C, B, H+2p, W+2p], so that each
    tap's window is a [C, B*H'*W'] matrix without a transpose:

        forward      y[O, B*H'*W']  += W[:, :, i, j]   @ x_tap[C, B*H'*W']
        weight grad  gW[:, :, i, j] += (x_tap @ g[B*H'*W', O]).T
        input grad   gx_tap         += W[:, :, i, j].T @ g[O, B*H'*W']

    ``g`` is transposed to each of its two layouts once per backward, and
    y once at the end. Each product has the operands, layouts and shape
    that a per-tap ``np.einsum(..., optimize=True)`` passes to ``matmul``,
    and the taps accumulate in row-major kernel order, so every element
    sums its terms in the order, and with the rounding, of such a per-tap
    contraction. One product per image, or with its operands swapped,
    would not: BLAS kernels for small or odd-sized matrices can order a
    dot product differently.
    """
    _require(x.ndim == 4, f"conv2d input must be 4D, got {x.shape}")
    _require(weight.ndim == 4, f"conv2d weight must be 4D, got {weight.shape}")
    b_, c, h, w = x.shape
    o, ci, kh, kw = weight.shape
    _require(ci == c, f"conv2d channel mismatch: input has {c}, weight expects {ci}")
    _require(stride >= 1 and padding >= 0, "conv2d stride must be >=1 and padding >=0")
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    _require(ho >= 1 and wo >= 1,
             f"conv2d output would be empty for input {x.shape} and kernel {weight.shape}")

    xc = np.zeros((c, b_, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xc[:, :, padding:padding + h, padding:padding + w] = x.data.transpose(1, 0, 2, 3)
    # Kernel taps in row-major order, each with the rows and columns of the
    # padded input it reads.
    taps = [(i, j, slice(i, i + stride * (ho - 1) + 1, stride),
             slice(j, j + stride * (wo - 1) + 1, stride))
            for i in range(kh) for j in range(kw)]
    yc = np.zeros((o, b_ * ho * wo), dtype=np.result_type(x.data, weight.data))
    for i, j, hs, ws in taps:
        yc += weight.data[:, :, i, j] @ xc[:, :, hs, ws].reshape(c, -1)
    # A C-ordered [B,O,H',W'] output: reductions downstream (batch norm)
    # sum in memory order, so the layout fixes their rounding.
    y = np.ascontiguousarray(yc.reshape(o, b_, ho, wo).transpose(1, 0, 2, 3))

    def backward(g):
        if weight.requires_grad:
            g_l = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, o)
            gw = np.empty(weight.shape, g.dtype)    # every tap slice is written once
            for i, j, hs, ws in taps:
                gw[:, :, i, j] = (xc[:, :, hs, ws].reshape(c, -1) @ g_l).T
            weight.accumulate_grad(gw)
        if x.requires_grad:
            g_c = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(o, -1)
            gxc = np.zeros_like(xc)
            for i, j, hs, ws in taps:
                gxc[:, :, hs, ws] += (weight.data[:, :, i, j].T @ g_c).reshape(
                    c, b_, ho, wo)
            x.accumulate_grad(gxc[:, :, padding:padding + h,
                                  padding:padding + w].transpose(1, 0, 2, 3))
    return make_node(y, (x, weight), "conv2d", backward)


def temporal_conv3(x, weight, bias=None):
    """3-tap convolution over time with zero padding 1, so T is preserved.

    ``x`` is [T,C], [B,T,C] or [B,T,C,*S]: time is the axis before the
    channels, and trailing spatial extents S ride along untouched. A
    [C,3] weight is depthwise (one kernel per channel, the channel-wise
    conv of a temporal Xception block); an [O,C,3] weight is dense:

        y[b,t,o,s] = sum_k sum_c x[b,t+k-1,c,s] * weight[o,c,k] + bias[o]

    with rows outside [0, T) contributing zero. ``bias=None`` adds none
    (the temporal-modeling conv, which feeds a batch norm).
    """
    _require(x.ndim >= 2, f"temporal_conv3 expects [T,C] or [B,T,C,*S], got {x.shape}")
    squeeze = x.ndim == 2
    xd = x.data[None] if squeeze else x.data
    t, c = xd.shape[1], xd.shape[2]
    if weight.ndim == 2:
        _require(weight.shape == (c, 3),
                 f"temporal_conv3 depthwise weight must have shape ({c}, 3), "
                 f"got {weight.shape}")
        wsub, ysub = "c", "btc..."
    else:
        _require(weight.ndim == 3 and weight.shape[1:] == (c, 3),
                 f"temporal_conv3 weight must have shape ({c}, 3) or (C_out, {c}, 3), "
                 f"got {weight.shape}")
        wsub, ysub = "oc", "bto..."
    co = weight.shape[0]
    _require(bias is None or bias.shape == (co,), f"temporal_conv3 bias must have shape ({co},)")
    _require(t >= 1, "temporal_conv3 requires T >= 1")

    pad = [(0, 0)] * xd.ndim
    pad[1] = (1, 1)
    xp = np.pad(xd, pad)
    # With spatial axes the output is stored channel-major per clip ([B,O,T,*S]
    # in memory, as a (3,1,1) 3D conv lays it out). A per-channel reduction
    # downstream (the TM block's batch norm) then sums each channel's T*S
    # values as one contiguous run, in the order it would over [B,O,T,*S].
    dtype = np.result_type(xd, weight.data)
    if xd.ndim > 3:
        y = np.zeros((xd.shape[0], co, t) + xd.shape[3:], dtype=dtype).swapaxes(1, 2)
    else:
        y = np.zeros((xd.shape[0], t, co), dtype=dtype)
    # One contraction per tap; each tap is a shifted window of the padded input.
    for k in range(3):
        y += np.einsum(f"btc...,{wsub}->{ysub}", xp[:, k:k + t], weight.data[..., k],
                       optimize=True)
    if bias is not None:
        y += bias.data.reshape((co,) + (1,) * (xd.ndim - 3))
    if squeeze:
        y = y[0]

    def backward(g):
        gb = g[None] if squeeze else g
        if weight.requires_grad:
            weight.accumulate_grad(np.stack(
                [np.einsum(f"{ysub},btc...->{wsub}", gb, xp[:, k:k + t], optimize=True)
                 for k in range(3)], axis=-1))
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for k in range(3):
                gxp[:, k:k + t] += np.einsum(f"{ysub},{wsub}->btc...", gb,
                                             weight.data[..., k], optimize=True)
            gx = gxp[:, 1:t + 1]
            x.accumulate_grad(gx[0] if squeeze else gx)
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gb.sum(axis=(0, 1) + tuple(range(3, gb.ndim))))
    parents = (x, weight) if bias is None else (x, weight, bias)
    return make_node(y, parents, "temporal_conv3", backward)


def linear(x, weight, bias):
    """Affine map over the last axis: [..., C_in] -> [..., C_out].

    y = x @ weight.T + bias, applied independently at every leading
    index (per timestep for a [B,T,C] sequence, so the temporal receptive
    field is 1).
    """
    _require(x.ndim >= 1, "linear input must have at least one axis")
    ci = x.shape[-1]
    _require(weight.ndim == 2 and weight.shape[1] == ci,
             f"linear weight must have shape (C_out, {ci}), got {weight.shape}")
    co = weight.shape[0]
    _require(bias.shape == (co,), f"linear bias must have shape ({co},)")

    def backward(g):
        if x.requires_grad:
            x.accumulate_grad(g @ weight.data)
        g2 = g.reshape(-1, co)
        if weight.requires_grad:
            weight.accumulate_grad(g2.T @ x.data.reshape(-1, ci))
        if bias.requires_grad:
            bias.accumulate_grad(g2.sum(axis=0))
    return make_node(x.data @ weight.data.T + bias.data, (x, weight, bias), "linear",
                     backward)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def batch_norm(x, alpha, beta, running_mean, running_var, axis, training):
    """Batch normalization over every axis except ``axis`` (the channel axis).

    Inference: y = (x - m) / sqrt(var + BN_EPS) * alpha + beta with the
    accumulated running statistics. Training normalizes with batch
    statistics and updates the running buffers in place:
    m <- BN_MOMENTUM * m + (1 - BN_MOMENTUM) * batch_mean (same for var).
    Running buffers never receive gradients.
    """
    axis = axis % x.ndim
    c = x.shape[axis]
    for name, p in (("alpha", alpha), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        _require(p.shape == (c,), f"batch_norm {name} must have shape ({c},), got {p.shape}")
    reduce_axes = tuple(i for i in range(x.ndim) if i != axis)
    n = int(np.prod([x.shape[i] for i in reduce_axes])) if reduce_axes else 1
    bshape = tuple(c if i == axis else 1 for i in range(x.ndim))

    if training:
        _require(x.size > 0, "batch_norm training mode requires a non-empty batch")
        mu = x.data.mean(axis=reduce_axes)
        xc = x.data - mu.reshape(bshape)
        var = np.mean(xc * xc, axis=reduce_axes)
        if not np.all(np.isfinite(var)):    # also catches a non-finite mean
            raise NumericsError("non-finite batch statistics in op 'batch_norm'")
        running_mean.data[...] = BN_MOMENTUM * running_mean.data + (1 - BN_MOMENTUM) * mu
        running_var.data[...] = BN_MOMENTUM * running_var.data + (1 - BN_MOMENTUM) * var
        inv = 1.0 / np.sqrt(var + BN_EPS)
        xhat = xc * inv.reshape(bshape)
    else:
        inv = 1.0 / np.sqrt(running_var.data + BN_EPS)
        xhat = (x.data - running_mean.data.reshape(bshape)) * inv.reshape(bshape)

    y = xhat * alpha.data.reshape(bshape) + beta.data.reshape(bshape)

    def backward(g):
        if alpha.requires_grad:
            alpha.accumulate_grad(np.sum(g * xhat, axis=reduce_axes))
        if beta.requires_grad:
            beta.accumulate_grad(g.sum(axis=reduce_axes))
        if x.requires_grad:
            ga = g * alpha.data.reshape(bshape)
            if training:
                s1 = ga.sum(axis=reduce_axes).reshape(bshape)
                s2 = np.sum(ga * xhat, axis=reduce_axes).reshape(bshape)
                gx = (inv.reshape(bshape) / n) * (n * ga - s1 - xhat * s2)
            else:
                gx = ga * inv.reshape(bshape)
            x.accumulate_grad(gx)
    return make_node(y, (x, alpha, beta), "batch_norm", backward)


# ---------------------------------------------------------------------------
# Activations and pooling
# ---------------------------------------------------------------------------

def relu(x):
    mask = x.data > 0

    def backward(g):
        x.accumulate_grad(g * mask)
    return make_node(np.where(mask, x.data, 0), (x,), "relu", backward)


def temporal_max_pool(x):
    """Max over the time axis: [T,C] -> [C] or [B,T,C] -> [B,C].

    Gradient is routed to the first occurrence of the per-channel max.
    """
    _require(x.ndim in (2, 3), f"temporal_max_pool expects [T,C] or [B,T,C], got {x.shape}")
    taxis = x.ndim - 2
    _require(x.shape[taxis] >= 1, "temporal_max_pool requires T >= 1")
    idx = np.argmax(x.data, axis=taxis)
    y = np.take_along_axis(x.data, np.expand_dims(idx, taxis), axis=taxis)

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.expand_dims(idx, taxis),
                          np.expand_dims(g, taxis), axis=taxis)
        x.accumulate_grad(gx)
    return make_node(np.squeeze(y, axis=taxis), (x,), "temporal_max_pool", backward)


def max_pool2d(x, kernel=3, stride=2, padding=1):
    """Spatial max pooling (used by the 7x7-stem presets after the stem conv).

    Gradient is routed to the first occurrence of each window max.
    """
    _require(x.ndim == 4, f"max_pool2d input must be 4D, got {x.shape}")
    b_, c, h, w = x.shape
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    _require(ho >= 1 and wo >= 1, "max_pool2d output would be empty")
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    win = win[:, :, ::stride, ::stride].reshape(b_, c, ho, wo, kernel * kernel)
    idx = np.argmax(win, axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gxp = np.zeros_like(xp)
        ii, jj = np.unravel_index(idx, (kernel, kernel))
        bi, ci, hi, wi = np.indices(idx.shape)
        rows = hi * stride + ii
        cols = wi * stride + jj
        np.add.at(gxp, (bi, ci, rows, cols), g)
        x.accumulate_grad(gxp[:, :, padding:padding + h, padding:padding + w]
                          if padding else gxp)
    return make_node(y, (x,), "max_pool2d", backward)


def softmax(x, axis=-1):
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        dot = np.sum(g * s, axis=axis, keepdims=True)
        x.accumulate_grad(s * (g - dot))
    return make_node(s, (x,), "softmax", backward)


def mean_over(x, axis):
    """Mean over one axis or a tuple of axes.

    Averages per-snippet scores (``axis=1``) and pools [B,C,H,W] feature
    maps spatially (``axis=(2, 3)``).
    """
    axes = axis if isinstance(axis, tuple) else (axis,)
    n = int(np.prod([x.shape[a] for a in axes]))

    def backward(g):
        x.accumulate_grad(np.broadcast_to(np.expand_dims(g, axis), x.data.shape) / n)
    return make_node(x.data.mean(axis=axis), (x,), "mean_over", backward)


def softmax_cross_entropy(logits, labels):
    """Mean negative log-likelihood of integer class labels.

    Numerically stabilized by max subtraction. Gradient w.r.t. logits is
    (softmax - one_hot) / batch_size.
    """
    _require(logits.ndim == 2, f"softmax_cross_entropy logits must be 2D, got {logits.shape}")
    b_, k = logits.shape
    labels = np.asarray(labels)
    _require(labels.shape == (b_,), f"labels must have shape ({b_},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = np.asarray(-logp[np.arange(b_), labels].mean(), dtype=logits.dtype)

    def backward(g):
        gl = np.exp(logp)
        gl[np.arange(b_), labels] -= 1.0
        logits.accumulate_grad(gl * (g / b_))
    return make_node(loss, (logits,), "softmax_cross_entropy", backward)
