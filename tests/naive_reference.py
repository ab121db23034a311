"""Nested-loop reference implementations used as test oracles.

Everything here is written with explicit Python loops over numpy
scalars, deliberately independent of the vectorized op implementations.
"""

import numpy as np


def conv2d_ref(x, w, stride=1):
    """Zero padding of kh // 2 rows and kw // 2 columns on each side."""
    bs, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (wd + 2 * pw - kw) // stride + 1
    y = np.zeros((bs, o, ho, wo), dtype=x.dtype)
    for bi in range(bs):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                r = i * stride + u - ph
                                s = j * stride + v - pw
                                if 0 <= r < h and 0 <= s < wd:
                                    acc = acc + x[bi, ci, r, s] * w[oi, ci, u, v]
                    y[bi, oi, i, j] = acc
    return y


def conv3d_t311_ref(x, w, b):
    bs, c, t, h, wd = x.shape
    o = w.shape[0]
    y = np.zeros((bs, o, t, h, wd), dtype=x.dtype)
    for bi in range(bs):
        for oi in range(o):
            for ti in range(t):
                for i in range(h):
                    for j in range(wd):
                        acc = b[oi]
                        for ci in range(c):
                            for k in range(3):
                                tt = ti + k - 1
                                if 0 <= tt < t:
                                    acc = acc + x[bi, ci, tt, i, j] * w[oi, ci, k, 0, 0]
                        y[bi, oi, ti, i, j] = acc
    return y


def conv1d_channelwise_ref(x, w, b):
    t, c = x.shape
    y = np.zeros((t, c), dtype=x.dtype)
    for i in range(t):
        for j in range(c):
            acc = b[j]
            for k in range(3):
                r = k + i - 1
                if 0 <= r < t:
                    acc = acc + x[r, j] * w[j, k]
            y[i, j] = acc
    return y


def conv1d_temporalwise_ref(x, w, b):
    t, ci = x.shape
    co = w.shape[0]
    y = np.zeros((t, co), dtype=x.dtype)
    for i in range(t):
        for j in range(co):
            acc = b[j]
            for k in range(ci):
                acc = acc + x[i, k] * w[j, k]
            y[i, j] = acc
    return y


def conv1d_full_ref(x, w, b):
    t, ci = x.shape
    co = w.shape[0]
    y = np.zeros((t, co), dtype=x.dtype)
    for i in range(t):
        for j in range(co):
            acc = b[j]
            for k in range(3):
                r = k + i - 1
                if 0 <= r < t:
                    for ci_ in range(ci):
                        acc = acc + x[r, ci_] * w[j, ci_, k]
            y[i, j] = acc
    return y


def batch_norm_ref(x, alpha, beta, mean, var, axis, training, eps=1e-5):
    x = np.asarray(x)
    moved = np.moveaxis(x, axis, -1)
    flat = moved.reshape(-1, x.shape[axis])
    out = np.zeros_like(flat)
    if training:
        mean = flat.mean(axis=0)
        var = np.zeros(x.shape[axis], dtype=x.dtype)
        for j in range(flat.shape[1]):
            var[j] = np.mean((flat[:, j] - mean[j]) ** 2)
    for i in range(flat.shape[0]):
        for j in range(flat.shape[1]):
            out[i, j] = (flat[i, j] - mean[j]) / np.sqrt(var[j] + eps) \
                * alpha[j] + beta[j]
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def global_avg_pool2d_ref(x):
    bs, c, h, w = x.shape
    y = np.zeros((bs, c), dtype=x.dtype)
    for bi in range(bs):
        for ci in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[bi, ci, i, j]
            y[bi, ci] = acc / (h * w)
    return y


def temporal_max_pool_ref(x):
    t, c = x.shape
    y = np.zeros(c, dtype=x.dtype)
    for j in range(c):
        best = x[0, j]
        for i in range(1, t):
            if x[i, j] > best:
                best = x[i, j]
        y[j] = best
    return y


def max_pool2d_ref(x, kernel=3, stride=2, padding=1):
    bs, c, h, w = x.shape
    ho = (h + 2 * padding - kernel) // stride + 1
    wo = (w + 2 * padding - kernel) // stride + 1
    y = np.zeros((bs, c, ho, wo), dtype=x.dtype)
    for bi in range(bs):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    best = -np.inf
                    for u in range(kernel):
                        for v in range(kernel):
                            r = i * stride + u - padding
                            s = j * stride + v - padding
                            if 0 <= r < h and 0 <= s < w:
                                best = max(best, x[bi, ci, r, s])
                    y[bi, ci, i, j] = best
    return y


def fc_ref(x, w, b):
    bs, ci = x.shape
    co = w.shape[0]
    y = np.zeros((bs, co), dtype=x.dtype)
    for i in range(bs):
        for j in range(co):
            acc = b[j]
            for k in range(ci):
                acc = acc + x[i, k] * w[j, k]
            y[i, j] = acc
    return y


def relative_error(got, want):
    got, want = np.asarray(got), np.asarray(want)
    denom = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-8)
    return float(np.max(np.abs(got - want) / denom)) if got.size else 0.0
