"""conv2d against a per-tap einsum reference, compared bit for bit.

The reference contracts each kernel tap of an NCHW input with
``np.einsum(..., optimize=True)``. ``ops.conv2d``, on the same input
held channel-major, issues per tap the matrix products that this einsum
issues, on the same operand layouts, so the two must agree in every bit;
training outcomes that hinge on float rounding stay put only while they
do. The float32 output and every gradient are compared with
``tobytes()``.
"""

import numpy as np
import pytest

from stnet import ops
from stnet.tensor import Tensor


def einsum_conv2d(x, weight, stride, padding, g, x_grad=True, weight_grad=True):
    """Per-tap einsum conv2d: (y, gx, gw) for upstream gradient ``g``."""
    b_, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    y = np.zeros((b_, o, ho, wo), dtype=np.result_type(x, weight))
    gxp = np.zeros_like(xp) if x_grad else None
    gw = np.zeros_like(weight) if weight_grad else None
    for i in range(kh):
        for j in range(kw):
            sl = (slice(None), slice(None),
                  slice(i, i + stride * (ho - 1) + 1, stride),
                  slice(j, j + stride * (wo - 1) + 1, stride))
            y += np.einsum("bchw,oc->bohw", xp[sl], weight[:, :, i, j], optimize=True)
            if weight_grad:
                gw[:, :, i, j] += np.einsum("bohw,bchw->oc", g, xp[sl], optimize=True)
            if x_grad:
                gxp[sl] += np.einsum("bohw,oc->bchw", g, weight[:, :, i, j], optimize=True)
    gx = gxp[:, :, padding:padding + h, padding:padding + w] if x_grad else None
    return y, gx, gw


# (batch, in channels, height, width, out channels, kernel, stride, padding).
# The first nine are conv geometries of the pinned benchmark specs at the
# batch their workloads run (16 stnet-toy clips of 4 snippets, 2
# stnet-resnet50-112 clips of 4). The last two have products small enough
# for BLAS to pick kernels that order a dot product differently when a
# product is split per image or has its operands swapped (OpenBLAS on
# AVX-512 does): a 3-channel stem on c09's final 4-clip batch, and 64
# channels on a 7x7 output.
GEOMETRIES = {
    "toy_stem_3x3_9ch": (64, 9, 32, 32, 16, 3, 1, 1),
    "toy_3x3_s1": (64, 16, 32, 32, 16, 3, 1, 1),
    "toy_3x3_s2": (64, 16, 32, 32, 32, 3, 2, 1),
    "toy_3x3_s2_to_8x8": (64, 32, 16, 16, 64, 3, 2, 1),
    "toy_1x1_s2": (64, 16, 32, 32, 32, 1, 2, 0),
    "r50_stem_7x7_s2_15ch": (8, 15, 112, 112, 64, 7, 2, 3),
    "r50_1x1_s1": (8, 64, 28, 28, 256, 1, 1, 0),
    "r50_1x1_s2": (8, 512, 14, 14, 1024, 1, 2, 0),
    "r50_3x3_s2": (8, 256, 14, 14, 256, 3, 2, 1),
    "stem_3x3_3ch_4_clips": (16, 3, 32, 32, 16, 3, 1, 1),
    "3x3_s2_64ch_to_7x7": (2, 64, 14, 14, 64, 3, 2, 1),
}

GRADS = {"both": (True, True), "weight_only": (False, True), "x_only": (True, False)}


@pytest.mark.parametrize("which", sorted(GRADS))
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_conv2d_bit_identical_to_einsum_reference(geometry, which):
    b_, c, h, w, o, k, s, p = GEOMETRIES[geometry]
    x_grad, weight_grad = GRADS[which]
    rng = np.random.default_rng(sorted(GEOMETRIES).index(geometry))
    x = rng.standard_normal((b_, c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((o, c, k, k)) / np.sqrt(c * k * k)).astype(np.float32)
    rng.standard_normal(o)  # the draw of a conv bias: g stays as it was
    ho, wo = (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1
    g = rng.standard_normal((b_, o, ho, wo)).astype(np.float32)

    xt = Tensor(np.ascontiguousarray(x.transpose(1, 0, 2, 3)), requires_grad=x_grad)
    wtt = Tensor(wt, requires_grad=weight_grad)
    y = ops.conv2d(xt, wtt, stride=s, padding=p)
    y.backward(np.ascontiguousarray(g.transpose(1, 0, 2, 3)))
    want = einsum_conv2d(x, wt, s, p, g, x_grad=x_grad, weight_grad=weight_grad)

    def nchw(a):
        return None if a is None else a.transpose(1, 0, 2, 3)

    for name, got, ref in zip(("y", "x.grad", "weight.grad"),
                              (nchw(y.data), nchw(xt.grad), wtt.grad), want):
        if ref is None:
            assert got is None, name
            continue
        assert got.dtype == np.float32 and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), (
            f"{name} differs from the reference, max abs diff "
            f"{np.max(np.abs(got.astype(np.float64) - ref)):.3e}")
