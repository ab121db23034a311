"""conv2d against a per-tap einsum reference, compared bit for bit.

The reference contracts each kernel tap of an NCHW input with
``np.einsum(..., optimize=True)``. Both of ``ops.conv2d``'s kernels, on
the same input held channel-major, take each tap's dot products over the
same channels in the same order and add the taps in the same row-major
order, so they must agree with it in every bit; training outcomes that
hinge on float rounding stay put only while they do. The float32 output
and every gradient are compared with ``tobytes()``, for ``ops.conv2d``
(the kernel its rule picks) and for each kernel on its own. The TM
block's temporal conv is among them, as a (3, 1) kernel on a
[C, B, T, H*W] view. Both kernels work through blocks of whole images;
the geometries at the eval batch run several blocks, and the block rule
has its own test. The blocks, and the weight gradient's taps, run on a
pool of threads; each kernel must give the same bits with the pool as in
one thread.
"""

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from stnet import arch, model, ops
from stnet.tensor import Tensor


def einsum_conv2d(x, weight, stride, g, x_grad=True, weight_grad=True):
    """Per-tap einsum conv2d, zero-padded by kh // 2 rows and kw // 2 columns:
    (y, gx, gw) for upstream gradient ``g``."""
    b_, c, h, w = x.shape
    o, _, kh, kw = weight.shape
    ph, pw = kh // 2, kw // 2
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (w + 2 * pw - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
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
    gx = gxp[:, :, ph:ph + h, pw:pw + w] if x_grad else None
    return y, gx, gw


# (batch, in channels, height, width, out channels, kernel height, kernel
# width, stride). The first nine are conv geometries of the pinned
# benchmark specs at the batch their workloads run (16 stnet-toy clips of
# 4 snippets, 2 stnet-resnet50-112 clips of 4). The next four are the TM
# convs of the same specs and batches, as (3, 1) kernels on [C, B, T, H*W]
# (a batch of clips, T = 4 rows of H*W columns). The next two have
# products small enough for BLAS to pick kernels that order a dot product
# differently when a product is split per image or has its operands
# swapped (OpenBLAS on AVX-512 does): a 3-channel stem on c09's final
# 4-clip batch, and 64 channels on a 7x7 output. The last four reach the
# shift kernel's edge cases: an odd padded extent at stride 2 (15x15
# input, padding 1), stride 3 (nine phases, one tap each), and a 1x1/2
# that reads one phase of an odd-sized input. The last six run at the
# eval workload's 128 images (32 clips), where both kernels work through
# several image blocks: the stem, a 16->16 3x3, a 32->64 3x3/2 whose
# blocks the product floor widens, and on the tap kernel the TM convs and
# a 1x1/2.
GEOMETRIES = {
    "toy_stem_3x3_9ch": (64, 9, 32, 32, 16, 3, 3, 1),
    "toy_3x3_s1": (64, 16, 32, 32, 16, 3, 3, 1),
    "toy_3x3_s2": (64, 16, 32, 32, 32, 3, 3, 2),
    "toy_3x3_s2_to_8x8": (64, 32, 16, 16, 64, 3, 3, 2),
    "toy_1x1_s2": (64, 16, 32, 32, 32, 1, 1, 2),
    "r50_stem_7x7_s2_15ch": (8, 15, 112, 112, 64, 7, 7, 2),
    "r50_1x1_s1": (8, 64, 28, 28, 256, 1, 1, 1),
    "r50_1x1_s2": (8, 512, 14, 14, 1024, 1, 1, 2),
    "r50_3x3_s2": (8, 256, 14, 14, 256, 3, 3, 2),
    "toy_tm2_3x1": (16, 32, 4, 16 * 16, 32, 3, 1, 1),
    "toy_tm3_3x1": (16, 64, 4, 8 * 8, 64, 3, 1, 1),
    "r50_tm2_3x1": (2, 512, 4, 14 * 14, 512, 3, 1, 1),
    "r50_tm3_3x1": (2, 1024, 4, 7 * 7, 1024, 3, 1, 1),
    "stem_3x3_3ch_4_clips": (16, 3, 32, 32, 16, 3, 3, 1),
    "3x3_s2_64ch_to_7x7": (2, 64, 14, 14, 64, 3, 3, 2),
    "3x3_s2_odd_15x15": (64, 16, 15, 15, 32, 3, 3, 2),
    "3x3_s3": (64, 16, 17, 17, 32, 3, 3, 3),
    "1x1_s2_odd_15x15": (64, 16, 15, 15, 32, 1, 1, 2),
    "eval_stem_3x3_9ch": (128, 9, 32, 32, 16, 3, 3, 1),
    "eval_3x3_s1": (128, 16, 32, 32, 16, 3, 3, 1),
    "eval_3x3_s2_to_8x8": (128, 32, 16, 16, 64, 3, 3, 2),
    "eval_tm2_3x1": (32, 32, 4, 16 * 16, 32, 3, 1, 1),
    "eval_tm3_3x1": (32, 64, 4, 8 * 8, 64, 3, 1, 1),
    "eval_1x1_s2": (128, 16, 32, 32, 32, 1, 1, 2),
}

GRADS = {"both": (True, True), "weight_only": (False, True), "x_only": (True, False)}


KERNELS = {"taps": ops._conv2d_taps, "shift": ops._conv2d_shift}


def out_size(geometry):
    """(H', W') of a geometry: kh // 2 and kw // 2 padding on each side."""
    _, _, h, w, _, kh, kw, s = GEOMETRIES[geometry]
    return (h + 2 * (kh // 2) - kh) // s + 1, (w + 2 * (kw // 2) - kw) // s + 1


def geometry_inputs(geometry):
    """(x, weight, g) of one geometry: float32 NCHW input, kernel and upstream
    gradient, drawn from the geometry's own seed."""
    b_, c, h, w, o, kh, kw, _ = GEOMETRIES[geometry]
    rng = np.random.default_rng(sorted(GEOMETRIES).index(geometry))
    x = rng.standard_normal((b_, c, h, w)).astype(np.float32)
    wt = (rng.standard_normal((o, c, kh, kw)) / np.sqrt(c * kh * kw)).astype(np.float32)
    rng.standard_normal(o)  # the draw of a conv bias: g stays as it was
    g = rng.standard_normal((b_, o) + out_size(geometry)).astype(np.float32)
    return x, wt, g


def nchw(a):
    return None if a is None else a.transpose(1, 0, 2, 3)


def run_conv(conv, geometry, which):
    """(y, x grad, weight grad) of ``conv(x, weight, stride)`` forward and
    backward on one geometry, in NCHW; None for a gradient not asked for."""
    x, wt, g = geometry_inputs(geometry)
    x_grad, weight_grad = GRADS[which]
    xt = Tensor(np.ascontiguousarray(x.transpose(1, 0, 2, 3)), requires_grad=x_grad)
    wtt = Tensor(wt, requires_grad=weight_grad)
    y = conv(xt, wtt, GEOMETRIES[geometry][-1])
    y.backward(np.ascontiguousarray(g.transpose(1, 0, 2, 3)))
    return nchw(y.data), nchw(xt.grad), wtt.grad


def check_against_reference(conv, geometry, which, output=True):
    """Run ``conv(x, weight, stride)`` forward and backward on one geometry;
    assert its gradients, and with ``output`` its output, equal the
    reference's bytes."""
    x, wt, g = geometry_inputs(geometry)
    x_grad, weight_grad = GRADS[which]
    want = einsum_conv2d(x, wt, GEOMETRIES[geometry][-1], g,
                         x_grad=x_grad, weight_grad=weight_grad)
    for name, got, ref in zip(("y", "x.grad", "weight.grad"),
                              run_conv(conv, geometry, which), want):
        if ref is None:
            assert got is None, name
            continue
        if name == "y" and not output:
            continue
        assert got.dtype == np.float32 and got.shape == ref.shape, name
        assert got.tobytes() == ref.tobytes(), (
            f"{name} differs from the reference, max abs diff "
            f"{np.max(np.abs(got.astype(np.float64) - ref)):.3e}")


@pytest.mark.parametrize("which", sorted(GRADS))
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_conv2d_bit_identical_to_einsum_reference(geometry, which):
    check_against_reference(lambda x, w, s: ops.conv2d(x, w, stride=s), geometry, which)


@pytest.mark.parametrize("which", sorted(GRADS))
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_each_conv2d_kernel_bit_identical_to_einsum_reference(kernel, geometry, which):
    b_, c, _, _, o, kh, kw, s = GEOMETRIES[geometry]
    ho, wo = out_size(geometry)
    # A product this small takes BLAS's small-matrix kernels, which may round
    # an output column by its place in the product, so the shift kernel's
    # wider forward products need not match; the rule never picks it here.
    small = kernel == "shift" and o * c * b_ * ho * wo <= ops.BLAS_SMALL_PRODUCT
    if small:
        assert ops._conv2d_kernel(b_, c, o, kh, kw, s, ho, wo) is ops._conv2d_taps
    check_against_reference(KERNELS[kernel], geometry, which, output=not small)


# The conv2d plans for which the rule picks the shift kernel; it picks the
# tap-copy kernel for every other conv2d plan, and for every TM conv (a
# conv3d plan, run as a (3, 1) kernel). Per case: the spec and the
# images per batch (clips x T) of stnet-toy at the train workload's 16
# clips and at the eval workload's 32, of stnet-resnet50 at the infer
# workload's 112x112, T=4 and 2 clips, and at its own 256x256, T=25 for
# one clip.
TOY_SHIFT = ("stage0/conv", "stage1/block0/conv1", "stage1/block0/conv2",
             "stage2/block0/conv1", "stage2/block0/conv2", "stage3/block0/conv1")
R50_SHIFT = ("stage0/conv", "stage1/block0/conv2", "stage1/block1/conv2",
             "stage1/block2/conv2")
RULE_CASES = {
    "stnet-toy-train": ("stnet-toy", {}, 16 * 4, TOY_SHIFT),
    "stnet-toy-eval": ("stnet-toy", {}, 32 * 4, TOY_SHIFT),
    "stnet-resnet50-112": ("stnet-resnet50", dict(t=4, res=112), 2 * 4, R50_SHIFT),
    "stnet-resnet50": ("stnet-resnet50", {}, 25, R50_SHIFT + tuple(
        f"stage2/block{i}/conv2" for i in range(4))),
}


@pytest.mark.parametrize("case", sorted(RULE_CASES))
def test_rule_picks_per_conv_plan(case):
    preset, overrides, images, shift = RULE_CASES[case]
    spec = arch.with_overrides(arch.load_preset(preset), **overrides)
    picks, tm = {}, {}
    for plan in model.layer_plans(spec):
        if plan.kind == "conv2d":
            o, c, kh, kw = plan.params["w"]
            picks[plan.name] = ops._conv2d_kernel(images, c, o, kh, kw, plan.stride,
                                                  *plan.out_shape[2:])
        elif plan.kind == "conv3d":
            t, c, h, w = plan.out_shape
            tm[plan.name] = ops._conv2d_kernel(images // t, c, c, 3, 1, 1, t, h * w)
    assert {n for n, k in picks.items() if k is ops._conv2d_shift} == set(shift)
    assert any(k is ops._conv2d_taps for k in picks.values())
    assert set(tm) == {f"tm{i}/conv" for i in spec.tm_after}
    assert all(k is ops._conv2d_taps for k in tm.values()), tm


def block_args(kernel, images, c, o, kh, kw, stride, ho, wo):
    """(images, columns per image, multiplications per column) that ``kernel``
    passes to ``ops._image_blocks``. The shift kernel's columns are its grid's,
    the tap kernel's the output's."""
    if kernel is ops._conv2d_shift:
        return images, (ho + (kh - 1) // stride) * (wo + (kw - 1) // stride), o * c
    return images, ho * wo, o * c


def geometry_block_args(kernel, geometry):
    b_, c, _, _, o, kh, kw, s = GEOMETRIES[geometry]
    return block_args(KERNELS[kernel], b_, c, o, kh, kw, s, *out_size(geometry))


BLOCK_CASES = {f"{k}-{g}": geometry_block_args(k, g) for k in KERNELS for g in GEOMETRIES}
BLOCK_CASES.update({
    "one_image": (1, 34 * 34, 16 * 9),
    "one_small_image": (1, 8 * 8, 3 * 16),
    "small_conv": (16, 32 * 32, 3 * 16),
    "images_wider_than_a_block": (6, 3 * ops.BLOCK_COLS, 64 * 64),
    "one_image_wider_than_a_block": (1, 3 * ops.BLOCK_COLS, 64 * 64),
})


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_image_blocks_are_even_runs_of_whole_images(case):
    images, cols, per_col = BLOCK_CASES[case]
    for workers in (1, 2, 3, 8):
        blocks = ops._image_blocks(images, cols, per_col, workers)
        assert blocks[0][0] == 0 and blocks[-1][1] == images
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [b1 - b0 for b0, b1 in blocks]
        assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1, (workers, sizes)
        if len(blocks) > 1:
            assert per_col * cols * min(sizes) > ops.BLAS_SMALL_PRODUCT
        if cols >= ops.BLOCK_COLS and per_col * cols > ops.BLAS_SMALL_PRODUCT:
            assert sizes == [1] * images


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_image_blocks_give_every_worker_a_block(case):
    # As many blocks as workers, unless that would take a block's product
    # down to BLAS's small size, and never fewer than by columns alone.
    images, cols, per_col = BLOCK_CASES[case]
    fewest = ops.BLAS_SMALL_PRODUCT // (per_col * cols) + 1    # images per block
    by_cols = len(ops._image_blocks(images, cols, per_col, 1))
    for workers in (2, 3, 8):
        got = len(ops._image_blocks(images, cols, per_col, workers))
        assert got >= max(by_cols, min(workers, images // fewest)), workers


@pytest.mark.parametrize("geometry", sorted(g for g in GEOMETRIES if g.startswith("eval_")))
def test_eval_geometries_run_several_blocks(geometry):
    # By their columns alone, in one thread.
    for kernel in KERNELS:
        assert len(ops._image_blocks(*geometry_block_args(kernel, geometry), 1)) > 1, kernel


# ---------------------------------------------------------------------------
# The block pool: both kernels run their blocks and weight-gradient taps on
# it, and must give the bits they give in one thread.
# ---------------------------------------------------------------------------

def pool_workers():
    return max(2, len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("which", sorted(GRADS))
@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_block_pool_keeps_every_bit(kernel, geometry, which, pool, monkeypatch):
    parallel = run_conv(KERNELS[kernel], geometry, which)
    several = len(ops._image_blocks(*geometry_block_args(kernel, geometry), ops._workers())) > 1
    kh, kw = GEOMETRIES[geometry][5:7]
    assert (pool.items > 0) == (several or (kh * kw > 1 and GRADS[which][1]))
    monkeypatch.setattr(ops, "_block_pool", lambda: None)
    serial = run_conv(KERNELS[kernel], geometry, which)
    for name, a, b in zip(("y", "x.grad", "weight.grad"), parallel, serial):
        assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


def test_pool_geometries_include_one_block_and_more_blocks_than_workers():
    counts = {len(ops._image_blocks(*geometry_block_args(k, g), pool_workers()))
              for k in KERNELS for g in GEOMETRIES}
    assert 1 in counts and max(counts) > pool_workers(), counts


def test_block_pool_has_a_thread_per_cpu_or_is_none():
    # The caller works through the blocks too: with the pool's threads, one
    # thread per CPU.
    workers = len(os.sched_getaffinity(0))
    got = ops._block_pool()
    assert ops._workers() == workers
    if workers == 1:
        assert got is None
    else:
        assert isinstance(got, ThreadPoolExecutor) and got._max_workers == workers - 1
        assert ops._block_pool() is got


@pytest.mark.parametrize("threads", ["pool", "serial"])
def test_each_block_passes_an_item_error_to_the_caller(threads, pool, monkeypatch):
    if threads == "serial":
        monkeypatch.setattr(ops, "_block_pool", lambda: None)

    def fn(item):
        if item == 3:
            raise KeyError(f"item {item}")
    with pytest.raises(KeyError, match="item 3"):
        ops._each_block(fn, range(2 * pool_workers()))


def test_each_block_raises_only_after_every_other_item_has_finished(pool):
    finished = []

    def fn(item):
        if item == 0:
            raise KeyError("item 0")
        time.sleep(0.05)
        finished.append(item)
    items = range(2 * pool_workers() + 1)
    with pytest.raises(KeyError, match="item 0"):
        ops._each_block(fn, items)
    assert sorted(finished) == list(items)[1:]
    # The thread whose item fails runs out of items while another thread
    # still works on a slow one: the error waits for it.
    finished.clear()

    def fail_first(item):
        if item == 0:
            time.sleep(0.02)
            raise KeyError("item 0")
        time.sleep(0.2)
        finished.append(item)
    with pytest.raises(KeyError, match="item 0"):
        ops._each_block(fail_first, [0, 1])
    assert finished == [1]


def test_each_block_runs_items_under_the_callers_errstate(pool):
    def fn(item):
        np.float32(item) / np.float32(0)
    with np.errstate(divide="raise", invalid="raise"), pytest.raises(FloatingPointError):
        ops._each_block(fn, range(2 * pool_workers()))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="conv2d runs no pool on one CPU")
def test_forked_child_runs_a_blocked_conv():
    x, wt, _ = geometry_inputs("eval_3x3_s1")
    xt = Tensor(np.ascontiguousarray(x.transpose(1, 0, 2, 3)))
    ops.conv2d(xt, Tensor(wt))    # the pool's threads are running
    assert ops._pool is not None
    pid = os.fork()
    if pid == 0:    # the child: exit 0 only if its conv returns
        code = 1
        try:
            ops.conv2d(xt, Tensor(wt))
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while not (status := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's conv2d did not return within 60 s")
        time.sleep(0.05)
    assert os.waitstatus_to_exitcode(status[1]) == 0
