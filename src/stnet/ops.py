"""Forward/backward operators for the network graph.

All ops take and return :class:`~stnet.tensor.Tensor`; gradients flow
only to inputs with ``requires_grad``. Convolutions use cross-correlation
(no kernel flip) and zero padding.
"""

from __future__ import annotations

import contextvars
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

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

def conv2d(x, weight, stride=1):
    """Strided 2D cross-correlation on channel-major maps: [C,B,H,W] -> [O,B,H',W'].

    A [O, C, kh, kw] kernel zero-pads the input by kh // 2 rows and
    kw // 2 columns on each side, so H' = (H + 2*(kh//2) - kh) // stride + 1,
    likewise W'. The TM block's 3x1x1 conv over snippets is a (3, 1) kernel
    on a [C, B, T, H*W] view: it pads T alone. There is no bias: every conv
    of the network feeds a batch norm, which cancels it.

    Two kernels compute it, with the same bits. ``_conv2d_taps`` copies
    each kernel tap's window of the zero-padded input out as a
    [C, b*H'*W'] matrix: 9 copies for a 3x3, 49 for a 7x7.
    ``_conv2d_shift`` makes no copy per tap. It splits the zero-padded
    input once into its stride phases: phase (a, b) holds padded rows a,
    a+s, ... and columns b, b+s, ..., as [C, b*Hq*Wq] with
    Hq = H' + (kh-1)//s and Wq = W' + (kw-1)//s. Only the phases some tap
    reads are built: one at stride 1 (the padded input, or the input
    itself without padding) and one for a 1x1. Tap (i, j) reads phase
    (i mod s, j mod s) shifted by d = (i//s)*Wq + j//s columns, a view,
    and adds its product into an [O, b*Hq*Wq] grid whose [:H', :W'] corner
    of each image is the output:

        forward      grid[:, q]       += W[:, :, i, j]   @ phase[:, q + d]
        input grad   gphase[:, q + d] += W[:, :, i, j].T @ g_grid[:, q]
        weight grad  gW[:, :, i, j]    = (x_tap @ g[B*H'*W', O]).T

    g_grid is the output gradient zero-padded onto the grid, and the
    phase gradients are written back to the input's positions. The weight
    gradient copies each tap's window x_tap out in both kernels: over the
    grid its dot products would run over more terms, in another order.
    Neither kernel keeps its padded input or phases for the backward: when
    the weight needs a gradient, the backward builds them from the input
    for the whole batch, once, with the forward's own operations; the
    input gradient needs only their shapes.

    Both kernels work through the B images in blocks of b whole images
    (``_image_blocks``), so that a block's products, grid or window
    copies and gradient stay in a 2 MB L2 cache rather than streaming
    through memory once per tap. A block is about ``BLOCK_COLS`` = 4096
    columns of the kernel's own column space, Hq*Wq per image for the
    shift kernel and H'*W' for the tap kernel, and the split is even, so
    the last block is no small tail. Per block, the shift kernel builds
    the phases of the block's images, zeroes its grid, adds each tap's
    product and writes the grid's [:H', :W'] corners into the output; the
    tap kernel pads only the block's images and copies each tap's window
    of them. The input gradient is blocked over its own positions: the
    shift kernel's phase gradient (the taps read the block's g_grid
    behind as many zero columns as the largest d, which stand for the end
    of the image before, where it has no output) and the tap kernel's
    padded gradient. The weight gradient is not blocked: its dot products
    run over all B*H'*W' columns, and blocking them would reorder the
    sums. Every thread that works through the blocks (``_workers``) gets
    at least one, as long as each block's product stays above
    ``BLAS_SMALL_PRODUCT`` (below); so a 1x1/1 conv, whose window is its
    input, is split like any other. Block sizes, summed over the convs
    that ``tests/conv_paths.py`` times with the rule's picks (1 BLAS
    thread, 2-core AVX-512 Xeon, in two interleaved sweeps): blocks of
    1024 to 4096 columns were within 4% of each other on stnet-toy
    forward plus backward at 64 images, forward at 128 and
    stnet-resnet50-112 forward at 8; 8192 was 2-6% slower than 4096.
    4096 takes the fewest products of those.

    Why the bits agree: every product has the operands, layouts and
    shape that a per-tap ``np.einsum(..., optimize=True)`` passes to
    ``matmul``, up to the grid's extra columns and the block's columns,
    and every element, computed in one block, adds its taps in row-major
    kernel order in both directions. Extra columns are cropped away in
    the forward and carry zero gradient, so they add exact zeros. One
    product per image, or with its operands swapped, would not agree:
    BLAS kernels for small or odd-sized matrices can order a dot product
    differently. OpenBLAS's small-matrix kernels, which take products of
    at most ``BLAS_SMALL_PRODUCT`` multiplications, round a column by its
    place in the product. So every block's product is above that size
    (blocks are made wider until it is, and a conv too small for two such
    blocks is one block, the product of the einsum), the shift kernel runs
    only on convs whose whole product is above it, and the weight
    gradient, unblocked, is the einsum's product.

    The blocks of the forward and of the input gradient, and the weight
    gradient's taps, are taken in turn by the calling thread and a pool of
    threads (``_each_block``), one thread per CPU of the process's
    affinity mask in all: under ``taskset -c 0``, or for a single block or
    tap, the calling thread runs them alone. Each block or tap writes only
    its own slice of the output or gradient, and all have finished before
    the op returns. The thread count cannot move a bit: a thread runs
    whole products, each with the operands and shape it has in one
    thread, and every element still adds its taps in order within one
    block or tap. Only the core that does the work changes; this is the
    split over output columns that BLAS libraries parallelise (Goto and
    van de Geijn, ACM TOMS 2008). On a 2-core AVX-512 Xeon at 1 BLAS
    thread, two threads took the traced conv2d forward of an
    eval-stnet-toy batch (32 clips) from 132 to 102 ms (1.3x) and the
    benchmark's eval throughput up 24%. Giving each thread a block of
    every conv, 1x1/1 convs included, then took the traced conv2d forward
    of stnet-resnet50-112 inference (2 clips) from 352 to 248 ms, and
    that workload's throughput up 15%. Since the calling thread works
    too, the pool holds one thread fewer than the CPUs, and with it one
    glibc malloc arena fewer (about 8 MB on eval): with one pool thread
    rather than two, peak RSS fell 8.6 MB on eval, 8.0 MB on train and
    6.3 MB on ResNet-50 inference.

    The rule (``_conv2d_kernel``) reads the shapes alone and is a speed
    choice, never a numerics fork. It picks the shift kernel when the
    kernel is more than one tap wide and more than one tap tall, the
    product is above the small-matrix size, and the grid's wasted
    multiplications per saved copy are at most ``SHIFT_MAX_WASTE`` = 18:

        O * (Hq*Wq - H'*W') <= 18 * H'*W'

    A tap copy moves C*B*H'*W' values; the grid's extra columns cost
    O*C*B*(Hq*Wq - H'*W') multiplications per tap. Measured with
    ``tests/conv_paths.py`` (1 BLAS thread, 2-core AVX-512 Xeon, mean of
    two runs): shift time over taps time for the pinned specs' 3x3 and
    7x7 convs, forward plus backward at 64 images and forward at 128
    (stnet-toy), forward at 8 images (stnet-resnet50 at 112x112):

        C->O       k/s  H'xW'  O*waste  fwd+bwd   fwd
        9->16      3/1  32x32      2.1     0.89  0.80
        16->16     3/1  32x32      2.1     0.77  0.70
        16->32     3/2  16x16      4.1     0.79  0.80
        15->64     7/2  56x56      7.0        -  0.85
        32->32     3/1  16x16      8.5     0.83  0.77
        64->64     3/1  28x28      9.5        -  0.91
        32->64     3/2   8x8      17.0     0.91  0.81
        128->128   3/2  14x14     18.9        -  0.82
        64->64     3/1   8x8      36.0     0.93  0.98
        128->128   3/1  14x14     39.2        -  1.10
        256->256   3/2   7x7      78.4        -  1.05
        256->256   3/1   7x7     167.2        -  1.30
        512->512   3/2   4x4     288.0        -  1.17
        512->512   3/1   4x4     640.0        -  1.44

    where O*waste = O * (Hq*Wq - H'*W') / (H'*W'). The cut-off stays at
    18, though the rows at 18.9 and 36.0 read below 1: stnet-resnet50's
    own 256->256 3/2 at 16x16 on 25 images (O*waste 33.0) read 1.09, so
    no cut-off on waste alone takes those two and leaves it. A 1x1 conv
    has one tap and nothing to save: both kernels take one product, and it
    stays with the tap kernel. So does a (3, 1) TM conv, though its grid
    wastes only 2*O/T per output: on the TM convs of the pinned specs,
    measured the same way on [C, B, T, H*W], shift over taps read 1.09
    and 1.13 (stnet-toy tm2 and tm3, fwd+bwd at 16 clips), 1.23 and 1.07
    (fwd at 32 clips) and 1.40 and 1.35 (stnet-resnet50-112, fwd at 2
    clips).
    """
    _require(x.ndim == 4, f"conv2d input must be 4D, got {x.shape}")
    _require(weight.ndim == 4, f"conv2d weight must be 4D, got {weight.shape}")
    c, images, h, w = x.shape
    o, ci, kh, kw = weight.shape
    _require(ci == c, f"conv2d channel mismatch: input has {c}, weight expects {ci}")
    _require(stride >= 1, "conv2d stride must be >= 1")
    ho = (h + 2 * (kh // 2) - kh) // stride + 1
    wo = (w + 2 * (kw // 2) - kw) // stride + 1
    kernel = _conv2d_kernel(images, c, o, kh, kw, stride, ho, wo)
    return kernel(x, weight, stride)


# The rule of ``conv2d``: the most grid multiplications wasted per saved
# tap-copy value for which the shift kernel is the faster, the largest
# product (in multiplications) that OpenBLAS's small-matrix sgemm kernels
# take, and the columns of an image block (measured in the docstring).
SHIFT_MAX_WASTE = 18
BLAS_SMALL_PRODUCT = 100 ** 3
BLOCK_COLS = 4096


def _conv2d_kernel(images, c, o, kh, kw, stride, ho, wo):
    """The conv2d kernel for this geometry: ``_conv2d_shift`` or ``_conv2d_taps``."""
    hq, wq = ho + (kh - 1) // stride, wo + (kw - 1) // stride
    if (kh > 1 and kw > 1 and o * c * images * ho * wo > BLAS_SMALL_PRODUCT
            and o * (hq * wq - ho * wo) <= SHIFT_MAX_WASTE * ho * wo):
        return _conv2d_shift
    return _conv2d_taps


def _padded(xd, ph, pw):
    """A [C, B, H, W] array zero-padded by ``ph`` rows and ``pw`` columns a side.

    The array itself when both are 0.
    """
    if not (ph or pw):
        return xd
    c, b_, h, w = xd.shape
    xp = np.zeros((c, b_, h + 2 * ph, w + 2 * pw), dtype=xd.dtype)
    xp[:, :, ph:ph + h, pw:pw + w] = xd
    return xp


def _image_blocks(images, cols, per_col, workers):
    """(start, stop) of each run of whole images a conv kernel works through.

    ``cols`` is the kernel's columns per image, ``per_col`` the
    multiplications per column of its products (O*C) and ``workers`` the
    threads that run the blocks. The images are split evenly into
    consecutive runs of about ``BLOCK_COLS`` columns, each of at least one
    image, so that no run is a small tail, and into at least one run per
    worker. Runs are made wider until each one's product is above
    ``BLAS_SMALL_PRODUCT``; a conv too small for two such runs is one run.
    """
    fewest = BLAS_SMALL_PRODUCT // (per_col * cols) + 1    # images per run
    n = max(1, min(max(round(images * cols / BLOCK_COLS), workers), images // fewest))
    return [(images * k // n, images * (k + 1) // n) for k in range(n)]


# The block pool: made on first use, dropped in a forked child, which has
# none of its threads.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _block_pool():
    """The process's block pool: a thread for each CPU it may run on but the
    one the caller runs on, which works through the blocks too; None on one
    CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            workers = len(os.sched_getaffinity(0))
            if workers == 1:
                return None
            _pool = ThreadPoolExecutor(workers - 1, thread_name_prefix="stnet-block")
        return _pool


def _workers():
    """Threads that work through an op's blocks: the pool's and the caller's."""
    pool = _block_pool()
    return 1 if pool is None else pool._max_workers + 1


def _each_block(fn, items):
    """``[fn(item) for item in items]``: the calling thread and the block
    pool's threads take the items in turn, or the caller runs them in a
    plain loop when there is one CPU or one item.

    Each item must write only its own slice of the results. Every item runs,
    and has finished before this returns or re-raises the exception of the
    first item that failed, so no thread writes into an array after the op
    returns. The pool's threads run in a copy of the caller's context, so
    the caller's ``np.errstate`` holds in them too.
    """
    pool = _block_pool() if len(items) > 1 else None
    if pool is None:
        return [fn(item) for item in items]
    results, errors = [None] * len(items), [None] * len(items)
    todo, lock = iter(range(len(items))), threading.Lock()

    def work():
        while True:
            with lock:
                k = next(todo, None)
            if k is None:
                return
            try:
                results[k] = fn(items[k])
            except BaseException as exc:    # re-raised by the caller below
                errors[k] = exc
    helpers = [pool.submit(contextvars.copy_context().run, work)
               for _ in range(min(pool._max_workers, len(items) - 1))]
    try:
        work()
    finally:
        wait(helpers)
    for h in helpers:
        h.result()
    for exc in errors:
        if exc is not None:
            raise exc
    return results


def _conv2d_taps(x, weight, stride):
    """conv2d by one copied [C, b*H'*W'] window of the padded input per tap and block."""
    c, b_, h, w = x.shape
    o, _, kh, kw = weight.shape
    ph, pw = kh // 2, kw // 2
    ho = (h + 2 * ph - kh) // stride + 1
    wo = (w + 2 * pw - kw) // stride + 1
    blocks = _image_blocks(b_, ho * wo, o * c, _workers())
    # Kernel taps in row-major order, each with the rows and columns of the
    # padded input it reads.
    taps = [(i, j, slice(i, i + stride * (ho - 1) + 1, stride),
             slice(j, j + stride * (wo - 1) + 1, stride))
            for i in range(kh) for j in range(kw)]
    y = np.zeros((o, b_ * ho * wo), dtype=np.result_type(x.data, weight.data))

    def forward_block(block):
        b0, b1 = block
        xc = _padded(x.data[:, b0:b1], ph, pw)
        yb = y[:, b0 * ho * wo:b1 * ho * wo]
        for i, j, hs, ws in taps:
            yb += weight.data[:, :, i, j] @ xc[:, :, hs, ws].reshape(c, -1)
    _each_block(forward_block, blocks)

    def backward(g):
        if weight.requires_grad:
            xp = _padded(x.data, ph, pw)    # rebuilt: the graph keeps no padded copy
            g_l = np.ascontiguousarray(g.reshape(o, -1).T)
            gw = np.empty(weight.shape, g.dtype)    # every tap slice is written once

            def weight_tap(tap):
                i, j, hs, ws = tap
                gw[:, :, i, j] = (xp[:, :, hs, ws].reshape(c, -1) @ g_l).T
            _each_block(weight_tap, taps)
            weight.accumulate_grad(gw)
        if x.requires_grad:
            gxc = np.zeros((c, b_, h + 2 * ph, w + 2 * pw), x.dtype)

            def input_block(block):
                b0, b1 = block
                gb = g[:, b0:b1].reshape(o, -1)
                for i, j, hs, ws in taps:
                    gxc[:, b0:b1, hs, ws] += (weight.data[:, :, i, j].T @ gb).reshape(
                        c, b1 - b0, ho, wo)
            _each_block(input_block, blocks)
            x.accumulate_grad(gxc[:, :, ph:ph + h, pw:pw + w])
    return make_node(y.reshape(o, b_, ho, wo), (x, weight), "conv2d", backward)


def _phase_rows(n, q, phase, stride, padding):
    """(phase slice, input slice) along one axis: the phase's rows that hold input.

    Phase row r, of ``q``, is padded row ``phase + stride*r``, which is
    input row ``phase + stride*r - padding`` of ``n``.
    """
    r0 = max(0, -(-(padding - phase) // stride))
    r1 = max(r0, min(q, -(-(n + padding - phase) // stride)))
    i0 = phase + stride * r0 - padding
    return slice(r0, r1), slice(i0, i0 + stride * (r1 - r0), stride)


def _conv2d_shift(x, weight, stride):
    """conv2d by column-offset views of the padded input's stride phases, per block."""
    c, b_, h, w = x.shape
    o, _, kh, kw = weight.shape
    s = stride
    ph, pw = kh // 2, kw // 2
    ho = (h + 2 * ph - kh) // s + 1
    wo = (w + 2 * pw - kw) // s + 1
    hq, wq = ho + (kh - 1) // s, wo + (kw - 1) // s
    lead = (kh - 1) // s * wq + (kw - 1) // s    # the largest tap offset
    blocks = _image_blocks(b_, hq * wq, o * c, _workers())
    cuts = {(a, b): (_phase_rows(h, hq, a, s, ph), _phase_rows(w, wq, b, s, pw))
            for a in range(min(s, kh)) for b in range(min(s, kw))}

    def stride_phases(b0, b1):
        """Phase (a, b) of images b0..b1: their padded rows a, a+s, ... and
        columns b, b+s, ..., as [C, (b1-b0)*Hq*Wq], then ``lead`` zero columns
        that the products read past the last image, into cropped positions
        only. Only the phases some tap reads are built."""
        xb = x.data[:, b0:b1]
        cols = (b1 - b0) * hq * wq
        if s == 1 and ph == pw == 0:
            return {(0, 0): xb.reshape(c, cols)}
        phases = {}
        for ab, ((pr, xr), (pc, xcol)) in cuts.items():
            phases[ab] = np.zeros((c, cols + lead), x.dtype)
            phases[ab][:, :cols].reshape(c, b1 - b0, hq, wq)[:, :, pr, pc] = xb[:, :, xr, xcol]
        return phases

    taps = [(i, j, (i % s, j % s), (i // s) * wq + j // s)
            for i in range(kh) for j in range(kw)]
    y = np.empty((o, b_, ho, wo), np.result_type(x.data, weight.data))

    def forward_block(block):
        b0, b1 = block
        phases = stride_phases(b0, b1)
        cols = (b1 - b0) * hq * wq
        grid = np.zeros((o, cols), y.dtype)
        prod = np.empty_like(grid)
        for i, j, ab, d in taps:
            np.matmul(weight.data[:, :, i, j], phases[ab][:, d:d + cols], out=prod)
            grid += prod
        y[:, b0:b1] = grid.reshape(o, b1 - b0, hq, wq)[:, :, :ho, :wo]
    _each_block(forward_block, blocks)

    def backward(g):
        if weight.requires_grad:
            phases = stride_phases(0, b_)    # the graph keeps no phase copies
            g_l = np.ascontiguousarray(g.reshape(o, -1).T)
            gw = np.empty(weight.shape, g.dtype)    # every tap slice is written once

            def weight_tap(tap):
                i, j, ab, _ = tap
                win = phases[ab][:, :b_ * hq * wq].reshape(c, b_, hq, wq)[
                    :, :, i // s:i // s + ho, j // s:j // s + wo]
                gw[:, :, i, j] = (win.reshape(c, -1) @ g_l).T
            _each_block(weight_tap, taps)
            weight.accumulate_grad(gw)
        if x.requires_grad:
            # At stride 1 every input position is in the one phase; a larger
            # stride may skip some, whose gradient is 0.
            gx = (np.empty if s == 1 else np.zeros)(x.shape, x.dtype)

            def input_block(block):
                b0, b1 = block
                cols = (b1 - b0) * hq * wq
                # The block's gradient on its grid, after ``lead`` zero columns
                # that stand for the end of the image before: rows and columns
                # beyond the output's, which get no gradient.
                gg = np.zeros((o, lead + cols), g.dtype)
                gg[:, lead:].reshape(o, b1 - b0, hq, wq)[:, :, :ho, :wo] = g[:, b0:b1]
                gphase = {ab: np.zeros((c, cols), x.dtype) for ab in cuts}
                prod = np.empty((c, cols), x.dtype)
                for i, j, ab, d in taps:
                    np.matmul(weight.data[:, :, i, j].T, gg[:, lead - d:lead - d + cols],
                              out=prod)
                    gphase[ab] += prod
                for ab, ((pr, xr), (pc, xcol)) in cuts.items():
                    gx[:, b0:b1, xr, xcol] = gphase[ab].reshape(
                        c, b1 - b0, hq, wq)[:, :, pr, pc]
            _each_block(input_block, blocks)
            x.accumulate_grad(gx)
    return make_node(y, (x, weight), "conv2d", backward)


def temporal_conv3(x, weight, bias):
    """3-tap convolution over time with zero padding 1, so T is preserved.

    ``x`` is the [B,T,C] feature sequence of a head. A [C,3] weight
    is depthwise (one kernel per channel, the channel-wise conv of a
    temporal Xception block); an [O,C,3] weight is dense (the ordinary
    temporal-conv head):

        y[b,t,o] = sum_k sum_c x[b,t+k-1,c] * weight[o,c,k] + bias[o]

    with rows outside [0, T) contributing zero. The backbone's TM conv is
    not this op: it runs through :func:`conv2d` as a (3, 1) kernel.
    """
    _require(x.ndim == 3, f"temporal_conv3 expects [B,T,C], got {x.shape}")
    t, c = x.shape[1:]
    if weight.ndim == 2:
        _require(weight.shape == (c, 3),
                 f"temporal_conv3 depthwise weight must have shape ({c}, 3), "
                 f"got {weight.shape}")
        wsub, ysub = "c", "btc"
    else:
        _require(weight.ndim == 3 and weight.shape[1:] == (c, 3),
                 f"temporal_conv3 weight must have shape ({c}, 3) or (C_out, {c}, 3), "
                 f"got {weight.shape}")
        wsub, ysub = "oc", "bto"
    co = weight.shape[0]
    _require(bias.shape == (co,), f"temporal_conv3 bias must have shape ({co},)")
    _require(t >= 1, "temporal_conv3 requires T >= 1")

    xp = np.pad(x.data, ((0, 0), (1, 1), (0, 0)))
    y = np.zeros((x.shape[0], t, co), dtype=np.result_type(x.data, weight.data))
    # One contraction per tap; each tap is a shifted window of the padded input.
    for k in range(3):
        y += np.einsum(f"btc,{wsub}->{ysub}", xp[:, k:k + t], weight.data[..., k],
                       optimize=True)
    y += bias.data

    def backward(g):
        if weight.requires_grad:
            xp = np.pad(x.data, ((0, 0), (1, 1), (0, 0)))    # rebuilt, not kept
            weight.accumulate_grad(np.stack(
                [np.einsum(f"{ysub},btc->{wsub}", g, xp[:, k:k + t], optimize=True)
                 for k in range(3)], axis=-1))
        if x.requires_grad:
            gxp = np.zeros((x.shape[0], t + 2, c), x.dtype)
            for k in range(3):
                gxp[:, k:k + t] += np.einsum(f"{ysub},{wsub}->btc", g,
                                             weight.data[..., k], optimize=True)
            x.accumulate_grad(gxp[:, 1:t + 1])
        if bias.requires_grad:
            bias.accumulate_grad(g.sum(axis=(0, 1)))
    return make_node(y, (x, weight, bias), "temporal_conv3", backward)


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
            weight.accumulate_grad(g2.T @ np.ascontiguousarray(x.data).reshape(-1, ci))
        if bias.requires_grad:
            bias.accumulate_grad(g2.sum(axis=0))
    # The forward and the weight gradient take a C-ordered copy of a strided
    # input (the backbone's pooled features, a transposed view): BLAS can
    # round a product differently by layout. The backward copies it again.
    y = np.ascontiguousarray(x.data) @ weight.data.T + bias.data
    return make_node(y, (x, weight, bias), "linear", backward)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def _channel_sum(a):
    """Per-channel sums of a [C, N, *R] array, rounded the same for any memory layout.

    Each of the C*N runs a[c, n] (its R values, none for a 2D array) is
    summed pairwise, then each channel adds its N run sums in order of n.
    For a C-ordered [N, C, *R] activation this is the order, and so the
    rounding, of ``x.sum(axis=(0, 2, ...))``.
    """
    c, n = a.shape[:2]
    part = np.ascontiguousarray(a).reshape(c, n, -1).sum(axis=2)
    return np.ascontiguousarray(part.T).sum(axis=0)


# The fewest values of a batch norm that split over the block pool, in
# training (forward and backward) and in inference (one affine map); the
# measurements are in its docstring.
BN_POOL_TRAIN = 2 ** 18
BN_POOL_INFER = 3 * 2 ** 18


def _channel_runs(c, workers):
    """(start, stop) of the even runs of ``c`` channels a batch norm works
    through: one per worker, each of at least 2 channels."""
    n = max(1, min(workers, c // 2))
    return [(c * k // n, c * (k + 1) // n) for k in range(n)]


def batch_norm(x, alpha, beta, running_mean, running_var, training, relu=False):
    """Batch normalization of a [C, N, *R] input: C channels, N samples of R values.

    Each channel is normalized over its N*R values; every per-channel sum
    (mean, variance and the two of the backward pass) is a
    :func:`_channel_sum`, so its rounding depends on the shape alone.
    Inference: y = (x - m) / sqrt(var + BN_EPS) * alpha + beta with the
    accumulated running statistics, run as the per-channel affine map
    y = A * x + B with A = alpha / sqrt(var + BN_EPS) and B = beta - m * A.
    Training normalizes with batch statistics and updates the running
    buffers in place:
    m <- BN_MOMENTUM * m + (1 - BN_MOMENTUM) * batch_mean (same for var).
    Running buffers never receive gradients. ``relu`` applies max(y, 0) to
    the output in place; in training mode the result is bit-equal to
    ``relu(batch_norm(...))``, gradients included.

    The node keeps x (its parent), the output and, in training, the
    per-channel mu and inv = 1 / sqrt(var + BN_EPS); the backward rebuilds
    xhat = (x - mu) * inv. It works in place in the node's own gradient
    buffer, each step rounded as the out-of-place form, so the training
    input gradient is that of (inv / n) * (n * ga - s1 - xhat * s2), with
    ga = g * alpha, s1 = sum(ga) and s2 = sum(ga * xhat) per channel.

    The forward, in both modes, and the backward work through even runs of
    channels (``_channel_runs``), one per thread that works through the
    block pool's items (``_each_block``), when x holds at least
    ``BN_POOL_TRAIN`` = 2**18 values in training or ``BN_POOL_INFER`` =
    3 * 2**18 in inference; a smaller x is one run, in the calling thread.
    A run takes its channels' sums, xhat and output slice, and in the
    backward its slice of the gradient buffer and its channels' alpha and
    beta gradients. The calling thread then joins the per-channel vectors,
    raises on non-finite batch statistics before any running statistic
    moves, updates the running buffers and calls ``accumulate_grad``. Every
    value comes from the operations and operands it has in one run, so the
    thread count cannot move a bit, with one condition: a run holds at
    least 2 channels. numpy sums the [N, 1] column of a one-channel slice
    pairwise, not in order of n, and on numpy 2.4.6 that changed the bits
    of the sum on each of 12 shapes tried; slices of 2 or more channels
    add in order of n, as the whole array does.

    The floors, from pool time over one-thread time per call, measured
    inside forward and backward passes on alternating steps (stnet-toy
    training at 1, 4 and 16 clips and inference at 32; stnet-resnet50 at
    112x112, inference on 2 clips; 1 BLAS thread, 2-core AVX-512 Xeon):

        values       train fwd   train bwd   infer
        16K-33K      1.3-1.7     1.3-1.5       -
        65536        1.0-1.4     1.1-1.3      1.8
        131072       0.9-1.0     1.1-1.2       -
        200K-262K    0.6-0.9     0.5-1.0     1.0-1.2
        401408          -           -        0.9-1.0
        524288       0.5-0.6     0.6         0.9-1.2
        802816          -           -        0.7-0.8
        1M-2M        0.6-0.7     0.6-0.7     0.7-0.9

    An inference call is one affine map, a few memory-bound passes over its
    values, so it needs more of them than a training call to pay for
    handing a run to another thread.
    """
    _require(x.ndim >= 2, f"batch_norm input must be [C, N, *R], got {x.shape}")
    c = x.shape[0]
    for name, p in (("alpha", alpha), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        _require(p.shape == (c,), f"batch_norm {name} must have shape ({c},), got {p.shape}")
    bshape = (-1,) + (1,) * (x.ndim - 1)    # per-channel values against [c, N, *R]
    floor = BN_POOL_TRAIN if training else BN_POOL_INFER
    runs = _channel_runs(c, _workers() if x.size >= floor else 1)

    def finish(yr, add):
        """Add a run's per-channel ``add`` to its output slice, then the relu."""
        yr += add.reshape(bshape)
        if relu:
            np.maximum(yr, 0, out=yr)

    if training:
        _require(x.size > 0, "batch_norm training mode requires a non-empty batch")
        n = x.size // c
        # Laid out like x, as the out-of-place ops lay out their results.
        y = np.empty_like(x.data, dtype=np.result_type(x.data, alpha.data))

        def forward_run(run):
            c0, c1 = run
            mu = _channel_sum(x.data[c0:c1]) / n
            xc = x.data[c0:c1] - mu.reshape(bshape)
            var = _channel_sum(xc * xc) / n
            inv = 1.0 / np.sqrt(var + BN_EPS)
            if np.all(np.isfinite(var)):    # else the caller raises and drops y
                # In place, rounded as the out-of-place forms: xc becomes xhat,
                # and y = xhat * alpha gets beta added. The backward rebuilds
                # xhat from x, mu and inv, so the node keeps neither.
                np.multiply(np.multiply(xc, inv.reshape(bshape), out=xc),
                            alpha.data[c0:c1].reshape(bshape), out=y[c0:c1])
                finish(y[c0:c1], beta.data[c0:c1])
            return mu, var, inv
        mu, var, inv = (np.concatenate(v) for v in zip(*_each_block(forward_run, runs)))
        if not np.all(np.isfinite(var)):    # also catches a non-finite mean
            raise NumericsError("non-finite batch statistics in op 'batch_norm'")
        running_mean.data[...] = BN_MOMENTUM * running_mean.data + (1 - BN_MOMENTUM) * mu
        running_var.data[...] = BN_MOMENTUM * running_var.data + (1 - BN_MOMENTUM) * var
    else:
        inv = 1.0 / np.sqrt(running_var.data + BN_EPS)
        a = alpha.data * inv
        b = beta.data - running_mean.data * a
        # One output buffer, in the dtype the unfolded formula would give.
        y = np.empty_like(x.data, dtype=np.result_type(x.data, a, b))

        def forward_run(run):
            c0, c1 = run
            np.multiply(x.data[c0:c1], a[c0:c1].reshape(bshape), out=y[c0:c1],
                        dtype=y.dtype)
            finish(y[c0:c1], b[c0:c1])
        _each_block(forward_run, runs)

    def backward(g):
        # ``g`` is this node's own gradient buffer (``accumulate_grad`` copies
        # the first gradient), so each run works on its slice in place; every
        # in-place step rounds as the out-of-place form it stands for.
        def backward_run(run):
            c0, c1 = run
            gr, xr = g[c0:c1], x.data[c0:c1]
            inv_r = inv[c0:c1].reshape(bshape)
            if relu:
                np.multiply(gr, y[c0:c1] > 0, out=gr)
            if training:
                xhat = np.subtract(xr, mu[c0:c1].reshape(bshape))
                xhat *= inv_r
            sums = []
            if alpha.requires_grad:
                xh = xhat if training else \
                    (xr - running_mean.data[c0:c1].reshape(bshape)) * inv_r
                sums.append(_channel_sum(gr * xh))
            if beta.requires_grad:
                sums.append(_channel_sum(gr))
            if x.requires_grad:
                ga = np.multiply(gr, alpha.data[c0:c1].reshape(bshape), out=gr)
                if training:
                    # gx = (inv / n) * (n * ga - s1 - xhat * s2)
                    s1 = _channel_sum(ga).reshape(bshape)
                    s2 = _channel_sum(ga * xhat).reshape(bshape)
                    ga *= n
                    ga -= s1
                    # xhat's buffer takes xhat * s2 unless alpha is the wider dtype.
                    ga -= np.multiply(xhat, s2, out=xhat if xhat.dtype == ga.dtype else None)
                    ga *= inv_r / n
                else:
                    ga *= inv_r
            return sums
        sums = (np.concatenate(v) for v in zip(*_each_block(backward_run, runs)))
        for p in (alpha, beta):
            if p.requires_grad:
                p.accumulate_grad(next(sums))
        if x.requires_grad:
            x.accumulate_grad(g)
    return make_node(y, (x, alpha, beta), "batch_norm", backward)


# ---------------------------------------------------------------------------
# Activations and pooling
# ---------------------------------------------------------------------------

def relu(x):
    """max(x, 0); a ``-0.0`` input gives ``+0.0``."""
    y = np.maximum(x.data, 0)

    def backward(g):    # g is the node's own gradient buffer
        x.accumulate_grad(np.multiply(g, y > 0, out=g))
    return make_node(y, (x,), "relu", backward)


def temporal_max_pool(x):
    """Max over the time axis: [B,T,C] -> [B,C].

    Gradient is routed to the first occurrence of the per-channel max.
    """
    _require(x.ndim == 3, f"temporal_max_pool expects [B,T,C], got {x.shape}")
    _require(x.shape[1] >= 1, "temporal_max_pool requires T >= 1")
    y = np.take_along_axis(x.data, np.argmax(x.data, axis=1)[:, None], axis=1)[:, 0]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, np.argmax(x.data, axis=1)[:, None], g[:, None], axis=1)
        x.accumulate_grad(gx)
    return make_node(y, (x,), "temporal_max_pool", backward)


def max_pool2d(x):
    """The stem's 3x3, stride-2, padding-1 spatial max pool: [C,B,H,W] -> [C,B,H',W'].

    H' = (H - 1) // 2 + 1, likewise W'. Gradient is routed to the first
    occurrence of each window max, in row-major window order.
    """
    _require(x.ndim == 4, f"max_pool2d input must be 4D, got {x.shape}")
    c, b_, h, w = x.shape
    ho, wo = (h - 1) // 2 + 1, (w - 1) // 2 + 1
    xp = np.pad(x.data, ((0, 0), (0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    win = win[:, :, ::2, ::2].reshape(c, b_, ho, wo, 9)
    idx = np.argmax(win, axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    # The window index (0-8) is all the backward keeps: one byte per output.
    idx = idx.astype(np.uint8)
    padded_shape = xp.shape

    def backward(g):
        gxp = np.zeros(padded_shape, x.dtype)
        ii, jj = np.unravel_index(idx, (3, 3))
        ci, bi, hi, wi = np.indices(idx.shape)
        np.add.at(gxp, (ci, bi, hi * 2 + ii, wi * 2 + jj), g)
        x.accumulate_grad(gxp[:, :, 1:1 + h, 1:1 + w])
    return make_node(y, (x,), "max_pool2d", backward)


def softmax(x):
    """Softmax over the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = np.sum(g * s, axis=-1, keepdims=True)
        x.accumulate_grad(s * (g - dot))
    return make_node(s, (x,), "softmax", backward)


def mean_over(x, axis):
    """Mean over one axis or a tuple of axes.

    Averages per-snippet scores (``axis=1``) and pools [C,B,H,W] feature
    maps spatially (``axis=(2, 3)``).
    """
    axes = axis if isinstance(axis, tuple) else (axis,)
    for a in axes:
        _require(x.shape[a] > 0, f"mean_over: axis {a} of {x.shape} is empty")
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
    for a, n in enumerate(logits.shape):
        _require(n > 0, f"softmax_cross_entropy: axis {a} of logits {logits.shape} is empty")
    labels = np.asarray(labels)
    _require(labels.shape == (b_,), f"labels must have shape ({b_},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"label out of range [0, {k})")

    def log_softmax():
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        return z - np.log(np.exp(z).sum(axis=1, keepdims=True))

    loss = np.asarray(-log_softmax()[np.arange(b_), labels].mean(), dtype=logits.dtype)

    def backward(g):    # the [B, K] log-probabilities are made again, not kept
        gl = np.exp(log_softmax())
        gl[np.arange(b_), labels] -= 1.0
        logits.accumulate_grad(gl * (g / b_))
    return make_node(loss, (logits,), "softmax_cross_entropy", backward)
