"""Which conv2d kernel is faster, per conv of the pinned specs? Times both.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/conv_paths.py [--reps N]

For every conv2d plan of ``stnet-toy`` (train at 16 clips, infer at 32)
and of ``stnet-resnet50`` at 112x112, T=4 (infer at 2 clips), that is at
the batch of each benchmark workload, and for every TM conv, run as
``ops.conv2d`` runs it (a (3, 1) kernel on [C, B, T, H*W]), it runs
``ops._conv2d_taps`` and
``ops._conv2d_shift`` on the same random input: forward plus backward
for train, forward only for infer. Each kernel's time is the best of
``--reps`` alternating runs. It prints both times, the faster kernel, the
kernel that ``ops.conv2d``'s rule picks, the image blocks the picked
kernel works through (count x columns of the widest block, to check
``ops.BLOCK_COLS`` against another machine's L2 cache), and whether the
two kernels gave the same bits (the output, and for train both
gradients). Times within 3% of each other are a tie; a pick that loses
by more is marked ``<<``. Run it on another machine to check the rule
there. The file name keeps it out of pytest collection.
"""

from __future__ import annotations

import argparse
from time import perf_counter

import numpy as np

from stnet import arch, model, ops
from stnet.tensor import Tensor

from test_conv2d_exact import block_args

KERNELS = {"taps": ops._conv2d_taps, "shift": ops._conv2d_shift}
TIE = 0.03      # kernels within 3% of each other are a tie

# (label, spec, images per batch (clips x T), train). The batches are
# those of the benchmark workloads.
CASES = [
    ("stnet-toy train", arch.load_preset("stnet-toy"), 16 * 4, True),
    ("stnet-toy infer", arch.load_preset("stnet-toy"), 32 * 4, False),
    ("stnet-resnet50-112 infer",
     arch.with_overrides(arch.load_preset("stnet-resnet50"), t=4, res=112), 2 * 4, False),
]


def conv_inputs(spec, images):
    """(plan, input shape, weight shape, stride, first conv?) of each conv of the
    backbone at ``images`` images, in order; a TM conv as ``ops.conv2d`` runs it."""
    def conv2d_at(conv, h, w, first):
        wshape = conv.params["w"]
        return conv, (wshape[1], images, h, w), wshape, conv.stride, first

    h, w = spec.height, spec.width
    out = []
    for blk in model.backbone(spec):
        if blk.kind == "tm":
            conv = blk.pairs[0][0]
            t, c = conv.out_shape[:2]
            out.append((conv, (c, images // t, t, h * w), (c, c, 3, 1), 1, False))
            continue
        hi, wi = h, w
        for conv, _ in blk.pairs:
            out.append(conv2d_at(conv, hi, wi, not out))
            hi, wi = conv.out_shape[2:]
        if blk.down:
            out.append(conv2d_at(blk.down[0], h, w, False))
        h, w = hi, wi
        if blk.pool:
            h, w = (h - 1) // 2 + 1, (w - 1) // 2 + 1
    return out


def blocks(kernel, images, c, o, kh, kw, stride, ho, wo):
    """(count, columns of the widest) of the image blocks ``kernel`` works through."""
    args = block_args(kernel, images, c, o, kh, kw, stride, ho, wo)
    if args is None:    # one product
        return 1, images * ho * wo
    runs = ops._image_blocks(*args)
    return len(runs), max(b1 - b0 for b0, b1 in runs) * args[1]


def run(kernel, x, wt, g, stride):
    """(seconds, [y, x grad, weight grad]) of one call and, with ``g``, its backward."""
    x.zero_grad()
    wt.zero_grad()
    t0 = perf_counter()
    y = kernel(x, wt, stride)
    if g is not None:
        y.backward(g)
    return perf_counter() - t0, [y.data, x.grad, wt.grad]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=5, help="timed runs per kernel (default 5)")
    args = ap.parse_args()
    rng = np.random.default_rng(0)
    for label, spec, images, train in CASES:
        print(f"# {label}, {images} images")
        print(f"{'layer':<24} {'C->O':>10} {'k/s':>4} {'HxW':>7} "
              f"{'taps ms':>8} {'shift ms':>8} {'faster':>6} {'rule':>6} {'blocks':>9} bits")
        totals = dict.fromkeys(KERNELS, 0.0)
        for conv, x_shape, w_shape, stride, first in conv_inputs(spec, images):
            c, b, h, w = x_shape
            o, _, kh, kw = w_shape
            x = Tensor(rng.standard_normal(x_shape).astype(np.float32),
                       requires_grad=train and not first)
            wt = Tensor((rng.standard_normal(w_shape) / np.sqrt(c * kh * kw))
                        .astype(np.float32), requires_grad=train)
            ho = (h + 2 * (kh // 2) - kh) // stride + 1
            wo = (w + 2 * (kw // 2) - kw) // stride + 1
            g = rng.standard_normal((o, b, ho, wo)).astype(np.float32) if train else None
            best = dict.fromkeys(KERNELS, float("inf"))
            outs = {}
            for _ in range(args.reps):
                for name, kernel in KERNELS.items():
                    dt, outs[name] = run(kernel, x, wt, g, stride)
                    best[name] = min(best[name], dt)
            same = all((a is None and b is None) or a.tobytes() == b.tobytes()
                       for a, b in zip(outs["taps"], outs["shift"]))
            faster = min(best, key=best.get)
            if max(best.values()) < (1 + TIE) * min(best.values()):
                faster = "tie"
            pick = ops._conv2d_kernel(b, c, o, kh, kw, stride, ho, wo)
            rule = next(n for n, kern in KERNELS.items() if kern is pick)
            count, width = blocks(pick, b, c, o, kh, kw, stride, ho, wo)
            for name in KERNELS:
                totals[name] += best[name]
            k = f"{kh}/{stride}" if kh == kw else f"{kh}x{kw}"
            print(f"{conv.name:<24} {f'{c}->{o}':>10} {k:>4} "
                  f"{f'{h}x{w}':>7} {best['taps'] * 1e3:8.2f} {best['shift'] * 1e3:8.2f} "
                  f"{faster:>6} {rule:>6} {f'{count}x{width}':>9} "
                  f"{'equal' if same else 'DIFFER'}"
                  f"{'' if faster in (rule, 'tie') else '  <<'}")
        print(f"{'total':<24} {'':>10} {'':>4} {'':>7} "
              f"{totals['taps'] * 1e3:8.2f} {totals['shift'] * 1e3:8.2f}")


if __name__ == "__main__":
    main()
