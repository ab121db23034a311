"""The non-finite guard of the ops that write their output on the block pool.

``conv2d``'s kernels, ``batch_norm`` and ``add_relu`` check each output
slice in the block or run that writes it, and the calling thread raises
``make_node``'s error once every block is done, so no thread writes after
the op has raised. Each case puts +inf, -inf or nan into the part of the
input that one block or run alone reads, and the op must raise by its name
both on the pool and in one thread (``_block_pool`` patched to None).
"""

import numpy as np
import pytest

from stnet import ops
from stnet.tensor import NumericsError, Tensor

from test_conv2d_exact import KERNELS, geometry_block_args, geometry_inputs

VALUES = {"+inf": np.inf, "-inf": -np.inf, "nan": np.nan}
THREADS = ("pool", "serial")


def raises_by_name(op, call, threads, pool, monkeypatch):
    """``call()`` raises ``op``'s non-finite error; on the pool, only after
    every item it handed to the pool has finished."""
    if threads == "serial":
        monkeypatch.setattr(ops, "_block_pool", lambda: None)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericsError, match=f"^non-finite values produced by op '{op}'$"):
            call()
    assert (pool.items > 0) == (threads == "pool")
    assert all(f.done() for f in pool.futures)


@pytest.mark.parametrize("value", sorted(VALUES))
@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_conv2d_non_finite_in_one_block(kernel, threads, value, pool, monkeypatch):
    # The eval workload's 16->16 3x3 runs several image blocks in either
    # kernel; one image of the last block holds the value.
    geometry = "eval_3x3_s1"
    blocks = ops._image_blocks(*geometry_block_args(kernel, geometry), ops._workers())
    assert len(blocks) > 1
    x, wt, _ = geometry_inputs(geometry)
    xt = Tensor(np.ascontiguousarray(x.transpose(1, 0, 2, 3)))
    xt.data[3, blocks[-1][0], 5, 7] = VALUES[value]
    raises_by_name("conv2d", lambda: KERNELS[kernel](xt, Tensor(wt), 1),
                   threads, pool, monkeypatch)


def test_shift_kernel_checks_its_output_not_its_grid():
    # Only column 0 of each kernel row is non-zero, so no output reads the
    # input's last column, which holds 3e38. The grid's first extra column
    # adds that column's three rows over every channel and overflows (numpy
    # raises on it under errstate(over="raise")); the output stays finite,
    # with the bits of the tap kernel, which makes no grid.
    rng = np.random.default_rng(3)
    x = rng.standard_normal((16, 64, 16, 16)).astype(np.float32)
    x[:, :, :, -1] = 3e38
    wt = np.zeros((16, 16, 3, 3), np.float32)
    wt[:, :, :, 0] = 1
    xt, wtt = Tensor(x), Tensor(wt)
    assert ops._conv2d_kernel(64, 16, 16, 3, 3, 1, 16, 16) is ops._conv2d_shift
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            ops._conv2d_shift(xt, wtt, 1)
        want = ops._conv2d_taps(xt, wtt, 1).data
    with np.errstate(over="ignore", invalid="ignore"):
        got = ops._conv2d_shift(xt, wtt, 1).data
    assert np.isfinite(got).all() and got.tobytes() == want.tobytes()


BN_CASES = [(training, relu, value) for training in (True, False) for relu in (False, True)
            for value in sorted(VALUES) if not (relu and value == "-inf")]


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("training, relu, value", BN_CASES,
                         ids=[f"{'train' if t else 'infer'}-{'bn_relu' if r else 'bn'}-{v}"
                              for t, r, v in BN_CASES])
def test_batch_norm_non_finite_in_one_run(training, relu, value, threads, pool, monkeypatch):
    # A beta of the second channel run holds the value: the batch statistics
    # stay finite and only that run's output is not. A relu makes -inf 0,
    # so that case is left out with it.
    shape = (8, 128, 32, 32)
    runs = ops._channel_runs(shape[0], ops._workers())
    assert len(runs) > 1 and np.prod(shape) >= ops.BN_POOL_INFER
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    alpha = Tensor(rng.standard_normal(8).astype(np.float32), requires_grad=True)
    beta = Tensor(rng.standard_normal(8).astype(np.float32), requires_grad=True)
    beta.data[runs[1][0]] = VALUES[value]
    mean, var = Tensor(np.zeros(8, np.float32)), Tensor(np.ones(8, np.float32))
    raises_by_name("batch_norm", lambda: ops.batch_norm(x, alpha, beta, mean, var,
                                                        training=training, relu=relu),
                   threads, pool, monkeypatch)
    assert mean.data.tobytes() == np.zeros(8, np.float32).tobytes()
    assert var.data.tobytes() == np.ones(8, np.float32).tobytes()


def test_batch_norm_overflow_in_one_run_raises(pool):
    # Finite parameters, finite statistics, an output that overflows.
    shape = (8, 64, 32, 32)
    runs = ops._channel_runs(shape[0], ops._workers())
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal(shape).astype(np.float32))
    alpha = Tensor(np.ones(8, np.float32))
    alpha.data[runs[1][0]] = 3e38
    with np.errstate(over="ignore"):
        with pytest.raises(NumericsError, match="^non-finite values produced by op 'batch_norm'$"):
            ops.batch_norm(x, alpha, Tensor(np.zeros(8, np.float32)),
                           Tensor(np.zeros(8, np.float32)), Tensor(np.ones(8, np.float32)),
                           training=True)
    assert pool.items > 0 and all(f.done() for f in pool.futures)


def test_batch_norm_statistics_error_comes_first(pool):
    shape = (8, 64, 32, 32)
    runs = ops._channel_runs(shape[0], ops._workers())
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal(shape).astype(np.float32))
    x.data[runs[0][0], 1, 2, 3] = np.nan
    beta = Tensor(np.zeros(8, np.float32))
    beta.data[runs[1][0]] = np.inf
    with pytest.raises(NumericsError, match="non-finite batch statistics in op 'batch_norm'"):
        ops.batch_norm(x, Tensor(np.ones(8, np.float32)), beta, Tensor(np.zeros(8, np.float32)),
                       Tensor(np.ones(8, np.float32)), training=True)


@pytest.mark.parametrize("value", sorted(VALUES))
@pytest.mark.parametrize("threads", THREADS)
def test_add_relu_non_finite_sum_in_one_run(threads, value, pool, monkeypatch):
    # A -inf sum must raise, not come out of the relu as 0.
    shape = (16, 64, 32, 32)
    runs = ops._channel_runs(shape[0], ops._workers())
    assert len(runs) > 1 and np.prod(shape) >= ops.ADD_RELU_POOL
    rng = np.random.default_rng(7)
    a, b = (Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
            for _ in range(2))
    a.data[runs[1][0], 9, 4, 2] = VALUES[value]
    raises_by_name("add", lambda: ops.add_relu(a, b), threads, pool, monkeypatch)
