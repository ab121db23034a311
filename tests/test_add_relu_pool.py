"""add_relu on the block pool against one thread, compared bit for bit.

``ops.add_relu`` computes relu(a + b), a residual block's tail and the TXB
head's fusion, over even runs of the first axis on the block pool once its
inputs hold ``ADD_RELU_POOL`` values. The output and both input gradients
must be the bytes of one thread, and of ``relu(a + b)`` as two ops, in
float32 and float64, for every set of gradients asked for, on inputs that
hold -0.0 and sums that are exactly 0. The pool floor is set to 0 for these
cases, so that small arrays run several runs too; cases at the real floor
use the benchmark's shapes.
"""

import numpy as np
import pytest

from stnet import ops
from stnet.tensor import Tensor

# Per-channel shapes of [C, *shape]: a backbone activation and a 2D array.
LAYOUTS = {"backbone": (8, 16, 16), "2d": (2048,)}
CHANNELS = (2, 3, 5, 16)
GRAD_SETS = {"ab": (True, True), "a": (True, False), "b": (False, True), "none": (False, False)}


def two_ops(a, b):
    return ops.relu(a + b)


def run(fn, shape, dtype, grads, seed=0):
    """(output, a grad, b grad) of ``fn(a, b)`` forward and, when some input
    asks for one, backward."""
    rng = np.random.default_rng(seed)
    a, b, g = (rng.standard_normal(shape).astype(dtype) for _ in range(3))
    flat_a, flat_b = a.reshape(-1), b.reshape(-1)
    flat_a[::7] = flat_b[::7] = -0.0    # -0.0 + -0.0 is -0.0, whose relu is +0.0
    flat_a[3::11] = -flat_b[3::11]      # sums that are exactly 0
    g.reshape(-1)[::5] = -0.0
    ta, tb = Tensor(a, requires_grad=grads[0]), Tensor(b, requires_grad=grads[1])
    y = fn(ta, tb)
    if any(grads):
        y.backward(g)
    return y.data, ta.grad, tb.grad


def assert_same_bits(got, want):
    for name, a, b in zip(("y", "a.grad", "b.grad"), got, want):
        assert (a is None and b is None) or (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), name


def pool_against_serial(shape, dtype, grads, pool, monkeypatch):
    parallel = run(ops.add_relu, shape, dtype, grads)
    runs = ops._channel_runs(shape[0], ops._workers())
    assert (pool.items > 0) == (len(runs) > 1)
    assert_same_bits(parallel, run(two_ops, shape, dtype, grads))
    monkeypatch.setattr(ops, "_block_pool", lambda: None)
    assert_same_bits(parallel, run(ops.add_relu, shape, dtype, grads))


@pytest.mark.parametrize("grads", sorted(GRAD_SETS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("c", CHANNELS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_pool_keeps_every_bit(layout, c, dtype, grads, pool, monkeypatch):
    monkeypatch.setattr(ops, "ADD_RELU_POOL", 0)
    pool_against_serial((c,) + LAYOUTS[layout], dtype, GRAD_SETS[grads], pool, monkeypatch)


# The benchmark's residual adds at the real floor: stnet-toy's stage 2 at
# the train workload's 16 clips, its stage 1 at the eval workload's 32 clips,
# and a ResNet-50 stage-1 block at the infer workload's 2 clips. Each is at
# or above the floor and runs on the pool.
WORKLOAD_SHAPES = {
    "toy_stage2_train": (32, 64, 16, 16),
    "toy_stage1_eval": (16, 128, 32, 32),
    "r50_stage1_infer": (256, 8, 28, 28),
}


@pytest.mark.parametrize("case", sorted(WORKLOAD_SHAPES))
def test_pool_keeps_every_bit_at_the_real_floor(case, pool, monkeypatch):
    shape = WORKLOAD_SHAPES[case]
    assert np.prod(shape) >= ops.ADD_RELU_POOL
    pool_against_serial(shape, np.float32, (True, True), pool, monkeypatch)


def test_arrays_below_the_floor_stay_in_the_calling_thread(pool):
    run(ops.add_relu, (16, ops.ADD_RELU_POOL // 16 - 1), np.float32, (True, True))
    assert pool.items == 0


def test_shape_mismatch_is_rejected():
    with pytest.raises(ValueError, match="add_relu shape mismatch"):
        ops.add_relu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
