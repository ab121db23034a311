"""batch_norm on the block pool against one thread, compared bit for bit.

Every statistic of a batch norm is per channel, so ``ops.batch_norm`` runs
even runs of channels on the block pool: each run takes its own sums, its
output slice and its slice of the input gradient. The output, the running
statistics and every gradient must then be the bytes of one thread, for
train and infer mode, with and without the fused relu, in float32 and
float64, for every set of gradients asked for, on the backbone's
[C, N, H, W], the TM block's [C, B, T, H*W] and the TXB head's [C, N].
The pool floors are set to 0 for these cases, so that small arrays run
several runs too; cases at the real floors use the benchmark's shapes.
"""

import itertools

import numpy as np
import pytest

from stnet import arch, data, model, ops, training
from stnet.tensor import NumericsError, Tensor

# Per-channel shapes of [C, *shape]: a backbone activation, a TM block's
# [C, B, T, H*W] conv output and the TXB head's [C, B*T].
LAYOUTS = {"backbone": (8, 16, 16), "tm": (2, 4, 256), "2d": (2048,)}
CHANNELS = (2, 3, 5, 16)
# Which of x, alpha and beta ask for a gradient: every set, none included.
GRAD_SETS = {"".join(n for n, on in zip("xab", bits) if on) or "none": bits
             for bits in itertools.product((True, False), repeat=3)}


def run_bn(shape, dtype, training, relu, grads, seed=0):
    """(output, running mean, running var, x grad, alpha grad, beta grad) of one
    batch norm forward and, when some input asks for one, backward."""
    rng = np.random.default_rng(seed)
    c = shape[0]
    x = Tensor((rng.standard_normal(shape) * 2 + 1).astype(dtype), requires_grad=grads[0])
    alpha = Tensor(rng.standard_normal(c).astype(dtype), requires_grad=grads[1])
    beta = Tensor(rng.standard_normal(c).astype(dtype), requires_grad=grads[2])
    mean = Tensor(rng.standard_normal(c).astype(dtype))
    var = Tensor(rng.uniform(0.5, 2.0, c).astype(dtype))
    g = rng.standard_normal(shape).astype(dtype)
    y = ops.batch_norm(x, alpha, beta, mean, var, training=training, relu=relu)
    if any(grads):
        y.backward(g)
    return y.data, mean.data, var.data, x.grad, alpha.grad, beta.grad


def assert_same_bits(got, want):
    names = ("y", "running_mean", "running_var", "x.grad", "alpha.grad", "beta.grad")
    for name, a, b in zip(names, got, want):
        assert (a is None and b is None) or (
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()), name


def pool_against_serial(shape, dtype, training, relu, grads, pool, monkeypatch):
    parallel = run_bn(shape, dtype, training, relu, grads)
    runs = ops._channel_runs(shape[0], ops._workers())
    assert (pool.items > 0) == (len(runs) > 1)
    monkeypatch.setattr(ops, "_block_pool", lambda: None)
    assert_same_bits(parallel, run_bn(shape, dtype, training, relu, grads))


@pytest.mark.parametrize("grads", sorted(GRAD_SETS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn_relu"])
@pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
@pytest.mark.parametrize("c", CHANNELS)
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_pool_keeps_every_bit(layout, c, training, relu, dtype, grads, pool, monkeypatch):
    monkeypatch.setattr(ops, "BN_POOL_TRAIN", 0)
    monkeypatch.setattr(ops, "BN_POOL_INFER", 0)
    pool_against_serial((c,) + LAYOUTS[layout], dtype, training, relu, GRAD_SETS[grads],
                        pool, monkeypatch)


# The benchmark's batch norms at the real floors: stnet-toy's stem and TM
# block at the train workload's 16 clips, its stage 2 at the eval
# workload's 32 clips, and a ResNet-50 stage-1 1x1 at the infer workload's
# 2 clips. Each is above its mode's floor and runs on the pool.
WORKLOAD_SHAPES = {
    "toy_stem_train": ((16, 64, 32, 32), True),
    "toy_tm2_train": ((32, 16, 4, 256), True),
    "toy_stage2_eval": ((32, 128, 16, 16), False),
    "r50_stage1_infer": ((256, 8, 28, 28), False),
}


@pytest.mark.parametrize("case", sorted(WORKLOAD_SHAPES))
def test_pool_keeps_every_bit_at_the_real_floors(case, pool, monkeypatch):
    shape, training = WORKLOAD_SHAPES[case]
    floor = ops.BN_POOL_TRAIN if training else ops.BN_POOL_INFER
    assert np.prod(shape) >= floor
    pool_against_serial(shape, np.float32, training, True, (True, True, True),
                        pool, monkeypatch)


@pytest.mark.parametrize("training", [True, False], ids=["train", "infer"])
def test_arrays_below_the_floor_stay_in_the_calling_thread(training, pool):
    floor = ops.BN_POOL_TRAIN if training else ops.BN_POOL_INFER
    run_bn((16, floor // 16 - 1), np.float32, training, True, (True, True, True))
    assert pool.items == 0


def test_channel_runs_hold_two_channels_or_more():
    for c in range(1, 70):
        for workers in range(1, 9):
            runs = ops._channel_runs(c, workers)
            assert runs[0][0] == 0 and runs[-1][1] == c
            assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
            sizes = [c1 - c0 for c0, c1 in runs]
            assert max(sizes) - min(sizes) <= 1, (c, workers, sizes)
            assert len(runs) == max(1, min(workers, c // 2)), (c, workers)
            if len(runs) > 1:
                assert min(sizes) >= 2, (c, workers, sizes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(16, 64, 32, 32), (32, 16, 4, 256), (5, 7, 3, 3),
                                   (64, 64), (3, 1000)], ids=str)
def test_channel_sum_of_each_run_is_the_full_sum(shape, dtype):
    # numpy sums a one-channel slice's [N, 1] column pairwise, so its bits
    # may differ from the full array's sum; runs of 2 or more channels keep
    # the full array's order.
    a = (np.random.default_rng(1).standard_normal(shape) + 3).astype(dtype)
    full = ops._channel_sum(a)
    for workers in range(2, 9):
        for c0, c1 in ops._channel_runs(shape[0], workers):
            assert ops._channel_sum(a[c0:c1]).tobytes() == full[c0:c1].tobytes()


def test_non_finite_run_raises_before_any_statistic_moves(pool):
    # A NaN in a channel of the second run: the op raises, no worker is still
    # writing, and the running statistics keep their bytes.
    shape = (8, 64, 32, 32)
    runs = ops._channel_runs(shape[0], ops._workers())
    assert len(runs) > 1 and np.prod(shape) >= ops.BN_POOL_TRAIN
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
    x.data[runs[1][0], 3, 4, 5] = np.nan    # as an op's output could hold
    p = [Tensor(rng.standard_normal(8).astype(np.float32), requires_grad=True)
         for _ in range(2)]
    mean, var = Tensor(np.zeros(8, np.float32)), Tensor(np.ones(8, np.float32))
    with pytest.raises(NumericsError, match="non-finite batch statistics in op 'batch_norm'"):
        ops.batch_norm(x, *p, mean, var, training=True)
    assert pool.items > 0 and all(f.done() for f in pool.futures)
    assert mean.data.tobytes() == np.zeros(8, np.float32).tobytes()
    assert var.data.tobytes() == np.ones(8, np.float32).tobytes()


def test_divergence_in_a_pooled_batch_norm_names_the_layer(pool, monkeypatch):
    # The NaN reaches stage2/block0/bn2 of stnet-toy at batch 16 in a channel
    # of its second run; the step fails by the layer's name and the model
    # keeps every parameter and running statistic.
    layer = "stage2/block0/bn2"
    m = model.build_model(arch.load_preset("stnet-toy"), seed=0)
    before = {k: t.data.tobytes() for k, t in m.params.items()}
    batch_norm, hit = ops.batch_norm, []

    def poisoned(x, alpha, *args, **kwargs):
        if alpha is m.params[f"{layer}/alpha"]:
            runs = ops._channel_runs(x.shape[0], ops._workers())
            assert len(runs) > 1 and x.size >= ops.BN_POOL_TRAIN
            x.data[runs[1][0], 0, 0, 0] = np.nan
            hit.append(runs)
        return batch_norm(x, alpha, *args, **kwargs)
    monkeypatch.setattr(ops, "batch_norm", poisoned)
    clips = data.gen_synthetic(data.SynthConfig(clips_per_class=2, seed=0))
    cfg = training.TrainConfig(epochs=1, batch_size=16, lr=0.02, seed=0)
    with pytest.raises(training.DivergenceError,
                       match=f"{layer}: non-finite batch statistics in op 'batch_norm'"):
        training.train(m, clips, cfg)
    assert hit and all(f.done() for f in pool.futures)
    assert {k: t.data.tobytes() for k, t in m.params.items()} == before
