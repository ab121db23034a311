"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The slowest item is
the order-discrimination experiment (criterion 9), which trains two
models on the synthetic dataset at full size.
"""

import time

import numpy as np
import pytest

from stnet import arch, checkpoint, complexity, data, model, training
from stnet.gradcheck import run_op_checks
from stnet.tensor import Tensor
from stnet import ops

import naive_reference as ref


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_c01_txb_head_parameter_count():
    t0 = time.perf_counter()
    rep = complexity.analyze(arch.load_preset("txb-head-irv2"))
    elapsed = time.perf_counter() - t0
    assert rep.total_params == 4_620_688
    assert round(rep.total_params / 1e6, 1) == 4.6
    assert elapsed < 1.0
    report(1, f"txb-head-irv2 totals {rep.total_params:,} params "
              f"(4.6M) in {elapsed:.3f}s")


def test_c02_resnet_backbone_parameter_counts():
    t0 = time.perf_counter()
    r50 = complexity.analyze(arch.load_preset("stnet-resnet50"))
    r101 = complexity.analyze(arch.load_preset("stnet-resnet101"))
    elapsed = time.perf_counter() - t0
    err50 = abs(r50.total_params - 33.16e6) / 33.16e6
    err101 = abs(r101.total_params - 52.15e6) / 52.15e6
    assert err50 < 0.01 and err101 < 0.01
    assert elapsed < 1.0
    report(2, f"resnet50 {r50.total_params/1e6:.2f}M (err {err50:.2%}), "
              f"resnet101 {r101.total_params/1e6:.2f}M (err {err101:.2%}) "
              f"in {elapsed:.3f}s")


def test_c03_resnet50_multiplication_count():
    t0 = time.perf_counter()
    spec = arch.with_overrides(arch.load_preset("stnet-resnet50"),
                               t=25, n=5, res=256)
    rep = complexity.analyze(spec)
    elapsed = time.perf_counter() - t0
    err = abs(rep.total_mults - 189.29e9) / 189.29e9
    assert err < 0.05
    assert elapsed < 1.0
    report(3, f"resnet50 @ T=25,N=5,256x256: {rep.total_mults/1e9:.2f}G mults "
              f"(err {err:.2%}) in {elapsed:.3f}s")


def test_c04_gradient_checks():
    t0 = time.perf_counter()
    results = run_op_checks(instances=20, seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(results.values())
    assert worst < 1e-4, results
    assert elapsed < 120
    report(4, f"{len(results)} ops x 20 shapes, max relative error "
              f"{worst:.2e} in {elapsed:.1f}s")


def test_c05_forward_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    instances = 0

    def t64(a):
        return Tensor(np.asarray(a, np.float64))

    for _ in range(20):
        b, c, o = (int(rng.integers(1, 3)), int(rng.integers(1, 4)),
                   int(rng.integers(1, 4)))
        k = int(rng.integers(1, 4))
        s, p = int(rng.integers(1, 3)), int(rng.integers(0, 3))
        h, w = int(rng.integers(k, k + 4)), int(rng.integers(k, k + 4))
        x, wt, bi = (rng.standard_normal((b, c, h, w)),
                     rng.standard_normal((o, c, k, k)), rng.standard_normal(o))
        got = ops.conv2d(t64(x), t64(wt), stride=s, padding=p).data
        assert ref.relative_error(got, ref.conv2d_ref(x, wt, s, p)) < 1e-6
        instances += 1

        t_, h3, w3 = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.standard_normal((b, c, t_, h3, w3))
        wt = rng.standard_normal((o, c, 3, 1, 1))
        got = ops.temporal_conv3(t64(x.transpose(0, 2, 1, 3, 4)), t64(wt[:, :, :, 0, 0]),
                                 t64(bi)).data.transpose(0, 2, 1, 3, 4)
        assert ref.relative_error(got, ref.conv3d_t311_ref(x, wt, bi)) < 1e-6
        instances += 1

        tl, ci, co = int(rng.integers(1, 8)), int(rng.integers(1, 5)), int(rng.integers(1, 5))
        xs = rng.standard_normal((tl, ci))
        wc, bc = rng.standard_normal((ci, 3)), rng.standard_normal(ci)
        got = ops.temporal_conv3(t64(xs), t64(wc), t64(bc)).data
        assert ref.relative_error(got, ref.conv1d_channelwise_ref(xs, wc, bc)) < 1e-6
        wtw, btw = rng.standard_normal((co, ci)), rng.standard_normal(co)
        got = ops.linear(t64(xs), t64(wtw), t64(btw)).data
        assert ref.relative_error(got, ref.conv1d_temporalwise_ref(xs, wtw, btw)) < 1e-6
        instances += 2

        shape = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(2, 5))))
        axis = 1 if len(shape) == 4 else len(shape) - 1
        cc = shape[axis]
        xb = rng.standard_normal(shape)
        alpha, beta = rng.standard_normal(cc), rng.standard_normal(cc)
        mean, var = rng.standard_normal(cc), rng.uniform(0.5, 2, cc)
        for training_mode in (False, True):
            got = ops.batch_norm(t64(xb), t64(alpha), t64(beta), t64(mean.copy()),
                                 t64(var.copy()), axis=axis,
                                 training=training_mode).data
            want = ref.batch_norm_ref(xb, alpha, beta, mean, var, axis, training_mode)
            assert ref.relative_error(got, want) < 1e-6
            instances += 1

        x4 = rng.standard_normal((2, 3, int(rng.integers(1, 6)), int(rng.integers(1, 6))))
        assert ref.relative_error(ops.mean_over(t64(x4), (2, 3)).data,
                                  ref.global_avg_pool2d_ref(x4)) < 1e-6
        got = ops.max_pool2d(t64(x4)).data
        assert np.allclose(got, ref.max_pool2d_ref(x4))
        xs2 = rng.standard_normal((int(rng.integers(1, 7)), int(rng.integers(1, 5))))
        assert np.allclose(ops.temporal_max_pool(t64(xs2)).data,
                           ref.temporal_max_pool_ref(xs2))
        instances += 3

    elapsed = time.perf_counter() - t0
    assert instances >= 100
    assert elapsed < 120
    report(5, f"{instances} random instances vs nested-loop oracles "
              f"within 1e-6 in {elapsed:.1f}s")


def test_c06_inflation_invariant():
    rng = np.random.default_rng(1)
    frame = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
    w3 = (rng.standard_normal((8, 3, 7, 7)) * np.sqrt(2 / (3 * 49))).astype(np.float32)
    want = ops.conv2d(Tensor(frame), Tensor(w3), stride=2, padding=3).data
    worst = 0.0
    for n in (1, 3, 5):
        stacked = Tensor(np.tile(frame, (1, n, 1, 1)))
        wn = Tensor(model.inflate_first_conv(w3, n).astype(np.float32))
        got = ops.conv2d(stacked, wn, stride=2, padding=3).data
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst < 1e-5
    report(6, f"super-image of N identical frames matches the 2D response "
              f"for N in (1,3,5); max abs dev {worst:.2e}")


def test_c07_tm_init_invariant():
    rng = np.random.default_rng(2)
    c, t = 12, 6
    x = rng.standard_normal((2, c, t, 4, 4)).astype(np.float32)
    p = model.init_tm_block(c)
    y = ops.temporal_conv3(Tensor(x.transpose(0, 2, 1, 3, 4)), Tensor(p["conv/w"]))
    y = ops.batch_norm(y, Tensor(p["bn/alpha"]), Tensor(p["bn/beta"]),
                       Tensor(p["bn/mean"]), Tensor(p["bn/var"]),
                       axis=2, training=False)
    y = ops.relu(y).data.transpose(0, 2, 1, 3, 4)
    worst = 0.0
    for ti in range(1, t - 1):
        want = np.maximum(x[:, :, ti - 1:ti + 2].mean(axis=(1, 2)), 0)
        for ci in range(c):
            worst = max(worst, float(np.abs(y[:, ci, ti] - want).max()))
    assert worst < 1e-5
    report(7, f"interior outputs equal relu(channel-mean of 3-frame window); "
              f"max abs dev {worst:.2e}")


def test_c08_receptive_field_properties():
    spec = arch.validate(arch.ArchSpec(name="txb-head", t=25, n=1, height=1, width=1,
                                       num_classes=4, feature_dim=10, txb_channels=12))
    m = model.build_model(spec, seed=3).set_mode("infer")
    rng = np.random.default_rng(4)
    t = 13
    x = rng.standard_normal((t, 10))
    long0, short0 = model.txb_branches(m, Tensor(x))
    long_reach, short_reach = 0, 0
    for t0 in range(t):
        bumped = x.copy()
        bumped[t0] += 0.5
        long1, short1 = model.txb_branches(m, Tensor(bumped))
        lch = np.nonzero(np.abs(long1.data - long0.data).max(axis=1) > 1e-9)[0]
        sch = np.nonzero(np.abs(short1.data - short0.data).max(axis=1) > 1e-9)[0]
        assert all(abs(int(i) - t0) <= 2 for i in lch)
        assert list(sch) == [t0]
        if len(lch):
            long_reach = max(long_reach, int(np.max(np.abs(lch - t0))))
    assert long_reach == 2  # kernel span 2 on each side -> RF 5
    report(8, "long branch RF = 5 (reach 2), short branch RF = 1 "
              "under input perturbation")


# ---------------------------------------------------------------------------
# Criterion 9/10: toy-scale behavior
# ---------------------------------------------------------------------------

MIRRORED = [0, 1, 2, 3]   # left_right, right_left, grow, shrink
STATIC = [4, 5]           # static_a, static_b

ORDER_CFG = training.TrainConfig(epochs=3, batch_size=16, lr=0.02,
                                 momentum=0.9, weight_decay=1e-4, seed=0)


ORDER_VARIANTS = {"full": (True, True, True), "disabled": (False, False, False)}


def order_clips():
    """c09's (train clips, eval clips)."""
    cfg = data.SynthConfig(clips_per_class=200, frames=16, height=32, width=32,
                           object_scale=8, noise=16, seed=0)
    clips = data.gen_synthetic(cfg)
    return data.split_dataset(clips, eval_fraction=0.25, seed=0)


def order_bounds(results):
    """c09's four accuracy bounds on {variant: Metrics}, as {bound: held}."""
    full, disabled = results["full"], results["disabled"]
    return {"full mirrored >= 0.90": full.subset_accuracy(MIRRORED) >= 0.90,
            "disabled mirrored <= 0.60": disabled.subset_accuracy(MIRRORED) <= 0.60,
            "full static >= 0.95": full.subset_accuracy(STATIC) >= 0.95,
            "disabled static >= 0.95": disabled.subset_accuracy(STATIC) >= 0.95}


@pytest.fixture(scope="module")
def order_dataset():
    return order_clips()


@pytest.mark.slow
def test_c09_order_discrimination(order_dataset):
    t0 = time.perf_counter()
    train_clips, eval_clips = order_dataset
    assert len(train_clips) + len(eval_clips) == 6 * 200
    base = arch.load_preset("stnet-toy")
    results = {}
    for name, toggles in ORDER_VARIANTS.items():
        spec = training.variant_spec(base, *toggles)
        m = model.build_model(spec, seed=ORDER_CFG.seed)
        training.train(m, train_clips, ORDER_CFG)
        results[name] = training.evaluate(m, eval_clips)
    elapsed = time.perf_counter() - t0

    full, disabled = results["full"], results["disabled"]
    bounds = order_bounds(results)
    assert all(bounds.values()), [b for b, held in bounds.items() if not held]
    assert elapsed <= 30 * 60
    report(9, f"full: mirrored {full.subset_accuracy(MIRRORED):.3f} / "
              f"static {full.subset_accuracy(STATIC):.3f}; "
              f"disabled: mirrored {disabled.subset_accuracy(MIRRORED):.3f} / "
              f"static {disabled.subset_accuracy(STATIC):.3f}; "
              f"{elapsed/60:.1f} min")


def test_c10_determinism_and_checkpoint(tmp_path):
    cfg = data.SynthConfig(classes=("left_right", "right_left", "static_a"),
                           clips_per_class=4, frames=8, height=12, width=12,
                           object_scale=4, noise=8, seed=1)
    clips = data.gen_synthetic(cfg)
    spec = arch.validate(arch.ArchSpec(
        name="micro", t=2, n=2, height=12, width=12, num_classes=3,
        stages=(arch.StageSpec("conv", 6), arch.StageSpec("basic", 8, stride=2)),
        tm_after=(1,), head="txb", txb_channels=8))
    tc = training.TrainConfig(epochs=3, batch_size=4, lr=0.02, seed=11)

    finals = []
    models = []
    for _ in range(2):
        m = model.build_model(spec, seed=tc.seed)
        finals.append(training.train(m, clips, tc).final_loss)
        models.append(m)
    assert finals[0] == finals[1]

    path = tmp_path / "model.stnc"
    checkpoint.save_checkpoint(models[0], path)
    loaded = checkpoint.load_checkpoint(path, spec)
    for name in models[0].params:
        assert np.array_equal(models[0].params[name].data,
                              loaded.params[name].data), name
    sampler = data.SamplerConfig(t=2, n=2)
    arr, _ = data.make_batch(clips[:4], sampler)
    a = model.forward(models[0].set_mode("infer"), Tensor(arr)).data
    b = model.forward(loaded.set_mode("infer"), Tensor(arr)).data
    assert np.array_equal(a, b)
    report(10, f"identical final loss {finals[0]:.6f} across reruns; "
               "checkpoint round-trip bit-exact")
