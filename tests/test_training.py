"""Optimizer semantics, training loop behavior, evaluation, toggles."""

import numpy as np
import pytest

from stnet import arch, data, model, training
from stnet.tensor import Tensor

MICRO_CLASSES = ("left_right", "right_left", "static_a")


def micro_spec(**overrides):
    base = dict(
        name="micro", t=2, n=2, height=12, width=12, num_classes=3,
        stages=(arch.StageSpec("conv", 6),
                arch.StageSpec("basic", 8, stride=2)),
        tm_after=(1,), head="txb", txb_channels=8)
    base.update(overrides)
    return arch.validate(arch.ArchSpec(**base))


def micro_clips(per_class=4, seed=0):
    cfg = data.SynthConfig(classes=MICRO_CLASSES, clips_per_class=per_class,
                           frames=8, height=12, width=12, object_scale=4,
                           noise=8, seed=seed)
    return data.gen_synthetic(cfg)


class TestSgd:
    def test_plain_step_is_minus_lr_grad(self):
        t = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        t.grad = np.array([0.5, 0.25], dtype=np.float32)
        opt = training.SGD([("t", t)], lr=0.1, momentum=0.0, weight_decay=0.0)
        opt.step()
        assert np.allclose(t.data, [1.0 - 0.1 * 0.5, -2.0 - 0.1 * 0.25])

    def test_zero_lr_is_null_update(self):
        t = Tensor(np.array([3.0], dtype=np.float32), requires_grad=True)
        t.grad = np.array([7.0], dtype=np.float32)
        training.SGD([("t", t)], lr=0.0, momentum=0.9, weight_decay=1e-4).step()
        assert np.array_equal(t.data, [3.0])

    def test_momentum_accumulates(self):
        t = Tensor(np.array([0.0], dtype=np.float32), requires_grad=True)
        opt = training.SGD([("t", t)], lr=1.0, momentum=0.5, weight_decay=0.0)
        t.grad = np.array([1.0], dtype=np.float32)
        opt.step()   # v=1, p=-1
        opt.step()   # v=1.5, p=-2.5
        assert np.allclose(t.data, [-2.5])

    def test_config_validation(self):
        with pytest.raises(ValueError, match="lr"):
            training.TrainConfig(lr=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            training.TrainConfig(batch_size=0)

    @pytest.mark.parametrize("field, value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", -0.1),
        ("lr_decay", float("nan")), ("lr_decay", float("inf")), ("lr_decay", 0.0),
        ("momentum", float("nan")), ("momentum", 1.0), ("momentum", -0.1),
        ("weight_decay", float("nan")), ("weight_decay", float("inf")),
        ("weight_decay", -5.0),
    ])
    def test_config_rejects_non_finite_or_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            training.TrainConfig(**{field: value})

    def test_config_accepts_range_edges(self):
        cfg = training.TrainConfig(momentum=0.0, weight_decay=0.0, lr_decay=1.0)
        assert (cfg.momentum, cfg.weight_decay, cfg.lr_decay) == (0.0, 0.0, 1.0)


class TestTrainLoop:
    def test_single_sample_overfits(self):
        clips = micro_clips(per_class=1)[:1]
        m = model.build_model(micro_spec(), seed=1)
        cfg = training.TrainConfig(epochs=200, batch_size=1, lr=0.05,
                                   momentum=0.9, weight_decay=0.0, seed=1)
        history = training.train(m, clips, cfg)
        assert len(history.losses) == 200
        assert min(v for _, v in history.losses) < 0.01
        assert training.evaluate(m, clips).top1 == 1.0

    def test_loss_decreases_early_on_fixed_batch(self):
        from stnet import ops
        clips = micro_clips(per_class=2)
        m = model.build_model(micro_spec(), seed=2)
        sampler = data.SamplerConfig(t=2, n=2, train=False)
        arr, labels = data.make_batch(clips, sampler)
        batch = Tensor(arr)
        opt = training.SGD(m.trainable(), lr=3e-4, momentum=0.0, weight_decay=0.0)
        losses = []
        for _ in range(10):
            loss = ops.softmax_cross_entropy(model.forward(m, batch), labels)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        increases = sum(b > a for a, b in zip(losses, losses[1:]))
        assert increases <= 1
        assert losses[-1] < losses[0]

    def test_identical_seed_identical_losses(self):
        clips = micro_clips(per_class=2)
        cfg = training.TrainConfig(epochs=2, batch_size=4, lr=0.02, seed=5)
        runs = []
        for _ in range(2):
            m = model.build_model(micro_spec(), seed=5)
            runs.append(training.train(m, clips, cfg).losses)
        assert runs[0] == runs[1]

    def test_divergence_aborts_with_location(self):
        clips = micro_clips(per_class=2)
        m = model.build_model(micro_spec(), seed=3)
        cfg = training.TrainConfig(epochs=2, batch_size=4, lr=1e18, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(training.DivergenceError, match="epoch"):
                training.train(m, clips, cfg)

    def test_empty_dataset(self):
        m = model.build_model(micro_spec(), seed=0)
        with pytest.raises(ValueError, match="empty"):
            training.train(m, [], training.TrainConfig())

    def test_lr_schedule(self):
        cfg = training.TrainConfig(lr=1.0, lr_decay=0.1, lr_steps=(2, 4))
        assert training._lr_at(cfg, 0) == 1.0
        assert training._lr_at(cfg, 2) == pytest.approx(0.1)
        assert training._lr_at(cfg, 4) == pytest.approx(0.01)

    def test_bn_running_stats_updated(self):
        clips = micro_clips(per_class=1)
        m = model.build_model(micro_spec(), seed=4)
        before = m.params["stage0/bn/mean"].data.copy()
        training.train(m, clips, training.TrainConfig(epochs=1, batch_size=3, seed=4))
        assert not np.array_equal(before, m.params["stage0/bn/mean"].data)


class TestEvaluate:
    def test_chance_level_at_random_init(self):
        clips = micro_clips(per_class=30, seed=7)
        m = model.build_model(micro_spec(), seed=7)
        metrics = training.evaluate(m, clips)
        # predictions are label-independent at init; 3 sigma binomial margin
        margin = 3 * np.sqrt((1 / 3) * (2 / 3) / len(clips))
        assert abs(metrics.top1 - 1 / 3) <= margin + 1e-9

    def test_evaluation_is_side_effect_free(self):
        clips = micro_clips(per_class=2)
        m = model.build_model(micro_spec(), seed=8)
        stats_before = m.params["stage0/bn/mean"].data.copy()
        m1 = training.evaluate(m, clips)
        m2 = training.evaluate(m, clips)
        assert np.array_equal(m1.confusion, m2.confusion)
        assert np.array_equal(stats_before, m.params["stage0/bn/mean"].data)
        assert m.mode == "train"  # restored

    def test_mode_restored_when_forward_raises(self):
        m = model.build_model(micro_spec(), seed=8)
        clips = data.gen_synthetic(data.SynthConfig(
            classes=MICRO_CLASSES, clips_per_class=1, frames=8, height=16, width=16,
            object_scale=4, seed=0))
        with pytest.raises(ValueError, match="does not match spec"):
            training.evaluate(m, clips)
        assert m.mode == "train"

    def test_balanced_data_top1_equals_class_mean(self):
        clips = micro_clips(per_class=5, seed=9)
        m = model.build_model(micro_spec(), seed=9)
        metrics = training.evaluate(m, clips)
        assert metrics.top1 == pytest.approx(metrics.mean_class_accuracy)

    def test_metrics_identities(self):
        confusion = np.array([[3, 1], [2, 4]])
        metrics = training.Metrics(confusion=confusion)
        assert metrics.top1 == pytest.approx(7 / 10)
        assert metrics.per_class == pytest.approx([3 / 4, 4 / 6])
        assert metrics.subset_accuracy([0]) == pytest.approx(3 / 4)

    def test_empty_dataset(self):
        m = model.build_model(micro_spec(), seed=0)
        with pytest.raises(ValueError, match="empty"):
            training.evaluate(m, [])


class TestAblation:
    def test_four_rows_with_expected_toggle_pattern(self):
        clips = micro_clips(per_class=3, seed=10)
        train_clips, eval_clips = data.split_dataset(clips, seed=10)
        cfg = training.TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=10)
        results = training.run_ablation(train_clips, eval_clips,
                                        micro_spec(), cfg)
        assert [r["toggles"] for r in results] == list(
            {"superimage": si, "tm": tm, "txb": txb} for si, tm, txb in
            [(False, False, False), (True, False, False),
             (True, True, False), (True, True, True)])
        for r in results:
            assert r["metrics"].total == len(eval_clips)
        table = training.ablation_table(results)
        assert table.count("\n") == 5
        import json
        doc = json.loads(training.ablation_json(results))
        assert len(doc) == 4 and doc[3]["toggles"]["txb"] is True

    def test_variant_spec_parameter_counts_differ(self):
        from stnet import complexity
        base = micro_spec()
        full = complexity.analyze(training.variant_spec(base, True, True, True))
        none = complexity.analyze(training.variant_spec(base, False, False, False))
        assert full.total_params > none.total_params
