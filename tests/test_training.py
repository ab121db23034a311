"""Optimizer semantics, training loop behavior, evaluation, toggles."""

import json

import numpy as np
import pytest

from stnet import arch, data, model, training
from stnet.tensor import NumericsError, Tensor

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

    def test_overflowing_update_moves_nothing(self):
        # The second step's velocity 0.9 * 3e38 + 3e38 overflows float32; it
        # used to be written in as inf, and the parameter as -inf.
        t = Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        opt = training.SGD([("w", t)], lr=0.01, momentum=0.9)
        t.grad = np.full(2, 3e38, np.float32)
        opt.step()
        before = t.data.tobytes(), opt.velocity[0].tobytes()
        with np.errstate(over="ignore"), \
                pytest.raises(NumericsError, match="non-finite update of parameter 'w'"):
            opt.step()
        assert (t.data.tobytes(), opt.velocity[0].tobytes()) == before

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
        ("epochs", 0), ("epochs", -1), ("seed", -4), ("lr_steps", (2, -1)),
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

    def test_divergence_in_batch_norm_leaves_running_stats_finite(self):
        # At lr 1e4 the batch variance of step 2 overflows in the stem's batch
        # norm, which used to store inf running statistics and fail later.
        m = model.build_model(arch.load_preset("stnet-toy"), seed=0)
        clips = data.gen_synthetic(data.SynthConfig(clips_per_class=8, seed=0))
        cfg = training.TrainConfig(epochs=1, batch_size=16, lr=1e4, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(training.DivergenceError,
                               match="stage0/bn: non-finite batch statistics in op 'batch_norm'"):
                training.train(m, clips, cfg)
        for name, t in m.params.items():
            assert np.all(np.isfinite(t.data)), name

    def test_divergence_restores_the_model(self):
        # The overflowing fc is caught in the head, after every backbone batch
        # norm of that forward has moved its running statistics.
        m = model.build_model(arch.load_preset("stnet-toy"), seed=0)
        m.params["head/fc/w"].data[...] = 3e38
        clips = data.gen_synthetic(data.SynthConfig(clips_per_class=1, seed=0))
        before = {k: t.data.tobytes() for k, t in m.params.items()}
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(training.DivergenceError,
                               match="head: non-finite values produced by op 'linear'"):
                training.train(m, clips, training.TrainConfig(epochs=1, batch_size=4))
        assert {k: t.data.tobytes() for k, t in m.params.items()} == before

    def test_non_finite_gradient_moves_no_parameter(self):
        # Step 0's forward and loss are finite, but the huge fc weight sends
        # inf gradients into the backbone, which SGD used to write in as NaN.
        m = model.build_model(arch.load_preset("stnet-toy"), seed=0)
        m.params["head/fc/w"].data[...] *= 1e36
        clips = data.gen_synthetic(data.SynthConfig(clips_per_class=4, seed=0))
        before = {k: t.data.tobytes() for k, t in m.params.items()}
        cfg = training.TrainConfig(epochs=1, batch_size=8, lr=0.02, seed=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(training.DivergenceError,
                               match="^diverged at epoch 0, step 0: non-finite gradient "
                                     "of parameter 'stage0/conv/w'$"):
                training.train(m, clips, cfg)
        assert {k: t.data.tobytes() for k, t in m.params.items()} == before

    def test_epoch_log_averages_its_own_steps(self):
        # 18 clips at batch 4 make 5 steps per epoch, the last one partial.
        clips = micro_clips(per_class=6)
        m = model.build_model(micro_spec(), seed=2)
        lines = []
        history = training.train(m, clips, training.TrainConfig(epochs=2, batch_size=4,
                                                                seed=2), log=lines.append)
        per_epoch = [[v for s, v in history.losses if 5 * e <= s < 5 * e + 5] for e in (0, 1)]
        assert [line.rsplit("=", 1)[1] for line in lines] == \
            [f"{np.mean(v):.4f}" for v in per_epoch]

    def test_label_outside_the_classes_fails_before_any_step(self):
        clips = micro_clips(per_class=2)
        clips[3].label = 3
        m = model.build_model(micro_spec(), seed=0)
        before = {k: t.data.tobytes() for k, t in m.params.items()}
        with pytest.raises(ValueError, match="^clip 3: label 3 is outside the model's 3 classes$"):
            training.train(m, clips, training.TrainConfig(epochs=1, batch_size=1))
        assert {k: t.data.tobytes() for k, t in m.params.items()} == before

    def test_clip_of_the_wrong_size_fails_before_any_step(self):
        clips = micro_clips(per_class=2)
        odd = data.gen_synthetic(data.SynthConfig(classes=("static_a",), clips_per_class=1,
                                                  height=16, width=16, object_scale=4))[0]
        odd.clip_id = len(clips)
        clips.append(odd)
        m = model.build_model(micro_spec(), seed=0)
        before = {k: t.data.tobytes() for k, t in m.params.items()}
        msg = "^clip 6: frame size 16x16 does not match spec 12x12$"
        with pytest.raises(ValueError, match=msg):
            training.train(m, clips, training.TrainConfig(epochs=1, batch_size=4))
        assert {k: t.data.tobytes() for k, t in m.params.items()} == before
        with pytest.raises(ValueError, match=msg):
            training.evaluate(m, clips)

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

    @pytest.mark.parametrize("batch_size", [0, -2])
    def test_batch_size_below_one_rejected(self, batch_size):
        # -2 used to return an empty Metrics (top-1 0.0); 0 failed inside range().
        m = model.build_model(micro_spec(), seed=0)
        with pytest.raises(ValueError, match=f"^batch_size: must be >= 1, got {batch_size}$"):
            training.evaluate(m, micro_clips(per_class=1), batch_size=batch_size)

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

    @pytest.mark.parametrize("label", [9, -1])
    def test_label_outside_the_classes_names_the_clip(self, label):
        clips = micro_clips(per_class=2)
        clips[4].label = label
        m = model.build_model(micro_spec(), seed=0)
        with pytest.raises(ValueError,
                           match=f"^clip 4: label {label} is outside the model's 3 classes$"):
            training.evaluate(m, clips)


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

    @pytest.mark.parametrize("overrides, same_as", [
        (dict(n=1, tm_after=(), head="avg_score"), [None, 0, 0, 0]),   # tsn-like
        (dict(head="ordinary_tconv"), [None, None, None, 2]),
    ])
    def test_repeated_variants_train_once(self, overrides, same_as, monkeypatch):
        calls = []
        train = training.train

        def counting_train(m, *args, **kwargs):
            calls.append(m.spec.name)
            return train(m, *args, **kwargs)
        monkeypatch.setattr(training, "train", counting_train)
        clips = micro_clips(per_class=2, seed=12)
        cfg = training.TrainConfig(epochs=1, batch_size=4, lr=0.01, seed=12)
        results = training.run_ablation(clips, clips, micro_spec(**overrides), cfg)
        assert len(calls) == same_as.count(None)
        names = [r["spec_name"] for r in results]
        assert [r["same_as"] for r in results] == [
            None if i is None else names[i] for i in same_as]
        for r, i in zip(results, same_as):
            if i is not None:
                assert r["metrics"] is results[i]["metrics"]
                assert r["final_loss"] == results[i]["final_loss"]
        table = training.ablation_table(results)
        assert table.count("\n") == 5 and table.count("= row") == len(results) - len(calls)
        doc = json.loads(training.ablation_json(results))
        assert [d["same_as"] for d in doc] == [r["same_as"] for r in results]

    def test_variant_spec_parameter_counts_differ(self):
        from stnet import complexity
        base = micro_spec()
        full = complexity.analyze(training.variant_spec(base, True, True, True))
        none = complexity.analyze(training.variant_spec(base, False, False, False))
        assert full.total_params > none.total_params
