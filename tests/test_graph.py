"""Model assembly: building, initialization schemes, forward paths, checkpoints."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from stnet import arch, checkpoint, complexity, data, model, ops, serial, training
from stnet.checkpoint import ParamMismatchError
from stnet.serial import MagicError, TruncatedError, VersionError
from stnet.tensor import NumericsError, Tensor


def toy_spec():
    return arch.load_preset("stnet-toy")


def tiny_spec(**overrides):
    """A very small trainable spec for fast structural tests."""
    base = dict(
        name="tiny", t=3, n=2, height=8, width=8, num_classes=4,
        stages=(arch.StageSpec("conv", 8),
                arch.StageSpec("basic", 8, stride=2)),
        tm_after=(1,), head="txb", txb_channels=8)
    base.update(overrides)
    return arch.validate(arch.ArchSpec(**base))


def head_spec(c_in, c_out, num_classes):
    """A head-only TXB spec over [B,T,c_in] feature sequences."""
    return arch.validate(arch.ArchSpec(
        name="txb-head", t=25, n=1, height=1, width=1, num_classes=num_classes,
        feature_dim=c_in, txb_channels=c_out))


def batch_for(spec, b=2, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.standard_normal(
        (b, spec.t, spec.input_channels, spec.height, spec.width)).astype(np.float32))


def write_v1_checkpoint(m, path, rng):
    """Write ``m`` as a version-1 STNC file; returns the biases it gave.

    Version 1 gave every conv and TM conv a bias and stored the TM weight
    as [C, C, 3, 1, 1]. Each bias b is drawn as 0.1*N(0,1) from ``rng``
    and the mean of the batch norm that follows is stored as m + b, so
    the file describes the same function as ``m``.
    """
    plans = model.layer_plans(m.spec)
    tensors, biases = {}, {}
    for plan in plans:
        for suffix in plan.params:
            tensors[f"{plan.name}/{suffix}"] = m.params[f"{plan.name}/{suffix}"].data
        if plan.kind in ("conv2d", "conv3d"):
            w = tensors[f"{plan.name}/w"]
            tensors[f"{plan.name}/w"] = w.reshape(w.shape[:3] + (1, 1)) if w.ndim == 3 else w
            b = (0.1 * rng.standard_normal(w.shape[0])).astype(np.float32)
            tensors[f"{plan.name}/b"] = biases[plan.name] = b
    for plan, bn in zip(plans, plans[1:]):
        if plan.name in biases:
            tensors[f"{bn.name}/mean"] = tensors[f"{bn.name}/mean"] + biases[plan.name]
    with open(path, "wb") as f:
        f.write(checkpoint.MAGIC)
        serial.write_u32(f, 1)
        serial.write_u32(f, len(tensors))
        for name, arr in tensors.items():
            serial.write_u16(f, len(name.encode()))
            f.write(name.encode())
            serial.write_u8(f, arr.ndim)
            for d in arr.shape:
                serial.write_u32(f, d)
            f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return biases


FRESH_TOY_LOGITS = (
    ("-0x1.834bcep+0", "0x1.2f72cp-4", "-0x1.e836dcp+1", "-0x1.accf1p-2", "0x1.2892b8p+0",
     "-0x1.2af6c4p-1"),
    ("-0x1.8e830cp+0", "0x1.364a1p-4", "-0x1.f6dee4p+1", "-0x1.ba073p-2", "0x1.31adcp+0",
     "-0x1.3496f8p-1"),
)

# Fresh infer logits with the two heads FRESH_TOY_LOGITS does not reach:
# tsn-toy's per-snippet fc (avg_score) and a stnet-toy variant with the
# ordinary_tconv head (two dense 3-tap convs and an fc). They pin each
# head's He fan-in: C_in for the fc and C_in * 3 for the conv1d weights.
FRESH_HEAD_LOGITS = {
    "avg_score": (
        ("0x1.c4c7cp-9", "0x1.6a6cdap-6", "0x1.0b28fp-2", "0x1.6b281cp-1", "0x1.02c0cp-8",
         "0x1.2ddbecp-12"),
        ("0x1.78bcf4p-9", "0x1.32abfcp-6", "0x1.0328c2p-2", "0x1.713f14p-1", "0x1.ee2becp-9",
         "0x1.82186cp-12")),
    "ordinary_tconv": (
        ("-0x1.48a844p-1", "0x1.aae7c8p-1", "-0x1.50b64p-7", "-0x1.8494ap-4", "0x1.78d104p+0",
         "-0x1.c94062p-3"),
        ("-0x1.5390acp-1", "0x1.b84ff6p-1", "-0x1.5dbcfp-7", "-0x1.90d3ap-4", "0x1.845934p+0",
         "-0x1.d90454p-3")),
}

TOY_STAGES_ARCH = """\
stages.0.kind = conv
stages.0.channels = 16
stages.0.stride = 1
stages.0.repeat = 1
stages.0.kernel = 3
stages.0.pool = false
stages.1.kind = basic
stages.1.channels = 16
stages.1.stride = 1
stages.1.repeat = 1
stages.2.kind = basic
stages.2.channels = 32
stages.2.stride = 2
stages.2.repeat = 1
stages.3.kind = basic
stages.3.channels = 64
stages.3.stride = 2
stages.3.repeat = 1
"""

# `.arch` sidecars as `stnet train` wrote them when ArchSpec still carried the
# enable_* toggles, with the (total params, total mults) they described then.
OLD_SIDECARS = {
    "tsn-toy": (
        "name = tsn-toy\nt = 4\nn = 1\nheight = 32\nwidth = 32\nnum_classes = 6\n"
        "head = avg_score\ntxb_channels = 64\ntm_after = \nenable_superimage = false\n"
        "enable_tm = false\nenable_txb = false\n" + TOY_STAGES_ARCH,
        (77_782, 50_005_504)),
    "stnet-toy[si=1,tm=0,txb=0]": (
        "name = stnet-toy[si=1,tm=0,txb=0]\nt = 4\nn = 3\nheight = 32\nwidth = 32\n"
        "num_classes = 6\nhead = txb\ntxb_channels = 64\ntm_after = 2,3\n"
        "enable_superimage = true\nenable_tm = false\nenable_txb = false\n"
        + TOY_STAGES_ARCH,
        (78_646, 53_544_448)),
}


class TestBuild:
    def test_toy_builds_and_runs(self):
        m = model.build_model(toy_spec(), seed=0)
        logits = model.forward(m, batch_for(m.spec))
        assert logits.shape == (2, 6)
        assert np.all(np.isfinite(logits.data))

    def test_deterministic_given_seed(self):
        m1 = model.build_model(tiny_spec(), seed=3)
        m2 = model.build_model(tiny_spec(), seed=3)
        assert set(m1.params) == set(m2.params)
        for name in m1.params:
            assert np.array_equal(m1.params[name].data, m2.params[name].data), name

    def test_first_conv_channels_follow_superimage_toggle(self):
        wide = model.build_model(tiny_spec(), seed=0)
        assert wide.params["stage0/conv/w"].shape[1] == 6
        flat = model.build_model(tiny_spec(n=1), seed=0)
        assert flat.params["stage0/conv/w"].shape[1] == 3

    def test_resnet50_builds_symbolically(self):
        spec = arch.load_preset("stnet-resnet50")
        shapes = model.parameter_shapes(spec)
        running = sum(int(np.prod(s)) for n, s in shapes.items()
                      if n.endswith(("/mean", "/var")))
        total = sum(int(np.prod(s)) for s in shapes.values())
        assert total - running == 33_153_232

    def test_convs_have_no_bias_and_feed_a_batch_norm(self):
        # The version-1 checkpoint fold relies on each conv's norm coming next.
        for preset in arch.PRESETS:
            plans = model.layer_plans(arch.load_preset(preset))
            for plan, following in zip(plans, plans[1:] + [None]):
                if plan.kind in ("conv2d", "conv3d"):
                    assert set(plan.params) == {"w"}, plan.name
                    assert following is not None and following.kind == "bn", plan.name
                    assert following.params["alpha"] == plan.params["w"][:1], plan.name

    def test_fresh_toy_logits_are_pinned(self):
        # Infer logits of a freshly built stnet-toy (float32, OpenBLAS on
        # x86-64), recorded while every conv still carried a bias. Those
        # biases started at 0 and drew nothing from the rng, so dropping
        # them changes no bit of a fresh model's output.
        m = model.build_model(toy_spec(), seed=0).set_mode("infer")
        got = model.forward(m, batch_for(m.spec, b=2, seed=0)).data
        want = np.array([[float.fromhex(v) for v in row] for row in FRESH_TOY_LOGITS],
                        dtype=np.float32)
        assert np.array_equal(got, want), got

    @pytest.mark.parametrize("head", sorted(FRESH_HEAD_LOGITS))
    def test_fresh_head_logits_are_pinned(self, head):
        spec = arch.load_preset("tsn-toy") if head == "avg_score" else \
            dataclasses.replace(toy_spec(), head=head)
        m = model.build_model(spec, seed=0).set_mode("infer")
        got = model.forward(m, batch_for(spec, b=2, seed=0)).data
        want = np.array([[float.fromhex(v) for v in row] for row in FRESH_HEAD_LOGITS[head]],
                        dtype=np.float32)
        assert np.array_equal(got, want), got

    @pytest.mark.parametrize("param, block", [
        ("stage0/conv/w", "stage0"), ("stage2/block0/conv1/w", "stage2/block0"),
        ("tm3/conv/w", "tm3"), ("head/fc/w", "head")])
    def test_non_finite_forward_names_its_block(self, param, block):
        m = model.build_model(toy_spec(), seed=0).set_mode("infer")
        m.params[param].data[...] = 3e38
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericsError, match=f"^{block}: non-finite values produced"):
                model.forward(m, batch_for(m.spec))

    def test_invalid_spec_reports_field(self):
        with pytest.raises(arch.SpecError, match="tm_after"):
            arch.validate(dataclasses.replace(tiny_spec(), tm_after=(9,)))
        with pytest.raises(arch.SpecError, match="n: must be 1"):
            arch.parse_arch(arch.format_arch(tiny_spec()) + "enable_superimage = false\n")


class TestInflation:
    def test_n1_keeps_weights(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 3, 3, 3))
        assert np.array_equal(model.inflate_first_conv(w, 1), w)

    def test_identical_frames_reproduce_2d_response(self):
        rng = np.random.default_rng(1)
        frame = rng.standard_normal((1, 3, 8, 8))
        w3 = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        want = ops.conv2d(Tensor(frame.astype(np.float32)), Tensor(w3), padding=1)
        for n in (1, 3, 5):
            stacked = Tensor(np.tile(frame, (1, n, 1, 1)).astype(np.float32))
            wn = Tensor(model.inflate_first_conv(w3, n).astype(np.float32))
            got = ops.conv2d(stacked, wn, padding=1)
            assert np.abs(got.data - want.data).max() < 1e-5

    def test_channel_sum_preserved(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((2, 3, 5, 5))
        inflated = model.inflate_first_conv(w, 4)
        assert np.allclose(inflated.sum(axis=1), w.sum(axis=1))


class TestTmInit:
    def test_weight_value(self):
        p = model.init_tm_block(512)
        assert np.all(p["conv/w"] == np.float32(1.0 / 1536))
        assert p["conv/w"].shape == (512, 512, 3)

    def test_interior_equals_window_channel_mean(self):
        c, t = 6, 5
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, c, t, 3, 3)).astype(np.float32)
        p = model.init_tm_block(c)
        y = ops.temporal_conv3(Tensor(x.transpose(0, 2, 1, 3, 4)), Tensor(p["conv/w"]))
        y = ops.batch_norm(y, Tensor(p["bn/alpha"]), Tensor(p["bn/beta"]),
                           Tensor(p["bn/mean"]), Tensor(p["bn/var"]),
                           axis=2, training=False)
        y = ops.relu(y).data.transpose(0, 2, 1, 3, 4)
        for ti in range(1, t - 1):
            want = np.maximum(x[:, :, ti - 1:ti + 2].mean(axis=(1, 2)), 0)
            for ci in range(c):
                assert np.abs(y[:, ci, ti] - want).max() < 1e-5

    def test_constant_input_passthrough(self):
        c, v = 4, 1.25
        x = np.full((1, c, 6, 2, 2), v, dtype=np.float32)
        p = model.init_tm_block(c)
        y = ops.temporal_conv3(Tensor(x.transpose(0, 2, 1, 3, 4)), Tensor(p["conv/w"]))
        y = y.data.transpose(0, 2, 1, 3, 4)
        assert np.abs(y[:, :, 1:-1] - v).max() < 1e-6


class TestForwardSemantics:
    def test_fold_unfold_round_trip(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((2, 3, 4, 5, 5)).astype(np.float32))
        folded = x.reshape((6, 4, 5, 5))
        back = folded.reshape((2, 3, 4, 5, 5))
        assert np.array_equal(back.data, x.data)

    def test_avg_head_equals_mean_of_single_snippet_predictions(self):
        spec = tiny_spec(head="avg_score", tm_after=())
        m = model.build_model(spec, seed=5).set_mode("infer")
        batch = batch_for(spec, b=3, seed=6)
        logits = model.forward(m, batch).data

        # Oracle: run each snippet alone through a T=1 view of the same weights.
        one = dataclasses.replace(spec, t=1)
        m1 = model.ModelInstance(spec=one, params=m.params, mode="infer")
        scores = []
        for t in range(spec.t):
            snip = Tensor(batch.data[:, t:t + 1])
            scores.append(model.forward(m1, snip).data)
        assert np.abs(np.mean(scores, axis=0) - logits).max() < 1e-6

    def test_snippet_permutation_invariance_split(self):
        rng = np.random.default_rng(7)
        perm = rng.permutation(3)
        while np.all(perm == np.arange(3)):
            perm = rng.permutation(3)

        avg_spec = tiny_spec(head="avg_score", tm_after=())
        avg_m = model.build_model(avg_spec, seed=8).set_mode("infer")
        batch = batch_for(avg_spec, b=2, seed=9)
        shuffled = Tensor(batch.data[:, perm])
        base = model.forward(avg_m, batch).data
        assert np.abs(model.forward(avg_m, shuffled).data - base).max() < 1e-6

        full_spec = tiny_spec()
        full_m = model.build_model(full_spec, seed=8).set_mode("infer")
        base = model.forward(full_m, batch_for(full_spec, b=2, seed=9)).data
        out = model.forward(full_m, Tensor(batch_for(full_spec, b=2, seed=9).data[:, perm])).data
        assert np.abs(out - base).max() > 1e-6

    def test_ordinary_head_runs(self):
        spec = tiny_spec(head="ordinary_tconv")
        m = model.build_model(spec, seed=10)
        logits = model.forward(m, batch_for(spec))
        assert logits.shape == (2, 4)

    def test_batch_shape_mismatch(self):
        m = model.build_model(tiny_spec(), seed=0)
        with pytest.raises(ValueError, match="does not match spec"):
            model.forward(m, Tensor(np.zeros((2, 3, 6, 4, 4), dtype=np.float32)))


class TestTxb:
    def test_long_branch_rf5_short_rf1(self):
        m = model.build_model(head_spec(6, 8, 5), seed=11).set_mode("infer")
        rng = np.random.default_rng(12)
        t = 11
        x = rng.standard_normal((t, 6)).astype(np.float64)
        long0, short0 = model.txb_branches(m, Tensor(x))
        for t0 in range(t):
            bumped = x.copy()
            bumped[t0] += 0.5
            long1, short1 = model.txb_branches(m, Tensor(bumped))
            lchanged = np.nonzero(np.abs(long1.data - long0.data).max(axis=1) > 1e-9)[0]
            schanged = np.nonzero(np.abs(short1.data - short0.data).max(axis=1) > 1e-9)[0]
            assert all(abs(int(i) - t0) <= 2 for i in lchanged)
            assert list(schanged) == [t0]
        # a middle perturbation must actually reach +/-2
        bumped = x.copy()
        bumped[5] += 0.5
        long1, _ = model.txb_branches(m, Tensor(bumped))
        changed = np.nonzero(np.abs(long1.data - long0.data).max(axis=1) > 1e-9)[0]
        assert {3, 4, 5, 6, 7} <= set(int(i) for i in changed)

    def test_t1_branches_depend_only_on_center_tap(self):
        # With a single timestep the padded neighborhoods are zero, so both
        # branches collapse to per-timestep maps; the short branch is exactly
        # affine.
        m = model.build_model(head_spec(5, 7, 3), seed=13).set_mode("infer")
        rng = np.random.default_rng(14)
        x1 = rng.standard_normal((1, 5))
        x2 = rng.standard_normal((1, 5))
        def short(v):
            return model.txb_branches(m, Tensor(v))[1].data
        zero = short(np.zeros((1, 5)))
        assert np.abs((short(x1) - zero) + (short(x2) - zero)
                      - (short(x1 + x2) - zero)).max() < 1e-6

        # Long branch: equals the explicit center-tap composition.
        p = {k: t.data for k, t in m.params.items()}
        v = (x1 - p["txb/bn/mean"]) / np.sqrt(p["txb/bn/var"] + ops.BN_EPS) \
            * p["txb/bn/alpha"] + p["txb/bn/beta"]
        h = v * p["txb/long/cw1/w"][:, 1] + p["txb/long/cw1/b"]
        h = np.maximum(h @ p["txb/long/tw1/w"].T + p["txb/long/tw1/b"], 0)
        h = h * p["txb/long/cw2/w"][:, 1] + p["txb/long/cw2/b"]
        h = np.maximum(h @ p["txb/long/tw2/w"].T + p["txb/long/tw2/b"], 0)
        got = model.txb_branches(m, Tensor(x1))[0].data
        assert np.abs(got - h).max() < 1e-6

    def test_head_only_forward(self):
        spec = arch.load_preset("txb-head-irv2")
        m = model.build_model(dataclasses.replace(spec, txb_channels=16), seed=0)
        # feature_dim checked, T free for sequences
        seq = Tensor(np.random.default_rng(1).standard_normal((2, 7, 1536)).astype(np.float32))
        assert model.forward(m, seq).shape == (2, 400)
        with pytest.raises(ValueError, match="does not match"):
            model.forward(m, Tensor(np.zeros((2, 7, 8), dtype=np.float32)))


class TestCheckpoint:
    def test_round_trip_bitwise_logits(self, tmp_path):
        spec = tiny_spec()
        m = model.build_model(spec, seed=15)
        batch = batch_for(spec, seed=16)
        m.set_mode("infer")
        want = model.forward(m, batch).data
        path = tmp_path / "model.stnc"
        checkpoint.save_checkpoint(m, path)
        loaded = checkpoint.load_checkpoint(path, spec).set_mode("infer")
        for name in m.params:
            assert np.array_equal(m.params[name].data, loaded.params[name].data)
        got = model.forward(loaded, batch).data
        assert np.array_equal(got, want)

    def test_version1_file_folds_biases_into_batch_norm_means(self, tmp_path):
        spec = tiny_spec()
        m = model.build_model(spec, seed=5)
        rng = np.random.default_rng(6)
        for name, t in m.params.items():
            if name.endswith("/mean"):
                t.data[...] = 0.1 * rng.standard_normal(t.shape)
            elif name.endswith("/var"):
                t.data[...] = rng.uniform(0.5, 2.0, t.shape)
        path = tmp_path / "v1.stnc"
        biases = write_v1_checkpoint(m, path, rng)
        loaded = checkpoint.load_checkpoint(path, spec)
        assert list(loaded.params) == list(m.params)
        plans = model.layer_plans(spec)
        folded = {f"{bn.name}/mean": biases[p.name]
                  for p, bn in zip(plans, plans[1:]) if p.name in biases}
        eps = np.finfo(np.float32).eps
        for name, t in m.params.items():
            got = loaded.params[name].data
            assert got.shape == t.shape, name
            if name in folded:
                assert np.all(np.abs(got - t.data)
                              <= eps * (np.abs(t.data) + np.abs(folded[name]))), name
            else:
                assert np.array_equal(got, t.data), name
        batch = batch_for(spec, seed=7)
        want = model.forward(m.set_mode("infer"), batch).data
        got = model.forward(loaded.set_mode("infer"), batch).data
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_truncated_file(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "model.stnc"
        checkpoint.save_checkpoint(model.build_model(spec, seed=0), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TruncatedError):
            checkpoint.load_checkpoint(path, spec)

    def test_bad_magic_and_version(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "model.stnc"
        checkpoint.save_checkpoint(model.build_model(spec, seed=0), path)
        raw = bytearray(path.read_bytes())
        bad = tmp_path / "bad.stnc"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(MagicError):
            checkpoint.load_checkpoint(bad, spec)
        raw[4:8] = (99).to_bytes(4, "little")
        bad.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            checkpoint.load_checkpoint(bad, spec)

    @pytest.mark.parametrize("name", ["stage0/conv/w", "stage9/conv/w"])
    def test_huge_declared_extents_name_the_tensor(self, tmp_path, name):
        # Rank 3 with every extent 0xFFFFFFFF: the name and shape are checked
        # before the values are read, so nothing of that size is allocated.
        path = tmp_path / "huge.stnc"
        with open(path, "wb") as f:
            f.write(checkpoint.MAGIC)
            serial.write_u32(f, checkpoint.VERSION)
            serial.write_u32(f, 1)
            serial.write_u16(f, len(name))
            f.write(name.encode())
            serial.write_u8(f, 3)
            for _ in range(3):
                serial.write_u32(f, 0xFFFFFFFF)
        with pytest.raises(serial.FormatError, match=name):
            checkpoint.load_checkpoint(path, tiny_spec())

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        spec = tiny_spec()
        path = tmp_path / "model.stnc"
        checkpoint.save_checkpoint(model.build_model(spec, seed=0), path)
        before = path.read_bytes()
        write_u32 = serial.write_u32
        calls = []

        def failing_write_u32(f, v):
            calls.append(v)
            if len(calls) > 6:
                raise OSError("disk full")
            write_u32(f, v)

        monkeypatch.setattr(serial, "write_u32", failing_write_u32)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.save_checkpoint(model.build_model(spec, seed=1), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.stnc"]

    def test_non_utf8_name_names_the_tensor(self, tmp_path):
        # 17 bytes: one rank-0 tensor whose 2-byte name is not UTF-8.
        path = tmp_path / "bad-name.stnc"
        with open(path, "wb") as f:
            f.write(checkpoint.MAGIC)
            serial.write_u32(f, checkpoint.VERSION)
            serial.write_u32(f, 1)
            serial.write_u16(f, 2)
            f.write(b"\xff\xfe")
            serial.write_u8(f, 0)
        assert path.stat().st_size == 17
        with pytest.raises(serial.FormatError, match="tensor 0"):
            checkpoint.load_checkpoint(path, tiny_spec())

    def test_class_count_mismatch_names_parameter(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "model.stnc"
        checkpoint.save_checkpoint(model.build_model(spec, seed=0), path)
        other = arch.validate(dataclasses.replace(spec, num_classes=9))
        with pytest.raises(ParamMismatchError, match="head/fc/w"):
            checkpoint.load_checkpoint(path, other)


class TestArchFiles:
    def test_format_parse_round_trip(self, tmp_path):
        for preset in arch.PRESETS:
            spec = arch.load_preset(preset)
            path = tmp_path / f"{preset}.arch"
            arch.save_arch_file(spec, path)
            assert arch.load_arch_file(path) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(arch.SpecError, match="unknown key"):
            arch.parse_arch("t = 1\nwhatever = 2\n")

    def test_malformed_list_names_the_key(self):
        with pytest.raises(arch.SpecError, match="tm_after: expected an integer, got 'x'"):
            arch.parse_arch("t = 1\nn = 1\nheight = 8\nwidth = 8\nnum_classes = 2\n"
                            "tm_after = 1,x\n")

    def test_unknown_preset_lists_options(self):
        with pytest.raises(arch.SpecError, match="stnet-toy"):
            arch.load_preset("nope")

    @pytest.mark.parametrize("name", sorted(OLD_SIDECARS))
    def test_old_sidecar_keeps_its_layer_plans(self, name):
        text, (total_params, total_mults) = OLD_SIDECARS[name]
        want = arch.load_preset("tsn-toy") if name == "tsn-toy" else \
            training.variant_spec(toy_spec(), True, False, False)
        spec = arch.parse_arch(text)
        assert spec == want
        plans = model.layer_plans(spec)
        assert plans == model.layer_plans(want)
        assert [p.name for p in plans if not p.name.startswith("stage")] == ["head/fc"]
        report = complexity.analyze(spec)
        assert (report.total_params, report.total_mults) == (total_params, total_mults)

    def test_old_toggles_true_change_nothing_and_false_restates_a_field(self):
        toggles = "enable_superimage = true\nenable_tm = true\nenable_txb = true\n"
        for preset in arch.PRESETS:
            spec = arch.load_preset(preset)
            assert arch.parse_arch(arch.format_arch(spec) + toggles) == spec
        ordinary = dataclasses.replace(toy_spec(), head="ordinary_tconv")
        text = arch.format_arch(ordinary) + "enable_tm = false\nenable_txb = false\n"
        assert arch.parse_arch(text) == dataclasses.replace(ordinary, tm_after=())

    def test_old_toggle_errors_name_the_key(self):
        tsn_text = OLD_SIDECARS["tsn-toy"][0]
        with pytest.raises(arch.SpecError, match="tsn-toy: n: must be 1"):
            arch.parse_arch(tsn_text.replace("n = 1\n", "n = 2\n"))
        with pytest.raises(arch.SpecError, match="enable_tm: expected a boolean, got 'off'"):
            arch.parse_arch(tsn_text.replace("enable_tm = false", "enable_tm = off"))
        with pytest.raises(arch.SpecError, match="tm_after: stage index 7 out of range"):
            arch.parse_arch(tsn_text.replace("tm_after = \n", "tm_after = 7\n"))

    def test_toggles_are_never_written(self):
        for preset in arch.PRESETS:
            assert "enable_" not in arch.format_arch(arch.load_preset(preset))

    def test_pinned_benchmark_spec_equals_preset(self):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "specs" / "stnet-toy.arch"
        assert arch.load_arch_file(path) == arch.load_preset("stnet-toy")


class TestMoreEdgeCases:
    def test_checkpoint_missing_tensor(self, tmp_path):
        import stnet.serial as serial
        spec = tiny_spec()
        m = model.build_model(spec, seed=0)
        # drop the last tensor but keep the declared count consistent
        partial = dict(list(m.params.items())[:-1])
        path = tmp_path / "partial.stnc"
        with open(path, "wb") as f:
            f.write(checkpoint.MAGIC)
            serial.write_u32(f, checkpoint.VERSION)
            serial.write_u32(f, len(partial))
            for name, tensor in partial.items():
                enc = name.encode()
                serial.write_u16(f, len(enc))
                f.write(enc)
                serial.write_u8(f, tensor.ndim)
                for d in tensor.shape:
                    serial.write_u32(f, d)
                f.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
        with pytest.raises(ParamMismatchError, match="missing"):
            checkpoint.load_checkpoint(path, spec)

    def test_arch_parse_missing_required_key(self):
        with pytest.raises(arch.SpecError, match="num_classes: missing"):
            arch.parse_arch("t = 1\nn = 1\nheight = 8\nwidth = 8\n")

    def test_arch_parse_stage_gap(self):
        text = ("t = 1\nn = 1\nheight = 8\nwidth = 8\nnum_classes = 2\n"
                "stages.0.kind = conv\nstages.0.channels = 4\n"
                "stages.2.kind = basic\nstages.2.channels = 4\n")
        with pytest.raises(arch.SpecError, match="missing index 1"):
            arch.parse_arch(text)

    def test_backward_visits_each_node_once(self):
        from stnet import ops
        x = Tensor(np.ones(3), requires_grad=True, dtype=np.float64)
        h = ops.relu(x)
        calls = {"n": 0}
        orig = h._backward

        def counting(g):
            calls["n"] += 1
            orig(g)
        h._backward = counting
        out = h + h  # diamond: h feeds the sum twice
        out.backward(np.ones(3))
        assert calls["n"] == 1
        assert np.allclose(x.grad, 2.0)

    def test_tsn_preset_matches_all_disabled_variant_layout(self):
        from stnet import training
        toy = arch.load_preset("stnet-toy")
        tsn = arch.load_preset("tsn-toy")
        variant = training.variant_spec(toy, False, False, False)
        assert model.parameter_shapes(variant) == model.parameter_shapes(tsn)

    def test_infer_mode_batch_independence(self):
        spec = tiny_spec()
        m = model.build_model(spec, seed=21).set_mode("infer")
        batch = batch_for(spec, b=4, seed=22)
        joint = model.forward(m, batch).data
        for i in range(4):
            single = model.forward(m, Tensor(batch.data[i:i + 1])).data
            assert np.abs(single - joint[i:i + 1]).max() < 1e-6


def _graph_nodes(root):
    """Every tensor reachable from ``root`` through ``_prev``, root included."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for parent in stack.pop()._prev:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())


def _replay_backward(root):
    """Reverse-topological closure replay that releases nothing."""
    root.accumulate_grad(np.ones_like(root.data))
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            if id(parent) not in seen:
                stack.append((parent, False))
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)


def toy_clips(count, seed):
    return data.gen_synthetic(data.SynthConfig(clips_per_class=-(-count // 6),
                                               seed=seed))[:count]


def toy_loss(m, clips, seed):
    sampler = data.SamplerConfig(t=m.spec.t, n=m.spec.n, train=True)
    arr, labels = data.make_batch(clips, sampler, seed=seed)
    return ops.softmax_cross_entropy(model.forward(m, Tensor(arr)), labels)


class TestGraphRelease:
    def test_evaluate_builds_no_graph_and_matches_graph_forward(self, monkeypatch):
        m = model.build_model(toy_spec(), seed=31)
        clips = toy_clips(12, seed=31)
        training.train(m, clips[:4], training.TrainConfig(epochs=1, batch_size=4,
                                                          lr=0.02, seed=31))
        returned = []
        forward = model.forward

        def recording_forward(inst, batch):
            out = forward(inst, batch)
            returned.append(out)
            return out
        monkeypatch.setattr(model, "forward", recording_forward)
        metrics = training.evaluate(m, clips, batch_size=5)
        monkeypatch.undo()

        assert m.mode == "train"
        assert len(returned) == 3 and all(out._prev == () for out in returned)
        sampler = data.SamplerConfig(t=m.spec.t, n=m.spec.n, train=False)
        confusion = np.zeros_like(metrics.confusion)
        m.set_mode("infer")
        for lo, got in zip(range(0, len(clips), 5), returned):
            arr, labels = data.make_batch(clips[lo:lo + 5], sampler)
            want = model.forward(m, Tensor(arr))
            assert want._prev                      # the reference builds a graph
            assert got.data.tobytes() == want.data.tobytes()
            np.add.at(confusion, (labels, want.data.argmax(axis=1)), 1)
        assert metrics.confusion.tobytes() == confusion.tobytes()

    def test_backward_releases_every_op_node(self):
        m = model.build_model(toy_spec(), seed=32)
        loss = toy_loss(m, toy_clips(4, seed=32), seed=32)
        nodes = [t for t in _graph_nodes(loss) if t.op != "leaf"]
        assert len(nodes) > 50
        loss.backward()
        for t in nodes:
            assert t.grad is None and t._backward is None and t._prev == (), t.op
        for name, t in m.trainable():
            assert t.grad is not None, name

    def test_leaf_grads_match_unreleased_replay(self):
        m = model.build_model(toy_spec(), seed=33)
        clips = toy_clips(4, seed=33)
        toy_loss(m, clips, seed=33).backward()
        released = {name: t.grad for name, t in m.trainable()}
        for _, t in m.trainable():
            t.zero_grad()
        _replay_backward(toy_loss(m, clips, seed=33))
        for name, t in m.trainable():
            assert t.grad.tobytes() == released[name].tobytes(), name

    def test_second_backward_raises(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True, dtype=np.float64)
        y = ops.relu(x)
        y.backward(np.ones(3))
        before = x.grad.copy()
        with pytest.raises(RuntimeError, match="already"):
            y.backward(np.ones(3))
        with pytest.raises(RuntimeError, match="already"):
            (y + y).backward(np.ones(3))
        assert np.array_equal(x.grad, before)


def _bn_train(x, alpha, beta):
    c = x.shape[1]
    return ops.batch_norm(x, alpha, beta, Tensor(np.zeros(c)), Tensor(np.ones(c)),
                          axis=1, training=True)


# Each differentiable op, called on tensors of the given input shapes.
GRAPH_RULE_CASES = {
    "conv2d": (lambda x, w: ops.conv2d(x, w, padding=1), [(2, 3, 4, 4), (2, 3, 3, 3)]),
    "temporal_conv3": (ops.temporal_conv3, [(2, 3, 4), (5, 4, 3), (5,)]),
    "linear": (ops.linear, [(2, 4), (3, 4), (3,)]),
    "batch_norm": (_bn_train, [(4, 3, 2), (3,), (3,)]),
    "relu": (ops.relu, [(2, 3)]),
    "temporal_max_pool": (ops.temporal_max_pool, [(2, 3, 4)]),
    "max_pool2d": (ops.max_pool2d, [(1, 2, 4, 4)]),
    "softmax": (ops.softmax, [(2, 3)]),
    "mean_over": (lambda x: ops.mean_over(x, (2, 3)), [(2, 3, 2, 2)]),
    "softmax_cross_entropy": (lambda z: ops.softmax_cross_entropy(z, np.array([0, 2])),
                              [(2, 3)]),
    "reshape": (lambda x: x.reshape((3, 2)), [(2, 3)]),
    "transpose": (lambda x: x.transpose((1, 0)), [(2, 3)]),
    "add": (lambda a, b: a + b, [(2, 3), (2, 3)]),
}


class TestGraphRule:
    def test_every_public_op_has_a_case(self):
        public = {name for name, fn in vars(ops).items()
                  if callable(fn) and not name.startswith("_") and not isinstance(fn, type)
                  and fn.__module__ == ops.__name__}
        assert public == set(GRAPH_RULE_CASES) - {"reshape", "transpose", "add"}

    @pytest.mark.parametrize("name", sorted(GRAPH_RULE_CASES))
    def test_node_kept_only_when_an_input_needs_grad(self, name):
        fn, shapes = GRAPH_RULE_CASES[name]
        rng = np.random.default_rng(41)
        data = [rng.standard_normal(s) for s in shapes]
        out = fn(*[Tensor(d) for d in data])
        assert out._backward is None and out._prev == () and not out.requires_grad
        for k in range(len(data)):
            args = [Tensor(d, requires_grad=i == k) for i, d in enumerate(data)]
            out = fn(*args)
            assert callable(out._backward) and out._prev and out.requires_grad, k
            assert any(p is args[k] for p in out._prev), k


class TestPlanGeometry:
    @pytest.mark.parametrize("preset", arch.PRESETS)
    def test_executed_geometry_matches_plans(self, preset, monkeypatch):
        # Every conv2d and batch_norm call of an infer forward runs with its
        # plan's stride, padding and per-clip output shape, B*T leading.
        spec = arch.load_preset(preset)
        if spec.stages:
            spec = arch.with_overrides(spec, t=2, res=32)
        m = model.build_model(spec).set_mode("infer")
        plans = [p for p in model.layer_plans(spec) if p.kind in ("conv2d", "bn")]
        owner = {id(m.params[f"{p.name}/{'w' if p.kind == 'conv2d' else 'alpha'}"]): p
                 for p in plans}
        calls = []
        conv2d, batch_norm = ops.conv2d, ops.batch_norm

        def record(plan, geometry, out):
            lead = out.ndim - len(plan.out_shape) + 1
            calls.append((plan.name, geometry,
                          (int(np.prod(out.shape[:lead])),) + out.shape[lead:]))
            return out

        def conv2d_rec(x, weight, stride=1, padding=0):
            return record(owner[id(weight)], (stride, padding),
                          conv2d(x, weight, stride=stride, padding=padding))

        def batch_norm_rec(x, alpha, *args, **kwargs):
            return record(owner[id(alpha)], None, batch_norm(x, alpha, *args, **kwargs))

        monkeypatch.setattr(ops, "conv2d", conv2d_rec)
        monkeypatch.setattr(ops, "batch_norm", batch_norm_rec)
        b = 2
        if spec.stages:
            model.forward(m, batch_for(spec, b=b))
        else:
            model.forward(m, Tensor(np.zeros((b, spec.t, spec.feature_dim), np.float32)))
        assert calls == [(p.name, (p.stride, p.padding) if p.kind == "conv2d" else None,
                          (b * spec.t,) + p.out_shape[1:]) for p in plans]


class TestWholeModelGradient:
    @pytest.mark.parametrize("head", arch.HEADS)
    def test_directional_derivatives_float64(self, head):
        # A 7x7/2 stem with max-pool, a bottleneck stage whose first block
        # has a down shortcut and whose second has the identity, and a TM
        # block, with each head. Along fixed random directions over every
        # trainable parameter, the analytic derivative of a train-mode loss
        # must match a central difference.
        spec = arch.validate(arch.ArchSpec(
            name="grad", t=3, n=2, height=16, width=16, num_classes=3,
            stages=(arch.StageSpec("conv", 4, stride=2, kernel=7, pool=True),
                    arch.StageSpec("bottleneck", 8, stride=2, repeat=2)),
            tm_after=(1,), head=head, txb_channels=4))
        m = model.build_model(spec, seed=0)
        m64 = model.ModelInstance(spec, {
            k: Tensor(v.data, requires_grad=v.requires_grad, dtype=np.float64)
            for k, v in m.params.items()})
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((2, spec.t, spec.input_channels, 16, 16)),
                   dtype=np.float64)
        labels = rng.integers(0, spec.num_classes, 2)
        ops.softmax_cross_entropy(model.forward(m64, x), labels).backward()
        params = [t for _, t in m64.trainable()]
        assert all(t.grad is not None for t in params)
        # Detached views share the buffers perturbed below and build no graph.
        frozen = model.ModelInstance(spec, {k: t.detach() for k, t in m64.params.items()})
        origin = [t.data.copy() for t in params]

        def loss_at(step, dirs):
            for t, o, d in zip(params, origin, dirs):
                t.data[...] = o + step * d
            return ops.softmax_cross_entropy(model.forward(frozen, x), labels).item()

        h = 1e-6
        for _ in range(3):
            dirs = [rng.standard_normal(t.shape) for t in params]
            analytic = sum(float(np.vdot(t.grad, d)) for t, d in zip(params, dirs))
            numeric = (loss_at(h, dirs) - loss_at(-h, dirs)) / (2 * h)
            assert abs(analytic - numeric) <= 1e-6 * max(abs(analytic), abs(numeric)), \
                (analytic, numeric)
