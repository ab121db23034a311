"""Snippet sampling, super-image packing, synthetic rendering, dataset files."""

import numpy as np
import pytest

from stnet import data
from stnet.serial import FormatError, MagicError, TruncatedError, VersionError


def clip_of(frames, label=0, clip_id=0):
    return data.VideoClip(frames=np.asarray(frames, np.uint8), label=label,
                          clip_id=clip_id)


def gray_clip(f, h=6, w=6, value=100):
    return clip_of(np.full((f, 3, h, w), value))


class TestSampling:
    def test_exact_tiling_in_test_mode(self):
        cfg = data.SamplerConfig(t=4, n=5, train=False)
        windows = data.sample_snippets(gray_clip(20), cfg)
        assert windows == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9],
                           [10, 11, 12, 13, 14], [15, 16, 17, 18, 19]]

    def test_short_clip_repeats_last_frame(self):
        cfg = data.SamplerConfig(t=1, n=5, train=False)
        assert data.sample_snippets(gray_clip(3), cfg) == [[0, 1, 2, 2, 2]]

    def test_train_mode_reproducible(self):
        cfg = data.SamplerConfig(t=3, n=2, train=True)
        a = data.sample_snippets(gray_clip(17), cfg, seed=42)
        b = data.sample_snippets(gray_clip(17), cfg, seed=42)
        c = data.sample_snippets(gray_clip(17), cfg, seed=43)
        assert a == b
        assert a != c  # almost surely; fixed seeds make this deterministic

    def test_windows_monotonic_and_in_segments(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f = int(rng.integers(1, 40))
            t = int(rng.integers(1, 8))
            n = int(rng.integers(1, 7))
            cfg = data.SamplerConfig(t=t, n=n, train=bool(rng.integers(2)))
            windows = data.sample_snippets(gray_clip(f), cfg,
                                           seed=int(rng.integers(1 << 30)))
            starts = [w[0] for w in windows]
            assert starts == sorted(starts)
            for i, w in enumerate(windows):
                assert 0 <= min(w) and max(w) <= f - 1
                assert w[0] >= i * f // t or w[0] == f - 1
                assert all(b >= a for a, b in zip(w, w[1:]))

    def test_test_mode_is_pure(self):
        cfg = data.SamplerConfig(t=5, n=3, train=False)
        assert data.sample_snippets(gray_clip(31), cfg, seed=1) \
            == data.sample_snippets(gray_clip(31), cfg, seed=999)


class TestSuperImages:
    def test_shape_t2_n3(self):
        cfg = data.SamplerConfig(t=2, n=3)
        clip = gray_clip(12, h=5, w=7)
        windows = data.sample_snippets(clip, cfg)
        out = data.make_super_images(clip, windows, cfg)
        assert out.shape == (2, 9, 5, 7)
        assert out.dtype == np.float32

    def test_n5_gives_15_channels(self):
        cfg = data.SamplerConfig(t=1, n=5)
        clip = gray_clip(10)
        out = data.make_super_images(clip, data.sample_snippets(clip, cfg), cfg)
        assert out.shape[1] == 15

    def test_identical_frames_identical_blocks(self):
        cfg = data.SamplerConfig(t=2, n=4)
        clip = gray_clip(8, value=77)
        out = data.make_super_images(clip, data.sample_snippets(clip, cfg), cfg)
        for k in range(1, 4):
            assert np.array_equal(out[:, :3], out[:, 3 * k:3 * k + 3])

    def test_channel_layout_contract(self):
        # Paint frame f with constant 10*f and color channel c with +c:
        # super-image channel k must hold frame k//3, color k%3.
        f, h, w = 9, 4, 4
        frames = np.zeros((f, 3, h, w), np.uint8)
        for fi in range(f):
            for ci in range(3):
                frames[fi, ci] = 10 * fi + ci
        clip = clip_of(frames)
        cfg = data.SamplerConfig(t=3, n=3)
        windows = data.sample_snippets(clip, cfg)
        out = data.make_super_images(clip, windows, cfg)
        for ti, window in enumerate(windows):
            for k in range(9):
                want = ((10 * window[k // 3] + k % 3) / 255.0 - 0.5) / 0.25
                assert np.allclose(out[ti, k], want)

    def test_normalization(self):
        cfg = data.SamplerConfig(t=1, n=1)
        clip = gray_clip(1, value=255)
        out = data.make_super_images(clip, [[0]], cfg)
        assert np.allclose(out, (1.0 - 0.5) / 0.25)


class TestSynthetic:
    def test_reversal_is_pixel_exact_mirror(self):
        cfg = data.SynthConfig(clips_per_class=3, seed=11)
        clips = data.gen_synthetic(cfg)
        by_class = {}
        for c in clips:
            by_class.setdefault(cfg.classes[c.label], []).append(c)
        for fwd_name, rev_name in data.MIRRORED_PAIRS:
            for k in range(3):
                fwd = by_class[fwd_name][k].frames
                rev = by_class[rev_name][k].frames
                assert np.array_equal(fwd[::-1], rev)

    def test_mirrored_pairs_share_frame_multisets(self):
        cfg = data.SynthConfig(clips_per_class=2, seed=3)
        clips = data.gen_synthetic(cfg)
        lr = [c for c in clips if cfg.classes[c.label] == "left_right"]
        rl = [c for c in clips if cfg.classes[c.label] == "right_left"]
        for a, b in zip(lr, rl):
            sa = np.sort(a.frames.reshape(a.frames.shape[0], -1).sum(axis=1))
            sb = np.sort(b.frames.reshape(b.frames.shape[0], -1).sum(axis=1))
            assert np.array_equal(sa, sb)

    def test_static_classes_linearly_separable_per_frame(self):
        cfg = data.SynthConfig(clips_per_class=20, seed=5)
        clips = [c for c in data.gen_synthetic(cfg)
                 if cfg.classes[c.label] in ("static_a", "static_b")]
        frames, labels = [], []
        for c in clips:
            for fi in range(0, c.frames.shape[0], 4):
                frames.append(c.frames[fi].astype(np.float64).ravel() / 255.0)
                labels.append(1.0 if cfg.classes[c.label] == "static_a" else -1.0)
        x = np.stack(frames)
        y = np.asarray(labels)
        train = np.arange(len(y)) % 2 == 0
        w, *_ = np.linalg.lstsq(
            np.hstack([x[train], np.ones((train.sum(), 1))]), y[train], rcond=None)
        pred = np.sign(np.hstack([x[~train], np.ones(((~train).sum(), 1))]) @ w)
        assert (pred == y[~train]).mean() > 0.95

    def test_deterministic_per_seed(self, tmp_path):
        cfg = data.SynthConfig(clips_per_class=2, seed=9)
        p1, p2 = tmp_path / "a.stvd", tmp_path / "b.stvd"
        data.write_dataset(data.gen_synthetic(cfg), p1)
        data.write_dataset(data.gen_synthetic(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()
        data.write_dataset(data.gen_synthetic(
            data.SynthConfig(clips_per_class=2, seed=10)), p2)
        assert p1.read_bytes() != p2.read_bytes()

    def test_impossible_geometry(self):
        with pytest.raises(data.GeometryError):
            data.SynthConfig(object_scale=40, height=32, width=32)

    @pytest.mark.parametrize("field, value, rule", [
        ("object_scale", 0, ">= 1"), ("object_scale", -3, ">= 1"), ("noise", -1, ">= 0"),
        ("noise", 40000, "<= 255"), ("seed", -1, ">= 0")],
        ids=["object_scale-0", "object_scale-negative", "noise-negative", "noise-above-255",
             "seed-negative"])
    def test_sizes_that_break_the_data_name_the_field(self, field, value, rule):
        # object_scale 0 rendered clips with no object; negative sizes, and noise
        # beyond the 0-255 pixel range, failed inside numpy.
        with pytest.raises(ValueError, match=f"^{field}: must be {rule}, got {value}$"):
            data.SynthConfig(**{field: value})

    def test_smallest_object_and_noise_render(self):
        cfg = data.SynthConfig(classes=("static_a",), clips_per_class=1, object_scale=1,
                               noise=0)
        (clip,) = data.gen_synthetic(cfg)
        assert clip.frames.min() == 16 and clip.frames.max() > 16  # an object on a flat field

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            data.SynthConfig(classes=("left_right", "zigzag"))


class TestDatasetIO:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        clips = [clip_of(rng.integers(0, 256, (5, 3, 4, 6)), label=i, clip_id=i)
                 for i in range(3)]
        path = tmp_path / "ds.stvd"
        data.write_dataset(clips, path)
        back = data.read_dataset(path)
        assert len(back) == 3
        for a, b in zip(clips, back):
            assert a.label == b.label
            assert np.array_equal(a.frames, b.frames)

    @pytest.mark.parametrize("shape, label, field", [
        ((70000, 3, 1, 1), 0, "frame count 70000 does not fit in a u16"),
        ((1, 3, 65536, 1), 0, "height 65536 does not fit in a u16"),
        ((1, 3, 1, 70000), 0, "width 70000 does not fit in a u16"),
        ((1, 3, 1, 1), 1 << 32, f"label {1 << 32} does not fit in a u32"),
        ((1, 3, 1, 1), -1, "label -1 does not fit in a u32")])
    def test_oversize_clip_names_the_field_and_writes_no_file(self, tmp_path, shape,
                                                              label, field):
        # Checked before the file is opened, so no truncated file is left.
        path = tmp_path / "ds.stvd"
        clips = [gray_clip(2), clip_of(np.zeros(shape, np.uint8), label=label)]
        with pytest.raises(ValueError, match=f"^clip 1: {field}$"):
            data.write_dataset(clips, path)
        assert not path.exists()

    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.stvd"
        data.write_dataset([], path)
        assert data.read_dataset(path) == []

    def test_corrupted_magic(self, tmp_path):
        path = tmp_path / "ds.stvd"
        data.write_dataset([gray_clip(2)], path)
        raw = path.read_bytes()
        path.write_bytes(b"JUNK" + raw[4:])
        with pytest.raises(MagicError):
            data.read_dataset(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "ds.stvd"
        data.write_dataset([gray_clip(2)], path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionError):
            data.read_dataset(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "ds.stvd"
        data.write_dataset([gray_clip(4)], path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(TruncatedError):
            data.read_dataset(path)

    def test_bytes_after_the_last_clip(self, tmp_path):
        path = tmp_path / "ds.stvd"
        data.write_dataset([gray_clip(2, value=v) for v in range(6)], path)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(FormatError, match="^8 bytes after the last clip$"):
            data.read_dataset(path)

    def test_huge_declared_clip_size_names_the_field(self, tmp_path):
        # 65535 frames of 65535x65535 pixels declare ~8e14 bytes; the reader
        # must refuse before allocating them.
        path = tmp_path / "ds.stvd"
        data.write_dataset([gray_clip(2)], path)
        raw = bytearray(path.read_bytes())
        raw[16:22] = b"\xff" * 6          # frame count, height and width of clip 0
        path.write_bytes(bytes(raw))
        with pytest.raises(TruncatedError, match="pixels of clip 0"):
            data.read_dataset(path)

    @pytest.mark.parametrize("field", [0, 1, 2])      # frame count, height, width
    def test_zero_extent_names_the_clip(self, tmp_path, field):
        path = tmp_path / "ds.stvd"
        data.write_dataset([gray_clip(2), gray_clip(3)], path)
        raw = bytearray(path.read_bytes())
        at = 12 + 10 + 2 * 6 * 6 * 3 + 4 + 2 * field     # clip 1's extents
        raw[at:at + 2] = b"\x00\x00"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="clip 1") as info:
            data.read_dataset(path)
        assert not isinstance(info.value, TruncatedError)

    def test_split_is_stratified_and_disjoint(self):
        cfg = data.SynthConfig(clips_per_class=8, seed=2)
        clips = data.gen_synthetic(cfg)
        train, evals = data.split_dataset(clips, eval_fraction=0.25, seed=0)
        assert len(train) + len(evals) == len(clips)
        ids = {c.clip_id for c in train} | {c.clip_id for c in evals}
        assert len(ids) == len(clips)
        for label in range(len(cfg.classes)):
            assert sum(c.label == label for c in evals) == 2


class TestMixedClips:
    def test_round_trip_with_heterogeneous_sizes(self, tmp_path):
        rng = np.random.default_rng(3)
        clips = [
            clip_of(rng.integers(0, 256, (2, 3, 4, 4)), label=0),
            clip_of(rng.integers(0, 256, (7, 3, 10, 6)), label=1),
            clip_of(rng.integers(0, 256, (1, 3, 2, 9)), label=2),
        ]
        path = tmp_path / "mixed.stvd"
        data.write_dataset(clips, path)
        for a, b in zip(clips, data.read_dataset(path)):
            assert np.array_equal(a.frames, b.frames) and a.label == b.label
