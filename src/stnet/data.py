"""Video clips, snippet sampling, super-image packing, and synthetic data.

The synthetic generator renders a bright square over a noisy dark
background. Motion classes come in mirrored pairs (slide left/right,
grow/shrink) built from shared random draws, so paired clips are exact
frame reversals of each other and have identical per-frame statistics;
the static classes are distinguishable from any single frame by their
texture colors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serial

MAGIC = b"STVD"
VERSION = 1

SYNTH_CLASSES = ("left_right", "right_left", "grow", "shrink",
                 "static_a", "static_b")
MIRRORED_PAIRS = (("left_right", "right_left"), ("grow", "shrink"))
# Classes rendered by reversing their pair partner's frames.
_REVERSED_OF = {"right_left": "left_right", "shrink": "grow"}


class GeometryError(ValueError):
    """Object does not fit in the frame."""


@dataclass
class VideoClip:
    frames: np.ndarray          # [F,3,H,W] uint8
    label: int
    clip_id: int = 0

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.uint8)
        if self.frames.ndim != 4 or self.frames.shape[1] != 3:
            raise ValueError(f"frames must be [F,3,H,W], got {self.frames.shape}")
        if self.frames.shape[0] < 1:
            raise ValueError("clip must contain at least one frame")

    @property
    def num_frames(self):
        return self.frames.shape[0]


# Input normalization after /255, the same for every RGB channel.
PIXEL_MEAN = 0.5
PIXEL_STD = 0.25


@dataclass
class SamplerConfig:
    t: int
    n: int
    train: bool = False                    # random in-segment offset vs centered

    def __post_init__(self):
        if self.t < 1 or self.n < 1:
            raise ValueError("t and n must be >= 1")


def sample_snippets(clip, cfg, seed=0):
    """T windows of N frame indices, one per equal temporal segment.

    Test mode centers each window in its segment; train mode draws a
    uniform offset over the valid starts. Windows are clamped to the clip
    and repeat the last frame when the clip is shorter than N.
    """
    f = clip.num_frames if isinstance(clip, VideoClip) else int(clip)
    rng = np.random.default_rng(seed) if cfg.train else None
    windows = []
    for i in range(cfg.t):
        lo = i * f // cfg.t
        hi = (i + 1) * f // cfg.t
        slack = max(hi - lo - cfg.n, 0)
        if cfg.train:
            start = lo + int(rng.integers(0, slack + 1))
        else:
            start = lo + slack // 2
        windows.append([min(start + k, f - 1) for k in range(cfg.n)])
    return windows


def make_super_images(clip, windows, cfg):
    """Stack each window's frames along channels: [T, 3N, H, W] float32.

    Channel c holds color channel c % 3 of frame c // 3 of the snippet;
    values are normalized as (x/255 - PIXEL_MEAN) / PIXEL_STD.
    """
    f, _, h, w = clip.frames.shape
    t = len(windows)
    out = np.empty((t, 3 * cfg.n, h, w), dtype=np.float32)
    for i, window in enumerate(windows):
        stacked = clip.frames[window].reshape(3 * cfg.n, h, w)
        out[i] = stacked
    out /= 255.0
    out -= PIXEL_MEAN
    out /= PIXEL_STD
    return out


def make_batch(clips, cfg, seed=0):
    """Sample and pack a batch: ([B,T,3N,H,W] float32, labels int64)."""
    base = seed if isinstance(seed, tuple) else (seed,)
    data = []
    labels = np.empty(len(clips), dtype=np.int64)
    for i, clip in enumerate(clips):
        windows = sample_snippets(clip, cfg, seed=base + (clip.clip_id,))
        data.append(make_super_images(clip, windows, cfg))
        labels[i] = clip.label
    return np.stack(data), labels


# ---------------------------------------------------------------------------
# Synthetic order-sensitive dataset
# ---------------------------------------------------------------------------

@dataclass
class SynthConfig:
    classes: tuple[str, ...] = SYNTH_CLASSES
    clips_per_class: int = 200
    frames: int = 16
    height: int = 32
    width: int = 32
    object_scale: int = 8
    noise: int = 16
    seed: int = 0

    def __post_init__(self):
        self.classes = tuple(self.classes)
        unknown = [c for c in self.classes if c not in SYNTH_CLASSES]
        if unknown:
            raise ValueError(f"unknown class {unknown[0]!r}; "
                             f"choose from {SYNTH_CLASSES}")
        if self.clips_per_class < 1 or self.frames < 1:
            raise ValueError("clips_per_class and frames must be >= 1")
        grow_max = 2 * self.object_scale
        if max(self.object_scale, grow_max) > min(self.height, self.width) - 2:
            raise GeometryError(
                f"object_scale {self.object_scale} does not fit a "
                f"{self.height}x{self.width} frame (growth reaches {grow_max})")


def _background(rng, cfg):
    base = np.full((cfg.frames, 3, cfg.height, cfg.width), 16, dtype=np.int16)
    noise = rng.integers(0, cfg.noise + 1,
                         size=base.shape, dtype=np.int16)
    return np.clip(base + noise, 0, 255).astype(np.uint8)


def _paint_square(frame, x, y, side, color, stripes=None):
    patch = np.empty((3, side, side), dtype=np.uint8)
    patch[:] = np.asarray(color, np.uint8)[:, None, None]
    if stripes == "rows":
        patch[:, ::2, :] = patch[:, ::2, :] // 2
    elif stripes == "cols":
        patch[:, :, ::2] = patch[:, :, ::2] // 2
    frame[:, y:y + side, x:x + side] = patch


def _render_canonical(name, rng, cfg):
    """Forward-time rendering; mirrored classes reverse this clip."""
    h, w, f, s = cfg.height, cfg.width, cfg.frames, cfg.object_scale
    frames = _background(rng, cfg)
    span = max(f - 1, 1)
    if name == "left_right":
        y = int(rng.integers(1, h - s))
        x0, x1 = 1, w - s - 1
        for t in range(f):
            x = round(x0 + (x1 - x0) * t / span)
            _paint_square(frames[t], x, y, s, (210, 210, 210))
    elif name == "grow":
        s0, s1 = max(2, s // 2), min(2 * s, min(h, w) - 2)
        cx = int(rng.integers(s1 // 2 + 1, w - s1 // 2 - 1))
        cy = int(rng.integers(s1 // 2 + 1, h - s1 // 2 - 1))
        for t in range(f):
            side = round(s0 + (s1 - s0) * t / span)
            _paint_square(frames[t], cx - side // 2, cy - side // 2, side,
                          (210, 210, 210))
    elif name in ("static_a", "static_b"):
        side = s
        x = int(rng.integers(1, w - side))
        y = int(rng.integers(1, h - side))
        color = (220, 90, 60) if name == "static_a" else (60, 90, 220)
        stripes = "rows" if name == "static_a" else "cols"
        for t in range(f):
            _paint_square(frames[t], x, y, side, color, stripes)
    else:
        raise ValueError(f"no canonical renderer for {name!r}")
    return frames


def render_clip(name, clip_seed, cfg):
    """One clip of class ``name``; mirrored classes share their partner's
    random draws and reverse the frame order, so the reversal is
    pixel-exact."""
    canonical = _REVERSED_OF.get(name, name)
    rng = np.random.default_rng(clip_seed)
    frames = _render_canonical(canonical, rng, cfg)
    if name in _REVERSED_OF:
        frames = frames[::-1].copy()
    return frames


def gen_synthetic(cfg):
    """Render the configured dataset; deterministic per seed."""
    clips = []
    clip_id = 0
    for label, name in enumerate(cfg.classes):
        canonical = _REVERSED_OF.get(name, name)
        base_idx = SYNTH_CLASSES.index(canonical)
        for k in range(cfg.clips_per_class):
            frames = render_clip(name, (cfg.seed, base_idx, k), cfg)
            clips.append(VideoClip(frames=frames, label=label, clip_id=clip_id))
            clip_id += 1
    return clips


# ---------------------------------------------------------------------------
# Dataset file format
# ---------------------------------------------------------------------------

def write_dataset(clips, path):
    """Magic ``STVD``, version u32, clip count u32; per clip label u32,
    F/H/W u16, then F*H*W*3 bytes of RGB interleaved by frame then
    row-major."""
    with open(path, "wb") as f:
        f.write(MAGIC)
        serial.write_u32(f, VERSION)
        serial.write_u32(f, len(clips))
        for clip in clips:
            fr, _, h, w = clip.frames.shape
            serial.write_u32(f, clip.label)
            serial.write_u16(f, fr)
            serial.write_u16(f, h)
            serial.write_u16(f, w)
            f.write(np.ascontiguousarray(
                clip.frames.transpose(0, 2, 3, 1)).tobytes())


def read_dataset(path):
    clips = []
    with open(path, "rb") as f:
        serial.expect_magic(f, MAGIC)
        serial.expect_version(f, (VERSION,))
        count = serial.read_u32(f, "clip count")
        for i in range(count):
            label = serial.read_u32(f, f"label of clip {i}")
            fr = serial.read_u16(f, f"frame count of clip {i}")
            h = serial.read_u16(f, f"height of clip {i}")
            w = serial.read_u16(f, f"width of clip {i}")
            if not fr * h * w:
                raise serial.FormatError(
                    f"clip {i} is empty: {fr} frames of {h}x{w}")
            raw = serial.read_exact(f, fr * h * w * 3, f"pixels of clip {i}")
            frames = np.frombuffer(raw, dtype=np.uint8).reshape(fr, h, w, 3)
            clips.append(VideoClip(frames=frames.transpose(0, 3, 1, 2).copy(),
                                   label=label, clip_id=i))
    return clips


def split_dataset(clips, eval_fraction=0.25, seed=0):
    """Deterministic stratified train/eval split."""
    by_label = {}
    for clip in clips:
        by_label.setdefault(clip.label, []).append(clip)
    rng = np.random.default_rng((seed, 1))
    train, evals = [], []
    for label in sorted(by_label):
        group = by_label[label]
        order = rng.permutation(len(group))
        n_eval = max(1, int(round(len(group) * eval_fraction)))
        for pos, idx in enumerate(order):
            (evals if pos < n_eval else train).append(group[idx])
    return train, evals
