"""The benchmark's workloads, pinned here rather than read from stnet.

Each workload is a closed loop over rounds: a round is one call into
stnet's public entry points (``training.train`` or
``training.evaluate``), and the next round starts when the previous one
returns. Inputs derive from the workload seed only. The specs come from
``specs/``, so a change to stnet's presets reaches the benchmark only
through an edit there.
"""

from __future__ import annotations

import os
from pathlib import Path
from time import perf_counter

import numpy as np

import stnet
from stnet import checkpoint, complexity, data, model, training
from stnet.tensor import Tensor

SPEC_DIR = Path(__file__).resolve().parent / "specs"

LR = 0.02
LOGIT_MAX_REL_ERR = 1e-3         # float32 logits against a float64 forward
LOSS_END_STEPS = (4, 8)          # loss_end averages steps [4, 8)


def timed(phases, key, fn, *args, **kwargs):
    """Call ``fn`` and store its wall time in seconds as ``phases[key]``."""
    t0 = perf_counter()
    out = fn(*args, **kwargs)
    phases[key] = perf_counter() - t0
    return out


class BatchClock:
    """Marks batch starts at the calls into ``data.make_batch``.

    Installed for untraced and traced runs alike; it costs one clock read
    per batch.
    """

    def __init__(self):
        self.marks = []
        self._original = None

    def __enter__(self):
        self._original = original = data.make_batch

        def make_batch(*args, **kwargs):
            self.marks.append(perf_counter())
            return original(*args, **kwargs)
        data.make_batch = make_batch
        return self

    def __exit__(self, *exc):
        data.make_batch = self._original
        return False


class Workload:
    """Train or evaluate a pinned spec on synthetic clips, one call per round."""

    def __init__(self, spec_file, synth, batch_size, clips_per_round, train, tmp_dir,
                 warm_steps=0):
        self.spec = stnet.arch.load_arch_file(SPEC_DIR / spec_file)
        self.synth = synth
        self.batch_size = batch_size
        self.clips_per_round = clips_per_round
        self.batches_per_round = -(-clips_per_round // batch_size)
        self.train = train
        self.warm_steps = warm_steps
        self.tmp_dir = Path(tmp_dir)
        self.losses = []
        self.model = None

    def setup(self, seed):
        """Dataset, STVD round trip, model and checkpoint round trip.

        Returns {phase: seconds}.
        """
        self.model = None                     # release the previous set-up first
        self.seed = seed
        ph = {}
        clips = timed(ph, "gen_synthetic", data.gen_synthetic,
                      data.SynthConfig(seed=seed, **self.synth))
        path = self.tmp_dir / "clips.stvd"
        timed(ph, "write_dataset", data.write_dataset, clips, path)
        clips = timed(ph, "read_dataset", data.read_dataset, path)
        train_clips, eval_clips = data.split_dataset(clips, seed=seed)
        self.train_clips = train_clips
        self.clips = train_clips if self.train else eval_clips
        self.order = np.random.default_rng((seed, 0xBE)).permutation(len(self.clips))
        m = timed(ph, "build_model", model.build_model, self.spec, seed=seed)
        ckpt = self.tmp_dir / "model.stnc"
        timed(ph, "save_checkpoint", checkpoint.save_checkpoint, m, ckpt)
        del m
        self.model = timed(ph, "load_checkpoint", checkpoint.load_checkpoint, ckpt, self.spec)
        self.report = timed(ph, "analyze", complexity.analyze, self.spec)
        os.remove(path)
        os.remove(ckpt)
        return ph

    def prepare(self):
        """Briefly train the evaluated model, then save and reload it."""
        if not self.warm_steps:
            return
        pick = np.random.default_rng((self.seed, 0xAB)).permutation(len(self.train_clips))
        cfg = training.TrainConfig(epochs=1, batch_size=16, lr=LR, seed=self.seed)
        training.train(self.model, [self.train_clips[i] for i in pick[:16 * self.warm_steps]],
                       cfg)
        ckpt = self.tmp_dir / "trained.stnc"
        checkpoint.save_checkpoint(self.model, ckpt)
        self.model = checkpoint.load_checkpoint(ckpt, self.spec)
        os.remove(ckpt)

    def round_clips(self, i):
        n = len(self.order)
        lo = i * self.clips_per_round
        return [self.clips[self.order[(lo + k) % n]] for k in range(self.clips_per_round)]

    def run_round(self, i):
        """One public call. Returns (items, batch seconds, failed batches)."""
        clips = self.round_clips(i)
        with BatchClock() as clock:
            if self.train:
                cfg = training.TrainConfig(epochs=1, batch_size=self.batch_size,
                                           lr=LR, seed=self.seed * 100_003 + i)
                history = training.train(self.model, clips, cfg)
                self.losses.extend(v for _, v in history.losses)
                failed = 0
            else:
                metrics = training.evaluate(self.model, clips, batch_size=self.batch_size)
                failed = 0 if metrics.total == len(clips) else self.batches_per_round
            end = perf_counter()
        marks = clock.marks + [end]
        return len(clips), [b - a for a, b in zip(marks, marks[1:])], failed

    def checks(self):
        """Output checks after the timed rounds: {name: (value, passed)}."""
        if self.train:
            lo, hi = LOSS_END_STEPS
            tail = self.losses[lo:hi]
            value = float(np.mean(tail)) if len(tail) == hi - lo else float("nan")
            return {"loss_end": (value, bool(np.isfinite(self.losses + [value]).all()))}
        err = logit_error(self.model, self.probe_clips())
        return {"logit_err": (err, err < LOGIT_MAX_REL_ERR)}

    def probe_clips(self):
        """The fixed probe batch: the first batch of round 0."""
        return self.round_clips(0)[:self.batch_size]


def probe(m, clips, dtype):
    """Infer-mode logits of ``m`` on a center-sampled batch of ``clips``."""
    sampler = data.SamplerConfig(t=m.spec.t, n=m.spec.n, train=False)
    arr, _ = data.make_batch(clips, sampler)
    mode = m.mode
    m.set_mode("infer")
    try:
        return model.forward(m, Tensor(arr, dtype=dtype)).data
    finally:
        m.set_mode(mode)


def logit_error(m, clips):
    """Largest |float32 - float64| logit gap over the float64 logit scale."""
    l32 = probe(m, clips, np.float32)
    # Constant float64 parameters: the oracle forward builds no graph.
    m64 = model.ModelInstance(spec=m.spec, params={
        k: Tensor(v.data, dtype=np.float64) for k, v in m.params.items()})
    l64 = probe(m64, clips, np.float64)
    return float(np.abs(l32 - l64).max() / max(np.abs(l64).max(), 1e-30))


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "train-stnet-toy": dict(spec_file="stnet-toy.arch", synth={}, batch_size=16,
                            clips_per_round=32, train=True),
    "eval-stnet-toy": dict(spec_file="stnet-toy.arch", synth={}, batch_size=32,
                           clips_per_round=64, train=False, warm_steps=2),
    "infer-resnet50-112": dict(spec_file="stnet-resnet50-112.arch",
                               synth=dict(clips_per_class=2, frames=20, height=112, width=112),
                               batch_size=2, clips_per_round=4, train=False),
}


def make(name, tmp_dir):
    """The workload called ``name``; its scratch files go to ``tmp_dir``."""
    return Workload(tmp_dir=tmp_dir, **WORKLOADS[name])
