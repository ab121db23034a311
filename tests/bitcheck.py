"""Does a change keep every training bit? One sha256 over short, fixed runs.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/bitcheck.py

Trains three models for one epoch each on the same 100 synthetic clips
at batch 16, so the epoch ends in a 4-clip batch: ``stnet-toy``,
``tsn-toy`` and ``stnet-toy`` with the ordinary temporal-conv head. For
each it hashes every step's loss, every parameter and running statistic
after the epoch, and ``evaluate``'s confusion matrix on held-out clips.
It then hashes ResNet-50 (``stnet-resnet50`` at T=2, 64x64, two clips):
the infer-mode logits, the train-mode logits, and every parameter
gradient and running statistic of a train-mode loss.

Prints one digest per part and one over all of them. Run it on two
checkouts with the same numpy and the same BLAS thread count: equal
digests mean the change moved none of these bits, so it cannot change
acceptance item c09 by float rounding. Takes about half a minute on one
core. The file name keeps it out of pytest collection.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from stnet import arch, data, model, ops, training
from stnet.tensor import Tensor

CFG = training.TrainConfig(epochs=1, batch_size=16, lr=0.02, momentum=0.9,
                           weight_decay=1e-4, seed=0)
TRAIN_CLIPS = 100


def clips():
    """(100 train clips, held-out clips) of c09's synthetic data at a smaller size."""
    cfg = data.SynthConfig(clips_per_class=24, frames=16, height=32, width=32,
                           object_scale=8, noise=16, seed=0)
    train, held = data.split_dataset(data.gen_synthetic(cfg), eval_fraction=0.25, seed=0)
    return train[:TRAIN_CLIPS], held


def _update(h, name, arr):
    arr = np.asarray(arr)
    h.update(f"{name}:{arr.dtype}:{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())


def train_digest(spec, train_clips, eval_clips):
    """sha256 of one epoch's losses, the trained tensors and the eval confusion."""
    m = model.build_model(spec, seed=CFG.seed)
    history = training.train(m, train_clips, CFG)
    h = hashlib.sha256()
    _update(h, "losses", np.array([loss for _, loss in history.losses]))
    for name, t in m.params.items():
        _update(h, name, t.data)
    _update(h, "confusion", training.evaluate(m, eval_clips).confusion)
    return h.hexdigest()


def resnet50_digest():
    """sha256 of small ResNet-50 logits (infer, train) and a train-mode backward."""
    spec = arch.with_overrides(arch.load_preset("stnet-resnet50"), t=2, res=64)
    m = model.build_model(spec, seed=0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, spec.t, spec.input_channels, 64, 64)).astype(np.float32)
    h = hashlib.sha256()
    _update(h, "infer", model.forward(m.set_mode("infer"), Tensor(x)).data)
    logits = model.forward(m.set_mode("train"), Tensor(x))
    _update(h, "train", logits.data)
    ops.softmax_cross_entropy(logits, np.array([1, 7])).backward()
    for name, t in m.params.items():
        _update(h, name, t.data if t.grad is None else t.grad)
    return h.hexdigest()


def main():
    train_clips, eval_clips = clips()
    toy = arch.load_preset("stnet-toy")
    specs = {"stnet-toy": toy, "tsn-toy": arch.load_preset("tsn-toy"),
             "stnet-toy/ordinary": dataclasses.replace(toy, head="ordinary_tconv")}
    total = hashlib.sha256()
    for name, spec in specs.items():
        digest = train_digest(spec, train_clips, eval_clips)
        print(f"{name:<20} {digest}", flush=True)
        total.update(digest.encode())
    digest = resnet50_digest()
    print(f"{'resnet50-64':<20} {digest}")
    total.update(digest.encode())
    print(f"{'all':<20} {total.hexdigest()}")


if __name__ == "__main__":
    main()
