"""SGD training loop, evaluation, and the component-toggle comparison harness."""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import arch, complexity
from . import data as data_mod
from . import model as model_mod
from . import ops
from .tensor import NumericsError, Tensor


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 16
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0
    lr_decay: float = 0.1
    lr_steps: tuple[int, ...] = ()  # epoch indices at which lr is multiplied by lr_decay

    def __post_init__(self):
        self.lr_steps = tuple(self.lr_steps)
        # Each test is written so that NaN fails it.
        for name, ok, rule in (
                ("lr", 0 < self.lr < math.inf, "finite and > 0"),
                ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                ("weight_decay", 0 <= self.weight_decay < math.inf, "finite and >= 0"),
                ("lr_decay", 0 < self.lr_decay < math.inf, "finite and > 0"),
                ("batch_size", self.batch_size >= 1, ">= 1"),
                ("epochs", self.epochs >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0"),
                ("lr_steps", all(s >= 0 for s in self.lr_steps), "epoch indices >= 0")):
            if not ok:
                raise ValueError(f"{name}: must be {rule}, got {getattr(self, name)!r}")


@dataclass
class Metrics:
    """Top-1, per-class accuracy and the confusion matrix of one evaluation."""
    confusion: np.ndarray       # [K,K]; rows true class, columns prediction

    @property
    def total(self):
        return int(self.confusion.sum())

    @property
    def top1(self):
        return float(np.trace(self.confusion)) / max(self.total, 1)

    @property
    def per_class(self):
        counts = self.confusion.sum(axis=1)
        return np.divide(np.diag(self.confusion), counts,
                         out=np.zeros(len(counts)), where=counts > 0)

    @property
    def mean_class_accuracy(self):
        present = self.confusion.sum(axis=1) > 0
        return float(self.per_class[present].mean()) if present.any() else 0.0

    def subset_accuracy(self, labels):
        """Top-1 restricted to samples whose true class is in ``labels``."""
        labels = list(labels)
        total = self.confusion[labels].sum()
        correct = sum(self.confusion[c, c] for c in labels)
        return float(correct) / max(int(total), 1)

    def to_dict(self):
        return {"top1": self.top1,
                "mean_class_accuracy": self.mean_class_accuracy,
                "per_class": [float(v) for v in self.per_class],
                "confusion": self.confusion.tolist(),
                "total": self.total}


@dataclass
class TrainHistory:
    losses: list = field(default_factory=list)   # (step, loss)

    @property
    def final_loss(self):
        return self.losses[-1][1] if self.losses else float("nan")


class SGD:
    """Momentum SGD with L2 weight decay.

    v <- momentum * v + (grad + weight_decay * p); p <- p - lr * v.
    With momentum and weight decay at zero a step is exactly -lr * grad.
    """

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = [np.zeros_like(t.data) for _, t in self.params]

    def zero_grad(self):
        for _, t in self.params:
            t.zero_grad()

    def step(self):
        """Move every parameter, or none if some gradient or update is not finite.

        Every new velocity and parameter is computed before any is written.
        """
        for name, t in self.params:
            if t.grad is not None and not np.all(np.isfinite(t.grad)):
                raise NumericsError(f"non-finite gradient of parameter {name!r}")
        updates = []
        for (name, t), v in zip(self.params, self.velocity):
            if t.grad is None:
                continue
            g = t.grad
            if self.weight_decay:
                g = g + self.weight_decay * t.data
            new_v = self.momentum * v + g
            new_p = t.data - self.lr * new_v
            if not (np.all(np.isfinite(new_v)) and np.all(np.isfinite(new_p))):
                raise NumericsError(f"non-finite update of parameter {name!r}")
            updates.append((t.data, v, new_p, new_v))
        for p, v, new_p, new_v in updates:
            p[...] = new_p
            v[...] = new_v


def _lr_at(cfg, epoch):
    lr = cfg.lr
    for boundary in cfg.lr_steps:
        if epoch >= boundary:
            lr *= cfg.lr_decay
    return lr


def _check_clips(clips, spec):
    """Reject, before the first forward, a clip that ``spec`` cannot take."""
    for clip in clips:
        if not 0 <= clip.label < spec.num_classes:
            raise ValueError(f"clip {clip.clip_id}: label {clip.label} is outside "
                             f"the model's {spec.num_classes} classes")
        h, w = clip.frames.shape[2:]
        if spec.stages and (h, w) != (spec.height, spec.width):
            raise ValueError(f"clip {clip.clip_id}: frame size {h}x{w} does not match "
                             f"spec {spec.height}x{spec.width}")


def train(model, clips, cfg, log=None):
    """Train in place on a clip list; returns the loss history.

    Deterministic for a given config seed: shuffle order and snippet
    offsets derive from it. A non-finite loss or gradient aborts with the
    epoch/step in the error message, and leaves the parameters and running
    statistics as they were before that step.
    """
    if not clips:
        raise ValueError("training dataset is empty")
    _check_clips(clips, model.spec)
    model.set_mode("train")
    running = [t for t in model.params.values() if not t.requires_grad]
    sampler = data_mod.SamplerConfig(t=model.spec.t, n=model.spec.n, train=True)
    opt = SGD(model.trainable(), cfg.lr, cfg.momentum, cfg.weight_decay)
    rng = np.random.default_rng((cfg.seed, 0xD0))
    history = TrainHistory()
    step = 0
    for epoch in range(cfg.epochs):
        opt.lr = _lr_at(cfg, epoch)
        order = rng.permutation(len(clips))
        first = len(history.losses)
        for lo in range(0, len(clips), cfg.batch_size):
            batch_clips = [clips[i] for i in order[lo:lo + cfg.batch_size]]
            arr, labels = data_mod.make_batch(batch_clips, sampler,
                                              seed=(cfg.seed, epoch, step))
            saved = [t.data.copy() for t in running]
            try:
                logits = model_mod.forward(model, Tensor(arr))
                loss = ops.softmax_cross_entropy(logits, labels)
                opt.zero_grad()
                loss.backward()
                opt.step()
            except NumericsError as exc:
                for t, d in zip(running, saved):
                    t.data[...] = d
                raise DivergenceError(
                    f"diverged at epoch {epoch}, step {step}: {exc}") from exc
            history.losses.append((step, loss.item()))
            step += 1
        if log:
            recent = [v for _, v in history.losses[first:]]
            log(f"epoch {epoch}: lr={opt.lr:.4g} mean_loss={np.mean(recent):.4f}")
    return history


def evaluate(model, clips, batch_size=32):
    """Center-sampled inference metrics over a clip list.

    The forward runs in infer mode on detached views of the model's
    parameters (same buffers, no ``requires_grad``), so it builds no
    autograd graph and leaves ``model`` untouched.
    """
    if not clips:
        raise ValueError("evaluation dataset is empty")
    if batch_size < 1:
        raise ValueError(f"batch_size: must be >= 1, got {batch_size!r}")
    _check_clips(clips, model.spec)
    frozen = model_mod.ModelInstance(
        spec=model.spec, params={k: t.detach() for k, t in model.params.items()},
        mode="infer")
    sampler = data_mod.SamplerConfig(t=model.spec.t, n=model.spec.n, train=False)
    k = model.spec.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    for lo in range(0, len(clips), batch_size):
        batch_clips = clips[lo:lo + batch_size]
        arr, labels = data_mod.make_batch(batch_clips, sampler)
        logits = model_mod.forward(frozen, Tensor(arr))
        pred = logits.data.argmax(axis=1)
        np.add.at(confusion, (labels, pred), 1)
    return Metrics(confusion=confusion)


# ---------------------------------------------------------------------------
# Component toggles (score-averaging baseline up to the full model)
# ---------------------------------------------------------------------------

ABLATION_ROWS = (
    {"superimage": False, "tm": False, "txb": False},
    {"superimage": True, "tm": False, "txb": False},
    {"superimage": True, "tm": True, "txb": False},
    {"superimage": True, "tm": True, "txb": True},
)


def variant_spec(base, superimage, tm, txb):
    """``arch.with_components`` of a fully enabled ``base``, named for its toggles."""
    name = f"{base.name}[si={int(superimage)},tm={int(tm)},txb={int(txb)}]"
    return arch.with_components(dataclasses.replace(base, name=name), superimage, tm, txb)


def run_ablation(train_clips, eval_clips, base_spec, cfg, log=None):
    """Train each distinct toggle variant once, with identical config and seed.

    Returns one row per ``ABLATION_ROWS`` entry: toggles, metrics, final
    loss and ``same_as``. A row that is the same network as an earlier one
    reuses its run, and ``same_as`` names that row's spec (else None).
    """
    results = []
    trained = {}    # variant spec with its name blanked -> the row that trained it
    for toggles in ABLATION_ROWS:
        spec = variant_spec(base_spec, **toggles)
        key = dataclasses.replace(spec, name="")
        row = {"toggles": dict(toggles), "spec_name": spec.name, "same_as": None}
        if key in trained:
            first = trained[key]
            results.append({**first, **row, "same_as": first["spec_name"]})
            if log:
                log(f"{spec.name} is the same network as {first['spec_name']}")
            continue
        m = model_mod.build_model(spec, seed=cfg.seed)
        if log:
            params = complexity.analyze(spec).total_params
            log(f"training {spec.name} ({params:,} trainable values)")
        history = train(m, train_clips, cfg, log=log)
        metrics = evaluate(m, eval_clips)
        row.update(metrics=metrics, final_loss=history.final_loss)
        results.append(row)
        trained[key] = row
        if log:
            log(f"  top1={metrics.top1:.3f} mean_class={metrics.mean_class_accuracy:.3f}")
    return results


def ablation_table(results):
    """Plain-text component-toggle table; a repeated network ends in "= row N"."""
    lines = ["superimage  tm   txb  top1    mean_class",
             "----------  ---  ---  ------  ----------"]
    names = [row["spec_name"] for row in results]
    for row in results:
        t = row["toggles"]
        m = row["metrics"]
        same = f"  = row {names.index(row['same_as']) + 1}" if row["same_as"] else ""
        lines.append(f"{'on' if t['superimage'] else 'off':>10}  "
                     f"{'on' if t['tm'] else 'off':>3}  "
                     f"{'on' if t['txb'] else 'off':>3}  "
                     f"{m.top1:6.3f}  {m.mean_class_accuracy:10.3f}{same}")
    return "\n".join(lines)


def ablation_json(results):
    return json.dumps([{**{"toggles": r["toggles"], "spec": r["spec_name"],
                           "final_loss": r["final_loss"], "same_as": r["same_as"]},
                        **r["metrics"].to_dict()} for r in results], indent=2)


def metrics_table(metrics):
    lines = [f"top-1 accuracy:        {metrics.top1:.4f}",
             f"mean class accuracy:   {metrics.mean_class_accuracy:.4f}",
             "per-class accuracy:"]
    for i, acc in enumerate(metrics.per_class):
        lines.append(f"  {f'class {i}':<14} {acc:.4f}")
    return "\n".join(lines)
