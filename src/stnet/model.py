"""Graph assembly: parameter layout, initialization, and the forward pass.

The single source of truth for the network's shape is
:func:`layer_plans`, which walks an :class:`~stnet.arch.ArchSpec` and
yields every parameterized layer with its shapes and multiplication
count. The builder, the checkpoint loader, and the complexity engine all
consume the same walk, so their parameter name sets agree by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import arch, ops
from .tensor import Tensor

BN_PARAM_SUFFIXES = ("alpha", "beta", "mean", "var")
RUNNING_STAT_SUFFIXES = ("mean", "var")


@dataclass
class LayerPlan:
    name: str                 # parameter path prefix, e.g. "stage2/block0/conv1"
    kind: str                 # conv2d | conv3d | bn | cw | tw | conv1d | fc
    params: dict              # suffix -> shape
    macs: int                 # multiplications per inference pass (T included)
    out_shape: tuple          # per-clip output extents


def _conv_out(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def _conv2d_plan(name, c_in, c_out, kernel, t, ho, wo):
    return LayerPlan(name, "conv2d",
                     {"w": (c_out, c_in, kernel, kernel)},
                     c_out * c_in * kernel * kernel * ho * wo * t,
                     (t, c_out, ho, wo))


def _bn_plan(name, c, out_shape):
    return LayerPlan(name, "bn", {s: (c,) for s in BN_PARAM_SUFFIXES}, 0, out_shape)


def layer_plans(spec):
    """Every parameterized layer of ``spec``, in execution order."""
    arch.validate(spec)
    plans = []
    t = spec.t

    if spec.stages:
        c, h, w = spec.input_channels, spec.height, spec.width
        for i, st in enumerate(spec.stages):
            if st.kind == "conv":
                pad = st.kernel // 2
                h, w = _conv_out(h, st.kernel, st.stride, pad), \
                    _conv_out(w, st.kernel, st.stride, pad)
                plans.append(_conv2d_plan(f"stage{i}/conv", c, st.channels,
                                          st.kernel, t, h, w))
                plans.append(_bn_plan(f"stage{i}/bn", st.channels, (t, st.channels, h, w)))
                c = st.channels
                if st.pool:
                    h, w = _conv_out(h, 3, 2, 1), _conv_out(w, 3, 2, 1)
            else:
                for j in range(st.repeat):
                    stride = st.stride if j == 0 else 1
                    prefix = f"stage{i}/block{j}"
                    ho, wo = _conv_out(h, 3, stride, 1), _conv_out(w, 3, stride, 1)
                    shape = (t, st.channels, ho, wo)
                    if st.kind == "basic":
                        plans.append(_conv2d_plan(f"{prefix}/conv1", c, st.channels,
                                                  3, t, ho, wo))
                        plans.append(_bn_plan(f"{prefix}/bn1", st.channels, shape))
                        plans.append(_conv2d_plan(f"{prefix}/conv2", st.channels,
                                                  st.channels, 3, t, ho, wo))
                        plans.append(_bn_plan(f"{prefix}/bn2", st.channels, shape))
                    else:  # bottleneck; spatial stride sits on the 3x3 conv
                        mid = st.channels // 4
                        plans.append(_conv2d_plan(f"{prefix}/conv1", c, mid, 1, t, h, w))
                        plans.append(_bn_plan(f"{prefix}/bn1", mid, (t, mid, h, w)))
                        plans.append(_conv2d_plan(f"{prefix}/conv2", mid, mid, 3, t, ho, wo))
                        plans.append(_bn_plan(f"{prefix}/bn2", mid, (t, mid, ho, wo)))
                        plans.append(_conv2d_plan(f"{prefix}/conv3", mid, st.channels,
                                                  1, t, ho, wo))
                        plans.append(_bn_plan(f"{prefix}/bn3", st.channels, shape))
                    if stride != 1 or c != st.channels:
                        plans.append(_conv2d_plan(f"{prefix}/down/conv", c, st.channels,
                                                  1, t, ho, wo))
                        plans.append(_bn_plan(f"{prefix}/down/bn", st.channels, shape))
                    c, h, w = st.channels, ho, wo
            if spec.enable_tm and i in spec.tm_after:
                plans.append(LayerPlan(
                    f"tm{i}/conv", "conv3d",
                    {"w": (c, c, 3)},
                    c * c * 3 * h * w * t, (t, c, h, w)))
                plans.append(_bn_plan(f"tm{i}/bn", c, (t, c, h, w)))
        feat = c
    else:
        feat = spec.feature_dim

    head = spec.effective_head()
    k = spec.num_classes
    if head == "txb":
        co = spec.txb_channels
        plans.append(_bn_plan("txb/bn", feat, (t, feat)))
        plans.append(LayerPlan("txb/long/cw1", "cw", {"w": (feat, 3), "b": (feat,)},
                               t * feat * 3, (t, feat)))
        plans.append(LayerPlan("txb/long/tw1", "tw", {"w": (co, feat), "b": (co,)},
                               t * feat * co, (t, co)))
        plans.append(LayerPlan("txb/long/cw2", "cw", {"w": (co, 3), "b": (co,)},
                               t * co * 3, (t, co)))
        plans.append(LayerPlan("txb/long/tw2", "tw", {"w": (co, co), "b": (co,)},
                               t * co * co, (t, co)))
        plans.append(LayerPlan("txb/short/tw", "tw", {"w": (co, feat), "b": (co,)},
                               t * feat * co, (t, co)))
        plans.append(LayerPlan("head/fc", "fc", {"w": (k, co), "b": (k,)},
                               co * k, (k,)))
    elif head == "avg_score":
        plans.append(LayerPlan("head/fc", "fc", {"w": (k, feat), "b": (k,)},
                               t * feat * k, (k,)))
    else:  # ordinary_tconv
        co = spec.txb_channels
        plans.append(LayerPlan("head/conv1", "conv1d", {"w": (co, feat, 3), "b": (co,)},
                               t * co * feat * 3, (t, co)))
        plans.append(LayerPlan("head/conv2", "conv1d", {"w": (co, co, 3), "b": (co,)},
                               t * co * co * 3, (t, co)))
        plans.append(LayerPlan("head/fc", "fc", {"w": (k, co), "b": (k,)},
                               co * k, (k,)))
    return plans


def parameter_shapes(spec):
    """Full parameter-name -> shape map (running statistics included)."""
    return {f"{p.name}/{suffix}": shape
            for p in layer_plans(spec) for suffix, shape in p.params.items()}


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------

def inflate_first_conv(weight2d, n):
    """Stretch a 3-channel kernel to 3N input channels.

    The kernel is replicated N times along input channels and divided by
    N, so the response to N identical stacked frames equals the original
    2D response.
    """
    weight2d = np.asarray(weight2d)
    if weight2d.ndim != 4 or weight2d.shape[1] != 3:
        raise ValueError(f"expected [C_out,3,kh,kw] kernel, got {weight2d.shape}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.tile(weight2d, (1, n, 1, 1)) / n


def init_tm_block(c_in, c_out=None):
    """Initial parameters for a temporal modeling block.

    The bias-free [C_out, C_in, 3] conv weight is the constant 1/(3*C_in),
    so each output channel starts as the mean of the 3-frame window across
    channels; the batch norm starts as an identity map.
    """
    c_out = c_in if c_out is None else c_out
    return {
        "conv/w": np.full((c_out, c_in, 3), 1.0 / (3 * c_in), dtype=np.float32),
        "bn/alpha": np.ones(c_out, dtype=np.float32),
        "bn/beta": np.zeros(c_out, dtype=np.float32),
        "bn/mean": np.zeros(c_out, dtype=np.float32),
        "bn/var": np.full(c_out, 1.0 - ops.BN_EPS, dtype=np.float32),
    }


def _he(rng, shape, fan_in):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)


def _identity_bn(c):
    return {"alpha": np.ones(c, np.float32), "beta": np.zeros(c, np.float32),
            "mean": np.zeros(c, np.float32),
            "var": np.full(c, 1.0 - ops.BN_EPS, np.float32)}


@dataclass
class ModelInstance:
    """An ArchSpec bound to concrete parameters and batch-norm buffers.

    Parameter names are stable slash-delimited paths. Trainable tensors
    have ``requires_grad``; running statistics do not.
    """
    spec: arch.ArchSpec
    params: dict
    mode: str = "train"

    def set_mode(self, mode):
        if mode not in ("train", "infer"):
            raise ValueError(f"mode must be 'train' or 'infer', got {mode!r}")
        self.mode = mode
        return self

    def trainable(self):
        return [(n, t) for n, t in self.params.items() if t.requires_grad]

    def num_parameters(self):
        return sum(t.size for _, t in self.trainable())


def build_model(spec, seed=0):
    """Allocate and initialize every parameter of ``spec``.

    Backbone convs are He-initialized (the first one through 3-channel
    inflation), temporal blocks start as window means with identity BN,
    and the head's biases start at zero. Deterministic for a given seed.
    """
    arch.validate(spec)
    rng = np.random.default_rng(seed)
    params = {}
    first_conv = bool(spec.stages)
    for plan in layer_plans(spec):
        wshape = plan.params.get("w")
        if plan.kind == "bn":
            arrays = _identity_bn(plan.params["alpha"][0])
        elif plan.kind == "conv3d":
            arrays = {"w": init_tm_block(wshape[1], wshape[0])["conv/w"]}
        elif plan.kind == "conv2d":
            c_out, c_in, kh, kw = wshape
            if first_conv:
                w3 = _he(rng, (c_out, 3, kh, kw), 3 * kh * kw)
                arrays = {"w": inflate_first_conv(w3, spec.n).astype(np.float32)}
                first_conv = False
            else:
                arrays = {"w": _he(rng, wshape, c_in * kh * kw)}
        else:  # fan-in: 3 taps for cw, C_in * 3 for conv1d, C_in for tw and fc
            fan_in = {"cw": 3, "conv1d": wshape[1] * 3}.get(plan.kind, wshape[1])
            arrays = {"w": _he(rng, wshape, fan_in), "b": np.zeros(wshape[0], np.float32)}
        for suffix, arr in arrays.items():
            params[f"{plan.name}/{suffix}"] = Tensor(
                arr, requires_grad=suffix not in RUNNING_STAT_SUFFIXES)
    return ModelInstance(spec=spec, params=params)


def build_txb(txb_spec, seed=0, t=25):
    """A standalone temporal-Xception head over [B,T,C_in] sequences."""
    head_spec = arch.validate(arch.ArchSpec(
        name="txb-head", t=t, n=1, height=1, width=1,
        num_classes=txb_spec.num_classes, feature_dim=txb_spec.c_in,
        txb_channels=txb_spec.c_out, enable_superimage=False, enable_tm=False))
    return build_model(head_spec, seed)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _run_bn(p, prefix, x, axis, training):
    return ops.batch_norm(x, p[f"{prefix}/alpha"], p[f"{prefix}/beta"],
                          p[f"{prefix}/mean"], p[f"{prefix}/var"],
                          axis=axis, training=training)


def _run_conv_bn(p, prefix_conv, prefix_bn, x, stride, padding, training):
    x = ops.conv2d(x, p[f"{prefix_conv}/w"], stride=stride, padding=padding)
    return _run_bn(p, prefix_bn, x, 1, training)


def _run_stage(p, i, st, x, training):
    if st.kind == "conv":
        x = ops.relu(_run_conv_bn(p, f"stage{i}/conv", f"stage{i}/bn", x,
                                  st.stride, st.kernel // 2, training))
        return ops.max_pool2d(x) if st.pool else x
    for j in range(st.repeat):
        stride = st.stride if j == 0 else 1
        prefix = f"stage{i}/block{j}"
        need_down = stride != 1 or x.shape[1] != st.channels
        if st.kind == "basic":
            y = ops.relu(_run_conv_bn(p, f"{prefix}/conv1", f"{prefix}/bn1",
                                      x, stride, 1, training))
            y = _run_conv_bn(p, f"{prefix}/conv2", f"{prefix}/bn2", y, 1, 1, training)
        else:
            y = ops.relu(_run_conv_bn(p, f"{prefix}/conv1", f"{prefix}/bn1",
                                      x, 1, 0, training))
            y = ops.relu(_run_conv_bn(p, f"{prefix}/conv2", f"{prefix}/bn2",
                                      y, stride, 1, training))
            y = _run_conv_bn(p, f"{prefix}/conv3", f"{prefix}/bn3", y, 1, 0, training)
        shortcut = x
        if need_down:
            shortcut = _run_conv_bn(p, f"{prefix}/down/conv", f"{prefix}/down/bn",
                                    x, stride, 0, training)
        x = ops.relu(y + shortcut)
    return x


def _run_tm(p, i, x, b, t, training):
    bt, c, h, w = x.shape
    # The [C, C, 3] weight is a dense 3-tap conv over the snippet axis; H, W ride
    # along. Its output is channel-major in memory, so the final reshape copies.
    y = ops.temporal_conv3(x.reshape((b, t, c, h, w)), p[f"tm{i}/conv/w"])
    y = ops.relu(_run_bn(p, f"tm{i}/bn", y, 2, training))
    return y.reshape((bt, c, h, w))


def txb_branches(model, seq):
    """Long- and short-branch sequences of the TXB head, before fusion.

    ``seq`` is a [B,T,C_in] (or [T,C_in]) feature sequence; used directly
    by the receptive-field checks.
    """
    p = model.params
    training = model.mode == "train"
    v = _run_bn(p, "txb/bn", seq, seq.ndim - 1, training)
    short = ops.linear(v, p["txb/short/tw/w"], p["txb/short/tw/b"])
    long = ops.temporal_conv3(v, p["txb/long/cw1/w"], p["txb/long/cw1/b"])
    long = ops.relu(ops.linear(long, p["txb/long/tw1/w"], p["txb/long/tw1/b"]))
    long = ops.temporal_conv3(long, p["txb/long/cw2/w"], p["txb/long/cw2/b"])
    long = ops.relu(ops.linear(long, p["txb/long/tw2/w"], p["txb/long/tw2/b"]))
    return long, short


def _run_txb_head(model, seq):
    long, short = txb_branches(model, seq)
    fused = ops.relu(long + short)
    pooled = ops.temporal_max_pool(fused)
    p = model.params
    return ops.linear(pooled, p["head/fc/w"], p["head/fc/b"])


def _run_avg_head(model, seq):
    p = model.params
    scores = ops.softmax(ops.linear(seq, p["head/fc/w"], p["head/fc/b"]), axis=2)
    return ops.mean_over(scores, axis=1)


def _run_ordinary_head(model, seq):
    p = model.params
    h = ops.relu(ops.temporal_conv3(seq, p["head/conv1/w"], p["head/conv1/b"]))
    h = ops.relu(ops.temporal_conv3(h, p["head/conv2/w"], p["head/conv2/b"]))
    pooled = ops.temporal_max_pool(h)
    return ops.linear(pooled, p["head/fc/w"], p["head/fc/b"])


def forward(model, batch):
    """Logit scores for a batch.

    Backbone specs take [B,T,3N,H,W] super-image batches; head-only
    specs take a [B,T,C] feature sequence. The avg_score head returns
    averaged per-snippet softmax scores (so its output is
    permutation-invariant over snippets); the other heads return raw
    fc outputs.
    """
    spec = model.spec
    training = model.mode == "train"
    if spec.stages:
        expected = (spec.t, spec.input_channels, spec.height, spec.width)
        if batch.ndim != 5 or tuple(batch.shape[1:]) != expected:
            raise ValueError(
                f"batch shape {tuple(batch.shape)} does not match spec "
                f"[B,{','.join(str(e) for e in expected)}]")
        b, t = batch.shape[:2]
        x = batch.reshape((b * t,) + tuple(batch.shape[2:]))
        for i, st in enumerate(spec.stages):
            x = _run_stage(model.params, i, st, x, training)
            if spec.enable_tm and i in spec.tm_after:
                x = _run_tm(model.params, i, x, b, t, training)
        seq = ops.global_avg_pool2d(x).reshape((b, t, x.shape[1]))
    else:
        if batch.ndim != 3 or batch.shape[2] != spec.feature_dim:
            raise ValueError(
                f"batch shape {tuple(batch.shape)} does not match "
                f"[B,T,{spec.feature_dim}]")
        seq = batch
    head = spec.effective_head()
    if head == "txb":
        return _run_txb_head(model, seq)
    if head == "avg_score":
        return _run_avg_head(model, seq)
    return _run_ordinary_head(model, seq)
