"""Graph assembly: parameter layout, initialization, and the forward pass.

The single source of truth for the network's shape is one walk of an
:class:`~stnet.arch.ArchSpec`: :func:`backbone` yields the backbone's
blocks in execution order, each with its (conv, bn) layer plans, and
:func:`layer_plans` flattens them and appends the head's plans, every
one with its shapes, stride, padding and multiplication count. The
builder, the checkpoint loader and the complexity engine consume
:func:`layer_plans`, and :func:`forward` runs the blocks of the same
walk, so the parameter names and the geometry that is counted are the
ones that are executed. Each head plan follows from its weight shape,
as does every weight's He fan-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import arch, ops
from .tensor import NumericsError, Tensor

BN_PARAM_SUFFIXES = ("alpha", "beta", "mean", "var")
RUNNING_STAT_SUFFIXES = ("mean", "var")


@dataclass
class LayerPlan:
    name: str                 # parameter path prefix, e.g. "stage2/block0/conv1"
    kind: str                 # conv2d | conv3d | bn | cw | tw | conv1d | fc
    params: dict              # suffix -> shape
    macs: int                 # multiplications per inference pass (T included)
    out_shape: tuple          # per-clip output extents
    stride: int = 1           # spatial stride of a conv2d plan
    padding: int = 0          # zero padding of a conv plan (kernel // 2)


@dataclass
class Block:
    """One backbone unit, as the forward pass runs it.

    ``pairs`` holds the main path's (conv, bn) plans in order. A stem
    runs conv, bn, relu and then, with ``pool``, a 3x3/2 max pool; a
    residual block puts a relu between pairs and adds the shortcut (the
    ``down`` pair, or the identity) before its final relu; a tm block
    runs its dense 3-tap conv over snippets, bn and relu.
    """
    kind: str                 # stem | residual | tm
    pairs: tuple
    down: tuple = None
    pool: bool = False

    @property
    def name(self):
        """The block's plan-name prefix: ``stage0``, ``stage2/block0`` or ``tm3``."""
        return self.pairs[0][0].name.rsplit("/", 1)[0]


def _conv_out(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def _conv_bn(prefix, tag, c_in, c_out, kernel, stride, t, h, w):
    """The (conv, bn) plans ``{prefix}/conv{tag}`` and ``{prefix}/bn{tag}``."""
    pad = kernel // 2
    ho, wo = _conv_out(h, kernel, stride, pad), _conv_out(w, kernel, stride, pad)
    shape = (t, c_out, ho, wo)
    conv = LayerPlan(f"{prefix}/conv{tag}", "conv2d", {"w": (c_out, c_in, kernel, kernel)},
                     c_out * c_in * kernel * kernel * ho * wo * t, shape, stride, pad)
    return conv, _bn_plan(f"{prefix}/bn{tag}", c_out, shape)


def _bn_plan(name, c, out_shape):
    return LayerPlan(name, "bn", {s: (c,) for s in BN_PARAM_SUFFIXES}, 0, out_shape)


def _head_plan(name, kind, wshape, steps):
    """A head layer with weight ``wshape`` and a bias, applied at ``steps`` snippets."""
    out_shape = (wshape[0],) if kind == "fc" else (steps, wshape[0])  # fc: one per clip
    return LayerPlan(name, kind, {"w": wshape, "b": wshape[:1]},
                     steps * math.prod(wshape), out_shape)


def _block_convs(kind, c_in, c_out, stride):
    """(C_in, C_out, kernel, stride) of each main-path conv of a residual block."""
    if kind == "basic":
        return [(c_in, c_out, 3, stride), (c_out, c_out, 3, 1)]
    mid = c_out // 4  # bottleneck; spatial stride sits on the 3x3 conv
    return [(c_in, mid, 1, 1), (mid, mid, 3, stride), (mid, c_out, 1, 1)]


def backbone(spec):
    """The backbone's blocks in execution order (none for a head-only spec)."""
    arch.validate(spec)
    blocks = []
    t, c, h, w = spec.t, spec.input_channels, spec.height, spec.width
    for i, st in enumerate(spec.stages):
        if st.kind == "conv":
            pair = _conv_bn(f"stage{i}", "", c, st.channels, st.kernel, st.stride, t, h, w)
            blocks.append(Block("stem", (pair,), pool=st.pool))
            _, c, h, w = pair[1].out_shape
            if st.pool:
                h, w = _conv_out(h, 3, 2, 1), _conv_out(w, 3, 2, 1)
        else:
            for j in range(st.repeat):
                stride = st.stride if j == 0 else 1
                prefix = f"stage{i}/block{j}"
                pairs, ho, wo = [], h, w
                for k, conv in enumerate(_block_convs(st.kind, c, st.channels, stride), 1):
                    pairs.append(_conv_bn(prefix, k, *conv, t, ho, wo))
                    ho, wo = pairs[-1][1].out_shape[2:]
                down = None
                if stride != 1 or c != st.channels:
                    down = _conv_bn(f"{prefix}/down", "", c, st.channels, 1, stride, t, h, w)
                blocks.append(Block("residual", tuple(pairs), down))
                c, h, w = st.channels, ho, wo
        if i in spec.tm_after:
            shape = (t, c, h, w)
            conv = LayerPlan(f"tm{i}/conv", "conv3d", {"w": (c, c, 3)},
                             c * c * 3 * h * w * t, shape, 1, 1)
            blocks.append(Block("tm", ((conv, _bn_plan(f"tm{i}/bn", c, shape)),)))
    return blocks


def layer_plans(spec):
    """Every parameterized layer of ``spec``, in execution order."""
    blocks = backbone(spec)
    plans = [plan for blk in blocks
             for pair in blk.pairs + ((blk.down,) if blk.down else ())
             for plan in pair]
    t, k, co = spec.t, spec.num_classes, spec.txb_channels
    feat = plans[-1].out_shape[1] if blocks else spec.feature_dim
    if spec.head == "txb":
        plans += [_bn_plan("txb/bn", feat, (t, feat)),
                  _head_plan("txb/long/cw1", "cw", (feat, 3), t),
                  _head_plan("txb/long/tw1", "tw", (co, feat), t),
                  _head_plan("txb/long/cw2", "cw", (co, 3), t),
                  _head_plan("txb/long/tw2", "tw", (co, co), t),
                  _head_plan("txb/short/tw", "tw", (co, feat), t),
                  _head_plan("head/fc", "fc", (k, co), 1)]
    elif spec.head == "avg_score":
        plans.append(_head_plan("head/fc", "fc", (k, feat), t))
    else:  # ordinary_tconv
        plans += [_head_plan("head/conv1", "conv1d", (co, feat, 3), t),
                  _head_plan("head/conv2", "conv1d", (co, co, 3), t),
                  _head_plan("head/fc", "fc", (k, co), 1)]
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


def init_tm_block(c):
    """Initial parameters for a temporal modeling block over ``c`` channels.

    The bias-free [C, C, 3] conv weight is the constant 1/(3*C), so each
    output channel starts as the mean of the 3-frame window across
    channels; the batch norm starts as an identity map.
    """
    return {"conv/w": np.full((c, c, 3), 1.0 / (3 * c), dtype=np.float32),
            **{f"bn/{k}": v for k, v in _identity_bn(c).items()}}


def _he(rng, shape):
    """He-normal weights; the fan-in is every axis but the first (output) one."""
    fan_in = math.prod(shape[1:])
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
    for plan in layer_plans(spec):
        wshape = plan.params.get("w")
        if plan.kind == "bn":
            arrays = _identity_bn(plan.params["alpha"][0])
        elif plan.kind == "conv3d":
            arrays = {"w": init_tm_block(wshape[0])["conv/w"]}
        elif plan.name == "stage0/conv":  # the stem: a 3-channel kernel, inflated
            w3 = _he(rng, (wshape[0], 3) + wshape[2:])
            arrays = {"w": inflate_first_conv(w3, spec.n).astype(np.float32)}
        else:  # He weights; head biases start at zero
            arrays = {s: _he(rng, shape) if s == "w" else np.zeros(shape, np.float32)
                      for s, shape in plan.params.items()}
        for suffix, arr in arrays.items():
            params[f"{plan.name}/{suffix}"] = Tensor(
                arr, requires_grad=suffix not in RUNNING_STAT_SUFFIXES)
    return ModelInstance(spec=spec, params=params)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def _run_bn(p, prefix, x, axis, training):
    return ops.batch_norm(x, p[f"{prefix}/alpha"], p[f"{prefix}/beta"],
                          p[f"{prefix}/mean"], p[f"{prefix}/var"],
                          axis=axis, training=training)


def _run_conv_bn(p, conv, bn, x, training):
    x = ops.conv2d(x, p[f"{conv.name}/w"], stride=conv.stride, padding=conv.padding)
    return _run_bn(p, bn.name, x, 1, training)


def _run_block(p, block, x, training):
    """One backbone block on a [B*T,C,H,W] activation."""
    if block.kind == "tm":
        ((conv, bn),) = block.pairs
        # The [C, C, 3] weight is a dense 3-tap conv over the snippet axis; H, W ride
        # along. Its output is channel-major in memory, so the final reshape copies.
        y = ops.temporal_conv3(x.reshape((-1,) + conv.out_shape), p[f"{conv.name}/w"])
        return ops.relu(_run_bn(p, bn.name, y, 2, training)).reshape(x.shape)
    y = x
    for k, (conv, bn) in enumerate(block.pairs):
        y = _run_conv_bn(p, conv, bn, ops.relu(y) if k else y, training)
    if block.kind == "stem":
        y = ops.relu(y)
        return ops.max_pool2d(y) if block.pool else y
    shortcut = x if block.down is None else _run_conv_bn(p, *block.down, x, training)
    return ops.relu(y + shortcut)


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
    fc outputs. A NumericsError is re-raised with the name of the block
    (``stage0``, ``stage2/block0``, ``tm3``) or ``head`` it came from.
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
        for block in backbone(spec):
            try:
                x = _run_block(model.params, block, x, training)
            except NumericsError as exc:
                raise NumericsError(f"{block.name}: {exc}") from exc
        seq = ops.mean_over(x, (2, 3)).reshape((b, t, x.shape[1]))
    else:
        if batch.ndim != 3 or batch.shape[2] != spec.feature_dim:
            raise ValueError(
                f"batch shape {tuple(batch.shape)} does not match "
                f"[B,T,{spec.feature_dim}]")
        seq = batch
    run_head = {"txb": _run_txb_head, "avg_score": _run_avg_head,
                "ordinary_tconv": _run_ordinary_head}[spec.head]
    try:
        return run_head(model, seq)
    except NumericsError as exc:
        raise NumericsError(f"head: {exc}") from exc
