"""Graph assembly: parameter layout, initialization, and the forward pass.

The single source of truth for the network's shape is one walk of an
:class:`~stnet.arch.ArchSpec`: :func:`backbone` yields the backbone's
blocks in execution order, each with its (conv, bn) layer plans, and
:func:`layer_plans` flattens them and appends the head's plans, every
one with its shapes, stride and multiplication count. The
builder, the checkpoint loader and the complexity engine consume
:func:`layer_plans`, and :func:`forward` runs the blocks of the same
walk, so the parameter names and the geometry that is counted are the
ones that are executed. Each head plan follows from its weight shape,
as does every weight's He fan-in.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
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


@dataclass
class Block:
    """One backbone unit, as the forward pass runs it.

    ``pairs`` holds the main path's (conv, bn) plans in order. A relu
    that follows a batch norm runs inside it (``ops.batch_norm(...,
    relu=True)``). A stem runs conv, bn+relu and then, with ``pool``, a
    3x3/2 max pool; a residual block runs bn+relu on every pair but the
    last, whose bn output is added to the shortcut (the ``down`` pair, or
    the identity) before the block's one separate relu; a tm block runs
    its dense 3-tap conv over snippets and bn+relu.
    """
    kind: str                 # stem | residual | tm
    pairs: tuple
    down: tuple = None
    pool: bool = False

    @property
    def name(self):
        """The block's plan-name prefix: ``stage0``, ``stage2/block0`` or ``tm3``."""
        return self.pairs[0][0].name.rsplit("/", 1)[0]


def _conv_out(size, kernel, stride):
    return (size + 2 * (kernel // 2) - kernel) // stride + 1


def _conv_bn(prefix, tag, c_in, c_out, kernel, stride, t, h, w):
    """The (conv, bn) plans ``{prefix}/conv{tag}`` and ``{prefix}/bn{tag}``."""
    ho, wo = _conv_out(h, kernel, stride), _conv_out(w, kernel, stride)
    shape = (t, c_out, ho, wo)
    conv = LayerPlan(f"{prefix}/conv{tag}", "conv2d", {"w": (c_out, c_in, kernel, kernel)},
                     c_out * c_in * kernel * kernel * ho * wo * t, shape, stride)
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
                h, w = _conv_out(h, 3, 2), _conv_out(w, 3, 2)
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
                             c * c * 3 * h * w * t, shape)
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

@contextmanager
def _named(name):
    """Prefix a NumericsError raised in the ``with`` body with ``name``."""
    try:
        yield
    except NumericsError as exc:
        raise NumericsError(f"{name}: {exc}") from exc


def _run_bn(p, prefix, x, training, relu=False):
    with _named(prefix):
        return ops.batch_norm(x, p[f"{prefix}/alpha"], p[f"{prefix}/beta"],
                              p[f"{prefix}/mean"], p[f"{prefix}/var"],
                              training=training, relu=relu)


def _run_conv_bn(p, conv, bn, x, training, relu=False):
    with _named(conv.name):
        x = ops.conv2d(x, p[f"{conv.name}/w"], stride=conv.stride)
    return _run_bn(p, bn.name, x, training, relu)


def _run_block(p, block, x, training):
    """One backbone block on a channel-major [C, B*T, H, W] activation.

    A non-finite value is named by the layer plan that made it
    (``stage2/block0/conv1``, ``tm3/bn``), or by the block for the pool,
    the residual add and its relu.
    """
    if block.kind == "tm":
        ((conv, bn),) = block.pairs
        # The [C, C, 3] weight is a (3, 1) conv2d kernel over the snippet axis of
        # a [C, B, T, H*W] view. The output goes to the batch norm as it is (one
        # sum run per channel and clip), then back to [C, B*T, H, W], uncopied.
        c, bt, h, w = x.shape
        t = conv.out_shape[0]
        with _named(conv.name):
            y = ops.conv2d(x.reshape((c, bt // t, t, h * w)),
                           p[f"{conv.name}/w"].reshape((c, c, 3, 1)))
        return _run_bn(p, bn.name, y, training, relu=True).reshape(x.shape)
    y = x
    last = len(block.pairs) - 1
    for k, (conv, bn) in enumerate(block.pairs):
        # Every pair's batch norm takes its relu but a residual block's last.
        y = _run_conv_bn(p, conv, bn, y, training, relu=k < last or block.kind == "stem")
    if block.kind == "stem":
        with _named(block.name):
            return ops.max_pool2d(y) if block.pool else y
    shortcut = x if block.down is None else _run_conv_bn(p, *block.down, x, training)
    with _named(block.name):
        return ops.relu(y + shortcut)


def txb_branches(model, seq):
    """Long- and short-branch sequences of the TXB head, before fusion.

    ``seq`` is a [B,T,C_in] feature sequence; used directly by the
    receptive-field checks.
    """
    p = model.params
    training = model.mode == "train"
    # The batch norm runs on the [C, B*T] transpose of the sequence.
    c = seq.shape[-1]
    v = _run_bn(p, "txb/bn", seq.reshape((-1, c)).transpose((1, 0)), training)
    v = v.transpose((1, 0)).reshape(seq.shape)
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
    scores = ops.softmax(ops.linear(seq, p["head/fc/w"], p["head/fc/b"]))
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
    fc outputs. A NumericsError is re-raised with the name of the layer
    (``stage2/block0/conv1``, ``tm3/bn``), the block (``stage2/block0``
    for its residual add) or ``head`` it came from.

    The backbone carries channel-major [C, B*T, H, W] activations.
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
        x = batch.reshape((b * t,) + tuple(batch.shape[2:])).transpose((1, 0, 2, 3))
        for block in backbone(spec):
            x = _run_block(model.params, block, x, training)
        seq = ops.mean_over(x, (2, 3)).transpose((1, 0)).reshape((b, t, x.shape[0]))
    else:
        if batch.ndim != 3 or batch.shape[2] != spec.feature_dim:
            raise ValueError(
                f"batch shape {tuple(batch.shape)} does not match "
                f"[B,T,{spec.feature_dim}]")
        seq = batch
    run_head = {"txb": _run_txb_head, "avg_score": _run_avg_head,
                "ordinary_tconv": _run_ordinary_head}[spec.head]
    with _named("head"):
        return run_head(model, seq)
