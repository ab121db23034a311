"""Outside tracer: times calls into stnet's public functions without editing them.

The tracer replaces module and class attributes with timing wrappers when
installed and restores the originals when removed. It wraps every public
function of ``stnet.ops``, ``Tensor.__add__``/``reshape``/``transpose``/
``backward``, ``model.forward``, ``data.make_batch`` and
``training.SGD.step``/``zero_grad``. Each node an op returns gets its
``_backward`` closure wrapped too, so backward time lands on the op and
layer that built the node.

Spans are aggregated in memory as they close (a gradcheck run makes
millions of calls, too many to keep one record each).
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

# Groups of the per-layer metrics. An op whose inputs include a model
# parameter is grouped by that layer's LayerPlan.kind, so merging two op
# functions cannot move time between groups; other ops (activations,
# pools, the loss) are grouped by function name, and an op missing here
# reports under its own name.
KIND_GROUPS = {"conv2d": "conv2d", "conv3d": "conv3d", "bn": "bn",
               "cw": "head", "tw": "head", "conv1d": "head", "fc": "head"}
OP_GROUPS = {"conv2d": "conv2d", "conv3d_t311": "conv3d", "batch_norm": "bn",
             "relu": "relu", "max_pool2d": "max_pool2d",
             **{name: "head" for name in (
                 "conv1d_channelwise", "conv1d_temporalwise", "conv1d_full", "fc",
                 "global_avg_pool2d", "temporal_max_pool", "softmax", "mean_over",
                 "softmax_cross_entropy")}}
PLUMBING = "plumbing"


def count_nodes(root):
    """Tensors reachable from ``root`` through the autodiff graph, root included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._prev:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


def layer_map(stnet, model):
    """{id(parameter tensor): (layer name, LayerPlan.kind)} for ``model``."""
    out = {}
    for plan in stnet.model.layer_plans(model.spec):
        for suffix in plan.params:
            out[id(model.params[f"{plan.name}/{suffix}"])] = (plan.name, plan.kind)
    return out


class Tracer:
    """Per-group and per-layer span totals for one traced phase.

    ``layers`` maps parameter identity to (layer name, kind), as built by
    ``layer_map``; ops on other tensors are grouped by function name.
    """

    def __init__(self, stnet, layers=None):
        self._stnet = stnet
        self.layers = layers or {}
        self.kinds = dict(self.layers.values())      # layer name -> kind
        self._saved = []
        self.group_s = defaultdict(float)    # (group, "fwd"|"bwd") -> seconds
        self.row_s = defaultdict(float)      # (layer name or "(group)", phase) -> seconds
        self.input_grad = {}                 # layer name -> first input requires grad
        self.op_calls = 0
        self.forward_s = 0.0                 # inside model.forward
        self.forward_ops_s = 0.0             # op and plumbing spans inside model.forward
        self.backward_s = 0.0                # inside Tensor.backward
        self.closure_s = 0.0                 # _backward closures
        self.spent = defaultdict(float)      # "make_batch" | "sgd" -> seconds
        self.graph_nodes = 0
        self._in_forward = 0

    # -- installation -------------------------------------------------------

    def __enter__(self):
        st = self._stnet
        for name, fn in sorted(vars(st.ops).items()):
            if (callable(fn) and not name.startswith("_")
                    and getattr(fn, "__module__", None) == st.ops.__name__
                    and not isinstance(fn, type)):
                self._patch(st.ops, name, self._op(fn, OP_GROUPS.get(name, name)))
        tensor_cls = st.tensor.Tensor
        for name in ("__add__", "reshape", "transpose"):
            self._patch(tensor_cls, name, self._op(getattr(tensor_cls, name), PLUMBING))
        self._patch(tensor_cls, "backward", self._backward(tensor_cls.backward))
        self._patch(st.model, "forward", self._forward(st.model.forward))
        self._patch(st.data, "make_batch", self._timed(st.data.make_batch, "make_batch"))
        for name in ("step", "zero_grad"):
            self._patch(st.training.SGD, name, self._timed(getattr(st.training.SGD, name), "sgd"))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
        return False

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _record(self, group, row, phase, dt):
        self.group_s[group, phase] += dt
        self.row_s[row, phase] += dt

    def _op(self, fn, group):
        plumbing = group == PLUMBING

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            dt = perf_counter() - t0
            g, row = group, f"({group})"
            if not plumbing:
                self.op_calls += 1
                for a in args:
                    hit = self.layers.get(id(a))
                    if hit is not None:
                        row, g = hit[0], KIND_GROUPS.get(hit[1], hit[1])
                        self.input_grad[row] = bool(args[0].requires_grad)
                        break
            self._record(g, row, "fwd", dt)
            if self._in_forward:
                self.forward_ops_s += dt
            if out._backward is not None:
                out._backward = self._closure(out._backward, g, row)
            return out
        return traced

    def _closure(self, fn, group, row):
        def traced(grad):
            t0 = perf_counter()
            fn(grad)
            dt = perf_counter() - t0
            self._record(group, row, "bwd", dt)
            self.closure_s += dt
        return traced

    def _backward(self, fn):
        @functools.wraps(fn)
        def traced(tensor, grad=None):
            self.graph_nodes = max(self.graph_nodes, count_nodes(tensor))
            t0 = perf_counter()
            fn(tensor, grad)
            self.backward_s += perf_counter() - t0
        return traced

    def _forward(self, fn):
        @functools.wraps(fn)
        def traced(model, batch):
            self._in_forward += 1
            t0 = perf_counter()
            try:
                out = fn(model, batch)
            finally:
                self.forward_s += perf_counter() - t0
                self._in_forward -= 1
            self.graph_nodes = max(self.graph_nodes, count_nodes(out))
            return out
        return traced

    def _timed(self, fn, key):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[key] += perf_counter() - t0
        return traced

    # -- results ------------------------------------------------------------

    def coverage(self):
        """Share of forward plus backward wall time covered by op spans."""
        whole = self.forward_s + self.backward_s
        return (self.forward_ops_s + self.closure_s) / whole if whole else 0.0

