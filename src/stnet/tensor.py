"""Dense tensors with reverse-mode automatic differentiation.

Working precision is float32; build tensors from float64 data (or pass
``dtype=np.float64``) when doing gradient checks.
"""

from __future__ import annotations

import numpy as np


class NumericsError(ArithmeticError):
    """Raised when an operation produces NaN or Inf values."""


def _as_float_array(data, dtype):
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(np.float32)


class Tensor:
    """N-dimensional array with an optional gradient slot.

    Tensors returned by ops carry a closure that routes the output
    gradient back to the op's inputs; ``backward`` replays the closures
    in reverse topological order, accumulating additively into shared
    inputs.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_prev", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_float_array(data, dtype)
        if not np.all(np.isfinite(self.data)):
            raise NumericsError("tensor created with non-finite values")
        self.requires_grad = requires_grad
        self.grad = None
        self.op = "leaf"
        self._prev = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r}, " \
               f"requires_grad={self.requires_grad})"

    def item(self):
        return float(self.data)

    def detach(self):
        """A leaf tensor sharing this tensor's data buffer."""
        t = Tensor.__new__(Tensor)
        t.data = self.data
        t.requires_grad = False
        t.grad = None
        t.op = "leaf"
        t._prev = ()
        t._backward = None
        return t

    def accumulate_grad(self, g, owned=False):
        """Add ``g`` to this tensor's gradient.

        The first gradient is copied into a buffer laid out like ``data``
        (a ``-0.0`` stays ``-0.0``); later ones are added to it in place.
        ``owned`` says that no other array or tensor will read or write
        ``g`` again: a backward closure passes it for a buffer it has just
        made, or for its own node's gradient, which ``backward`` drops once
        the closure has run. An owned first gradient becomes the gradient
        itself, with no copy, when that copy would have the same dtype,
        shape and C-ordered layout: both ``g`` and ``data`` C-contiguous.
        Any other first gradient is copied, so the gradient of a leaf that
        is a transposed view still takes the leaf's strides.
        """
        if self.grad is None:
            if (owned and g.dtype == self.data.dtype and g.shape == self.data.shape
                    and g.flags.c_contiguous and self.data.flags.c_contiguous):
                self.grad = g
            else:
                self.grad = np.empty_like(self.data)
                self.grad[...] = g
        else:
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self, grad=None):
        """Backpropagate from this tensor, then release the graph.

        ``grad`` defaults to ones (the usual case for a scalar loss).
        Each op node is visited exactly once, in reverse topological
        order. Once a node's closure has run, its ``grad``, ``_backward``
        and ``_prev`` are dropped, so each saved activation is freed at
        its last use; leaf grads are kept. A second ``backward`` through
        a released node raises ``RuntimeError``.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"backward seed shape {grad.shape} != tensor shape {self.data.shape}")

        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            if node.requires_grad and node.op != "leaf" and not node._prev:
                raise RuntimeError(
                    f"backward through a released graph: the '{node.op}' node was "
                    "already backpropagated and its graph freed")
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.accumulate_grad(grad)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
            if node.op != "leaf":
                node.grad = None
                node._backward = None
                node._prev = ()

    # Shape plumbing used by the graph executor; differentiable.

    def reshape(self, shape):
        src_shape = self.data.shape

        def backward(g):    # g is the node's own gradient buffer
            self.accumulate_grad(g.reshape(src_shape), owned=True)
        return make_node(self.data.reshape(shape), (self,), "reshape", backward, checked=True)

    def transpose(self, axes):
        axes = tuple(axes)
        inv = tuple(int(i) for i in np.argsort(axes))

        def backward(g):
            self.accumulate_grad(g.transpose(inv))
        return make_node(self.data.transpose(axes), (self,), "transpose", backward,
                         checked=True)

    def __add__(self, other):
        if not isinstance(other, Tensor):
            raise TypeError("can only add Tensor to Tensor")
        if self.data.shape != other.data.shape:
            raise ValueError(
                f"add shape mismatch: {self.data.shape} vs {other.data.shape}")

        def backward(g):
            # g, the node's own gradient buffer, goes to one parent at most:
            # the first takes a copy, so ``x + x`` adds g to that copy.
            if self.requires_grad:
                self.accumulate_grad(g)
            if other.requires_grad:
                other.accumulate_grad(g, owned=True)
        return make_node(self.data + other.data, (self, other), "add", backward)


def make_node(data, parents, op, backward, checked=False):
    """Wrap an op result, verifying finiteness and wiring the graph.

    ``backward(g)`` routes the output gradient ``g`` to the parents. The
    node keeps it, and its parents, only when some parent needs a
    gradient, so inference builds no graph. ``checked`` says that the op
    has already raised on any non-finite value in ``data``: a view of a
    checked tensor, or an op that checks each slice of its output where it
    writes it, on the block pool, and so makes no second pass over it here.
    """
    if not checked and not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by op '{op}'")
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = any(p.requires_grad for p in parents)
    t.grad = None
    t.op = op
    t._prev = tuple(parents) if t.requires_grad else ()
    t._backward = backward if t.requires_grad else None
    return t
