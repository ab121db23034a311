"""How much memory does a train step's graph hold? tracemalloc over one step.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/stepmem.py

Runs one train-mode step of ``stnet-toy`` at batch 16 (the benchmark's
train workload) and of ``stnet-resnet50`` at T=2, 64x64 on two clips,
each after one warm-up step, and prints for each:

- held: MB the forward allocated and still holds when it returns, that is
  the graph's activations and whatever the backward closures keep;
- peak: the most MB held at once through the backward, counted from the
  same start;
- by op: MB of the arrays that only a backward closure keeps alive (not a
  graph node's output, a parameter or the labels), summed per op.

numpy reports its array buffers to tracemalloc, so these are the arrays'
bytes; BLAS work buffers and allocator slack are not counted. Takes a few
seconds. The file name keeps it out of pytest collection.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter

import numpy as np

from stnet import arch, data, model, ops
from stnet.tensor import Tensor

from test_graph import _closure_arrays, _graph_nodes, toy_clips

MB = 1e6


def _owner(arr):
    """The array that owns ``arr``'s buffer."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def closure_bytes_by_op(loss, m, labels):
    """Bytes of the buffers that only backward closures keep, per op."""
    nodes = _graph_nodes(loss)
    kept = {id(_owner(t.data)) for t in nodes} | {id(_owner(t.data)) for t in m.params.values()}
    kept.add(id(_owner(np.asarray(labels))))
    by_op, counted = Counter(), set()
    for node in nodes:
        if node._backward is None:
            continue
        for arr in _closure_arrays(node._backward):
            buf = _owner(arr)
            if id(buf) not in kept and id(buf) not in counted:
                counted.add(id(buf))
                by_op[node.op] += buf.nbytes
    return by_op


def step_memory(m, batch, labels):
    """(held MB after the forward, peak MB through the backward, closure bytes by op)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss = ops.softmax_cross_entropy(model.forward(m, batch), labels)
        held = tracemalloc.get_traced_memory()[0] - start
        by_op = closure_bytes_by_op(loss, m, labels)
        tracemalloc.reset_peak()
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return held / MB, peak / MB, by_op


def cases():
    """(name, model, batch tensor, labels) of each measured step."""
    toy = arch.load_preset("stnet-toy")
    sampler = data.SamplerConfig(t=toy.t, n=toy.n, train=True)
    arr, labels = data.make_batch(toy_clips(16, seed=0), sampler, seed=0)
    yield "stnet-toy b16", model.build_model(toy, seed=0), Tensor(arr), labels
    spec = arch.with_overrides(arch.load_preset("stnet-resnet50"), t=2, res=64)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, spec.t, spec.input_channels, 64, 64)).astype(np.float32)
    yield "resnet50 T2 64x64", model.build_model(spec, seed=0), Tensor(x), np.array([1, 7])


def main():
    for name, m, batch, labels in cases():
        ops.softmax_cross_entropy(model.forward(m, batch), labels).backward()    # warm-up
        for _, t in m.trainable():
            t.zero_grad()
        held, peak, by_op = step_memory(m, batch, labels)
        ops_held = "  ".join(f"{op} {b / MB:.2f}" for op, b in by_op.most_common())
        print(f"{name:<18} held {held:6.1f} MB  peak {peak:6.1f} MB  "
              f"closures {sum(by_op.values()) / MB:5.1f} MB: {ops_held or '-'}", flush=True)


if __name__ == "__main__":
    main()
