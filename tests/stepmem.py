"""How much memory does a train step's graph hold? tracemalloc over one step.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/stepmem.py

Runs one train-mode step of ``stnet-toy`` at batch 16 (the benchmark's
train workload) and of ``stnet-resnet50`` at T=2, 64x64 on two clips, and
one infer-mode forward of ``stnet-toy`` at batch 32 on detached
parameters, as ``training.evaluate`` runs it (the benchmark's eval
workload), each after one warm-up run, and prints for each:

- held: MB the forward allocated and still holds when it returns, that is
  the graph's activations and whatever the backward closures keep;
- fwd peak: the most MB held at once through the forward, counted from
  its start, which includes each op's own scratch arrays;
- peak: the most MB held at once through the backward, counted from the
  same start (train steps only);
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
    """(held MB after the forward, peak MB through the forward, peak MB through
    the backward, closure bytes by op); an infer step (``labels`` None) has
    no backward, so its backward peak is None and it keeps no closures."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = model.forward(m, batch)
        if labels is not None:
            out = ops.softmax_cross_entropy(out, labels)
        held, fwd_peak = (v - start for v in tracemalloc.get_traced_memory())
        if labels is None:
            return held / MB, fwd_peak / MB, None, Counter()
        by_op = closure_bytes_by_op(out, m, labels)
        tracemalloc.reset_peak()
        out.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return held / MB, fwd_peak / MB, peak / MB, by_op


def cases():
    """(name, model, batch tensor, labels or None for an infer step) of each step."""
    toy = arch.load_preset("stnet-toy")
    sampler = data.SamplerConfig(t=toy.t, n=toy.n, train=True)
    arr, labels = data.make_batch(toy_clips(16, seed=0), sampler, seed=0)
    yield "stnet-toy b16", model.build_model(toy, seed=0), Tensor(arr), labels
    spec = arch.with_overrides(arch.load_preset("stnet-resnet50"), t=2, res=64)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, spec.t, spec.input_channels, 64, 64)).astype(np.float32)
    yield "resnet50 T2 64x64", model.build_model(spec, seed=0), Tensor(x), np.array([1, 7])
    m = model.build_model(toy, seed=0)
    frozen = model.ModelInstance(spec=toy, params={k: t.detach() for k, t in m.params.items()},
                                 mode="infer")
    sampler = data.SamplerConfig(t=toy.t, n=toy.n, train=False)
    arr, _ = data.make_batch(toy_clips(32, seed=0), sampler)
    yield "stnet-toy b32 infer", frozen, Tensor(arr), None


def main():
    for name, m, batch, labels in cases():
        if labels is None:
            model.forward(m, batch)    # warm-up
        else:
            ops.softmax_cross_entropy(model.forward(m, batch), labels).backward()
            for _, t in m.trainable():
                t.zero_grad()
        held, fwd_peak, peak, by_op = step_memory(m, batch, labels)
        ops_held = "  ".join(f"{op} {b / MB:.2f}" for op, b in by_op.most_common())
        print(f"{name:<20} held {held:6.1f} MB  fwd peak {fwd_peak:6.1f} MB  peak "
              f"{'     -' if peak is None else f'{peak:6.1f}'} MB  "
              f"closures {sum(by_op.values()) / MB:5.1f} MB: {ops_held or '-'}", flush=True)


if __name__ == "__main__":
    main()
