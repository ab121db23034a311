"""Self-tests of the benchmark itself (not of stnet).

    python3 perfbench/selftest.py

Checks that tracing changes no result bit, that the traced counts repeat
exactly per seed, that the op spans account for forward plus backward
time, and that the benchmark refuses to run without stnet's sources.
Takes about half a minute on a 2-core machine.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import run

stnet = run.import_stnet()
import tracer      # noqa: E402  (needs stnet on the path)
import workloads   # noqa: E402

SEED = 5


def play(name, rounds, traced):
    """Set up ``name`` and run ``rounds`` rounds; returns (workload, tracer or None, probe)."""
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        wl = workloads.make(name, tmp)
        wl.setup(SEED)
        wl.prepare()
        tr = tracer.Tracer(stnet, tracer.layer_map(stnet, wl.model)) if traced else None
        with tr or contextlib.nullcontext():
            for i in range(rounds):
                wl.run_round(i)
            probe = workloads.probe(wl.model, wl.probe_clips(), np.float32)
    return wl, tr, probe


def test_train_tracing_is_invisible_and_repeatable():
    plain, _, probe_plain = play("train-stnet-toy", 4, traced=False)
    a, tr_a, probe_a = play("train-stnet-toy", 4, traced=True)
    b, tr_b, _ = play("train-stnet-toy", 4, traced=True)
    assert plain.losses == a.losses == b.losses, (plain.losses, a.losses)
    assert (probe_plain == probe_a).all()
    assert plain.checks()["loss_end"] == a.checks()["loss_end"]
    assert (tr_a.op_calls, tr_a.graph_nodes) == (tr_b.op_calls, tr_b.graph_nodes)
    assert tr_a.graph_nodes > 1 and tr_a.op_calls > 0
    assert 0.95 <= tr_a.coverage() <= 1.0, tr_a.coverage()


def test_eval_probe_logits_are_bit_identical_under_tracing():
    _, _, plain = play("eval-stnet-toy", 1, traced=False)
    _, tr, traced = play("eval-stnet-toy", 1, traced=True)
    assert plain.dtype == traced.dtype and (plain == traced).all()
    assert 0.95 <= tr.coverage() <= 1.0, tr.coverage()


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == units, key
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tracer_restores_every_attribute():
    before = {name: getattr(stnet.ops, name) for name in vars(stnet.ops)}
    backward = stnet.tensor.Tensor.backward
    with tracer.Tracer(stnet):
        assert stnet.ops.conv2d is not before["conv2d"]
    assert {name: getattr(stnet.ops, name) for name in vars(stnet.ops)} == before
    assert stnet.tensor.Tensor.backward is backward


def test_refuses_to_run_without_sources():
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        bench = Path(tmp) / "perfbench"
        shutil.copytree(run.BENCH_DIR, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                               "train-stnet-toy", "--seed", "1", "--seconds", "1"],
                              cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main():
    tests = [(k, v) for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
