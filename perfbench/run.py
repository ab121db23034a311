"""stnet benchmark: one seeded, closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; stnet is imported from its ``src``.
Workloads are listed in ``workloads.WORKLOADS``. Set-up runs
``SETUP_REPEATS`` times and the median is reported as ``setup_s``; one
untimed round then warms caches, and rounds repeat until ``--seconds``
have passed (at least ``MIN_ROUNDS`` rounds and, for the latency tail,
``MIN_BATCHES`` batches).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` installs the
outside tracer for every other round, prints the per-layer metrics of
the traced rounds, and writes a per-named-layer profile to
``perfbench/out/``. Human-readable lines start with ``#``; the last line
is the JSON result. The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BLAS_THREADS = 1        # steadier than 2 on a shared 2-core machine
SETUP_REPEATS = 3
MIN_ROUNDS = 3
TAIL_BEYOND = 10        # samples beyond the reported tail percentile
MIN_BATCHES = 2 * TAIL_BEYOND + 1   # so the tail is never below the median

END_TO_END = {"items_per_s": "1/s", "batch_ms_p50": "ms", "batch_ms_tail": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "ops.conv2d.fwd_ms": "ms", "ops.conv2d.bwd_ms": "ms",
    "ops.conv2d.fwd_gmult_s": "Gmult/s", "ops.conv2d.bwd_gmult_s": "Gmult/s",
    "ops.bn.fwd_ms": "ms", "ops.bn.bwd_ms": "ms",
    "ops.relu.fwd_ms": "ms", "ops.relu.bwd_ms": "ms",
    "ops.conv3d.fwd_ms": "ms", "ops.conv3d.bwd_ms": "ms", "ops.conv3d.fwd_gmult_s": "Gmult/s",
    "ops.max_pool2d.fwd_ms": "ms",
    "ops.head.fwd_ms": "ms", "ops.head.bwd_ms": "ms",
    "ops.calls": "count",
    "tensor.backward_ms": "ms", "tensor.backward_self_ms": "ms",
    "tensor.plumbing.fwd_ms": "ms", "tensor.plumbing.bwd_ms": "ms",
    "tensor.graph_nodes": "count",
    "model.forward_ms": "ms", "model.build_ms": "ms",
    "training.sgd_step_ms": "ms",
    "data.make_batch_ms": "ms", "data.gen_synthetic_s": "s",
    "data.write_dataset_ms": "ms", "data.read_dataset_ms": "ms",
    "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
    "complexity.analyze_ms": "ms",
    "trace.overhead_share": "share", "trace.span_coverage": "share",
}


def import_stnet():
    """Import stnet from this checkout's ``src``; None if it is not there."""
    src = ROOT / "src"
    if not (src / "stnet" / "__init__.py").is_file():
        return None
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import stnet
    if Path(stnet.__file__).resolve().parent != (src / "stnet").resolve():
        return None
    return stnet


def environment():
    import numpy as np          # only after import_stnet has set the BLAS threads
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS}


class Round(NamedTuple):
    items: int              # clips finished
    wall: float             # seconds
    batch_s: list           # per-batch seconds
    failed: int             # failed batches
    batches: int


def play(wl, first, seconds, min_rounds, min_batches=0):
    """Closed loop of rounds from index ``first`` for ``seconds``."""
    rounds = []
    end = perf_counter() + seconds
    i = first
    while (perf_counter() < end or len(rounds) < min_rounds
           or sum(r.batches for r in rounds) < min_batches):
        t0 = perf_counter()
        try:
            items, batch_s, failed = wl.run_round(i)
        except Exception:                       # counted as failed, loop goes on
            traceback.print_exc()
            rounds.append(Round(0, 0.0, [], wl.batches_per_round, wl.batches_per_round))
        else:
            rounds.append(Round(items, perf_counter() - t0, batch_s, failed, len(batch_s)))
        i += 1
    return rounds


def play_alternating(wl, tr, seconds):
    """Rounds alternate between untraced and traced, so that slow drift of
    the machine's speed does not read as tracing overhead.

    Returns (untraced rounds, traced rounds, counts of the first traced round).
    """
    plain, traced, first = [], [], None
    end = perf_counter() + seconds
    i = 1
    while perf_counter() < end or len(traced) < MIN_ROUNDS:
        if i % 2:
            plain += play(wl, i, 0, 1)
        else:
            with tr:
                traced += play(wl, i, 0, 1)
            if first is None:
                first = (tr.op_calls, tr.graph_nodes, traced[0].batches)
        i += 1
    return plain, traced, first


def throughput(rounds):
    ok = [r.items / r.wall for r in rounds if r.items and not r.failed]
    return statistics.median(ok) if ok else 0.0


def latency(rounds):
    """(p50 ms, tail ms, tail percentile, samples, samples beyond the tail)."""
    xs = sorted(b for r in rounds if not r.failed for b in r.batch_s)
    if not xs:
        return 0.0, 0.0, 0.0, 0, 0
    rank = max(len(xs) - 1 - TAIL_BEYOND, 0)
    return (statistics.median(xs) * 1e3, xs[rank] * 1e3,
            100.0 * (rank + 1) / len(xs), len(xs), len(xs) - 1 - rank)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tr, wl, traced, first, setup_phases, ips_plain):
    """Per-layer metrics of a traced phase, per batch unless named otherwise.

    ``first`` holds (op calls, graph nodes, batches) of the first traced
    round; counts come from it alone so that they repeat exactly per seed.
    """
    batches = sum(r.batches for r in traced)
    clips = sum(r.items for r in traced)

    def ms(seconds):
        return seconds / batches * 1e3

    def group(g, phase):
        return tr.group_s.get((g, phase), 0.0)

    def gmult(kind, phase):
        mults = sum(r.mults * bwd_factor(tr, r.name, phase) for r in wl.report.rows
                    if tr.kinds.get(r.name) == kind)
        t = group(kind, phase)
        return mults * clips / t / 1e9 if t else 0.0

    setup = {k: statistics.median(p[k] for p in setup_phases) for k in setup_phases[0]}
    op_calls, graph_nodes, first_batches = first
    out = {}
    for g in ("conv2d", "bn", "relu", "conv3d", "head"):
        out[f"ops.{g}.fwd_ms"] = ms(group(g, "fwd"))
        out[f"ops.{g}.bwd_ms"] = ms(group(g, "bwd"))
    out.update({
        "ops.conv2d.fwd_gmult_s": gmult("conv2d", "fwd"),
        "ops.conv2d.bwd_gmult_s": gmult("conv2d", "bwd"),
        "ops.conv3d.fwd_gmult_s": gmult("conv3d", "fwd"),
        "ops.max_pool2d.fwd_ms": ms(group("max_pool2d", "fwd")),
        "ops.calls": op_calls / first_batches,
        "tensor.backward_ms": ms(tr.backward_s),
        "tensor.backward_self_ms": ms(tr.backward_s - tr.closure_s),
        "tensor.plumbing.fwd_ms": ms(group("plumbing", "fwd")),
        "tensor.plumbing.bwd_ms": ms(group("plumbing", "bwd")),
        "tensor.graph_nodes": graph_nodes,
        "model.forward_ms": ms(tr.forward_s),
        "model.build_ms": setup["build_model"] * 1e3,
        "training.sgd_step_ms": ms(tr.spent["sgd"]),
        "data.make_batch_ms": ms(tr.spent["make_batch"]),
        "data.gen_synthetic_s": setup["gen_synthetic"],
        "data.write_dataset_ms": setup["write_dataset"] * 1e3,
        "data.read_dataset_ms": setup["read_dataset"] * 1e3,
        "checkpoint.save_ms": setup["save_checkpoint"] * 1e3,
        "checkpoint.load_ms": setup["load_checkpoint"] * 1e3,
        "complexity.analyze_ms": setup["analyze"] * 1e3,
        "trace.overhead_share": 1.0 - throughput(traced) / ips_plain if ips_plain else 0.0,
        "trace.span_coverage": tr.coverage(),
    })
    return out


def bwd_factor(tr, layer, phase):
    """Backward does the forward's multiplications once for the weight
    gradient and once more when the layer's input needs a gradient."""
    return 1 if phase == "fwd" else 1 + tr.input_grad.get(layer, False)


def profile_rows(tr, wl, traced):
    """One row per named layer (plan order), then unattributed groups and the total."""
    batches = sum(r.batches for r in traced)
    clips = sum(r.items for r in traced)
    wall = sum(r.wall for r in traced)
    rows = []

    def row(name, mults, fwd_s, bwd_s, bwd_mults):
        rows.append({"layer": name, "fwd_ms": fwd_s / batches * 1e3,
                     "bwd_ms": bwd_s / batches * 1e3, "mults_per_clip": mults,
                     "fwd_gmult_s": mults * clips / fwd_s / 1e9 if fwd_s else 0.0,
                     "bwd_gmult_s": bwd_mults * clips / bwd_s / 1e9 if bwd_s else 0.0})

    for r in wl.report.rows:
        row(r.name, r.mults, tr.row_s.get((r.name, "fwd"), 0.0),
            tr.row_s.get((r.name, "bwd"), 0.0), r.mults * bwd_factor(tr, r.name, "bwd"))
    for key in sorted({k for k, _ in tr.row_s if k.startswith("(")}):
        row(key, 0, tr.row_s.get((key, "fwd"), 0.0), tr.row_s.get((key, "bwd"), 0.0), 0)
    row("end-to-end", wl.report.total_mults, tr.forward_s, tr.backward_s,
        sum(r.mults * bwd_factor(tr, r.name, "bwd") for r in wl.report.rows))
    rows[-1]["items_per_s"] = clips / wall
    return rows


def format_rows(rows):
    lines = [f"{'layer':<24}{'fwd ms':>10}{'bwd ms':>10}{'Mmult/clip':>12}"
             f"{'fwd G/s':>9}{'bwd G/s':>9}"]
    for r in rows:
        lines.append(f"{r['layer']:<24}{r['fwd_ms']:>10.2f}{r['bwd_ms']:>10.2f}"
                     f"{r['mults_per_clip'] / 1e6:>12.2f}{r['fwd_gmult_s']:>9.2f}"
                     f"{r['bwd_gmult_s']:>9.2f}")
    return lines


def run(name, seed, seconds, trace, stnet):
    """Set up, warm, measure and check one workload; returns the result dict."""
    import tracer
    import workloads
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        wl = workloads.make(name, tmp)
        setup_s, setup_phases = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            setup_phases.append(wl.setup(seed))
            setup_s.append(perf_counter() - t0)
        wl.prepare()
        warm = play(wl, 0, 0, 1)
        if not trace:
            timed = play(wl, 1, seconds, MIN_ROUNDS, MIN_BATCHES)
        else:
            tr = tracer.Tracer(stnet, tracer.layer_map(stnet, wl.model))
            plain, traced, first = play_alternating(wl, tr, seconds)
            timed = plain + traced
        checks = wl.checks()
    rounds = warm + timed
    attempted = sum(r.batches for r in rounds)
    failed = sum(r.failed for r in rounds) + sum(not ok for _, ok in checks.values())
    print("# " + " ".join(f"{k}={v:.6g} ({'ok' if ok else 'FAILED'})"
                        for k, (v, ok) in checks.items()))
    if trace:
        metrics = layer_metrics(tr, wl, traced, first, setup_phases, throughput(plain))
        units = PER_LAYER
        rows = profile_rows(tr, wl, traced)
        for line in format_rows(rows):
            print("# " + line)
        path = OUT_DIR / f"profile-{name}-seed{seed}.json"
        path.write_text(json.dumps({"workload": name, "seed": seed,
                                    "environment": environment(), "rows": rows,
                                    "per_layer": metrics}, indent=1))
        print(f"# profile written to {path.relative_to(ROOT)}")
    else:
        p50, tail, tail_pct, samples, beyond = latency(timed)
        metrics = {"items_per_s": throughput(timed), "batch_ms_p50": p50,
                   "batch_ms_tail": tail, "setup_s": statistics.median(setup_s),
                   "peak_rss_mb": peak_rss_mb()}
        units = END_TO_END
        print(f"# {len(timed)} rounds, {samples} batches; batch_ms_tail is "
            f"p{tail_pct:.1f} with {beyond} beyond it")
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metric names drifted: {sorted(metrics.keys() ^ units.keys())}")
    for k, v in metrics.items():
        print(f"# {k:<28} {v:>14.6g} {units[k]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    stnet = import_stnet()
    if stnet is None:
        print(f"error: no stnet package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    print("# env " + json.dumps(environment()))
    result = run(args.workload, args.seed, args.seconds, args.trace, stnet)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
