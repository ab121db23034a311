"""Analytical parameter and multiplication counts.

Counts are derived symbolically from the layer plan (no tensors are
allocated). Convention: one multiplication per multiply-accumulate;
batch norm, activations and pooling cost zero. Batch-norm rows count
only the trainable scale/shift pair, never the running statistics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .model import RUNNING_STAT_SUFFIXES, layer_plans

CONVENTION = "multiplications per MAC; BN/activation/pooling free"


@dataclass
class ReportRow:
    name: str
    out_shape: tuple
    params: int
    mults: int


@dataclass
class ComplexityReport:
    spec_name: str
    t: int
    n: int
    resolution: tuple
    convention: str
    rows: list
    total_params: int
    total_mults: int


def analyze(spec):
    """Per-layer and total parameter/multiplication counts for ``spec``."""
    rows = []
    for plan in layer_plans(spec):
        params = sum(math.prod(shape) for suffix, shape in plan.params.items()
                     if suffix not in RUNNING_STAT_SUFFIXES)
        rows.append(ReportRow(plan.name, plan.out_shape, params, plan.macs))
    return ComplexityReport(
        spec_name=spec.name, t=spec.t, n=spec.n,
        resolution=(spec.height, spec.width), convention=CONVENTION,
        rows=rows,
        total_params=sum(r.params for r in rows),
        total_mults=sum(r.mults for r in rows))


def _fmt_count(v):
    return f"{v:,}"


def _fmt_shape(shape):
    return "x".join(str(d) for d in shape)


def report_json(report):
    return json.dumps({
        "spec": report.spec_name,
        "T": report.t,
        "N": report.n,
        "resolution": list(report.resolution),
        "convention": report.convention,
        "layers": [{"name": r.name, "out_shape": list(r.out_shape),
                    "params": r.params, "mults": r.mults} for r in report.rows],
        "total_params": report.total_params,
        "total_mults": report.total_mults,
    }, indent=2)


def report_table(report):
    header = ["layer", "out shape", "params", "mults"]
    body = [[r.name, _fmt_shape(r.out_shape), _fmt_count(r.params),
             _fmt_count(r.mults)] for r in report.rows]
    body.append(["total", "", _fmt_count(report.total_params),
                 _fmt_count(report.total_mults)])
    widths = [max(len(row[i]) for row in [header] + body) for i in range(4)]
    lines = [
        f"{report.spec_name}  (T={report.t}, N={report.n}, "
        f"input {_fmt_shape(report.resolution)})",
        f"convention: {report.convention}",
        "  ".join(h.ljust(w) for h, w in zip(header, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in body[:-1]:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines.append("  ".join(v.ljust(w) for v, w in zip(body[-1], widths)))
    return "\n".join(lines)
