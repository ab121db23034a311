"""How fragile is acceptance item c09? Rerun it under tiny weight perturbations.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tests/c09_sweep.py --draws 0-5

Each draw reruns c09 unchanged (its dataset, training config, variants
and four accuracy bounds are imported from ``test_acceptance``), except
that draw k scales every trainable initial tensor by ``1 + 1e-7*N(0,1)``,
drawn from ``default_rng(k)`` in parameter order; draw 0 is unperturbed.
A scale of 1e-7 moves a float32 value by about one unit in the last
place, the size of change a reordered float reduction makes, so the pass
count over draws says how likely such a change is to fail c09 by chance.

Prints, per draw, each variant's mirrored and static accuracy and
whether all four bounds held; then the pass count and the lowest
full-variant mirrored accuracy. A draw takes about 4.5 minutes on one
core of a 2-core AVX-512 Xeon; split a long range over processes
(``--draws 0-5``, ``--draws 6-11``). The file name keeps it out of
pytest collection.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from stnet import arch, model, training

from test_acceptance import (MIRRORED, ORDER_CFG, ORDER_VARIANTS, STATIC, order_bounds,
                             order_clips)

SCALE = 1e-7


def perturb(m, draw):
    """Scale each trainable tensor of ``m`` in place by 1 + SCALE*N(0,1)."""
    if draw == 0:
        return
    rng = np.random.default_rng(draw)
    for _, t in m.trainable():
        noise = 1.0 + SCALE * rng.standard_normal(t.shape)
        t.data[...] = (t.data.astype(np.float64) * noise).astype(t.dtype)


def run_draw(draw, train_clips, eval_clips):
    """{variant: Metrics} of c09 under perturbation ``draw``."""
    base = arch.load_preset("stnet-toy")
    results = {}
    for name, toggles in ORDER_VARIANTS.items():
        m = model.build_model(training.variant_spec(base, *toggles), seed=ORDER_CFG.seed)
        perturb(m, draw)
        training.train(m, train_clips, ORDER_CFG)
        results[name] = training.evaluate(m, eval_clips)
    return results


def parse_draws(text):
    lo, sep, hi = text.partition("-")
    try:
        lo, hi = int(lo), int(hi if sep else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected LO-HI, got {text!r}") from None
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"expected 0 <= LO <= HI, got {text!r}")
    return range(lo, hi + 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--draws", type=parse_draws, required=True,
                    help="inclusive draw range LO-HI; draw 0 is unperturbed")
    args = ap.parse_args(argv)
    train_clips, eval_clips = order_clips()
    passed, lowest = 0, 1.0
    for draw in args.draws:
        t0 = time.perf_counter()
        results = run_draw(draw, train_clips, eval_clips)
        ok = all(order_bounds(results).values())
        passed += ok
        lowest = min(lowest, results["full"].subset_accuracy(MIRRORED))
        accs = "  ".join(f"{name}: mirrored {r.subset_accuracy(MIRRORED):.3f} "
                         f"static {r.subset_accuracy(STATIC):.3f}"
                         for name, r in results.items())
        print(f"draw {draw:>3}  {accs}  bounds {'held' if ok else 'FAILED'}  "
              f"({(time.perf_counter() - t0) / 60:.1f} min)", flush=True)
    print(f"passed {passed}/{len(args.draws)}; lowest full mirrored accuracy {lowest:.3f}")


if __name__ == "__main__":
    main()
