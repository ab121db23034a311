"""Command-line entry point.

Subcommands: describe, gen-data, train, eval, gradcheck, ablate.
Option precedence is flags over config file over defaults; the
``STNET_SEED`` environment variable replaces the default seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import arch, checkpoint, complexity, data, gradcheck, model, training

GRAD_TOL = 1e-4
SPEC_HELP = f"preset ({', '.join(arch.PRESETS)}) or .arch file"


def _load_config(cls, path):
    """Keyword arguments for ``cls`` from a key=value file, or {} without one."""
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        return arch.read_fields(cls, arch.read_kv_lines(text))
    except arch.SpecError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve_seed(flag_seed, file_kwargs):
    if flag_seed is not None:
        return flag_seed
    if "seed" in file_kwargs:
        return file_kwargs["seed"]
    env = os.environ.get("STNET_SEED")
    if env is not None:
        return int(env)
    return 0


def _spec_with_overrides(args):
    spec = arch.resolve_spec(args.spec)
    return arch.with_overrides(spec, t=args.t, n=args.n, res=args.res,
                               num_classes=args.classes)


def cmd_describe(args):
    spec = _spec_with_overrides(args)
    report = complexity.analyze(spec)
    print(complexity.emit_report(report, "json" if args.json else "table"))
    return 0


def cmd_gen_data(args):
    kwargs = _load_config(data.SynthConfig, args.config)
    kwargs["seed"] = _resolve_seed(args.seed, kwargs)
    cfg = data.SynthConfig(**kwargs)
    print(f"seed: {cfg.seed}")
    clips = data.gen_synthetic(cfg)
    data.write_dataset(clips, args.out)
    print(f"wrote {len(clips)} clips "
          f"({len(cfg.classes)} classes x {cfg.clips_per_class}) to {args.out}")
    return 0


def _train_config(args):
    kwargs = _load_config(training.TrainConfig, args.config)
    kwargs["seed"] = _resolve_seed(args.seed, kwargs)
    for key in ("epochs", "batch_size", "lr"):
        flag = getattr(args, key, None)
        if flag is not None:
            kwargs[key] = flag
    return training.TrainConfig(**kwargs)


def cmd_train(args):
    spec = arch.resolve_spec(args.spec)
    cfg = _train_config(args)
    print(f"seed: {cfg.seed}")
    clips = data.read_dataset(args.data)
    m = model.build_model(spec, seed=cfg.seed)
    history = training.train(m, clips, cfg, log=print)
    checkpoint.save_checkpoint(m, args.out)
    arch.save_arch_file(spec, args.out + ".arch")
    print(f"final loss: {history.final_loss:.6f}")
    print(f"saved checkpoint to {args.out} (+ {args.out}.arch)")
    return 0


def cmd_eval(args):
    spec_path = args.model + ".arch"
    if not os.path.exists(spec_path):
        raise FileNotFoundError(
            f"no architecture file next to the checkpoint: {spec_path}")
    spec = arch.load_arch_file(spec_path)
    m = checkpoint.load_checkpoint(args.model, spec)
    clips = data.read_dataset(args.data)
    metrics = training.evaluate(m, clips)
    if args.json:
        print(json.dumps(metrics.to_dict(), indent=2))
    else:
        print(training.metrics_table(metrics))
    return 0


def cmd_gradcheck(args):
    seed = _resolve_seed(args.seed, {})
    print(f"seed: {seed}")
    results = gradcheck.run_op_checks(op=args.op, instances=args.instances,
                                      seed=seed)
    width = max(len(n) for n in results)
    failures = 0
    for name, err in results.items():
        ok = err < GRAD_TOL
        failures += not ok
        print(f"{name:<{width}}  {err:.3e}  {'PASS' if ok else 'FAIL'}")
    print(f"{len(results) - failures}/{len(results)} ops below {GRAD_TOL:g}")
    return 1 if failures else 0


def cmd_ablate(args):
    spec = arch.resolve_spec(args.spec)
    cfg = _train_config(args)
    print(f"seed: {cfg.seed}")
    clips = data.read_dataset(args.data)
    train_clips, eval_clips = data.split_dataset(clips, seed=cfg.seed)
    print(f"{len(train_clips)} training / {len(eval_clips)} evaluation clips")
    results = training.run_ablation(train_clips, eval_clips, spec, cfg, log=print)
    print(training.ablation_table(results))
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(training.ablation_json(results))
    print(f"wrote report to {args.out}")
    return 0


def _add_train_flags(p, func, out_help):
    """The flags that ``train`` and ``ablate`` share."""
    p.add_argument("--spec", required=True, help=SPEC_HELP)
    p.add_argument("--data", required=True)
    p.add_argument("--config", help="key=value training config file")
    p.add_argument("--out", required=True, help=out_help)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stnet",
        description="Super-image video classifier: complexity reports, "
                    "synthetic data, training, and gradient checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print a parameter/multiplication report")
    p.add_argument("--spec", required=True, help=SPEC_HELP)
    p.add_argument("--t", type=int, help="override snippet count")
    p.add_argument("--n", type=int, help="override frames per snippet")
    p.add_argument("--res", type=int, help="override square input resolution")
    p.add_argument("--classes", type=int, help="override class count")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("gen-data", help="render a synthetic dataset file")
    p.add_argument("--config", help="key=value synthesis config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gen_data)

    _add_train_flags(sub.add_parser("train", help="train a model on a dataset file"),
                     cmd_train, "checkpoint output path")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset file")
    p.add_argument("--model", required=True,
                   help="checkpoint path (expects a sibling .arch file)")
    p.add_argument("--data", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p.add_argument("--op", help="check a single op")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_gradcheck)

    _add_train_flags(sub.add_parser("ablate", help="train and compare all component toggles"),
                     cmd_ablate, "JSON report output path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # CLI boundary: report and signal failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
