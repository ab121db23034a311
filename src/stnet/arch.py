"""Declarative network descriptions and their flat key=value file format.

An :class:`ArchSpec` fully determines the graph: it is consumed by the
model builder/executor and by the complexity engine. Each StNet component
is one field: super-images are ``n`` > 1, the temporal-modeling blocks
are ``tm_after`` and the temporal Xception head is ``head``. Presets live
under ``stnet/presets/*.arch``.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from dataclasses import dataclass
from importlib import resources

HEADS = ("txb", "avg_score", "ordinary_tconv")
STAGE_KINDS = ("conv", "basic", "bottleneck")
PRESETS = ("tsn-toy", "stnet-toy", "stnet-resnet50", "stnet-resnet101", "txb-head-irv2")


class SpecError(ValueError):
    """Invalid architecture description; message names the offending field."""


@dataclass(frozen=True)
class StageSpec:
    """One backbone stage: a plain conv or a run of residual blocks.

    ``kernel``/``pool`` only apply to plain-conv stages (7x7 stem with a
    following 3x3/2 max pool for the large presets), which run once. The
    stage stride is applied by the first block.
    """
    kind: str
    channels: int
    stride: int = 1
    repeat: int = 1
    kernel: int = 3
    pool: bool = False


@dataclass(frozen=True)
class ArchSpec:
    name: str
    t: int                      # snippets per clip
    n: int                      # frames stacked per snippet
    height: int
    width: int
    num_classes: int
    stages: tuple[StageSpec, ...] = ()
    tm_after: tuple[int, ...] = ()  # stage indices followed by a temporal block
    head: str = "txb"
    txb_channels: int = 1024
    feature_dim: int = 0        # >0: head-only spec fed a [B,T,C] sequence

    @property
    def input_channels(self):
        return 3 * self.n


def validate(spec):
    """Raise :class:`SpecError` (naming the field) if the spec is invalid."""
    def bad(fieldname, msg):
        raise SpecError(f"{spec.name or '<spec>'}: {fieldname}: {msg}")

    if "#" in spec.name or spec.name.strip() != spec.name or len(spec.name.splitlines()) > 1:
        bad("name", "must have no '#', line break or outer whitespace")
    if spec.t < 1:
        bad("t", "must be >= 1")
    if spec.n < 1:
        bad("n", "must be >= 1")
    if spec.height < 1 or spec.width < 1:
        bad("height/width", "must be >= 1")
    if spec.num_classes < 2:
        bad("num_classes", "must be >= 2")
    if spec.head not in HEADS:
        bad("head", f"must be one of {HEADS}")
    if spec.txb_channels < 1:
        bad("txb_channels", "must be >= 1")
    if not spec.stages and spec.feature_dim < 1:
        bad("stages", "empty backbone requires feature_dim")
    if spec.stages and spec.feature_dim:
        bad("feature_dim", "only valid with an empty backbone")
    if spec.stages and spec.stages[0].kind != "conv":
        bad("stages[0].kind", "the backbone must start with a plain conv stem")
    for i, st in enumerate(spec.stages):
        if st.kind not in STAGE_KINDS:
            bad(f"stages[{i}].kind", f"must be one of {STAGE_KINDS}")
        if st.channels < 1:
            bad(f"stages[{i}].channels", "must be >= 1")
        if st.stride not in (1, 2):
            bad(f"stages[{i}].stride", "must be 1 or 2")
        if st.repeat < 1:
            bad(f"stages[{i}].repeat", "must be >= 1")
        if st.kind == "bottleneck" and st.channels % 4:
            bad(f"stages[{i}].channels", "bottleneck channels must be divisible by 4")
        if st.kind == "conv":
            if st.kernel < 1:
                bad(f"stages[{i}].kernel", "must be >= 1")
            if st.repeat != 1:
                bad(f"stages[{i}].repeat", "a conv stage runs once")
        else:
            plain = StageSpec(st.kind, st.channels)
            for name in ("kernel", "pool"):
                if getattr(st, name) != getattr(plain, name):
                    bad(f"stages[{i}].{name}", "applies to conv stages only")
    for i in spec.tm_after:
        if not 0 <= i < len(spec.stages):
            bad("tm_after", f"stage index {i} out of range")
    return spec


def with_overrides(spec, t=None, n=None, res=None, num_classes=None):
    """Copy of ``spec`` with selected dimensions replaced (then re-validated)."""
    kw = {}
    if t is not None:
        kw["t"] = t
    if n is not None:
        kw["n"] = n
    if res is not None:
        kw["height"] = res
        kw["width"] = res
    if num_classes is not None:
        kw["num_classes"] = num_classes
    return validate(dataclasses.replace(spec, **kw)) if kw else spec


# ---------------------------------------------------------------------------
# Flat key=value serialization
# ---------------------------------------------------------------------------

_BOOLS = {"true": True, "false": False, "1": True, "0": False,
          "yes": True, "no": False}


def _list_of(typ):
    """``T`` for a ``tuple[T, ...]`` annotation, else None."""
    return typing.get_args(typ)[0] if typing.get_origin(typ) is tuple else None


def _field_types(cls):
    """``{name: type}`` of the fields of ``cls`` that a key sets (not ``ArchSpec.stages``)."""
    return {name: typ for name, typ in typing.get_type_hints(cls).items()
            if (_list_of(typ) or typ) in (bool, int, float, str)}


def coerce(key, raw, typ):
    """``raw`` parsed as ``typ``; ``tuple[T, ...]`` reads a comma list, empty items skipped."""
    raw = raw.strip()
    if _list_of(typ):
        return tuple(coerce(key, s, _list_of(typ)) for s in raw.split(",") if s.strip())
    if typ is bool:
        if raw.lower() not in _BOOLS:
            raise SpecError(f"{key}: expected a boolean, got {raw!r}")
        return _BOOLS[raw.lower()]
    if typ in (int, float):
        try:
            return typ(raw)
        except ValueError:
            kind = "an integer" if typ is int else "a number"
            raise SpecError(f"{key}: expected {kind}, got {raw!r}") from None
    return raw


def read_fields(cls, pairs, prefix=""):
    """Keyword arguments for dataclass ``cls`` from ``(field, raw)`` pairs, typed by annotation.

    An unknown field or a malformed value raises SpecError naming ``prefix + field``.
    """
    types = _field_types(cls)
    kwargs = {}
    for key, raw in pairs:
        if key not in types:
            raise SpecError(f"unknown key {prefix + key!r} for {cls.__name__}; "
                            f"known: {', '.join(sorted(types))}")
        kwargs[key] = coerce(prefix + key, raw, types[key])
    return kwargs


def read_kv_lines(text):
    """``[(key, raw value)]`` from the ``key = value`` lines of ``text``.

    ``#`` starts a comment and blank lines are skipped; a line without
    ``=`` raises SpecError naming its line number.
    """
    pairs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SpecError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (s.strip() for s in line.split("=", 1))
        pairs.append((key, raw))
    return pairs


def parse_arch(text, name_hint=""):
    """Parse the flat key=value format into a validated ArchSpec.

    ``stages.<i>.<field>`` keys set stage ``i``. Older files' ``enable_*``
    toggles are read, never written: ``false`` requires ``n = 1``, empties
    ``tm_after`` or makes a txb head avg_score.
    """
    pairs = []
    toggles = {}
    stage_pairs = {}
    for key, raw in read_kv_lines(text):
        if key in ("enable_superimage", "enable_tm", "enable_txb"):
            toggles[key] = coerce(key, raw, bool)
        elif key.startswith("stages."):
            parts = key.split(".")
            if len(parts) != 3:
                raise SpecError(f"unknown key {key!r}")
            try:
                idx = int(parts[1])
            except ValueError:
                raise SpecError(f"{key}: stage index must be an integer") from None
            stage_pairs.setdefault(idx, []).append((parts[2], raw))
        else:
            pairs.append((key, raw))
    fields = read_fields(ArchSpec, pairs)

    stages = []
    for idx in range(len(stage_pairs)):
        if idx not in stage_pairs:
            raise SpecError(f"stages: missing index {idx}")
        f = read_fields(StageSpec, stage_pairs[idx], prefix=f"stages.{idx}.")
        if "kind" not in f or "channels" not in f:
            raise SpecError(f"stages.{idx}: kind and channels are required")
        stages.append(StageSpec(**f))

    for required in ("t", "n", "height", "width", "num_classes"):
        if required not in fields:
            raise SpecError(f"{required}: missing")
    fields.setdefault("name", name_hint)
    spec = validate(ArchSpec(stages=tuple(stages), **fields))
    if not toggles.get("enable_superimage", True) and spec.n != 1:
        raise SpecError(f"{spec.name or '<spec>'}: n: must be 1 when "
                        "enable_superimage is false")
    if not toggles.get("enable_tm", True):
        spec = dataclasses.replace(spec, tm_after=())
    if not toggles.get("enable_txb", True) and spec.head == "txb":
        spec = dataclasses.replace(spec, head="avg_score")
    return spec


def _format_value(v):
    if isinstance(v, tuple):
        return ",".join(map(_format_value, v))
    return str(v).lower() if isinstance(v, bool) else str(v)


def format_arch(spec):
    """Render every field of a spec in the flat key=value format (inverse of parse_arch)."""
    groups = [("", spec)] + [(f"stages.{i}.", st) for i, st in enumerate(spec.stages)]
    return "".join(f"{prefix}{name} = {_format_value(getattr(obj, name))}\n"
                   for prefix, obj in groups for name in _field_types(type(obj)))


def load_arch_file(path):
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_arch(text, name_hint=stem)


def save_arch_file(spec, path):
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_arch(spec))


def load_preset(name):
    if name not in PRESETS:
        raise SpecError(f"unknown preset {name!r}; available: {', '.join(PRESETS)}")
    text = resources.files("stnet.presets").joinpath(f"{name}.arch").read_text("utf-8")
    return parse_arch(text, name_hint=name)


def resolve_spec(name_or_path):
    """A preset name, or a path to an .arch file."""
    if os.path.exists(name_or_path):
        return load_arch_file(name_or_path)
    return load_preset(name_or_path)
