"""The ``key = value`` reader and writer: .arch files and config files.

Every key is a field of a dataclass and takes its type from the field's
annotation, so these tests derive their cases from ``dataclasses.fields``.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from stnet import arch, cli, data, model, training

ROUND_TRIP = settings(derandomize=True, deadline=None, max_examples=300)


def stem():
    return st.builds(arch.StageSpec, kind=st.just("conv"), channels=st.integers(1, 16),
                     stride=st.sampled_from((1, 2)), kernel=st.sampled_from((1, 3, 5, 7)),
                     pool=st.booleans())


def residual():
    return st.builds(
        lambda kind, quarter, stride, repeat: arch.StageSpec(
            kind, 4 * quarter if kind == "bottleneck" else quarter, stride, repeat),
        st.sampled_from(("basic", "bottleneck")), st.integers(1, 16),
        st.sampled_from((1, 2)), st.integers(1, 3))


@st.composite
def specs(draw):
    head_only = draw(st.booleans())
    stages = () if head_only else (draw(stem()),) + tuple(draw(st.lists(residual(), max_size=3)))
    tm_after = () if head_only else tuple(
        draw(st.lists(st.integers(0, len(stages) - 1), max_size=3)))
    return arch.ArchSpec(
        name=draw(st.one_of(st.text("abcxyz019-_[]=,.# ", max_size=12), st.text(max_size=6))),
        t=draw(st.integers(1, 8)), n=draw(st.integers(1, 4)),
        height=draw(st.integers(1, 64)), width=draw(st.integers(1, 64)),
        num_classes=draw(st.integers(2, 10)), stages=stages, tm_after=tm_after,
        head=draw(st.sampled_from(arch.HEADS)), txb_channels=draw(st.integers(1, 32)),
        feature_dim=draw(st.integers(1, 64)) if head_only else 0)


@ROUND_TRIP
@given(spec=specs())
def test_format_parse_round_trip(spec):
    try:
        arch.validate(spec)
    except arch.SpecError as exc:  # only a name that a key = value line cannot hold
        assert str(exc).startswith(f"{spec.name or '<spec>'}: name: "), exc
        return
    text = arch.format_arch(spec)
    assert arch.parse_arch(text) == spec
    # Every field is written, defaults included.
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    scalars = [f.name for f in dataclasses.fields(arch.ArchSpec) if f.name != "stages"]
    assert keys == scalars + [f"stages.{i}.{f.name}" for i in range(len(spec.stages))
                              for f in dataclasses.fields(arch.StageSpec)]


CONFIG_FILES = {
    training.TrainConfig: (
        "epochs = 3\nbatch_size = 8\nlr = 0.05\nmomentum = 0.8\nweight_decay = 5e-4\n"
        "seed = 11\nlr_decay = 0.5\nlr_steps = 1, 2,\n",
        training.TrainConfig(epochs=3, batch_size=8, lr=0.05, momentum=0.8,
                             weight_decay=5e-4, seed=11, lr_decay=0.5, lr_steps=(1, 2))),
    data.SynthConfig: (
        "classes = left_right, static_a\nclips_per_class = 3\nframes = 6\nheight = 20\n"
        "width = 24\nobject_scale = 4\nnoise = 5\nseed = 13\n",
        data.SynthConfig(classes=("left_right", "static_a"), clips_per_class=3, frames=6,
                         height=20, width=24, object_scale=4, noise=5, seed=13)),
}


@pytest.mark.parametrize("cls", sorted(CONFIG_FILES, key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_config_file_sets_every_field(tmp_path, cls):
    text, want = CONFIG_FILES[cls]
    path = tmp_path / "every.cfg"
    path.write_text(text)
    kwargs = cli._load_config(cls, str(path))
    assert set(kwargs) == {f.name for f in dataclasses.fields(cls)}
    assert cls(**kwargs) == want
    for key, value in kwargs.items():
        assert value != getattr(cls(), key), key  # each line moves its field


@dataclass
class Switches:
    flag: bool = True
    rate: float = 1.0
    steps: tuple[int, ...] = ()
    tags: tuple[str, ...] = ("a",)
    nested: tuple[Switches, ...] = ()


def test_read_fields_types_come_from_annotations():
    got = arch.read_fields(Switches, [("flag", "false"), ("rate", "2"),
                                      ("steps", "3,,4"), ("tags", " x , y ")])
    assert got == {"flag": False, "rate": 2.0, "steps": (3, 4), "tags": ("x", "y")}
    with pytest.raises(arch.SpecError, match="flag: expected a boolean, got 'maybe'"):
        arch.read_fields(Switches, [("flag", "maybe")])
    # A field of another dataclass has no key, and the message lists the known ones.
    with pytest.raises(arch.SpecError,
                       match=r"unknown key 'nested' for Switches; known: flag, rate, steps, tags"):
        arch.read_fields(Switches, [("nested", "1")])


BASE = "t = 1\nn = 1\nheight = 8\nwidth = 8\nnum_classes = 2\n"
STEM = "stages.0.kind = conv\nstages.0.channels = 4\n"
BLOCK = "stages.1.kind = basic\nstages.1.channels = 4\n"


@pytest.mark.parametrize("lines, message", [
    ("stages = 1\n", "unknown key 'stages'"),
    ("stages.0 = conv\n", "unknown key 'stages.0'"),
    ("stages.x.kind = conv\n", "stages.x.kind: stage index must be a non-negative integer"),
    # int() takes each of these, as stage -1 or as stage 1.
    (STEM + "stages.-1.kind = basic\n",
     "^stages.-1.kind: stage index must be a non-negative integer$"),
    (STEM + BLOCK + "stages.+1.kind = basic\n",
     r"^stages.\+1.kind: stage index must be a non-negative integer$"),
    (STEM + BLOCK + "stages.01.stride = 2\n",
     "^stages.01.stride: stage index must be a non-negative integer$"),
    (STEM + BLOCK + "stages. 1.stride = 2\n",
     "^stages. 1.stride: stage index must be a non-negative integer$"),
    ("stages.0.size = 3\n", "unknown key 'stages.0.size' for StageSpec"),
    ("stages.0.kind = conv\nstages.0.kernel = 3\n", "stages.0: kind and channels are required"),
    ("stages.0.kind = conv\nstages.0.channels = two\n",
     "stages.0.channels: expected an integer, got 'two'"),
], ids=["bare-stages", "no-field", "index", "negative-index", "signed-index",
        "zero-padded-index", "spaced-index", "stage-field", "required", "stage-value"])
def test_stage_key_errors_name_the_key(lines, message):
    with pytest.raises(arch.SpecError, match=message):
        arch.parse_arch(BASE + lines)


@pytest.mark.parametrize("line, key", [
    ("t = 8", "t"), ("stages.1.channels = 48", "stages.1.channels"),
    ("enable_tm = true\nenable_tm = false", "enable_tm")],
    ids=["field", "stage-field", "old-toggle"])
def test_a_key_set_twice_is_rejected(line, key):
    text = arch.format_arch(arch.load_preset("stnet-toy")) + line + "\n"
    with pytest.raises(arch.SpecError, match=f"^{re.escape(key)}: set more than once$"):
        arch.parse_arch(text)




@pytest.mark.parametrize("lines, field", [
    (STEM + "stages.0.kernel = 0\n", "stages[0].kernel: must be >= 1"),
    (STEM + "stages.0.kernel = -1\n", "stages[0].kernel: must be >= 1"),
    (STEM + "stages.0.kernel = 2\n", "stages[0].kernel: must be odd, got 2"),
    (STEM + "stages.0.kernel = 4\n", "stages[0].kernel: must be odd, got 4"),
    (STEM + "stages.0.repeat = 2\n", "stages[0].repeat: a conv stage runs once"),
    (STEM + BLOCK + "stages.1.kernel = 5\n", "stages[1].kernel: applies to conv stages only"),
    (STEM + BLOCK + "stages.1.pool = true\n", "stages[1].pool: applies to conv stages only"),
], ids=["kernel-0", "kernel-negative", "kernel-2", "kernel-4", "stem-repeat", "block-kernel",
        "block-pool"])
def test_stage_fields_that_break_or_do_nothing_are_rejected(lines, field):
    with pytest.raises(arch.SpecError, match="^" + re.escape(f"spec: {field}")):
        arch.parse_arch(BASE + lines, name_hint="spec")


@pytest.mark.parametrize("kernel", [1, 3, 7])
def test_odd_stem_kernel_keeps_the_map_size(kernel):
    # With kernel // 2 padding on both sides; an even kernel would grow the map.
    spec = arch.parse_arch(BASE + STEM + f"stages.0.kernel = {kernel}\n")
    (conv, _), = model.backbone(spec)[0].pairs
    assert conv.out_shape == (1, 4, 8, 8)
