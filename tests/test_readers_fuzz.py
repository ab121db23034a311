"""Corrupt STNC and STVD files raise only ``serial.FormatError`` subclasses.

Each case overwrites a few bytes of, or truncates, a valid file: a
version-1 and a version-2 checkpoint of a small model, and a small
dataset. A file with overwritten bytes may still load (most bytes are
values); any error it raises must be a format error. A truncated file
must raise one.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stnet import checkpoint, data, model, serial

from test_graph import tiny_spec, write_v1_checkpoint

FILES = ("v1.stnc", "v2.stnc", "clips.stvd")
FUZZ = settings(derandomize=True, deadline=None, max_examples=300)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    spec = tiny_spec()
    m = model.build_model(spec, seed=0)
    write_v1_checkpoint(m, root / "v1.stnc", np.random.default_rng(0))
    checkpoint.save_checkpoint(m, root / "v2.stnc")
    clips = data.gen_synthetic(data.SynthConfig(
        classes=("left_right", "static_a"), clips_per_class=1, frames=2, height=8,
        width=8, object_scale=2, seed=0))
    data.write_dataset(clips, root / "clips.stvd")
    return root, spec


def load(root, spec, name, raw):
    path = root / f"fuzzed-{name}"
    path.write_bytes(bytes(raw))
    if name.endswith(".stvd"):
        data.read_dataset(path)
    else:
        checkpoint.load_checkpoint(path, spec)


@pytest.mark.parametrize("name", FILES)
@FUZZ
@given(draw=st.data())
def test_byte_mutations_raise_only_format_errors(corpus, name, draw):
    root, spec = corpus
    raw = bytearray((root / name).read_bytes())
    # Half the positions land in the first 64 bytes, where the file and
    # first tensor or clip headers are. A write is one byte or the four
    # bytes of a float32, which may be a NaN or an infinity.
    position = st.one_of(st.integers(0, 63), st.integers(0, len(raw) - 1))
    value = st.one_of(st.binary(min_size=1, max_size=1),
                      st.floats(width=32).map(lambda v: struct.pack("<f", v)))
    for pos, v in draw.draw(st.lists(st.tuples(position, value), min_size=1, max_size=4)):
        raw[pos:pos + len(v)] = v[:len(raw) - pos]
    try:
        load(root, spec, name, raw)
    except serial.FormatError:
        pass


@pytest.mark.parametrize("name", FILES)
@FUZZ
@given(draw=st.data())
def test_truncations_raise_only_format_errors(corpus, name, draw):
    root, spec = corpus
    raw = (root / name).read_bytes()
    with pytest.raises(serial.FormatError):
        load(root, spec, name, raw[:draw.draw(st.integers(0, len(raw) - 1))])
