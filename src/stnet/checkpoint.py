"""Model checkpoints.

Format: magic ``STNC``, version u32, tensor count u32, then per tensor:
name length u16 + UTF-8 name, rank u8, extents as u32 each, raw
little-endian float32 values. Loading validates the name/shape set
against the spec and is bit-exact for float32 models.

Version 2 is written. Version 1 also gave each conv and TM conv a bias
b and stored TM weights as [C, C, 3, 1, 1]; it loads with b folded into
the running mean of the batch norm that follows (``m' = m - b``).
"""

from __future__ import annotations

import os

import numpy as np

from . import serial
from .model import ModelInstance, RUNNING_STAT_SUFFIXES, layer_plans, parameter_shapes
from .tensor import Tensor

MAGIC = b"STNC"
VERSION = 2


class ParamMismatchError(serial.FormatError):
    """Checkpoint tensors do not match the spec's parameter layout."""


def save_checkpoint(model, path):
    """Write ``model`` to ``path`` atomically.

    The tensors go to a temporary file in the same directory, which is
    flushed to disk and only then replaces ``path``: a write that fails
    leaves any previous checkpoint at ``path`` as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            serial.write_u32(f, VERSION)
            serial.write_u32(f, len(model.params))
            for name, tensor in model.params.items():
                encoded = name.encode("utf-8")
                serial.write_u16(f, len(encoded))
                f.write(encoded)
                serial.write_u8(f, tensor.ndim)
                for dim in tensor.shape:
                    serial.write_u32(f, dim)
                f.write(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, spec):
    """Rebuild a model from ``path``; tensors must exactly match ``spec``.

    Raises :class:`ParamMismatchError` naming the first offending
    parameter when names or shapes disagree, and the usual format errors
    for bad magic/version/truncation. No partial model is returned.
    """
    plans = layer_plans(spec)
    with open(path, "rb") as f:
        serial.expect_magic(f, MAGIC)
        version = serial.expect_version(f, (1, VERSION))
        # A version-1 conv has a bias; the next plan, its batch norm, absorbs it.
        biased = [(p, bn) for p, bn in zip(plans, plans[1:])
                  if version == 1 and p.kind in ("conv2d", "conv3d")]
        expected = parameter_shapes(spec)
        for p, _ in biased:
            expected[f"{p.name}/b"] = p.params["w"][:1]
            if p.kind == "conv3d":
                expected[f"{p.name}/w"] += (1, 1)
        loaded = {}
        count = serial.read_u32(f, "tensor count")
        for i in range(count):
            name_len = serial.read_u16(f, "name length")
            raw_name = serial.read_exact(f, name_len, "tensor name")
            try:
                name = raw_name.decode("utf-8")
            except UnicodeDecodeError:
                raise ParamMismatchError(
                    f"name of tensor {i} is not UTF-8: {raw_name!r}") from None
            rank = serial.read_u8(f, f"rank of {name!r}")
            shape = tuple(serial.read_u32(f, f"extent of {name!r}") for _ in range(rank))
            if name in loaded:
                raise ParamMismatchError(f"duplicate tensor {name!r} in checkpoint")
            if name not in expected:
                raise ParamMismatchError(f"unexpected tensor {name!r} for spec "
                                         f"{spec.name!r}")
            if shape != expected[name]:
                raise ParamMismatchError(
                    f"shape mismatch for {name!r}: checkpoint has {shape}, "
                    f"spec {spec.name!r} expects {expected[name]}")
            raw = serial.read_exact(f, 4 * int(np.prod(shape)), f"values of {name!r}")
            loaded[name] = np.frombuffer(raw, dtype="<f4").reshape(shape).copy()
        serial.expect_end(f, "tensor")
    missing = sorted(set(expected) - set(loaded))
    if missing:
        raise ParamMismatchError(f"checkpoint is missing tensor {missing[0]!r}")
    for p, bn in biased:
        loaded[f"{bn.name}/mean"] -= loaded.pop(f"{p.name}/b")
    for name, values in loaded.items():
        if not np.isfinite(values).all():
            raise serial.FormatError(f"tensor {name!r} has non-finite values")
    params = {name: Tensor(loaded[name].reshape(shape),
                           requires_grad=name.rsplit("/", 1)[1] not in RUNNING_STAT_SUFFIXES)
              for name, shape in parameter_shapes(spec).items()}
    return ModelInstance(spec=spec, params=params)
