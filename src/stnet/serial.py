"""Little-endian binary primitives shared by the checkpoint and dataset formats."""

from __future__ import annotations

import os
import struct


class FormatError(ValueError):
    """Malformed binary file."""


class MagicError(FormatError):
    """File does not start with the expected magic bytes."""


class VersionError(FormatError):
    """File carries an unsupported format version."""


class TruncatedError(FormatError):
    """File ended before the declared content."""


def read_exact(f, n, what):
    """Read ``n`` bytes of ``what`` from the file ``f``.

    A size beyond the end of the file raises :class:`TruncatedError`
    before anything is read, so a corrupt size field cannot make the
    reader allocate it.
    """
    left = os.fstat(f.fileno()).st_size - f.tell()
    data = f.read(n) if n <= left else b""
    if len(data) != n:
        raise TruncatedError(f"file truncated while reading {what} "
                             f"(wanted {n} bytes, {max(left, 0)} left)")
    return data


def expect_end(f, what):
    """Raise :class:`FormatError` if any bytes follow the last ``what``."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if left:
        raise FormatError(f"{left} bytes after the last {what}")


def expect_magic(f, magic):
    got = f.read(len(magic))
    if got != magic:
        raise MagicError(f"bad magic: expected {magic!r}, got {got!r}")


def expect_version(f, supported):
    """Read a u32 format version; it must be one of the tuple ``supported``."""
    v = read_u32(f, "format version")
    if v not in supported:
        raise VersionError(f"unsupported format version {v} (supported: {supported})")
    return v


def read_u8(f, what):
    return read_exact(f, 1, what)[0]


def read_u16(f, what):
    return struct.unpack("<H", read_exact(f, 2, what))[0]


def read_u32(f, what):
    return struct.unpack("<I", read_exact(f, 4, what))[0]


def write_u8(f, v):
    f.write(struct.pack("<B", v))


def write_u16(f, v):
    f.write(struct.pack("<H", v))


def write_u32(f, v):
    f.write(struct.pack("<I", v))
