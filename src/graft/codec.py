"""Little-endian binary codec shared by every graft file format.

The dataset container, the checkpoint and the embedding fixtures are written
with `Writer` and read with `Reader`. Every read is bounds-checked, and every
failure is a `FormatError` that names the absolute byte offset in the file.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """A binary file failed to parse; the message names the absolute byte offset."""


class Writer:
    """Collects the parts of a file; `save` writes them without joining.

    Array parts are views of the caller's arrays, not copies, until `save`:
    an array changed in between is written as it is then.
    """

    def __init__(self):
        self.parts: list[bytes | memoryview] = []

    def pack(self, fmt: str, *values) -> None:
        self.parts.append(struct.pack(fmt, *values))

    def header(self, magic: bytes, version: int) -> None:
        """Magic bytes followed by a u16 format version."""
        self.parts += [magic, struct.pack("<H", version)]

    def string(self, s: str) -> None:
        """UTF-8 bytes behind a u16 length."""
        b = s.encode("utf-8")
        self.parts += [struct.pack("<H", len(b)), b]

    def array(self, a, dtype: str) -> None:
        """The elements of `a` as `dtype` in C order; the caller writes the shape.

        The part is a byte view of `a` when `a` is already contiguous `dtype`.
        """
        flat = np.ascontiguousarray(a, dtype=dtype).reshape(-1)
        self.parts.append(memoryview(flat.view(np.uint8)))

    def json(self, obj) -> None:
        self.parts.append(json.dumps(obj, sort_keys=True).encode("utf-8"))

    def section(self, body: Writer, length_fmt: str = "<Q") -> None:
        """`body` behind its byte length."""
        self.pack(length_fmt, sum(map(len, body.parts)))
        self.parts += body.parts

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self.parts)


class Reader:
    """Reads `data[off:end]` front to back; `what` names the file in errors."""

    def __init__(self, data: bytes, what: str, off: int = 0, end: int | None = None):
        self.data = data
        self.what = what
        self.off = off
        self.end = len(data) if end is None else end

    def fail(self, msg: str, at: int | None = None) -> FormatError:
        """The error for a bad value at byte `at` (default: the cursor)."""
        return FormatError(f"{self.what}: {msg} at byte {self.off if at is None else at}")

    def advance(self, n: int) -> int:
        """Skip `n` bytes; returns the offset they start at."""
        start = self.off
        if n > self.end - start:
            raise FormatError(f"{self.what} truncated at byte {start}: wanted {n} bytes, "
                              f"{self.end - start} left")
        self.off = start + n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.advance(struct.calcsize(fmt)))

    def header(self, magic: bytes, version: int, error: type[FormatError] = FormatError) -> None:
        """Check the magic bytes and u16 version written by `Writer.header`."""
        got, ver = self.unpack(f"<{len(magic)}sH")
        if got != magic:
            raise error(f"{self.what}: bad magic {got!r} at byte 0, expected {magic!r}")
        if ver != version:
            raise error(f"{self.what}: unsupported version {ver} at byte {len(magic)}")

    def string(self) -> str:
        (n,) = self.unpack("<H")
        start = self.advance(n)
        try:
            return self.data[start : start + n].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"invalid UTF-8 string ({exc.reason})", start) from None

    def array(self, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
        """A writable copy of the next array of `dtype` and `shape`."""
        dt = np.dtype(dtype)
        start = self.advance(math.prod(shape) * dt.itemsize)
        try:
            return np.ndarray(shape, dt, self.data, start).copy()
        except ValueError:  # an empty shape whose other sides overflow numpy's size limit
            raise self.fail(f"array shape {shape} too large", start) from None

    def section(self, length_fmt: str = "<Q") -> Reader:
        """A reader over the next length-prefixed section, which this one skips."""
        (n,) = self.unpack(length_fmt)
        start = self.advance(n)
        return Reader(self.data, self.what, start, start + n)

    def json(self) -> dict:
        """The rest of this reader as a JSON object."""
        start = self.advance(self.end - self.off)
        try:
            obj = json.loads(self.data[start : self.end].decode("utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise self.fail(f"invalid JSON ({exc})", start) from None
        if not isinstance(obj, dict):
            raise self.fail("JSON is not an object", start)
        return obj

    def done(self) -> None:
        """Fail unless every byte was read."""
        if self.off != self.end:
            raise self.fail(f"{self.end - self.off} unread trailing bytes")
