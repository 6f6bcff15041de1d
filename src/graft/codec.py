"""Little-endian binary codec shared by every graft file format.

The dataset container, the checkpoint and the embedding fixtures are written
with `Writer` and read with `Reader`, over the one read-only buffer that
`read_file` returns. Every read is bounds-checked, and every failure is a
`FormatError` that names the absolute byte offset in the file.
Tables of variable-length records (the fixture's entries, the container's
grounds) are written by `Writer.records` and read by `Reader.records` a whole
table at a time, in the layout `string` and `advance` give one record at a time.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from pathlib import Path
from typing import Sequence

import numpy as np


# Longest string, in UTF-8 bytes, behind a u16 length.
MAX_STRING_BYTES = 0xFFFF


class FormatError(ValueError):
    """A binary file failed to parse; the message names the absolute byte offset."""


def _spans(buf: np.ndarray, starts: np.ndarray, widths) -> np.ndarray:
    """Mask of the bytes [starts[i], starts[i] + widths[i]) of `buf`; the spans
    are disjoint and ascending."""
    edge = np.zeros(len(buf) + 1, dtype=np.int8)
    edge[starts] = 1
    edge[starts + widths] -= 1
    return np.cumsum(edge[:-1], dtype=np.int8).view(bool)


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

    def records(self, fields: Sequence) -> None:
        """N records back to back, as `string` and `array` would write them one
        at a time: field k of record i is fields[k][i], a str written as by
        `string`, or row i of an (N, w) uint8 array.

        Each part of a record is placed into one byte array by one mask.
        """
        n, parts = len(fields[0]), []
        for f in fields:
            if isinstance(f, np.ndarray):
                parts.append(f)
                continue
            encoded = list(map(str.encode, f))
            lengths = np.fromiter(map(len, encoded), np.int64, n)
            if (lengths > MAX_STRING_BYTES).any():
                raise ValueError(f"a string is longer than {MAX_STRING_BYTES} UTF-8 bytes")
            parts += [lengths.astype("<u2").view(np.uint8).reshape(n, 2), encoded]
        widths = np.stack([np.full(n, p.shape[1]) if isinstance(p, np.ndarray)
                           else np.fromiter(map(len, p), np.int64, n) for p in parts], axis=1)
        part_of = np.repeat(np.tile(np.arange(len(parts), dtype=np.int8), n), widths.ravel())
        out = np.empty(len(part_of), dtype=np.uint8)
        for k, p in enumerate(parts):
            out[part_of == k] = p.reshape(-1) if isinstance(p, np.ndarray) else np.frombuffer(
                b"".join(p), np.uint8)
        self.parts.append(memoryview(out))

    def json(self, obj) -> None:
        self.parts.append(json.dumps(obj, sort_keys=True).encode("utf-8"))

    def section(self, body: Writer, length_fmt: str = "<Q") -> None:
        """`body` behind its byte length."""
        self.pack(length_fmt, sum(map(len, body.parts)))
        self.parts += body.parts

    def save(self, path: str | Path) -> None:
        with open(path, "wb") as fh:
            fh.writelines(self.parts)


def read_file(path: str | Path) -> memoryview:
    """The file at `path` read into one read-only numpy buffer, which numpy
    backs with huge pages when large; read, not mapped, so a file truncated
    later cannot fault a reader. A pipe, which numpy cannot read, is read
    into `bytes`."""
    with open(path, "rb") as fh:
        if not fh.seekable():
            return memoryview(fh.read())
        buf = np.fromfile(fh, np.uint8)
    buf.flags.writeable = False
    return memoryview(buf)


class Reader:
    """Reads `data[off:end]` front to back, from a read-only bytes-like buffer
    (`read_file`'s, or `bytes`); `what` names the file in errors."""

    def __init__(self, data: bytes | memoryview, what: str, off: int = 0, end: int | None = None):
        self.data = data
        self.what = what
        self.off = off
        self.end = len(data) if end is None else end

    def fail(self, msg: str, at: int | None = None) -> FormatError:
        """The error for a bad value at byte `at` (default: the cursor)."""
        return FormatError(f"{self.what}: {msg} at byte {self.off if at is None else at}")

    def truncated(self, start: int, n: int) -> FormatError:
        """The error for `n` bytes wanted at byte `start` that run past the end."""
        return FormatError(f"{self.what} truncated at byte {start}: wanted {n} bytes, "
                           f"{self.end - start} left")

    def advance(self, n: int) -> int:
        """Skip `n` bytes; returns the offset they start at."""
        start = self.off
        if n > self.end - start:
            raise self.truncated(start, n)
        self.off = start + n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.data, self.advance(struct.calcsize(fmt)))

    def header(self, magic: bytes, version: int) -> None:
        """Check the magic bytes and u16 version written by `Writer.header`."""
        got, ver = self.unpack(f"<{len(magic)}sH")
        if got != magic:
            raise FormatError(f"{self.what}: bad magic {got!r} at byte 0, expected {magic!r}")
        if ver != version:
            raise FormatError(f"{self.what}: unsupported version {ver} at byte {len(magic)}")

    def string(self) -> str:
        (n,) = self.unpack("<H")
        start = self.advance(n)
        try:
            return str(self.data[start : start + n], "utf-8")
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

    def records(self, count: int, gaps: Sequence[int]):
        """Read `count` records, each, for every j, a `string` then gaps[j] bytes.

        One scan of the u16 lengths finds every string. The n records before
        the first failure are then decoded at once: their strings in read
        order, an (n, gaps[j]) uint8 array of the bytes after each string j,
        and each record's offset. That failure (a truncation or invalid UTF-8,
        as reading the records one at a time with `string` and `advance` would
        meet it) is returned, not raised, so a caller can first check the n
        records; it is None once all `count` are read, and the reader then
        stands after them. A count whose records cannot fit in the bytes left
        raises before anything is read.
        """
        k, base, left = len(gaps), self.off, self.end - self.off
        least = 2 * k + sum(gaps)
        if count * least > left:
            raise self.fail(f"{count} records of at least {least} bytes overrun the {left} "
                            f"bytes left")
        sec = bytes(self.data[base : self.end])  # indexes and slices far faster than a view
        at: list[int] = []  # the offset of each string's length, in `sec`
        off, failure = 0, None
        try:
            for gap in itertools.islice(itertools.cycle(gaps), count * k):
                at.append(off)
                off += 2 + gap + (sec[off] | sec[off + 1] << 8)
        except IndexError:  # only the last length can run past the end
            failure = self.truncated(base + off, 2)
            at.pop()
        at_ = np.array(at, dtype=np.int64)
        gap_of = np.tile(np.asarray(gaps, dtype=np.int64), count)[: len(at_)]
        ends = np.append(at_[1:], off)  # where each string's gap ends
        stops = ends - gap_of  # where each string's bytes end
        stop = whole = len(at_)  # the string that failed (or all); those whose bytes are there
        if len(at_) and ends[-1] > left:  # only the last string can run past the end
            stop -= 1
            if stops[-1] > left:
                whole -= 1
                failure = self.truncated(base + int(at_[-1]) + 2, int(stops[-1] - at_[-1]) - 2)
            else:
                failure = self.truncated(base + int(stops[-1]), int(gap_of[-1]))
        texts: list[str] = []
        try:  # `extend` keeps the strings decoded before a failure
            texts.extend(map(bytes.decode, map(sec.__getitem__, map(
                slice, (at_[:whole] + 2).tolist(), stops[:whole].tolist()))))
        except UnicodeDecodeError as exc:
            stop = len(texts)
            failure = self.fail(f"invalid UTF-8 string ({exc.reason})", base + int(at_[stop]) + 2)
        n = stop // k if failure is not None else count
        buf = np.frombuffer(sec, dtype=np.uint8)
        fixed = [buf[_spans(buf, ends[j : n * k : k] - gap, gap)].reshape(n, gap)
                 for j, gap in enumerate(gaps)]
        self.off = base + (int(ends[n * k - 1]) if n else 0)
        return texts[: n * k], fixed, base + at_[: n * k : k], failure

    def section(self, length_fmt: str = "<Q") -> Reader:
        """A reader over the next length-prefixed section, which this one skips."""
        (n,) = self.unpack(length_fmt)
        start = self.advance(n)
        return Reader(self.data, self.what, start, start + n)

    def json(self) -> dict:
        """The rest of this reader as a JSON object."""
        start = self.advance(self.end - self.off)
        try:
            obj = json.loads(str(self.data[start : self.end], "utf-8"))
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
            raise self.fail(f"invalid JSON ({exc})", start) from None
        if not isinstance(obj, dict):
            raise self.fail("JSON is not an object", start)
        return obj

    def done(self) -> None:
        """Fail unless every byte was read."""
        if self.off != self.end:
            raise self.fail(f"{self.end - self.off} unread trailing bytes")
