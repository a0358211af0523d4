"""Pieces shared by rlab's file readers and writers.

Every reader (RIDX, RPQX, RLAB and JSONL) raises `FormatError` for
malformed or truncated input, and the CLI maps it to exit 1. A binary
artifact (magic, version word, header, tables) is written by its
`Format`, whose `read` checks the header and returns a `Reader` of the
rest, read front to back from one read-only mapping of the file. Every
JSONL reader takes its lines from `jsonl_objects` and names the file and
line of a bad record. String tables (ids, vocab tokens) are stored
newline-joined, so writers refuse any string holding a newline before
they open the file. Float tables go through `float_bytes` and
`Reader.floats`: a writer refuses, before it opens the file, a value
that would be stored as NaN or infinite, and a reader rejects one. Every
artifact writer goes through `atomic_write`, so a failed write leaves the
previous file as it was.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import operator
import os
import secrets
import struct
from typing import Iterator, NamedTuple, Sequence

import numpy as np


class FormatError(ValueError):
    """An input file (RIDX, RPQX, RLAB or JSONL) is malformed or truncated."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Yield a file opened on a new temporary file in path's directory;
    when the block ends without error, `os.replace` moves it onto path. On
    any error the temporary file is removed and path is left untouched.
    (This guards against a failing or interrupted writer; it does not
    fsync, so it makes no promise across a power loss.) An error opening
    the temporary file is raised naming path, with its errno."""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def float_bytes(values, dtype, what: str) -> bytes:
    """values stored as dtype; ValueError (`what` names them) if a stored
    value would be NaN or infinite, an overflow of dtype included."""
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(values, dtype=dtype)
    if not np.isfinite(stored).all():
        raise ValueError(f"non-finite value in the {what}")
    return stored.tobytes()


def join_lines(strings: Sequence[str], what: str) -> bytes:
    """The newline-joined UTF-8 table of `strings` (`what` names them)."""
    for s in strings:
        if "\n" in s:
            raise ValueError(f"{what} {s!r} contains a newline")
    return "\n".join(strings).encode("utf-8")


class Reader:
    """An artifact read front to back from one read-only mapping of path,
    each read checked against the bytes left. `take` and `floats` give
    read-only views; the mapping lives while one does, and it outlives a
    replace of path, not a truncation in place."""

    def __init__(self, path):
        self.path, self.pos = path, 0
        with open(path, "rb") as fh:
            try:
                # mmap refuses an empty file, which reads as empty instead.
                self.data = memoryview(
                    mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                    if os.fstat(fh.fileno()).st_size else b"")
            except OSError as exc:
                raise FormatError(f"{path}: cannot map: {exc}") from exc

    def take(self, n: int) -> memoryview:
        """The next n bytes."""
        left = len(self.data) - self.pos
        if n > left:
            raise FormatError(f"{self.path}: truncated at byte {self.pos}: "
                              f"needs {n} more bytes, has {left}")
        self.pos += n
        return self.data[self.pos - n:self.pos]

    def floats(self, shape: tuple[int, ...], dtype, what: str) -> np.ndarray:
        """The next array of shape, as stored in dtype; a NaN or infinite
        value raises FormatError (`what` names the table)."""
        dtype = np.dtype(dtype)
        stored = np.frombuffer(self.take(math.prod(shape) * dtype.itemsize),
                               dtype=dtype)
        if not np.isfinite(stored).all():
            raise FormatError(f"{self.path}: non-finite value in the {what}")
        return stored.reshape(shape)

    def lines(self, length: int, n: int, what: str) -> list[str]:
        """The newline-joined table of n strings written by `join_lines`."""
        try:
            text = str(self.take(length), "utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {what} table is not UTF-8") from exc
        # An empty table is one empty string when n == 1 and none when n == 0.
        strings = text.split("\n") if n or text else []
        if len(strings) != n:
            raise FormatError(f"{self.path}: {len(strings)} {what}s for {n} rows")
        return strings

    def end(self):
        """FormatError unless every byte has been read."""
        if len(self.data) > self.pos:
            raise FormatError(f"{self.path}: {len(self.data) - self.pos} "
                              f"trailing bytes after byte {self.pos}")


class Format(NamedTuple):
    """A binary artifact's magic, version word and header layout, and the
    names in its errors "bad <what> magic" and "unsupported <versioned> N"."""
    magic: bytes
    version: int
    layout: str
    what: str
    versioned: str

    def write(self, path, fields: Sequence[int], *tables: bytes):
        """Header of fields, then each table, one write apiece, atomically."""
        with atomic_write(path) as fh:
            fh.write(self.magic + struct.pack("<I", self.version)
                     + struct.pack(self.layout, *fields))
            for table in tables:
                fh.write(table)

    def read(self, path) -> tuple[Reader, tuple]:
        """A `Reader` past path's checked header, and the header's fields."""
        r = Reader(path)
        if r.take(4) != self.magic:
            raise FormatError(f"{path}: bad {self.what} magic")
        found, = struct.unpack("<I", r.take(4))
        if found != self.version:
            raise FormatError(f"{path}: unsupported {self.versioned} {found}")
        return r, struct.unpack(self.layout, r.take(struct.calcsize(self.layout)))


def ascending(strings: Sequence[str]) -> bool:
    """Whether strings are strictly ascending, the order of RIDX and RPQX
    ids and of the RLAB vocab after UNK: one linear pass, no copy."""
    rest = iter(strings)
    next(rest, None)
    return all(map(operator.lt, strings, rest))


def jsonl_objects(path) -> Iterator[tuple[str, dict]]:
    """(location, object) for each nonblank line of a JSONL file; text that
    is not UTF-8, invalid JSON or a non-object raises FormatError naming the
    file and line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
                continue
            where = f"{path}, line {lineno}"
            try:
                obj = json.loads(line.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise FormatError(f"{where}: not UTF-8") from exc
            except ValueError as exc:
                raise FormatError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise FormatError(f"{where}: expected a JSON object")
            yield where, obj
