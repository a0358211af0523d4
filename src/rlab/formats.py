"""Pieces shared by rlab's file readers and writers.

Every reader (RIDX, RPQX, RLAB and JSONL) raises `FormatError` for
malformed or truncated input, and the CLI maps it to exit 1. Binary
reads are checked against the file size before they happen. Every JSONL
reader (raw documents, passages, choice tasks) takes its lines from
`jsonl_objects` and names the file and line of a bad record. String
tables (ids, vocab tokens) are stored newline-joined, so writers refuse
any string holding a newline before they open the file. Float tables go
through `float_bytes` and `read_floats`: a writer refuses, before it
opens the file, a value that would be stored as NaN or infinite, and a
reader rejects one. Every artifact writer goes through `atomic_write`,
so a failed write leaves the previous file as it was.
"""

from __future__ import annotations

import contextlib
import json
import math
import mmap
import operator
import os
import secrets
from typing import Iterator, Sequence

import numpy as np


class FormatError(ValueError):
    """An input file (RIDX, RPQX, RLAB or JSONL) is malformed or truncated."""


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Yield a file opened on a new temporary file in path's directory;
    when the block ends without error, `os.replace` moves it onto path. On
    any error the temporary file is removed and path is left untouched.
    (This guards against a failing or interrupted writer; it does not
    fsync, so it makes no promise across a power loss.)"""
    path = os.fspath(path)
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def remaining(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_exact(fh, n: int, path, mapped: bool = False) -> bytes | memoryview:
    """Read exactly n bytes or raise FormatError naming the file. The size
    is checked first, so a corrupt length never allocates a huge buffer.
    `mapped` gives instead a read-only view of the file mapped read-only,
    with no copy. The view owns the mapping (unmapped with its last view)
    and outlives a replace of path, not a truncation in place."""
    left = remaining(fh)
    if n > left:
        raise FormatError(f"{path}: truncated at byte {fh.tell()}: needs "
                          f"{n} more bytes, has {left}")
    if not mapped:
        return fh.read(n)
    try:
        data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise FormatError(f"{path}: cannot map: {exc}") from exc
    start = fh.seek(n, os.SEEK_CUR) - n
    return memoryview(data)[start:start + n]


def read_end(fh, path):
    if remaining(fh):
        raise FormatError(f"{path}: {remaining(fh)} trailing bytes "
                          f"after byte {fh.tell()}")


def float_bytes(values, dtype, what: str) -> bytes:
    """values stored as dtype; ValueError (`what` names them) if a stored
    value would be NaN or infinite, an overflow of dtype included."""
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(values, dtype=dtype)
    if not np.isfinite(stored).all():
        raise ValueError(f"non-finite value in the {what}")
    return stored.tobytes()


def read_floats(fh, shape: tuple[int, ...], dtype, path, what: str,
                mapped: bool = False) -> np.ndarray:
    """The next array of shape, stored as dtype: float64, or the stored
    values if `mapped` (see `read_exact`); a NaN or infinite value raises
    FormatError naming the file (checked before the upcast)."""
    dtype = np.dtype(dtype)
    stored = np.frombuffer(read_exact(fh, math.prod(shape) * dtype.itemsize,
                                      path, mapped), dtype=dtype)
    if not np.isfinite(stored).all():
        raise FormatError(f"{path}: non-finite value in the {what}")
    return (stored if mapped else stored.astype(np.float64)).reshape(shape)


def join_lines(strings: Sequence[str], what: str) -> bytes:
    """The newline-joined UTF-8 table of `strings` (`what` names them)."""
    for s in strings:
        if "\n" in s:
            raise ValueError(f"{what} {s!r} contains a newline")
    return "\n".join(strings).encode("utf-8")


def read_lines(fh, length: int, n: int, path, what: str) -> list[str]:
    """The newline-joined table of n strings written by `join_lines`."""
    try:
        text = read_exact(fh, length, path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} table is not UTF-8") from exc
    # An empty table is one empty string when n == 1 and none when n == 0.
    strings = text.split("\n") if n or text else []
    if len(strings) != n:
        raise FormatError(f"{path}: {len(strings)} {what}s for {n} rows")
    return strings


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
            if not line.strip():
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


def is_number(value) -> bool:
    """Whether a decoded JSON value is a number (an int or float, not a
    bool)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
