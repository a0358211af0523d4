"""Pieces shared by rlab's file readers and writers.

Every reader (RIDX, RPQX, RLAB and passage JSONL) raises `FormatError`
for malformed or truncated input, and the CLI maps it to exit 1. Binary
reads are checked against the file size before they happen. String
tables (ids, vocab tokens) are stored newline-joined, so writers refuse
any string holding a newline before they open the file.
"""

from __future__ import annotations

import os
from typing import Sequence


class FormatError(ValueError):
    """An input file (RIDX, RPQX, RLAB or JSONL) is malformed or truncated."""


def remaining(fh) -> int:
    return os.fstat(fh.fileno()).st_size - fh.tell()


def read_exact(fh, n: int, path) -> bytes:
    """Read exactly n bytes or raise FormatError naming the file. The size
    is checked first, so a corrupt length never allocates a huge buffer."""
    left = remaining(fh)
    if n > left:
        raise FormatError(f"{path}: truncated at byte {fh.tell()}: needs "
                          f"{n} more bytes, has {left}")
    return fh.read(n)


def read_end(fh, path):
    if remaining(fh):
        raise FormatError(f"{path}: {remaining(fh)} trailing bytes "
                          f"after byte {fh.tell()}")


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
