"""Versioned embedding index with exact top-k search.

Search is exact: one product scores every row and one global selection
takes the top k, so the output is identical to a brute-force pass. Ties
are broken by ascending passage id everywhere a top-k cut is taken. The
`shards` field is stored metadata and does not change results. Rebuilds
produce a new immutable index with an incremented version.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .corpus import Passage
from .formats import (FormatError, atomic_write, join_lines, read_end,
                      read_exact, read_lines)
from .retriever import DualEncoder, encode_doc

_PRECISIONS = {"float32": 0, "float16": 1}
_PRECISION_NAMES = {v: k for k, v in _PRECISIONS.items()}


def _store(vectors: np.ndarray, precision: str) -> np.ndarray:
    """Emulate storage precision: float16 rounds on write, arithmetic
    stays in full precision."""
    if precision == "float16":
        return vectors.astype(np.float16).astype(np.float64)
    return vectors.astype(np.float32).astype(np.float64)


@dataclass
class EmbeddingIndex:
    version: int
    dim: int
    ids: list[str]  # ascending
    vectors: np.ndarray  # (N, dim)
    precision: str = "float32"
    shards: int = 1
    dump_date: str | None = None

    @property
    def size(self) -> int:
        return len(self.ids)

    @cached_property
    def row_of(self) -> dict[str, int]:
        """Passage id -> row, built on first use; an index never changes."""
        return {pid: i for i, pid in enumerate(self.ids)}

    def memory_bytes(self) -> int:
        per_scalar = 2 if self.precision == "float16" else 4
        return self.size * self.dim * per_scalar


def build(passages: Sequence[Passage], encoder: DualEncoder,
          shards: int = 1, precision: str = "float32",
          previous_version: int = 0) -> EmbeddingIndex:
    """Embed every passage with the document encoder. Entries are ordered
    by ascending passage id; version = previous + 1."""
    if not passages:
        raise ValueError("cannot build an index from zero passages")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    ordered = sorted(passages, key=lambda p: p.id)
    ids = [p.id for p in ordered]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate passage ids")
    vectors = np.stack([encode_doc(encoder, p.text) for p in ordered])
    dates = {p.dump_date for p in ordered if p.dump_date}
    return EmbeddingIndex(
        version=previous_version + 1,
        dim=encoder.dim,
        ids=ids,
        vectors=_store(vectors, precision),
        precision=precision,
        shards=shards,
        dump_date=dates.pop() if len(dates) == 1 else None,
    )


def _top_k(ids: Sequence[str], scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """k best by descending score, ties by ascending id.

    A partition finds the k-th best score; every row scoring at least that
    stays a candidate, so all ties at the cut are ordered by id. Ids are
    compared as Python strings (an object array), exactly like `sorted`.
    """
    if k < len(scores):
        kth = -np.partition(-scores, k - 1)[k - 1]
        rows = np.flatnonzero(scores >= kth)
    else:
        rows = np.arange(len(scores))
    candidate_ids = np.array([ids[i] for i in rows], dtype=object)
    order = rows[np.lexsort((candidate_ids, -scores[rows]))[:k]]
    return [(ids[i], float(scores[i])) for i in order]


def search(index: EmbeddingIndex, q_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Exact top-k by dot product: one matvec and one global selection.

    Returns min(k, N) results, identical to a full brute-force scan.
    `index.shards` does not change the results.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q_vec = np.asarray(q_vec, dtype=np.float64)
    if q_vec.shape != (index.dim,):
        raise ValueError(f"query dimension {q_vec.shape} != index dim {index.dim}")
    return _top_k(index.ids, index.vectors @ q_vec, k)


def search_batch(index: EmbeddingIndex, q_vecs: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
    """`search` for each row of q_vecs, scored by one matrix product."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q_vecs = np.asarray(q_vecs, dtype=np.float64)
    if q_vecs.ndim != 2 or q_vecs.shape[1] != index.dim:
        raise ValueError(f"query batch shape {q_vecs.shape} != (B, {index.dim})")
    return [_top_k(index.ids, row, k) for row in q_vecs @ index.vectors.T]


# ---------------------------------------------------------------------------
# Index file: magic "RIDX", version, dim, precision, N; id table; vector
# block. Little-endian throughout, bit-exact round trip.

_MAGIC = b"RIDX"
_FORMAT_VERSION = 1


def save_index(index: EmbeddingIndex, path):
    id_blob = join_lines(index.ids, "id")
    dtype = "<f2" if index.precision == "float16" else "<f4"
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIBIQ", _FORMAT_VERSION, index.version,
                             index.dim, _PRECISIONS[index.precision],
                             index.size, len(id_blob)))
        fh.write(id_blob)
        fh.write(np.ascontiguousarray(index.vectors, dtype=dtype).tobytes())


def load_index(path) -> EmbeddingIndex:
    with open(path, "rb") as fh:
        if read_exact(fh, 4, path) != _MAGIC:
            raise FormatError(f"{path}: bad index magic")
        fmt, version, dim, prec, n, id_len = struct.unpack(
            "<IIIBIQ", read_exact(fh, 25, path))
        if fmt != _FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported index format {fmt}")
        if prec not in _PRECISION_NAMES:
            raise FormatError(f"{path}: unknown precision code {prec}")
        precision = _PRECISION_NAMES[prec]
        ids = read_lines(fh, id_len, n, path, "id")
        dtype = np.dtype("<f2" if precision == "float16" else "<f4")
        vectors = np.frombuffer(read_exact(fh, n * dim * dtype.itemsize, path),
                                dtype=dtype).astype(np.float64)
        read_end(fh, path)
    return EmbeddingIndex(version=version, dim=dim, ids=ids,
                          vectors=vectors.reshape(n, dim),
                          precision=precision)
