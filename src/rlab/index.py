"""Versioned embedding index with exact top-k search.

An index keeps its rows in ascending id order, so a row's position is its
id rank. Search is exact: one product scores every row and one global
selection takes the top k rows, ties by ascending row (hence by id), so
the output is identical to a brute-force pass. The `shards` field is
stored metadata and does not change results. Rebuilds produce a new
immutable index with an incremented version; `build` encodes every
passage in one `retriever.encode_texts` call. `PRECISIONS` maps each
storage precision to its dtype, and its RIDX code is its position there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Passage, TokenTable
from .formats import FormatError, Format, ascending, float_bytes, join_lines
from .retriever import DualEncoder, encode_texts

PRECISIONS = {"float32": np.dtype("<f4"), "float16": np.dtype("<f2")}


def _dtype(precision: str) -> np.dtype:
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}")
    return PRECISIONS[precision]


def sort_by_id(ids: Sequence[str], rows: np.ndarray) -> tuple[Sequence[str], np.ndarray]:
    """ids in ascending order, with rows (one per id) permuted alongside.
    Ascending ids are returned as given, with no copy. Duplicate ids raise
    ValueError."""
    if ascending(ids):
        return ids, rows
    order = sorted(range(len(ids)), key=ids.__getitem__)
    ids = [ids[i] for i in order]
    if not ascending(ids):
        dup = next(a for a, b in zip(ids, ids[1:]) if a == b)
        raise ValueError(f"duplicate id {dup!r}")
    return ids, np.asarray(rows)[order]


@dataclass(frozen=True)
class EmbeddingIndex:
    """Row i holds the vector of ids[i]. The constructor puts the rows in
    ascending id order, so ascending row is ascending id; fields cannot be
    reassigned afterwards (use `dataclasses.replace`)."""
    version: int
    dim: int
    ids: list[str]
    vectors: np.ndarray  # (N, dim)
    precision: str = "float32"
    shards: int = 1
    dump_date: str | None = None

    def __post_init__(self):
        _dtype(self.precision)  # rejects an unknown precision
        if self.shards < 1:
            raise ValueError(f"shards={self.shards} is not >= 1")
        if np.shape(self.vectors) != (len(self.ids), self.dim):
            raise ValueError(f"vectors of shape {np.shape(self.vectors)} "
                             f"for {len(self.ids)} ids of dim {self.dim}")
        ids, vectors = sort_by_id(self.ids, self.vectors)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "vectors", vectors)

    @property
    def size(self) -> int:
        return len(self.ids)

    def memory_bytes(self) -> int:
        return self.size * self.dim * PRECISIONS[self.precision].itemsize


def build(passages: Sequence[Passage], encoder: DualEncoder,
          shards: int = 1, precision: str = "float32",
          previous_version: int = 0, rows: np.ndarray | None = None) -> EmbeddingIndex:
    """Embed every passage with the document encoder; the index sorts them
    by id if needed. version = previous + 1. rows, the encoder vocab row
    of each token position of the passages' texts in passage order, are
    found here when not given."""
    if not passages:
        raise ValueError("cannot build an index from zero passages")
    if rows is None:
        rows = TokenTable([p.text for p in passages]).vocab_rows(encoder.vocab)
    _, vectors = encode_texts(encoder.doc, rows, [len(p.text) for p in passages])
    # Storage precision rounds on write; arithmetic stays in float64.
    vectors[...] = vectors.astype(_dtype(precision))
    dates = {p.dump_date for p in passages if p.dump_date}
    return EmbeddingIndex(
        version=previous_version + 1,
        dim=encoder.dim,
        ids=[p.id for p in passages],
        vectors=vectors,
        precision=precision,
        shards=shards,
        dump_date=dates.pop() if len(dates) == 1 else None,
    )


def _top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Rows of the k best scores: descending score, ties by ascending row.

    A partition finds the k-th best score; every row scoring at least that
    stays a candidate, so all ties at the cut are ordered by row. In an
    index, ascending row is ascending id.
    """
    if k < len(scores):
        kth = -np.partition(-scores, k - 1)[k - 1]
        rows = np.flatnonzero(scores >= kth)
    else:
        rows = np.arange(len(scores))
    return rows[np.argsort(-scores[rows], kind="stable")[:k]]


def _results(ids: Sequence[str], scores: np.ndarray, k: int) -> list[tuple[str, float]]:
    """The top k as (id, score) pairs, best first."""
    rows = _top_k(scores, k)
    return list(zip([ids[i] for i in rows.tolist()], scores[rows].tolist()))


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
    return _results(index.ids, index.vectors @ q_vec, k)


def search_batch(index: EmbeddingIndex, q_vecs: np.ndarray, k: int) -> list[list[tuple[str, float]]]:
    """`search` for each row of q_vecs, scored by one matrix product."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q_vecs = np.asarray(q_vecs, dtype=np.float64)
    if q_vecs.ndim != 2 or q_vecs.shape[1] != index.dim:
        raise ValueError(f"query batch shape {q_vecs.shape} != (B, {index.dim})")
    return [_results(index.ids, row, k) for row in q_vecs @ index.vectors.T]


# ---------------------------------------------------------------------------
# Index file: magic; format (2), version, dim, precision, N, id table
# bytes, shards, dump_date count (0 or 1) and bytes; the dump_date; the id
# table, strictly ascending; the vector block. Little-endian throughout,
# bit-exact round trip. Any other format is a format error.

_RIDX = Format(b"RIDX", 2, "<IIBIQIBI", "index", "index format")


def save_index(index: EmbeddingIndex, path):
    id_blob = join_lines(index.ids, "id")
    dates = [] if index.dump_date is None else [index.dump_date]
    date_blob = join_lines(dates, "dump_date")
    vector_blob = float_bytes(index.vectors, PRECISIONS[index.precision], "vectors")
    _RIDX.write(path, (index.version, index.dim,
                       list(PRECISIONS).index(index.precision), index.size,
                       len(id_blob), index.shards, len(dates), len(date_blob)),
                date_blob, id_blob, vector_blob)


def load_index(path) -> EmbeddingIndex:
    r, (version, dim, prec, n, id_len, shards, n_dates, date_len) = _RIDX.read(path)
    if prec >= len(PRECISIONS):
        raise FormatError(f"{path}: unknown precision code {prec}")
    precision = list(PRECISIONS)[prec]
    if n_dates > 1:
        raise FormatError(f"{path}: bad header: {n_dates} dump dates")
    dates = r.lines(date_len, n_dates, "dump_date")
    ids = r.lines(id_len, n, "id")
    vectors = r.floats((n, dim), PRECISIONS[precision], "vectors")
    r.end()
    return _from_file(EmbeddingIndex, path, version=version, dim=dim,
                      ids=ids, vectors=vectors.astype(np.float64),
                      precision=precision, shards=shards,
                      dump_date=dates[0] if dates else None)


def _from_file(cls, path, **fields):
    """cls(**fields) for an index read from path: FormatError naming the
    fault the constructor finds, or if it has to sort the ids (it keeps
    ascending ids as given, so the id table's strict order is checked in
    one pass)."""
    try:
        index = cls(**fields)
    except ValueError as exc:
        order = "" if ascending(fields["ids"]) else "ids are not strictly ascending: "
        raise FormatError(f"{path}: {order}{exc}") from exc
    if index.ids is not fields["ids"]:
        raise FormatError(f"{path}: ids are not strictly ascending")
    return index
