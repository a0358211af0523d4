"""Trainable dual encoder.

Queries and documents are embedded independently: mean pooling over a
learned token embedding table followed by an optional linear projection.
Relevance is the dot product of the two embeddings, and the distribution
over a retrieved top-K set is a temperature softmax of the scores.

The query and document sides hold separate parameter sets (tied copies at
initialization) so that query-side-only training can freeze the document
encoder and keep a prebuilt index valid. `encode` and the backprop take a
text's embedding rows (`Vocab.rows` bisects the sorted vocab; interned
passages join it once in `corpus.TokenTable.vocab_rows`). Training and
the finite-difference check share one backprop, `encoder_gradient`.

A loaded encoder's embedding tables are read-only float32 views of the
mapped checkpoint; `_pooled` upcasts only the rows it gathers, so vectors
match the tables upcast whole. `copy()` gives a float64 one to train.

An example touches only the embedding rows of its own tokens, so
`Gradients` keeps each embedding gradient as sparse rows: the touched row
ids and their values in accumulation order. `sum_rows` adds a row's values
in that order, which is the order dense `np.add.at` accumulation would add
them, so the SGD update `embedding[rows] -= lr * summed` is bit-identical
to a dense one without ever filling a |V| x d table. The dense views
`Gradients.query_embedding` and `doc_embedding` exist for the gradient
check and tests.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .formats import (FormatError, ascending, atomic_write, float_bytes,
                      join_lines, read_end, read_exact, read_floats,
                      read_lines)

UNK = "<unk>"
DEFAULT_TEMPERATURE = 0.1  # tuned retrieval temperature


class MaintenanceMode(str, Enum):
    """Index-maintenance strategy; the trainer module describes each."""
    FIXED = "fixed"
    QUERY_SIDE = "query_side"
    RERANK = "rerank"
    FULL_REFRESH = "full_refresh"

    @property
    def trains_docs(self) -> bool:
        return self in (MaintenanceMode.RERANK, MaintenanceMode.FULL_REFRESH)


class Vocab:
    """Embedding rows of tokens: row 0 is UNK, then the other tokens
    strictly ascending (as a checkpoint stores them), so a token is found
    by bisection and no token -> row dict is built."""

    def __init__(self, tokens: Sequence[str]):
        self.tokens = [UNK] + sorted(set(tokens) - {UNK})

    def __len__(self) -> int:
        return len(self.tokens)

    def rows(self, text: Sequence[str]) -> np.ndarray:
        """Each token's row; UNK and tokens not in the vocab get row 0."""
        tokens, n = self.tokens, len(self.tokens)
        found = [bisect.bisect_left(tokens, t, 1) for t in text]
        return np.array([i if i < n and tokens[i] == t else 0
                         for i, t in zip(found, text)], dtype=np.int64)


@dataclass
class EncoderParams:
    """One side of the dual encoder: embedding table plus projection."""

    embedding: np.ndarray  # (|V|, d) float64, or read-only float32 if loaded
    projection: np.ndarray  # (d, d) float64

    @property
    def dim(self) -> int:
        return self.embedding.shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.embedding.astype(np.float64),
                             self.projection.copy())


@dataclass
class DualEncoder:
    vocab: Vocab
    query: EncoderParams
    doc: EncoderParams

    @property
    def dim(self) -> int:
        return self.query.dim

    def copy(self) -> "DualEncoder":
        return DualEncoder(self.vocab, self.query.copy(), self.doc.copy())


def init_encoder(vocab: Vocab, dim: int, seed: int = 0) -> DualEncoder:
    """Embeddings uniform in [-1/sqrt(d), 1/sqrt(d)], identity projection;
    query and document sides start as tied copies.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    emb = rng.uniform(-bound, bound, size=(len(vocab), dim))
    side = EncoderParams(emb, np.eye(dim))
    return DualEncoder(vocab, side.copy(), side.copy())


def _pooled(params: EncoderParams, rows: np.ndarray) -> np.ndarray:
    """Float64 mean of the embedding rows; only those rows are upcast."""
    return np.asarray(params.embedding[rows], dtype=np.float64).mean(axis=0)


def encode(params: EncoderParams, rows: np.ndarray) -> np.ndarray:
    """Projection applied to the mean of a text's embedding rows."""
    if len(rows) == 0:
        raise ValueError("empty input")
    return params.projection @ _pooled(params, rows)


def encode_query(enc: DualEncoder, text: Sequence[str]) -> np.ndarray:
    return encode(enc.query, enc.vocab.rows(text))


def encode_doc(enc: DualEncoder, text: Sequence[str]) -> np.ndarray:
    return encode(enc.doc, enc.vocab.rows(text))


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - np.max(x)
    e = np.exp(z)
    return e / e.sum()


def check_distribution(p: np.ndarray, name: str):
    """Raise ValueError unless p is a distribution up to rounding."""
    if np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} is not a valid distribution")


def retrieval_distribution(scores: Sequence[float], temperature: float) -> np.ndarray:
    """Temperature softmax over retrieval scores, max-stabilized."""
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a nonempty vector")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return softmax(s / temperature)


@dataclass
class Gradients:
    """Gradients of the DualEncoder parameters. The projection gradients
    are dense; each embedding gradient is sparse: the touched rows (repeats
    allowed) and one value per row entry, in accumulation order. A row's
    gradient is the in-order sum of its values, so no |V|-sized array is
    ever filled."""

    vocab_size: int
    query_rows: np.ndarray  # (n,) int64
    query_values: np.ndarray  # (n, d)
    query_projection: np.ndarray  # (d, d)
    doc_rows: np.ndarray
    doc_values: np.ndarray
    doc_projection: np.ndarray

    @classmethod
    def zeros_like(cls, enc: DualEncoder) -> "Gradients":
        no_rows = np.zeros(0, dtype=np.int64)
        no_values = np.zeros((0, enc.dim))
        return cls(len(enc.vocab),
                   no_rows, no_values, np.zeros_like(enc.query.projection),
                   no_rows, no_values, np.zeros_like(enc.doc.projection))

    def add_scaled(self, other: "Gradients", scale: float = 1.0):
        self.query_rows = np.concatenate([self.query_rows, other.query_rows])
        self.query_values = np.concatenate([self.query_values,
                                            scale * other.query_values])
        self.query_projection += scale * other.query_projection
        self.doc_rows = np.concatenate([self.doc_rows, other.doc_rows])
        self.doc_values = np.concatenate([self.doc_values,
                                          scale * other.doc_values])
        self.doc_projection += scale * other.doc_projection

    def _dense(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        dense = np.zeros((self.vocab_size, values.shape[1]))
        np.add.at(dense, rows, values)
        dense.flags.writeable = False
        return dense

    @property
    def query_embedding(self) -> np.ndarray:
        """Read-only dense (|V|, d) view, for the gradient check and tests."""
        return self._dense(self.query_rows, self.query_values)

    @property
    def doc_embedding(self) -> np.ndarray:
        """Read-only dense (|V|, d) view, for the gradient check and tests."""
        return self._dense(self.doc_rows, self.doc_values)


def sum_rows(rows: np.ndarray,
             values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, ascending, and each one's values summed in order
    from zero: the same additions as `np.add.at` into a dense table."""
    distinct, inverse = np.unique(rows, return_inverse=True)
    summed = np.zeros((len(distinct), values.shape[1]))
    np.add.at(summed, inverse, values)
    return distinct, summed


def _backprop_side(params: EncoderParams, rows: np.ndarray,
                   grad_vec: np.ndarray, grad_proj: np.ndarray) -> np.ndarray:
    """Accumulate d(loss)/d(projection) into grad_proj given d(loss)/d(encoded
    vector) of the text with embedding rows `rows`; return, one per row,
    the gradient that token occurrence receives."""
    grad_proj += np.outer(grad_vec, _pooled(params, rows))
    grad_pooled = params.projection.T @ grad_vec
    return np.broadcast_to(grad_pooled / len(rows),
                           (len(rows), len(grad_pooled)))


def encoder_gradient(enc: DualEncoder, query_rows: np.ndarray,
                     doc_rows: Sequence[np.ndarray], q_vec: np.ndarray,
                     d_vecs: np.ndarray, g_scores: np.ndarray,
                     mode: MaintenanceMode) -> Gradients:
    """Backprop d(loss)/d(scores), scores = d_vecs @ q_vec, into the encoder
    from the embedding rows of the query and of each document; document
    gradients stay zero unless the mode trains the document side. Each
    side's rows are summed in token order (over all K documents)."""
    grads = Gradients.zeros_like(enc)
    grads.query_rows, grads.query_values = sum_rows(
        query_rows, _backprop_side(enc.query, query_rows, g_scores @ d_vecs,
                                   grads.query_projection))
    if mode.trains_docs:
        values = [_backprop_side(enc.doc, rows, g_k * q_vec,
                                 grads.doc_projection)
                  for g_k, rows in zip(g_scores, doc_rows)]
        grads.doc_rows, grads.doc_values = sum_rows(
            np.concatenate(doc_rows), np.concatenate(values))
    return grads


def retriever_gradient(enc: DualEncoder, query: Sequence[str],
                       docs: Sequence[Sequence[str]],
                       target_probs: np.ndarray, temperature: float,
                       mode: MaintenanceMode) -> Gradients:
    """Gradient of KL(target || p_retr) with respect to encoder parameters.

    d KL / d scores = (p_retr - target) / temperature, with the target a
    constant (StopGradient). Scores are recomputed with the
    current parameters; in query_side mode document embeddings are treated
    as constants and their gradient entries stay identically zero.
    """
    mode = MaintenanceMode(mode)
    if mode == MaintenanceMode.FIXED:
        raise ValueError("retriever frozen")
    target = np.asarray(target_probs, dtype=np.float64)
    check_distribution(target, "target_probs")

    query_rows = enc.vocab.rows(query)
    doc_rows = [enc.vocab.rows(d) for d in docs]
    q_vec = encode(enc.query, query_rows)
    d_vecs = np.stack([encode(enc.doc, rows) for rows in doc_rows])
    probs = retrieval_distribution(d_vecs @ q_vec, temperature)
    return encoder_gradient(enc, query_rows, doc_rows, q_vec, d_vecs,
                            (probs - target) / temperature, mode)


# ---------------------------------------------------------------------------
# Checkpoint format: magic "RLAB", version (2), d, vocab size, vocab byte
# length, then row-major float32 tables (query emb, query proj, doc emb,
# doc proj), then the newline-joined vocab as UTF-8: UNK, then the other
# tokens strictly ascending. Any other version is a format error.

_MAGIC = b"RLAB"
_VERSION = 2


def save_checkpoint(enc: DualEncoder, path):
    vocab_blob = join_lines(enc.vocab.tokens, "vocab token")
    tables = [float_bytes(table, "<f4", "encoder tables")
              for table in (enc.query.embedding, enc.query.projection,
                            enc.doc.embedding, enc.doc.projection)]
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIQ", _VERSION, enc.dim, len(enc.vocab),
                             len(vocab_blob)))
        fh.writelines(tables)
        fh.write(vocab_blob)


def load_checkpoint(path) -> DualEncoder:
    with open(path, "rb") as fh:
        if read_exact(fh, 4, path) != _MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic")
        version, dim, vsize = struct.unpack("<III", read_exact(fh, 12, path))
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        vocab_len, = struct.unpack("<Q", read_exact(fh, 8, path))
        tables = [read_floats(fh, (rows, dim), "<f4", path, "encoder tables",
                              mapped)
                  for rows, mapped in [(vsize, True), (dim, False)] * 2]
        tokens = read_lines(fh, vocab_len, vsize, path, "vocab token")
        read_end(fh, path)
    vocab = Vocab.__new__(Vocab)
    vocab.tokens = tokens
    # With the rest ascending, the only possible repeat is a second UNK,
    # which `rows` would then find in place of row 0.
    if (tokens[:1] != [UNK] or not ascending(tokens[1:])
            or vocab.rows([UNK])[0]):
        raise FormatError(f"{path}: vocab must be {UNK!r} and then strictly "
                          f"ascending tokens")
    return DualEncoder(vocab,
                       EncoderParams(tables[0], tables[1]),
                       EncoderParams(tables[2], tables[3]))
