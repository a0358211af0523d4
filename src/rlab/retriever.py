"""Trainable dual encoder.

Queries and documents are embedded independently: mean pooling over a
learned token embedding table followed by an optional linear projection.
Relevance is the dot product of the two embeddings, and the distribution
over a retrieved top-K set is a temperature softmax of the scores.

The query and document sides hold separate parameter sets (tied copies at
initialization) so that query-side-only training can freeze the document
encoder and keep a prebuilt index valid. `encode_texts` encodes texts,
many at once, from their embedding rows in CSR form (`Vocab.rows` bisects
the sorted vocab). Training and the finite-difference check share one
backprop, `encoder_gradient`, from each example's score gradients and the
pooled means of the forward pass. A training step calls it once for all
of its examples, with one `_backprop_side` per trained side over all of
their texts; its bits are those of adding the examples one by one.

A loaded encoder's embedding tables are read-only float32 views of the
checkpoint's one mapping (`formats.Reader`), its projections float64
copies; `encode_texts` upcasts only the rows it gathers, so vectors match
the tables upcast whole. `copy()` gives a float64 one to train.

An example touches only the embedding rows of its own tokens, so
`Gradients` keeps each embedding gradient as its touched rows, each once,
summed by `sum_rows` in the order of a dense `np.add.at`: the SGD update
is bit-identical to a dense one without ever filling a |V| x d table.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .formats import FormatError, Format, ascending, float_bytes, join_lines

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
    query and document sides start as tied copies: the query side holds
    the drawn table, the document side one copy of it.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(dim)
    emb = rng.uniform(-bound, bound, size=(len(vocab), dim))
    return DualEncoder(vocab, EncoderParams(emb, np.eye(dim)),
                       EncoderParams(emb.copy(), np.eye(dim)))


_BLOCK_ROWS = 4096  # embedding rows gathered at a time


def encode_texts(params: EncoderParams, rows: np.ndarray,
                 lengths: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Float64 mean embedding and encoded vector of each text, the texts
    in CSR form: text i is the next lengths[i] of the embedding rows. Texts
    of one length L are pooled in blocks of at most _BLOCK_ROWS rows, each
    (n, L, d) gather summed along axis 1 in float64: the additions, so the
    bits, of `mean(axis=0)` on one text. The projection is one matvec per
    text, as a GEMM's bits would differ."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if (lengths < 1).any():
        raise ValueError("empty input")
    rows, starts = np.asarray(rows), np.cumsum(lengths) - lengths
    pooled = np.empty((len(lengths), params.dim))
    for n in np.unique(lengths).tolist():
        group = np.flatnonzero(lengths == n)
        step = max(_BLOCK_ROWS // n, 1)
        for texts in np.split(group, range(step, len(group), step)):
            block = params.embedding[rows[starts[texts, None] + np.arange(n)]]
            pooled[texts] = block.sum(axis=1, dtype=np.float64) / n
    vectors = np.empty_like(pooled)
    for p, v in zip(pooled, vectors):
        np.matmul(params.projection, p, out=v)
    return pooled, vectors


def encode_query(enc: DualEncoder, text: Sequence[str]) -> np.ndarray:
    return encode_texts(enc.query, enc.vocab.rows(text), [len(text)])[1][0]


def encode_doc(enc: DualEncoder, text: Sequence[str]) -> np.ndarray:
    return encode_texts(enc.doc, enc.vocab.rows(text), [len(text)])[1][0]


def softmax(x: np.ndarray) -> np.ndarray:
    z = x - np.max(x)
    e = np.exp(z)
    return e / e.sum()


def check_distribution(p: np.ndarray, name: str):
    """Raise ValueError unless p is a finite distribution up to rounding."""
    if not (np.all(p >= -1e-12) and abs(p.sum() - 1.0) <= 1e-6):
        raise ValueError(f"{name} is not a valid distribution")


def retrieval_distribution(scores: Sequence[float], temperature: float) -> np.ndarray:
    """Temperature softmax over retrieval scores, max-stabilized."""
    if not 0 < temperature < np.inf:
        raise ValueError("temperature must be finite and > 0")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 1:
        raise ValueError("scores must be a nonempty vector")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    return softmax(s / temperature)


@dataclass
class Gradients:
    """Gradients of the DualEncoder parameters. The projection gradients
    are dense; each embedding gradient is sparse: the touched rows, strictly
    ascending, and each row's summed gradient, so no |V|-sized array is
    ever filled. A row touched only with zero gradients carries +0.0."""

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
        self.query_rows, self.query_values = sum_rows(
            np.concatenate([self.query_rows, other.query_rows]),
            np.concatenate([self.query_values, scale * other.query_values]))
        self.query_projection += scale * other.query_projection
        self.doc_rows, self.doc_values = sum_rows(
            np.concatenate([self.doc_rows, other.doc_rows]),
            np.concatenate([self.doc_values, scale * other.doc_values]))
        self.doc_projection += scale * other.doc_projection

    def _dense(self, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
        dense = np.zeros((self.vocab_size, values.shape[1]))
        dense[rows] = values
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
    from zero: one `np.bincount` over bins (distinct row) * d + column makes
    the same additions as `np.add.at` into a dense table."""
    distinct, inverse = np.unique(rows, return_inverse=True)
    n, d = len(distinct), values.shape[1]
    bins = (inverse.reshape(-1, 1) * d + np.arange(d)).ravel()
    summed = np.bincount(bins, weights=np.ravel(values), minlength=n * d)
    # float64 even with no rows, where np.bincount gives int64.
    return distinct, summed.astype(np.float64, copy=False).reshape(n, d)


def _backprop_side(params: EncoderParams, rows: np.ndarray,
                   lengths: np.ndarray, pooled: np.ndarray,
                   grad_vecs: np.ndarray, counts: np.ndarray,
                   scale: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ascending embedding rows, their values, and projection gradient, of
    scale times d(loss)/d(encoded vector) of texts in CSR form with their
    pooled means, counts[0] texts of example 0 first, and so on. Each example
    is summed from +0.0 in text order (rows in token order) and scaled, then
    each row's examples are added to +0.0 in order, as one at a time would."""
    vocab_size, first = len(params.embedding), np.cumsum(counts) - counts
    # One pass per text position adds in text order whatever order numpy's
    # reductions take, and holds one product per example.
    per_example = np.zeros((len(counts), params.dim, params.dim))
    for j in range(counts.max()):
        texts = first[counts > j] + j
        per_example[counts > j] += (grad_vecs[texts, :, None]
                                    * pooled[texts, None, :])
    projection = sum(scale * per_example, np.zeros_like(params.projection))
    grad_pooled = np.empty_like(grad_vecs)
    for g, out in zip(grad_vecs, grad_pooled):  # a GEMM's bits would differ
        np.matmul(params.projection.T, g, out=out)
    keys = np.repeat(vocab_size * np.repeat(np.arange(len(counts)), counts),
                     lengths) + rows
    distinct, summed = sum_rows(keys, np.repeat(
        grad_pooled / lengths[:, None], lengths, axis=0))
    return (*sum_rows(distinct % vocab_size, scale * summed), projection)


def encoder_gradient(enc: DualEncoder, queries: Sequence[np.ndarray],
                     g_scores: Sequence[np.ndarray],
                     d_vecs: Sequence[np.ndarray],
                     docs: Sequence[np.ndarray] | None,
                     scale: float) -> Gradients:
    """Gradient of scale times the summed losses of B examples, given the
    rows, lengths (CSR form), pooled means and vectors of their queries,
    each one's d(loss)/d(scores) (empty if it retrieved nothing) and the
    document vectors it scored, and, unless None (no document trains), the
    rows, lengths and pooled means of their documents, example after
    example; one `_backprop_side` per trained side, each embedding row
    once: bit-equal to `zeros_like` plus `add_scaled(gradient of the
    example, scale)` for each example in turn, so zero with none."""
    grads = Gradients.zeros_like(enc)
    if not len(g_scores):
        return grads
    *queries, q_vecs = queries
    counts = np.array([len(g) for g in g_scores], dtype=np.int64)
    q_grads = np.array([g @ vecs for g, vecs in zip(g_scores, d_vecs)])
    grads.query_rows, grads.query_values, grads.query_projection = (
        _backprop_side(enc.query, *queries, q_grads, np.ones_like(counts),
                       scale))
    if docs is not None:
        d_grads = (np.concatenate(g_scores)[:, None]
                   * np.repeat(q_vecs, counts, axis=0))
        grads.doc_rows, grads.doc_values, grads.doc_projection = (
            _backprop_side(enc.doc, *docs, d_grads, counts, scale))
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
    if target.shape != (len(docs),):
        raise ValueError(f"{target.size} target_probs for {len(docs)} docs")
    check_distribution(target, "target_probs")

    query_rows = enc.vocab.rows(query)
    doc_rows = enc.vocab.rows([t for doc in docs for t in doc])
    q_lengths, doc_lengths = np.array([len(query)]), [len(d) for d in docs]
    q_pooled, q_vecs = encode_texts(enc.query, query_rows, q_lengths)
    d_pooled, d_vecs = encode_texts(enc.doc, doc_rows, doc_lengths)
    g_scores = (retrieval_distribution(d_vecs @ q_vecs[0], temperature)
                - target) / temperature
    trained = ((doc_rows, np.array(doc_lengths), d_pooled)
               if mode.trains_docs else None)
    return encoder_gradient(enc, (query_rows, q_lengths, q_pooled, q_vecs),
                            [g_scores], [d_vecs], trained, 1.0)


# ---------------------------------------------------------------------------
# Checkpoint file: magic, version (2), d, vocab size, vocab byte length,
# then row-major float32 tables (query emb, query proj, doc emb, doc
# proj), then the newline-joined vocab as UTF-8: UNK, then the other
# tokens strictly ascending. Any other version is a format error.

_RLAB = Format(b"RLAB", 2, "<IIQ", "checkpoint", "checkpoint version")


def save_checkpoint(enc: DualEncoder, path):
    vocab_blob = join_lines(enc.vocab.tokens, "vocab token")
    tables = []  # in the shapes the reader expects, checked before writing
    for side, params in (("query", enc.query), ("doc", enc.doc)):
        for name, rows in (("embedding", len(enc.vocab)), ("projection", enc.dim)):
            table = getattr(params, name)
            if np.shape(table) != (rows, enc.dim):
                raise ValueError(f"{side} {name} of shape {np.shape(table)} "
                                 f"is not ({rows}, {enc.dim})")
            tables.append(float_bytes(table, "<f4", "encoder tables"))
    _RLAB.write(path, (enc.dim, len(enc.vocab), len(vocab_blob)), *tables, vocab_blob)


def load_checkpoint(path) -> DualEncoder:
    r, (dim, vsize, vocab_len) = _RLAB.read(path)
    tables = [r.floats((rows, dim), "<f4", "encoder tables")
              for rows in (vsize, dim, vsize, dim)]
    tokens = r.lines(vocab_len, vsize, "vocab token")
    r.end()
    vocab = Vocab.__new__(Vocab)
    vocab.tokens = tokens
    # With the rest ascending, the only possible repeat is a second UNK,
    # which `rows` would then find in place of row 0.
    if (tokens[:1] != [UNK] or not ascending(tokens[1:])
            or vocab.rows([UNK])[0]):
        raise FormatError(f"{path}: vocab must be {UNK!r} and then strictly "
                          f"ascending tokens")
    return DualEncoder(vocab,
                       EncoderParams(tables[0], tables[1].astype(np.float64)),
                       EncoderParams(tables[2], tables[3].astype(np.float64)))
