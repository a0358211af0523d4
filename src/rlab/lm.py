"""Language-model scoring contract and the built-in analytic toy LM.

Every distillation loss consumes four quantities from the reader: the
per-document conditional log-likelihood of the output, the joint
log-likelihood given the whole retrieved set, the leave-one-out joint
log-likelihoods, and a nonnegative per-document attention relevance.
`LMScorer` spells that contract; `OverlapLM` is its one implementation
here (the loss tests bring a fixed-value scorer of their own).

The built-in stand-in is a smoothed unigram-overlap model: the
probability of an output token given a document mixes the token's
in-document frequency with a uniform vocabulary floor,

    p(t | d) = lam * count_d(t) / |d| + (1 - lam) / |V|.

Conditioning on a document set pools the token counts of all documents,
matching the composition semantics where every document contributes to a
single fused context. The query does not enter the counts.

Each call counts the output tokens in every document into one
(|output|, K) matrix and every score is a numpy expression over it;
nothing is kept between calls. It counts term ids with one `np.bincount`
over a `corpus.TokenTable` (a view of the trainer's, or the documents
interned on the fly); a table indexes to token tuples for other scorers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .corpus import TokenTable

TokenSeq = Sequence[str]


class LMScorer(Protocol):
    def per_doc_loglik(self, query: TokenSeq, docs: Sequence[TokenSeq],
                       output: TokenSeq) -> list[float]: ...

    def joint_loglik(self, query: TokenSeq, docs: Sequence[TokenSeq],
                     output: TokenSeq) -> float: ...

    def loo_logliks(self, query: TokenSeq, docs: Sequence[TokenSeq],
                    output: TokenSeq) -> list[float]: ...

    def attention_relevance(self, query: TokenSeq, docs: Sequence[TokenSeq],
                            output: TokenSeq) -> list[float]: ...


def _count_matrix(docs: Sequence[TokenSeq],
                  output: TokenSeq) -> tuple[np.ndarray, np.ndarray]:
    """(|output|, K) counts of each output token in each document, and the
    K document lengths, counted over term ids: documents that are not a
    token table are interned into one first."""
    if not output:
        raise ValueError("empty output")
    table = docs if isinstance(docs, TokenTable) else TokenTable(docs)
    starts = table.offsets[table.rows]
    lengths = table.offsets[table.rows + 1] - starts
    row = {t: i for i, t in enumerate(dict.fromkeys(output))}
    # slot[term]: its output row, else -1. Output tokens that are not
    # terms of the table write the spare last slot, which no term reads.
    slot = np.full(len(table.term_strings) + 1, -1)
    slot[[table.term_ids.get(t, -1) for t in row]] = np.arange(len(row))
    hits = slot[table.terms[np.arange(lengths.sum()) + np.repeat(
        starts - np.cumsum(lengths) + lengths, lengths)]]
    cells = hits * len(table) + np.repeat(np.arange(len(table)), lengths)
    counts = np.bincount(cells[hits >= 0], minlength=len(row) * len(table))
    return counts.reshape(len(row), -1)[[row[t] for t in output]], lengths


@dataclass
class OverlapLM:
    vocab_size: int
    smoothing: float = 0.5

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        if not (0.0 < self.smoothing < 1.0):
            raise ValueError("smoothing must be strictly inside (0,1)")

    def _token_logs(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """log p(t | context) per output token (row) and context (column);
        an empty context has frequency zero."""
        freq = np.divide(counts, lengths, out=np.zeros(counts.shape),
                         where=lengths > 0)
        return np.log(self.smoothing * freq
                      + (1.0 - self.smoothing) / self.vocab_size)

    def _logliks(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Output log-likelihood per context. The running sum adds the
        token factors in token order; `sum` may pair them up."""
        return np.cumsum(self._token_logs(counts, lengths), axis=0)[-1]

    def per_doc_loglik(self, query, docs, output):
        return self._logliks(*_count_matrix(docs, output)).tolist()

    def joint_loglik(self, query, docs, output):
        if not docs:
            raise ValueError("docs must be nonempty")
        counts, lengths = _count_matrix(docs, output)
        return float(self._logliks(counts.sum(axis=1, keepdims=True),
                                   lengths.sum(keepdims=True))[0])

    def loo_logliks(self, query, docs, output):
        if len(docs) < 2:
            raise ValueError("leave-one-out undefined for K=1")
        counts, lengths = _count_matrix(docs, output)
        return self._logliks(counts.sum(axis=1, keepdims=True) - counts,
                             lengths.sum() - lengths).tolist()

    def attention_relevance(self, query, docs, output):
        """Overlap proxy for aggregated attention mass: the mean over
        output tokens of each token's in-document frequency."""
        counts, lengths = _count_matrix(docs, output)
        return np.divide(counts.sum(axis=0), lengths * len(output),
                         out=np.zeros(len(docs)), where=lengths > 0).tolist()
