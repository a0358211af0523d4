"""Language-model scoring contract and the built-in analytic toy LM.

Every distillation loss consumes four quantities from the reader: the
per-document log-likelihood of the output, the joint log-likelihood given
the whole retrieved set, the leave-one-out joint log-likelihoods (each may
be -inf: the output ruled out), and a finite per-document attention
relevance >= 0. `LMScorer` spells that contract; `OverlapLM`, whose scores
are all finite, is its one implementation (the loss tests bring their own).

The built-in stand-in is a smoothed unigram-overlap model: the
probability of an output token given a document mixes the token's
in-document frequency with a uniform vocabulary floor, at the one fixed
weight SMOOTHING = 0.5:

    p(t | d) = SMOOTHING * count_d(t) / |d| + (1 - SMOOTHING) / |V|.

Conditioning on a document set pools the token counts of all documents,
matching the composition semantics where every document contributes to a
single fused context. The query does not enter the counts.

Each call counts the output tokens in every document into one (|output|, K)
matrix, keeps nothing, and makes every score a numpy expression over it: a
float64 array with one entry per document (a float for the joint). It counts
term ids with one `np.bincount` over a `corpus.TokenTable` (a view of the
trainer's, or documents interned on the fly), which indexes to token tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .corpus import TokenTable

TokenSeq = Sequence[str]
SMOOTHING = 0.5


class LMScorer(Protocol):
    """A log-likelihood may be -inf; a relevance is finite and >= 0."""
    def per_doc_loglik(self, query: TokenSeq, docs: Sequence[TokenSeq],
                       output: TokenSeq) -> np.ndarray: ...

    def joint_loglik(self, query: TokenSeq, docs: Sequence[TokenSeq],
                     output: TokenSeq) -> float: ...

    def loo_logliks(self, query: TokenSeq, docs: Sequence[TokenSeq],
                    output: TokenSeq) -> np.ndarray: ...

    def attention_relevance(self, query: TokenSeq, docs: Sequence[TokenSeq],
                            output: TokenSeq) -> np.ndarray: ...


def _count_matrix(docs: Sequence[TokenSeq],
                  output: TokenSeq) -> tuple[np.ndarray, np.ndarray]:
    """(|output|, K) counts of each output token in each document, and the
    K document lengths, counted over term ids: documents that are not a
    token table are interned into one first."""
    if not output:
        raise ValueError("empty output")
    table = docs if isinstance(docs, TokenTable) else TokenTable(docs)
    terms, lengths = table.gather(table.terms)
    row = {t: i for i, t in enumerate(dict.fromkeys(output))}
    # slot[term]: its output row, else -1. Output tokens that are not
    # terms of the table write the spare last slot, which no term reads.
    slot = np.full(len(table.term_strings) + 1, -1)
    slot[[table.term_ids.get(t, -1) for t in row]] = np.arange(len(row))
    hits = slot.take(terms)
    cells = hits * len(table) + np.repeat(np.arange(len(table)), lengths)
    counts = np.bincount(cells[hits >= 0], minlength=len(row) * len(table))
    return counts.reshape(len(row), -1)[[row[t] for t in output]], lengths


@dataclass
class OverlapLM:
    vocab_size: int

    def __post_init__(self):
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")

    def _logliks(self, counts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Log-likelihood per context (column): a running sum over the token
        rows in order, which `sum` may pair up. An empty context has freq 0."""
        freq = np.divide(counts, lengths, out=np.zeros(counts.shape),
                         where=lengths > 0)
        factors = SMOOTHING * freq + (1.0 - SMOOTHING) / self.vocab_size
        return np.cumsum(np.log(factors), axis=0)[-1]

    def per_doc_loglik(self, query, docs, output):
        return self._logliks(*_count_matrix(docs, output))

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
                             lengths.sum() - lengths)

    def attention_relevance(self, query, docs, output):
        """Overlap proxy for aggregated attention mass: the mean over
        output tokens of each token's in-document frequency."""
        counts, lengths = _count_matrix(docs, output)
        return np.divide(counts.sum(axis=0), lengths * len(output),
                         out=np.zeros(len(docs)), where=lengths > 0)
