"""Self-supervised (query, output) pair generators.

Two pretext tasks: prefix language modeling (first half of a chunk
predicts the second) and masked span corruption (spans replaced by
sentinel tokens, generated back in order). Every example records the
passage it was built from so retrieval can exclude it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

RETRIEVER_MASK_TOKEN = "<mask>"


@dataclass(frozen=True)
class PretextExample:
    query: tuple[str, ...]
    output: tuple[str, ...]
    origin_passage_id: str

    def __post_init__(self):
        if not self.query or not self.output:
            raise ValueError("query and output must be nonempty")

    def retrieval_query(self) -> tuple[str, ...]:
        """Query as seen by the retriever: sentinel tokens collapse to the
        retriever's single mask token."""
        return tuple(RETRIEVER_MASK_TOKEN if t.startswith("[MASK_") else t
                     for t in self.query)


def prefix_lm_example(chunk: Sequence[str], origin_id: str = "") -> PretextExample:
    """Split a chunk in two: the first ceil(N/2) tokens are the query, the
    remainder the output."""
    n = len(chunk)
    if n < 2:
        raise ValueError("chunk must hold at least two tokens")
    half = (n + 1) // 2
    return PretextExample(query=tuple(chunk[:half]), output=tuple(chunk[half:]),
                          origin_passage_id=origin_id)


# Poisson span lengths truncated to [1, 10]; the truncated mean is ~3.15,
# used to pick the span count that lands the masked fraction on
# MASK_RATIO.
MASK_RATIO = 0.15
_SPAN_MEAN = 3.0
_SPAN_MAX = 10
_TRUNCATED_SPAN_MEAN = 3.15


def _sample_span_length(rng: np.random.Generator) -> int:
    while True:
        length = int(rng.poisson(_SPAN_MEAN))
        if 1 <= length <= _SPAN_MAX:
            return length


def mlm_example(chunk: Sequence[str], seed: int = 0,
                origin_id: str = "") -> PretextExample:
    """Masked span corruption.

    Non-overlapping, non-adjacent spans are replaced in the query by
    sentinels [MASK_0], [MASK_1], ... in position order; the output lists
    each sentinel followed by the span it hides, so splicing the output
    back into the query reproduces the chunk exactly.
    """
    n = len(chunk)
    if n < 10:
        raise ValueError("chunk too short for span masking")
    rng = np.random.default_rng(seed)
    n_spans = max(1, round(MASK_RATIO * n / _TRUNCATED_SPAN_MEAN))
    lengths = [_sample_span_length(rng) for _ in range(n_spans)]

    # occupied[i] blocks starts; pad one token around each span so
    # adjacent spans cannot merge.
    occupied = np.zeros(n, dtype=bool)
    spans: list[tuple[int, int]] = []
    for length in lengths:
        for _ in range(200):
            start = int(rng.integers(0, n - length + 1))
            lo, hi = max(0, start - 1), min(n, start + length + 1)
            if not occupied[lo:hi].any():
                occupied[start:start + length] = True
                spans.append((start, length))
                break
    spans.sort()

    query: list[str] = []
    output: list[str] = []
    pos = 0
    for i, (start, length) in enumerate(spans):
        query.extend(chunk[pos:start])
        query.append(f"[MASK_{i}]")
        output.append(f"[MASK_{i}]")
        output.extend(chunk[start:start + length])
        pos = start + length
    query.extend(chunk[pos:])
    return PretextExample(query=tuple(query), output=tuple(output),
                          origin_passage_id=origin_id)


def reconstruct_mlm(example: PretextExample) -> tuple[str, ...]:
    """Splice the output spans back into the query's sentinel slots."""
    spans: dict[str, list[str]] = {}
    current = None
    for t in example.output:
        if t.startswith("[MASK_"):
            current = spans.setdefault(t, [])
        else:
            current.append(t)
    chunk: list[str] = []
    for t in example.query:
        if t.startswith("[MASK_"):
            chunk.extend(spans[t])
        else:
            chunk.append(t)
    return tuple(chunk)
