"""Self-supervised (query, output) pair generators.

Two pretext tasks: prefix language modeling (first half of a chunk
predicts the second) and masked span corruption (spans replaced by
sentinel tokens, generated back in order). Each `trainer.TrainExample`
records the passage it was built from so retrieval can exclude it;
`TaskExamples` is one task's training sequence over a corpus.
"""

from __future__ import annotations

from collections import abc
from typing import Sequence

import numpy as np

from .trainer import TrainExample

RETRIEVER_MASK_TOKEN = "<mask>"


def retrieval_query(query: Sequence[str]) -> tuple[str, ...]:
    """Query as seen by the retriever: sentinel tokens collapse to the
    retriever's single mask token."""
    return tuple(RETRIEVER_MASK_TOKEN if t.startswith("[MASK_") else t
                 for t in query)


def prefix_lm_example(chunk: Sequence[str], origin_id: str = "") -> TrainExample:
    """Split a chunk in two: the first ceil(N/2) tokens are the query, the
    remainder the output."""
    n = len(chunk)
    if n < 2:
        raise ValueError("chunk must hold at least two tokens")
    half = (n + 1) // 2
    return TrainExample(tuple(chunk[:half]), tuple(chunk[half:]), origin_id)


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
                origin_id: str = "") -> TrainExample:
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
    return TrainExample(tuple(query), tuple(output), origin_id)


def reconstruct_mlm(example: TrainExample) -> tuple[str, ...]:
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


class TaskExamples(abc.Sequence):
    """The example of each passage long enough for the task, built when
    `trainer.train` draws it, with the query in its retriever form; the
    MLM seeds are drawn up front, in passage order."""

    def __init__(self, passages, task: str, seed: int):
        if task not in ("prefix_lm", "mlm"):
            raise ValueError(f"task {task!r} is not 'prefix_lm' or 'mlm'")
        self.mlm, rng = task == "mlm", np.random.default_rng(seed)
        self.passages = [p for p in passages
                         if len(p.text) >= (10 if self.mlm else 2)]
        self.seeds = [int(rng.integers(2 ** 31)) if self.mlm else 0
                      for _ in self.passages]

    def __len__(self) -> int:
        return len(self.passages)

    def __getitem__(self, i: int) -> TrainExample:
        p = self.passages[i]
        # Global lookups, so a generator wrapped by tracing is called.
        ex = (mlm_example(p.text, self.seeds[i], p.id) if self.mlm
              else prefix_lm_example(p.text, p.id))
        ex.query = retrieval_query(ex.query)
        return ex
