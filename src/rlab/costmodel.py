"""Training-cost accounting for index maintenance strategies.

The unit of cost is one forward pass of a P-parameter model on one
passage, taken as O(P). One training step of the reader over K documents
with batch size B then costs 4 * B * K * P_lm (factor 4 for the backward
pass and activation checkpointing). Both overheads are exact rational
arithmetic; floats only appear when the caller asks for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class CostModelParams:
    n_docs: int                 # index size N
    batch_size: int             # B
    k_retrieved: int            # K documents given to the reader
    refresh_interval: int = 1   # R steps between full index rebuilds
    l_reranked: int = 0         # L documents re-embedded per step
    p_retr: int = 1             # retriever parameter count
    p_lm: int = 25              # reader parameter count

    def __post_init__(self):
        for name in ("n_docs", "batch_size", "k_retrieved",
                     "refresh_interval", "p_retr", "p_lm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.l_reranked < 0:
            raise ValueError("l_reranked must be >= 0")


def overhead_full_refresh(p: CostModelParams) -> Fraction:
    """Relative cost of recomputing the full index every R steps:
    N * P_retr / (4 * B * K * P_lm * R)."""
    return Fraction(p.n_docs * p.p_retr,
                    4 * p.batch_size * p.k_retrieved * p.p_lm * p.refresh_interval)


def overhead_rerank(p: CostModelParams) -> Fraction:
    """Relative cost of re-embedding the top-L candidates at every step:
    L * P_retr / (4 * K * P_lm)."""
    if p.l_reranked <= 0:
        raise ValueError("l_reranked must be positive for the rerank overhead")
    return Fraction(p.l_reranked * p.p_retr, 4 * p.k_retrieved * p.p_lm)
