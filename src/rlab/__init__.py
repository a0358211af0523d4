"""Desk-scale retrieval-augmented learning laboratory."""

__version__ = "0.1.0"

__all__ = [
    "corpus",
    "costmodel",
    "evalkit",
    "index",
    "lm",
    "losses",
    "pq",
    "pretext",
    "retriever",
    "trainer",
    "__version__",
]
