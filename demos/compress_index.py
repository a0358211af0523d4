"""Product quantization: memory saved versus retrieval quality lost.

Trains PQ codebooks of decreasing size on one random index and
reports recall@50 against exact search at each setting, then runs the
memory arithmetic at published-scale numbers: a 768-dim fp16 index with
128 one-byte codes per vector compresses 12x, taking a 49 GB index to
about 4 GB and a 587 GB one to about 49 GB.
"""

import numpy as np

from rlab.index import EmbeddingIndex, search
from rlab.pq import (compress, compressed_size_from_reported,
                     compression_ratio, pq_search, recall_at_k, train_pq)


def main():
    rng = np.random.default_rng(0)
    n, dim = 5000, 32
    idx = EmbeddingIndex(version=1, dim=dim,
                         ids=[f"p{i:05d}" for i in range(n)],
                         vectors=rng.normal(size=(n, dim)))
    queries = rng.normal(size=(25, dim))
    exact = [search(idx, q, 50) for q in queries]

    print(f"{n} vectors, dim {dim}, m=8 subspaces, 25 queries\n")
    print(f"{'k_c':>5} {'bytes/vec':>10} {'ratio':>7} {'recall@50':>10}")
    for k_c in (256, 64, 16, 4):
        codebooks = train_pq(idx, m=8, k_c=k_c, iterations=15, seed=1)
        compressed = compress(idx, codebooks)
        approx = [pq_search(compressed, q, 50) for q in queries]
        recall = recall_at_k(approx, exact, 50)
        ratio = compression_ratio(dim, 4, 8, k_c)
        bytes_per_vec = dim * 4 / ratio
        print(f"{k_c:>5} {bytes_per_vec:>10.1f} {ratio:>6.1f}x {recall:>10.3f}")

    print("\npublished-scale arithmetic (768-dim fp16, m=128, k_c=256):")
    for name, gb in (("wiki", 49.0), ("combined", 587.0)):
        out = compressed_size_from_reported(gb, dim=768, bytes_per_scalar=2,
                                            m=128, k_c=256)
        print(f"  {name:>8}: {gb:6.1f} GB -> {out:5.2f} GB")


if __name__ == "__main__":
    main()
