"""Product quantization: per-subspace k-means codebooks, asymmetric
search, and memory accounting.

Each dim-d vector is split into m subvectors of d/m dimensions; each
subvector is replaced by the index of its nearest centroid out of k_c
learned per subspace: a `PQIndex` holds the ids, their codes and the
(m, k_c, d/m) codebooks array that `train_pq` returns. Search decodes
nothing: per-subspace dot-product lookup tables against the query give
the approximate scores.

`_nearest` gives the k-means assignment and the codes: one GEMM per
subspace screens, and the direct sum of (x - c)^2 settles near ties, so
they equal a direct argmin's, the first of ties. Farthest-point seeding
adds one centroid at a time: a matvec screens the rows it may bring closer,
and the direct sum settles them, so the seeds are the direct sum's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import FormatError, Format, float_bytes, join_lines
from .index import EmbeddingIndex, _from_file, _results, sort_by_id
from .retriever import sum_rows


@dataclass(frozen=True)
class PQIndex:
    """Row i's codes stand for the vector of ids[i]. The constructor alone
    holds the checks that a loaded RPQX index must pass; it sorts the rows
    by id as EmbeddingIndex does."""
    codebooks: np.ndarray  # (m, k_c, dim // m)
    ids: list[str]
    codes: np.ndarray  # (N, m) centroid indices
    version: int

    def __post_init__(self):
        if np.ndim(self.codebooks) != 3 or not len(self.codebooks):
            raise ValueError(f"codebooks of shape {np.shape(self.codebooks)} "
                             f"are not (m >= 1, k_c, dim // m)")
        m, k_c, _ = self.codebooks.shape
        _check_k_c(k_c)
        if np.shape(self.codes) != (len(self.ids), m):
            raise ValueError(f"codes of shape {np.shape(self.codes)} for "
                             f"{len(self.ids)} ids and m={m}")
        if not np.issubdtype(self.codes.dtype, np.integer):
            raise ValueError(f"non-integer codes of dtype {self.codes.dtype}")
        if self.codes.size and not 0 <= self.codes.min() <= self.codes.max() < k_c:
            raise ValueError(f"codes {self.codes.min()}..{self.codes.max()} "
                             f"outside 0..{k_c - 1}")
        ids, codes = sort_by_id(self.ids, self.codes)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "codes", codes)

    @property
    def dim(self) -> int:
        return self.codebooks.shape[0] * self.codebooks.shape[2]

    @property
    def size(self) -> int:
        return len(self.ids)

    def memory_bytes(self) -> int:
        """Packed codes plus float32 codebooks."""
        return (math.ceil(self.codes.size * _code_bits(self.codebooks.shape[1]) / 8)
                + 4 * self.codebooks.size)


# RPQX stores each code as an unsigned 16-bit integer.
_MAX_K_C = 1 << 16


def _check_k_c(k_c: int):
    if not 1 <= k_c <= _MAX_K_C:
        raise ValueError(f"k_c={k_c} is outside 1..{_MAX_K_C}: RPQX codes "
                         f"are 16-bit")


_BLOCK = 256  # data rows per screen in `_nearest`


def _tol(n: int, e: np.ndarray) -> np.ndarray:
    """Both screens' tol (see `_nearest`); eps = 2^-52, tiny = 2^-1022."""
    return 16 * (n + 2) * (2.0 ** -52 * e + 2.0 ** -1022)


def _nearest(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Row of each data row's nearest centroid under the direct sum of
    (x - c)^2 over n = data.shape[1] terms, the first of tied centroids.

    Screen. h_c = |c|^2 - 2 x.c (one GEMM) is D_c - |x|^2, where D_c is
    the exact squared distance; |x|^2 is the same for every centroid of
    a row, so it is left out, and b = argmin h.

    Refine. With u = eps/2, gamma_j = j u / (1 - j u) and
    E = |x|^2 + max_c |c|^2 (so D_c <= 2E and |c|^2 + 2|x.c| <= 2E), the
    rounding error of the direct sum Dd_c (3u per squared difference, then
    n - 1 additions of nonnegative terms) is e' <= gamma_(n+2) D_c
    <= 2 gamma_(n+2) E, and that of the computed h_c (|c|^2 and x.c in any
    summation order, then one addition) is e <= 2 gamma_(n+2) E. Any
    centroid c with Dd_c <= Dd_b, so the direct winner and its ties, has
    h_c <= D_c - |x|^2 + e <= Dd_c + e' - |x|^2 + e <= Dd_b + e' - |x|^2 + e
    <= D_b + 2e' - |x|^2 + e <= h_b + 2(e + e') <= h_b + 8 gamma_(n+2) E.
    So every centroid within tol = 16 (n + 2) (eps E + tiny) of h_b (four
    times the bound, which covers the rounding of tol itself; subnormal
    squares add at most eps tiny / 2 per operation) is a candidate; rows
    with more than one take the direct argmin over their candidates.

    Rows go in blocks of _BLOCK, so the (rows, k_c) tables stay in cache;
    a row's answer is its own, as tol needs only its |x|^2 and max |c|^2
    and the bound holds for any summation order of the GEMM.
    """
    if len(data) > _BLOCK:
        return np.concatenate([_nearest(data[lo:lo + _BLOCK], centroids)
                               for lo in range(0, len(data), _BLOCK)])
    c2 = np.einsum("kd,kd->k", centroids, centroids)
    h = data @ (-2 * centroids).T  # scaling by -2 is exact
    h += c2
    best = np.argmin(h, axis=1)
    tol = _tol(data.shape[1], np.einsum("nd,nd->n", data, data) + c2.max())
    close = h <= (h[np.arange(len(data)), best] + tol)[:, None]
    ties = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
    rows, cols = np.nonzero(close[ties])
    direct = np.full((len(ties), len(centroids)), np.inf)
    direct[rows, cols] = np.sum((data[ties[rows]] - centroids[cols]) ** 2, axis=1)
    best[ties] = np.argmin(direct, axis=1)
    return best


def _farthest_point_seeds(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point seeding: first centroid random, each next one
    is the point with maximal squared distance d2 (the direct sum) to its
    nearest centroid. For a new centroid c, one matvec gives h = |x|^2 -
    2 x.c + |c|^2; as in `_nearest` with E = |x|^2 + |c|^2, a row whose d2
    falls (Dd_c < d2) has h <= Dd_c + e + e' < d2 + tol. So only rows with
    h <= d2 + tol, or a nan h from overflow, take the direct sum, and every
    d2 and seed is that of the direct sum over all rows."""
    x2 = np.einsum("nd,nd->n", data, data)
    rows = [int(rng.integers(len(data)))]
    d2 = np.full(len(data), np.inf)
    for _ in range(1, k):
        c = data[rows[-1]]
        e = x2 + c @ c
        near = np.flatnonzero(~(data @ (-2 * c) + e > d2 + _tol(len(c), e)))
        d2[near] = np.minimum(d2[near], np.sum((data[near] - c) ** 2, axis=1))
        rows.append(int(np.argmax(d2)))
    return data[rows]


def _kmeans(data: np.ndarray, k: int, iterations: int,
            rng: np.random.Generator) -> np.ndarray:
    centroids = _farthest_point_seeds(data, k, rng)
    for _ in range(iterations):
        assign = _nearest(data, centroids)
        # Only filled clusters are summed; an empty one keeps its centroid.
        filled, sums = sum_rows(assign, data)
        centroids[filled] = sums / np.bincount(assign)[filled, None]
    return centroids


def train_pq(index: EmbeddingIndex, m: int, k_c: int,
             iterations: int = 20, seed: int = 0) -> np.ndarray:
    """Learn per-subspace k-means codebooks on the index vectors, as an
    (m, k_c, dim // m) float64 array.

    The sum of squared quantization errors is non-increasing across
    iterations (k-means monotonicity); 0 keeps the farthest-point seeds.
    """
    if m < 1 or index.dim % m:
        raise ValueError(f"m={m} is not a positive divisor of dim={index.dim}")
    _check_k_c(k_c)
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if k_c > index.size:
        raise ValueError("insufficient data: k_c exceeds index size")
    rng = np.random.default_rng(seed)
    sub = index.vectors.reshape(index.size, m, -1).transpose(1, 0, 2).copy()
    return np.stack([_kmeans(part, k_c, iterations, rng) for part in sub])


def squared_error(index: EmbeddingIndex, pqindex: PQIndex) -> float:
    """Total squared error of pqindex's decoded vectors against index's."""
    return float(((index.vectors - decode(pqindex)) ** 2).sum())


def compress(index: EmbeddingIndex, codebooks: np.ndarray) -> PQIndex:
    """Each vector's nearest centroid per subspace, the first of ties."""
    m = len(codebooks)
    if m * codebooks.shape[2] != index.dim:
        raise ValueError("codebooks dimension incompatible with index")
    sub = index.vectors.reshape(index.size, m, -1).transpose(1, 0, 2).copy()
    codes = np.stack([_nearest(part, cb)
                      for part, cb in zip(sub, codebooks)], axis=1)
    return PQIndex(codebooks=codebooks, ids=list(index.ids), codes=codes,
                   version=index.version)


def decode(pqindex: PQIndex) -> np.ndarray:
    """Reconstruct vectors as concatenations of assigned centroids."""
    return np.concatenate([cb[col] for cb, col in
                           zip(pqindex.codebooks, pqindex.codes.T)], axis=1)


def pq_search(pqindex: PQIndex, q_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Asymmetric top-k: per-subspace lookup tables of query-centroid dot
    products; a vector's approximate score is the sum over its codes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q_vec = np.asarray(q_vec, dtype=np.float64)
    if q_vec.shape != (pqindex.dim,):
        raise ValueError("query dimension mismatch")
    q_sub = q_vec.reshape(len(pqindex.codebooks), -1)
    tables = np.einsum("mkd,md->mk", pqindex.codebooks, q_sub)  # (m, k_c)
    scores = sum(table[col] for table, col in zip(tables, pqindex.codes.T))
    return _results(pqindex.ids, scores, k)


def recall_at_k(approx_results: Sequence[Sequence[tuple[str, float]]],
                exact_results: Sequence[Sequence[tuple[str, float]]],
                k: int) -> float:
    """Mean over queries of |approx top-k intersect exact top-k| over the
    size of the exact top-k, which an index of under k rows keeps below k."""
    if len(approx_results) != len(exact_results):
        raise ValueError("result lists must cover the same query set")
    total = 0.0
    for approx, exact in zip(approx_results, exact_results):
        a = {pid for pid, _ in approx[:k]}
        e = {pid for pid, _ in exact[:k]}
        total += len(a & e) / len(e)
    return total / len(approx_results)


# ---------------------------------------------------------------------------
# Memory accounting

def _code_bits(k_c: int) -> int:
    return math.ceil(math.log2(k_c)) if k_c > 1 else 1


def compression_ratio(dim: int, bytes_per_scalar: int, m: int, k_c: int) -> float:
    """Per-vector ratio: (dim * bytes) / (m * ceil(log2 k_c) / 8)."""
    return dim * bytes_per_scalar / (m * _code_bits(k_c) / 8)


def compressed_size_from_reported(uncompressed: float, dim: int,
                                  bytes_per_scalar: int, m: int, k_c: int) -> float:
    """Scale a reported uncompressed index size by the PQ ratio; codebook
    overhead is negligible at corpus scale."""
    return uncompressed / compression_ratio(dim, bytes_per_scalar, m, k_c)


# ---------------------------------------------------------------------------
# PQ index file: magic; format (1), version, dim, m, k_c, N, id table
# bytes; the id table, strictly ascending; float32 codebooks; uint16 codes.

_RPQX = Format(b"RPQX", 1, "<IIIIIQ", "PQ index", "PQ format")


def save_pq_index(pqindex: PQIndex, path):
    id_blob = join_lines(pqindex.ids, "id")
    m, k_c, _ = pqindex.codebooks.shape
    _RPQX.write(path, (pqindex.version, pqindex.dim, m, k_c, pqindex.size,
                       len(id_blob)),
                id_blob, float_bytes(pqindex.codebooks, "<f4", "codebooks"),
                np.ascontiguousarray(pqindex.codes, dtype="<u2").tobytes())


def load_pq_index(path) -> PQIndex:
    r, (version, dim, m, k_c, n, id_len) = _RPQX.read(path)
    if m == 0 or dim % m:
        raise FormatError(f"{path}: m={m} does not divide dim={dim}")
    ids = r.lines(id_len, n, "id")
    cb = r.floats((m, k_c, dim // m), "<f4", "codebooks").astype(np.float64)
    codes = np.frombuffer(r.take(2 * n * m), dtype="<u2").reshape(n, m)
    r.end()
    return _from_file(PQIndex, path, codebooks=cb, ids=ids,
                      codes=codes.astype(np.int64), version=version)
