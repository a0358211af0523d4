"""Product quantization: per-subspace k-means codebooks, asymmetric
search, and memory accounting.

Each dim-d vector is split into m subvectors of d/m dimensions; each
subvector is replaced by the index of its nearest centroid out of k_c
learned per subspace. Search decodes nothing: per-subspace dot-product
lookup tables against the query give the approximate scores.

`_nearest` gives the k-means assignment and the codes: one GEMM per
subspace screens, and the direct sum of (x - c)^2 settles near ties, so
they equal a direct argmin's, the first of ties. k-means++ seeding adds
one centroid at a time by the direct sum.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import (FormatError, atomic_write, float_bytes, join_lines,
                      read_end, read_exact, read_floats, read_lines)
from .index import EmbeddingIndex, _from_file, _results, sort_by_id


@dataclass
class PQCodec:
    m: int
    k_c: int
    codebooks: np.ndarray  # (m, k_c, dim // m)

    @property
    def sub_dim(self) -> int:
        return self.codebooks.shape[2]

    @property
    def dim(self) -> int:
        return self.m * self.sub_dim


@dataclass(frozen=True)
class PQIndex:
    codec: PQCodec
    ids: list[str]  # ascending; the constructor sorts rows as EmbeddingIndex
    codes: np.ndarray  # (N, m) centroid indices
    version: int
    dim: int

    def __post_init__(self):
        if np.shape(self.codes) != (len(self.ids), self.codec.m):
            raise ValueError(f"codes of shape {np.shape(self.codes)} for "
                             f"{len(self.ids)} ids and m={self.codec.m}")
        if self.dim != self.codec.dim:
            raise ValueError(f"dim {self.dim} != codec dim {self.codec.dim}")
        ids, codes = sort_by_id(self.ids, self.codes)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "codes", codes)

    @property
    def size(self) -> int:
        return len(self.ids)

    def memory_bytes(self) -> int:
        """Packed codes plus float32 codebooks."""
        return (math.ceil(self.size * self.codec.m * _code_bits(self.codec.k_c) / 8)
                + 4 * self.codec.codebooks.size)


# RPQX stores each code as an unsigned 16-bit integer.
_MAX_K_C = 1 << 16


def _check_k_c(k_c: int):
    if not 1 <= k_c <= _MAX_K_C:
        raise ValueError(f"k_c={k_c} is outside 1..{_MAX_K_C}: RPQX codes "
                         f"are 16-bit")


_BLOCK = 256  # data rows per screen in `_nearest`


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
    So every centroid within tol = 16 (n + 2) eps E of h_b (four times the
    bound, which covers the rounding of tol itself) is a candidate; rows
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
    tol = (16 * (data.shape[1] + 2) * np.finfo(np.float64).eps
           * (np.einsum("nd,nd->n", data, data) + c2.max()))
    close = h <= (h[np.arange(len(data)), best] + tol)[:, None]
    ties = np.flatnonzero(np.count_nonzero(close, axis=1) > 1)
    rows, cols = np.nonzero(close[ties])
    direct = np.full((len(ties), len(centroids)), np.inf)
    direct[rows, cols] = np.sum((data[ties[rows]] - centroids[cols]) ** 2, axis=1)
    best[ties] = np.argmin(direct, axis=1)
    return best


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point style seeding: first centroid random, each next one
    is the point with maximal squared distance to its nearest centroid."""
    rows = [int(rng.integers(len(data)))]
    d2 = np.full(len(data), np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, np.sum((data - data[rows[-1]]) ** 2, axis=1))
        rows.append(int(np.argmax(d2)))
    return data[rows]


def _kmeans(data: np.ndarray, k: int, iterations: int,
            rng: np.random.Generator) -> np.ndarray:
    centroids = _kmeans_pp_init(data, k, rng)
    for _ in range(iterations):
        assign = _nearest(data, centroids)
        sums = np.zeros_like(centroids)
        np.add.at(sums, assign, data)
        counts = np.bincount(assign, minlength=k)
        filled = counts > 0  # an empty cluster keeps its centroid
        centroids[filled] = sums[filled] / counts[filled, None]
    return centroids


def train_pq(index: EmbeddingIndex, m: int, k_c: int,
             iterations: int = 20, seed: int = 0) -> PQCodec:
    """Learn per-subspace k-means codebooks on the index vectors.

    The sum of squared quantization errors is non-increasing across
    iterations (standard k-means monotonicity); 0 keeps the k-means++ seeds.
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
    codebooks = np.stack([_kmeans(part, k_c, iterations, rng) for part in sub])
    return PQCodec(m=m, k_c=k_c, codebooks=codebooks)


def squared_error(index: EmbeddingIndex, pqindex: PQIndex) -> float:
    """Total squared error of pqindex's decoded vectors against index's."""
    return float(((index.vectors - decode(pqindex)) ** 2).sum())


def compress(index: EmbeddingIndex, codec: PQCodec) -> PQIndex:
    """Each vector's nearest centroid per subspace, the first of ties."""
    if codec.dim != index.dim:
        raise ValueError("codec dimension incompatible with index")
    sub = index.vectors.reshape(index.size, codec.m, -1).transpose(1, 0, 2).copy()
    codes = np.stack([_nearest(part, cb)
                      for part, cb in zip(sub, codec.codebooks)], axis=1)
    return PQIndex(codec=codec, ids=list(index.ids), codes=codes,
                   version=index.version, dim=index.dim)


def decode(pqindex: PQIndex) -> np.ndarray:
    """Reconstruct vectors as concatenations of assigned centroids."""
    codec = pqindex.codec
    parts = [codec.codebooks[j][pqindex.codes[:, j]] for j in range(codec.m)]
    return np.concatenate(parts, axis=1)


def pq_search(pqindex: PQIndex, q_vec: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Asymmetric top-k: per-subspace lookup tables of query-centroid dot
    products; a vector's approximate score is the sum over its codes."""
    if k < 1:
        raise ValueError("k must be >= 1")
    q_vec = np.asarray(q_vec, dtype=np.float64)
    if q_vec.shape != (pqindex.dim,):
        raise ValueError("query dimension mismatch")
    codec = pqindex.codec
    q_sub = q_vec.reshape(codec.m, codec.sub_dim)
    tables = np.einsum("mkd,md->mk", codec.codebooks, q_sub)  # (m, k_c)
    scores = np.zeros(pqindex.size)
    for j in range(codec.m):
        scores += tables[j][pqindex.codes[:, j]]
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
# PQ index file: magic "RPQX"; format, version, dim, m, k_c, N, id table
# bytes; the id table, strictly ascending; float32 codebooks; uint16 codes.

_MAGIC = b"RPQX"
_FORMAT_VERSION = 1


def save_pq_index(pqindex: PQIndex, path):
    _check_k_c(pqindex.codec.k_c)
    id_blob = join_lines(pqindex.ids, "id")
    codec = pqindex.codec
    cb_blob = float_bytes(codec.codebooks, "<f4", "codebooks")
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIIIIQ", _FORMAT_VERSION, pqindex.version,
                             pqindex.dim, codec.m, codec.k_c, pqindex.size,
                             len(id_blob)))
        fh.write(id_blob)
        fh.write(cb_blob)
        fh.write(np.ascontiguousarray(pqindex.codes, dtype="<u2").tobytes())


def load_pq_index(path) -> PQIndex:
    with open(path, "rb") as fh:
        if read_exact(fh, 4, path) != _MAGIC:
            raise FormatError(f"{path}: bad PQ index magic")
        fmt, version, dim, m, k_c, n, id_len = struct.unpack(
            "<IIIIIIQ", read_exact(fh, 32, path))
        if fmt != _FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported PQ format {fmt}")
        if m == 0 or dim % m:
            raise FormatError(f"{path}: m={m} does not divide dim={dim}")
        ids = read_lines(fh, id_len, n, path, "id")
        cb = read_floats(fh, (m, k_c, dim // m), "<f4", path, "codebooks")
        codes = np.frombuffer(read_exact(fh, 2 * n * m, path), dtype="<u2")
        read_end(fh, path)
    if codes.size and int(codes.max()) >= k_c:
        raise FormatError(f"{path}: code {int(codes.max())} >= k_c={k_c}")
    return _from_file(PQIndex, path, codec=PQCodec(m=m, k_c=k_c, codebooks=cb),
                      ids=ids,
                      codes=codes.astype(np.int64).reshape(n, m),
                      version=version, dim=dim)
