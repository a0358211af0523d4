"""Product quantization: per-subspace k-means codebooks, asymmetric
search, and memory accounting.

Each dim-d vector is split into m subvectors of d/m dimensions; each
subvector is replaced by the index of its nearest centroid out of k_c
learned per subspace. Search decodes nothing: per-subspace dot-product
lookup tables against the query give the approximate scores.

Every squared distance (seeding, k-means assignment, `compress`) comes
from `_sq_dists`, which sums (x - c)^2 directly. The GEMM expansion
|x|^2 - 2 x.c + |c|^2 would be faster but rounds differently, so a
near-tied argmin could flip and change codebooks and codes; it is left to
a change gated by the loop-based reference in the tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import (FormatError, atomic_write, join_lines, read_end,
                      read_exact, read_lines)
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

    def codebook_bytes(self, bytes_per_scalar: int = 4) -> int:
        return self.codebooks.size * bytes_per_scalar


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

    def code_bytes(self) -> int:
        return math.ceil(self.size * self.codec.m * _code_bits(self.codec.k_c) / 8)

    def memory_bytes(self) -> int:
        return self.code_bytes() + self.codec.codebook_bytes()


# RPQX stores each code as an unsigned 16-bit integer.
_MAX_K_C = 1 << 16


def _check_k_c(k_c: int):
    if k_c > _MAX_K_C:
        raise ValueError(f"k_c={k_c} exceeds {_MAX_K_C}: RPQX codes are 16-bit")


def _sq_dists(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(N, k) squared Euclidean distances from each row of data to each
    centroid, summed directly over (x - c)^2."""
    return np.sum((data[:, None, :] - centroids[None, :, :]) ** 2, axis=2)


def _kmeans_pp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Farthest-point style seeding: first centroid random, each next one
    is the point with maximal squared distance to its nearest centroid."""
    rows = [int(rng.integers(len(data)))]
    d2 = np.full(len(data), np.inf)
    for _ in range(1, k):
        d2 = np.minimum(d2, _sq_dists(data, data[rows[-1:]])[:, 0])
        rows.append(int(np.argmax(d2)))
    return data[rows]


def _kmeans(data: np.ndarray, k: int, iterations: int,
            rng: np.random.Generator) -> np.ndarray:
    centroids = _kmeans_pp_init(data, k, rng)
    for _ in range(iterations):
        assign = np.argmin(_sq_dists(data, centroids), axis=1)
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
    iterations (standard k-means monotonicity).
    """
    if index.dim % m != 0:
        raise ValueError(f"m={m} does not divide dim={index.dim}")
    _check_k_c(k_c)
    if k_c > index.size:
        raise ValueError("insufficient data: k_c exceeds index size")
    rng = np.random.default_rng(seed)
    sub = index.vectors.reshape(index.size, m, index.dim // m)
    codebooks = np.stack([
        _kmeans(sub[:, j, :], k_c, iterations, rng) for j in range(m)
    ])
    return PQCodec(m=m, k_c=k_c, codebooks=codebooks)


def pq_objective(index: EmbeddingIndex, codec: PQCodec) -> float:
    """Total squared quantization error of the index under the codec."""
    compressed = compress(index, codec)
    decoded = decode(compressed)
    return float(((index.vectors - decoded) ** 2).sum())


def compress(index: EmbeddingIndex, codec: PQCodec) -> PQIndex:
    """Each vector's nearest centroid per subspace, the first of ties."""
    if codec.dim != index.dim:
        raise ValueError("codec dimension incompatible with index")
    sub = index.vectors.reshape(index.size, codec.m, codec.sub_dim)
    codes = np.stack([np.argmin(_sq_dists(sub[:, j, :], codec.codebooks[j]),
                                axis=1) for j in range(codec.m)], axis=1)
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
    """Mean over queries of |approx top-k intersect exact top-k| / k."""
    if len(approx_results) != len(exact_results):
        raise ValueError("result lists must cover the same query set")
    total = 0.0
    for approx, exact in zip(approx_results, exact_results):
        a = {pid for pid, _ in approx[:k]}
        e = {pid for pid, _ in exact[:k]}
        total += len(a & e) / k
    return total / len(approx_results)


# ---------------------------------------------------------------------------
# Memory accounting

def _code_bits(k_c: int) -> int:
    return math.ceil(math.log2(k_c)) if k_c > 1 else 1


def uncompressed_bytes(n: int, dim: int, bytes_per_scalar: int = 2) -> int:
    return n * dim * bytes_per_scalar


def compressed_bytes(n: int, m: int, k_c: int, codebook_bytes: int = 0) -> float:
    return n * m * _code_bits(k_c) / 8 + codebook_bytes


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
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IIIIIIQ", _FORMAT_VERSION, pqindex.version,
                             pqindex.dim, codec.m, codec.k_c, pqindex.size,
                             len(id_blob)))
        fh.write(id_blob)
        fh.write(np.ascontiguousarray(codec.codebooks, dtype="<f4").tobytes())
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
        sub_dim = dim // m
        cb = np.frombuffer(read_exact(fh, 4 * m * k_c * sub_dim, path),
                           dtype="<f4")
        codes = np.frombuffer(read_exact(fh, 2 * n * m, path), dtype="<u2")
        read_end(fh, path)
    if codes.size and int(codes.max()) >= k_c:
        raise FormatError(f"{path}: code {int(codes.max())} >= k_c={k_c}")
    codec = PQCodec(m=m, k_c=k_c,
                    codebooks=cb.astype(np.float64).reshape(m, k_c, sub_dim))
    return _from_file(PQIndex, path, codec=codec, ids=ids,
                      codes=codes.astype(np.int64).reshape(n, m),
                      version=version, dim=dim)
