import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rlab.index import EmbeddingIndex, FormatError, search
from rlab.pq import (PQIndex, _farthest_point_seeds, _nearest, compress,
                     compression_ratio, compressed_size_from_reported, decode,
                     load_pq_index, pq_search, recall_at_k, save_pq_index,
                     squared_error, train_pq)

from oracles import _nearest_centroid, brute_force_search, reference_pq


def random_index(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    ids = [f"p{i:05d}" for i in range(n)]
    return EmbeddingIndex(version=1, dim=dim, ids=ids,
                          vectors=rng.normal(size=(n, dim)))


class TestTrainPQ:
    def test_single_vector_codebook(self):
        idx = EmbeddingIndex(version=1, dim=4, ids=["a"],
                             vectors=np.array([[1.0, 2.0, 3.0, 4.0]]))
        codebooks = train_pq(idx, m=2, k_c=1, seed=0)
        np.testing.assert_allclose(codebooks[0][0], [1.0, 2.0])
        np.testing.assert_allclose(codebooks[1][0], [3.0, 4.0])
        assert squared_error(idx, compress(idx, codebooks)) == pytest.approx(
            0.0, abs=1e-20)

    def test_saturated_codebooks_zero_error(self):
        # 4 distinct subvectors per subspace, k_c=4: perfect reconstruction.
        rng = np.random.default_rng(1)
        distinct = rng.normal(size=(4, 2))
        rows = np.concatenate([distinct[rng.integers(4, size=32)],
                               distinct[rng.integers(4, size=32)]], axis=1)
        idx = EmbeddingIndex(version=1, dim=4,
                             ids=[f"p{i}" for i in range(32)], vectors=rows)
        codebooks = train_pq(idx, m=2, k_c=4, iterations=30, seed=2)
        assert squared_error(idx, compress(idx, codebooks)) == pytest.approx(
            0.0, abs=1e-12)

    def test_objective_monotone_in_iterations(self):
        idx = random_index(256, 8, seed=3)
        errors = [squared_error(idx, compress(idx, train_pq(
            idx, m=2, k_c=4, iterations=n, seed=4))) for n in (1, 10)]
        after_1, after_10 = errors
        assert after_10 <= after_1 + 1e-12

    def test_dim_divisibility(self):
        with pytest.raises(ValueError):
            train_pq(random_index(10, 8), m=3, k_c=2)

    @pytest.mark.parametrize("m, k_c", [(0, 2), (-1, 2), (2, 0), (2, -1)])
    def test_m_and_k_c_positive(self, m, k_c):
        # m = 0 divided by zero; k_c = 0 made one centroid for codebooks of
        # none, and k_c = -1 reached np.bincount.
        with pytest.raises(ValueError, match="m=" if m < 1 else "k_c="):
            train_pq(random_index(10, 8), m=m, k_c=k_c)

    def test_iterations_not_negative(self):
        # -1 ran no k-means step, as 0 does, and kept the seeds.
        with pytest.raises(ValueError, match="iterations"):
            train_pq(random_index(10, 8), m=2, k_c=2, iterations=-1)

    def test_k_c_beyond_16_bit_codes(self):
        with pytest.raises(ValueError, match="65536"):
            train_pq(random_index(4, 8), m=2, k_c=70_000)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient"):
            train_pq(random_index(4, 8), m=2, k_c=8)


class TestReferencePQ:
    """Codebooks and codes equal, bit for bit, those of the loop-based
    reference in tests/oracles.py."""

    def check(self, vectors, m, k_c, iterations, seed):
        idx = EmbeddingIndex(version=1, dim=vectors.shape[1],
                             ids=[f"p{i:04d}" for i in range(len(vectors))],
                             vectors=vectors)
        pidx = compress(idx, train_pq(idx, m=m, k_c=k_c,
                                      iterations=iterations, seed=seed))
        codebooks, codes = reference_pq(vectors, m, k_c, iterations, seed)
        assert np.array_equal(pidx.codebooks, codebooks)
        assert np.array_equal(pidx.codes, codes)
        return codebooks

    def test_gaussian(self):
        vectors = np.random.default_rng(21).normal(size=(300, 8))
        self.check(vectors, m=2, k_c=16, iterations=5, seed=22)

    def test_zero_iterations_keep_the_seeds(self):
        vectors = np.random.default_rng(25).normal(size=(100, 8))
        self.check(vectors, m=2, k_c=16, iterations=0, seed=26)

    def test_duplicates_repeat_seeds_and_empty_clusters(self):
        # Five distinct subvectors per subspace for eight centroids: once
        # seeding has taken all five, every distance is zero and it takes
        # row 0 again, so centroids repeat. Ties in the assignment go to
        # the first of them, and the repeats are left with no members.
        rng = np.random.default_rng(23)
        distinct = rng.normal(size=(5, 4))
        vectors = np.concatenate([distinct[rng.integers(5, size=60)],
                                  distinct[rng.integers(5, size=60)]], axis=1)
        codebooks = self.check(vectors, m=2, k_c=8, iterations=4, seed=24)
        for cb in codebooks:
            assert len(np.unique(cb, axis=0)) == 5

    @pytest.mark.parametrize("sub_dim", [8, 16])
    @pytest.mark.parametrize("seed", range(100, 108))
    def test_duplicates_at_wide_subspaces(self, sub_dim, seed):
        # As above at the CLI's sub_dim 8 and at 16: every distance from a
        # point to its repeated seed is an exact zero, tied with the other
        # copies, so the assignment's tie order shows in the codebooks.
        rng = np.random.default_rng(seed)
        distinct = rng.normal(size=(5, sub_dim))
        vectors = np.concatenate([distinct[rng.integers(5, size=60)],
                                  distinct[rng.integers(5, size=60)]], axis=1)
        self.check(vectors, m=2, k_c=8, iterations=4, seed=seed)

    @pytest.mark.parametrize("sub_dim", [2, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_integer_grid_ties_at_nonzero_distance(self, sub_dim, seed):
        # Small integer coordinates: squared distances are exact integers,
        # so a point is often equally far from two distinct centroids.
        rng = np.random.default_rng(seed)
        vectors = rng.integers(-2, 3, size=(200, 2 * sub_dim)).astype(float)
        self.check(vectors, m=2, k_c=16, iterations=3, seed=seed)

    def test_subnormal_squares(self):
        # At 1e-161 the squares are subnormal, so their rounding error is
        # absolute: a tolerance relative to |x|^2 + |c|^2 alone falls to
        # zero and the screen dropped the direct winner.
        vectors = np.random.default_rng(27).normal(size=(300, 8)) * 1e-161
        self.check(vectors, m=2, k_c=16, iterations=5, seed=27)


class TestSeeding:
    """`_farthest_point_seeds` screens each new centroid's distances with
    one matvec; its seeds equal, byte for byte, the reference's seeding,
    which takes the direct sum over all rows."""

    def check(self, data, k, seed):
        got = _farthest_point_seeds(data, k, np.random.default_rng(seed))
        want = reference_pq(data, 1, k, 0, seed)[0][0]
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_points_one_ulp_beyond_a_distance(self, seed):
        # Rows differ in the first coordinate only, so each direct sum is
        # one rounded square. Each position also has copies one ulp above
        # and below it, so many rows' distances to a new seed differ from
        # their current d2 by a few ulps. The other coordinates make |x|^2
        # large, so the matvec's rounding error far exceeds those gaps and
        # only the direct sum can settle them.
        first = 10 + np.arange(40.0)
        data = np.full((120, 8), 10.0)
        data[:, 0] = np.concatenate([first, np.nextafter(first, np.inf),
                                     np.nextafter(first, -np.inf)])
        data = data[np.random.default_rng(seed).permutation(120)]
        self.check(data, k=120, seed=seed)

    @pytest.mark.parametrize("scale", [1e150, 1e-161, 1e-162])
    @pytest.mark.parametrize("seed", range(4))
    def test_extreme_scales(self, scale, seed):
        # Squares near overflow, and subnormal squares, whose absolute
        # rounding error the tolerance's tiny term covers (at 1e-162 a
        # tolerance relative to |x|^2 + |c|^2 alone dropped rows).
        data = np.random.default_rng(seed).normal(size=(300, 8)) * scale
        self.check(data, k=32, seed=seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_duplicates_reach_zero_distance(self, seed):
        # Five distinct points for twelve seeds: after the fifth every d2
        # is an exact zero and the argmax takes row 0 again.
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(5, 8))[rng.integers(5, size=200)]
        self.check(data, k=12, seed=seed)

    def test_cli_sized_subspace(self):
        # One subspace of the CLI benchmark's index: 9,932 rows of
        # sub_dim 8, 256 seeds.
        data = np.random.default_rng(28).normal(size=(9932, 8))
        self.check(data, k=256, seed=29)


def test_codebooks_and_codes_equal_under_one_and_two_blas_threads():
    # BLAS may split the seeding's matvec and the assignment's GEMM
    # differently with each thread count; the screens' bound holds for
    # any summation order, so the bytes stay the same.
    script = ("import hashlib, numpy as np\n"
              "from rlab.index import EmbeddingIndex\n"
              "from rlab.pq import compress, train_pq\n"
              "v = np.random.default_rng(30).normal(size=(3000, 64))\n"
              "idx = EmbeddingIndex(version=1, dim=64, vectors=v,\n"
              "                     ids=[f'p{i:04d}' for i in range(3000)])\n"
              "p = compress(idx, train_pq(idx, m=8, k_c=64, seed=31))\n"
              "print(hashlib.sha256(p.codebooks.tobytes()\n"
              "                     + p.codes.tobytes()).hexdigest())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    digests = [subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": threads,
                        "PYTHONPATH": src}).stdout
        for threads in ("1", "2")]
    assert digests[0] == digests[1] and len(digests[0]) == 65


class TestNearest:
    """`_nearest` screens in blocks of 256 rows; each row's answer is the
    direct argmin's, whatever block it falls in."""

    @pytest.mark.parametrize("sub_dim", [8, 16])
    def test_rows_across_block_edges_match_direct_argmin(self, sub_dim):
        # 700 rows: two whole blocks and a partial one. Each of 8 points
        # has a centroid one ulp off it, listed first, and an exact copy
        # at distance zero, which only the direct sum tells apart. Copies
        # of one point straddle the block edges at rows 256 and 512, and
        # every third row is a random point.
        rng = np.random.default_rng(31)
        points = rng.normal(size=(8, sub_dim))
        centroids = np.concatenate([np.nextafter(points, np.inf), points])
        data = points[rng.integers(8, size=700)]
        data[::3] = rng.normal(size=(234, sub_dim))
        data[250:262] = points[2]
        data[508:516] = points[5]
        got = _nearest(data, centroids)
        assert got.tolist() == [_nearest_centroid(centroids, x) for x in data]
        assert _nearest(data[:0], centroids).shape == (0,)


class TestPeakMemory:
    """`train_pq` and `compress` allocate at most a few (N, k_c) float64
    tables beyond one copy of the vectors, never an (N, k_c, dim / m)
    array of differences."""

    @pytest.mark.parametrize("step", ["train_pq", "compress"])
    def test_peak_below_three_distance_tables(self, step):
        n, dim, m, k_c = 4000, 64, 8, 64
        idx = random_index(n, dim, seed=18)
        codebooks = train_pq(idx, m=m, k_c=k_c, iterations=2, seed=19)
        run = {"train_pq": lambda: train_pq(idx, m=m, k_c=k_c, iterations=2,
                                            seed=19),
               "compress": lambda: compress(idx, codebooks)}[step]
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 1.3 tables measured; the (N, k_c, 8) differences are 8.
        assert peak < 3 * n * k_c * 8 + idx.vectors.nbytes


class TestCompressDecode:
    def test_centroid_concatenation_exact(self):
        codebooks = np.arange(8.0).reshape(2, 2, 2)
        vec = np.concatenate([codebooks[0][1], codebooks[1][0]])
        idx = EmbeddingIndex(version=1, dim=4, ids=["a"],
                             vectors=vec[None, :])
        decoded = decode(compress(idx, codebooks))
        np.testing.assert_array_equal(decoded[0], vec)

    def test_compression_factor_arithmetic(self):
        # dim=64 at float16 vs m=8 one-byte codes: (64*2)/(8*1) = 16x.
        assert compression_ratio(dim=64, bytes_per_scalar=2, m=8, k_c=256) == 16.0

    def test_memory_bytes_counts_packed_codes_and_float32_codebooks(self):
        pidx = PQIndex(codebooks=np.zeros((8, 256, 8)),
                       ids=[f"p{i:04d}" for i in range(1000)],
                       codes=np.zeros((1000, 8), dtype=np.int64), version=1)
        # 1000 vectors x 8 one-byte codes, plus 8 x 256 x 8 float32 values.
        assert pidx.memory_bytes() == 1000 * 8 + 8 * 256 * 8 * 4
        # k_c = 5 needs 3 bits a code: 1000 x 8 x 3 bits is 3000 bytes.
        small = PQIndex(codebooks=np.zeros((8, 5, 8)), ids=pidx.ids,
                        codes=pidx.codes, version=1)
        assert small.memory_bytes() == 3000 + 8 * 5 * 8 * 4

    @pytest.mark.parametrize("codebooks, codes, match", [
        # -1 was read as the last centroid, and saved as code 65535.
        (np.zeros((1, 2, 1)), [[-1], [0]], r"codes -1\.\.0 outside 0\.\.1"),
        # k_c made pq_search raise IndexError.
        (np.zeros((1, 2, 1)), [[0], [2]], r"codes 0\.\.2 outside 0\.\.1"),
        (np.zeros((1, 0, 1)), [[0], [0]], "k_c=0"),
        (np.zeros((1, 65537, 1)), [[0], [1]], "k_c=65537"),
        (np.zeros((2, 1)), [[0], [0]], "codebooks of shape"),
        (np.zeros((0, 2, 1)), np.zeros((2, 0), int), "codebooks of shape"),
        # Saving truncated float codes: 0.9 loaded back as code 0.
        (np.zeros((1, 2, 1)), [[0.9], [0.0]], "non-integer codes"),
        (np.zeros((1, 2, 1)), [[True], [False]], "non-integer codes"),
    ])
    def test_constructor_rejects(self, codebooks, codes, match):
        with pytest.raises(ValueError, match=match):
            PQIndex(codebooks=codebooks, ids=["a", "b"],
                    codes=np.array(codes), version=1)

    def test_paper_scale_accounting(self):
        # Reported sizes scaled by the per-vector PQ ratio: a 768-dim fp16
        # index with 128 one-byte subquantizers compresses 12x, mapping
        # 49 GB -> ~4 GB and 587 GB -> ~50 GB.
        wiki = compressed_size_from_reported(49.0, dim=768, bytes_per_scalar=2,
                                             m=128, k_c=256)
        combined = compressed_size_from_reported(587.0, dim=768,
                                                 bytes_per_scalar=2,
                                                 m=128, k_c=256)
        assert wiki == pytest.approx(4.0, rel=0.05)
        assert combined == pytest.approx(50.0, rel=0.05)


class TestPQSearch:
    def test_zero_error_matches_exact(self):
        rng = np.random.default_rng(5)
        distinct = rng.normal(size=(4, 4))
        rows = np.concatenate([distinct[rng.integers(4, size=64)],
                               distinct[rng.integers(4, size=64)]], axis=1)
        idx = EmbeddingIndex(version=1, dim=8,
                             ids=[f"p{i:03d}" for i in range(64)],
                             vectors=rows)
        codec = train_pq(idx, m=2, k_c=4, iterations=30, seed=6)
        assert squared_error(idx, compress(idx, codec)) == pytest.approx(
            0.0, abs=1e-12)
        pidx = compress(idx, codec)
        q = rng.normal(size=8)
        exact = search(idx, q, 5)
        approx = pq_search(pidx, q, 5)
        assert [a[0] for a in approx] == [e[0] for e in exact]
        np.testing.assert_allclose([a[1] for a in approx],
                                   [e[1] for e in exact], atol=1e-9)

    def test_k_equals_n_returns_all(self):
        idx = random_index(12, 4, seed=7)
        codec = train_pq(idx, m=2, k_c=4, seed=8)
        pidx = compress(idx, codec)
        assert len(pq_search(pidx, np.ones(4), 12)) == 12

    @pytest.mark.parametrize("k", [1, 17, 18, 19, 40, 64])
    def test_shared_codes_tie_by_ascending_id(self, k):
        # 64 rows on 2x2 codes: four code tuples, tied groups of 18,
        # 20, 12 and 14 rows.
        # Ids are shuffled, so row order is not id order. Rows that share
        # codes decode to identical vectors, so the oracle ties them too.
        rng = np.random.default_rng(14)
        idx = EmbeddingIndex(version=1, dim=4,
                             ids=[f"p{i:03d}" for i in rng.permutation(64)],
                             vectors=rng.normal(size=(64, 4)))
        pidx = compress(idx, train_pq(idx, m=2, k_c=2, seed=15))
        q = rng.normal(size=4)
        got = pq_search(pidx, q, k)
        want = brute_force_search(pidx.ids, decode(pidx), q, k)
        assert [g[0] for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g[1] for g in got],
                                   [w[1] for w in want], rtol=1e-9)

    def test_recall_monotone_in_codebook_size(self):
        idx = random_index(600, 16, seed=9)
        rng = np.random.default_rng(10)
        queries = rng.normal(size=(20, 16))
        exact = [search(idx, q, 20) for q in queries]
        recalls = []
        for k_c in (256, 64, 16, 4):
            codec = train_pq(idx, m=4, k_c=k_c, iterations=10, seed=11)
            pidx = compress(idx, codec)
            approx = [pq_search(pidx, q, 20) for q in queries]
            recalls.append(recall_at_k(approx, exact, 20))
        assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))


class TestRecallAtK:
    def r(self, ids):
        return [(i, 0.0) for i in ids]

    def test_identical(self):
        lists = [self.r(["a", "b"])]
        assert recall_at_k(lists, lists, 2) == 1.0

    def test_disjoint(self):
        assert recall_at_k([self.r(["a"])], [self.r(["b"])], 1) == 0.0

    def test_half_overlap(self):
        approx = [self.r([f"x{i}" for i in range(5)] + [f"y{i}" for i in range(5)])]
        exact = [self.r([f"x{i}" for i in range(5)] + [f"z{i}" for i in range(5)])]
        assert recall_at_k(approx, exact, 10) == 0.5

    def test_short_exact_list_counts_the_results_that_exist(self):
        # An index of fewer than k rows returns fewer than k results; the
        # overlap is a fraction of those, not of k.
        assert recall_at_k([self.r(["a"])], [self.r(["a"])], 2) == 1.0
        assert recall_at_k([self.r(["a", "c"])], [self.r(["a", "b"])],
                           5) == 0.5


class TestPQFile:
    def test_round_trip(self, tmp_path):
        idx = random_index(50, 8, seed=12)
        pidx = compress(idx, train_pq(idx, m=2, k_c=4, seed=13))
        path = tmp_path / "idx.rpqx"
        save_pq_index(pidx, path)
        loaded = load_pq_index(path)
        assert loaded.ids == pidx.ids
        np.testing.assert_array_equal(loaded.codes, pidx.codes)
        np.testing.assert_allclose(loaded.codebooks, pidx.codebooks,
                                   atol=1e-6)
        save_pq_index(loaded, tmp_path / "idx2.rpqx")
        assert path.read_bytes() == (tmp_path / "idx2.rpqx").read_bytes()

    def test_k_c_beyond_16_bit_codes_not_saved(self):
        # Codes are stored as <u2: code 69999 would read back as 65535.
        with pytest.raises(ValueError, match="65536"):
            PQIndex(codebooks=np.arange(70_000.0).reshape(1, 70_000, 1),
                    ids=["a", "b"], codes=np.array([[0], [69_999]]),
                    version=1)

    def test_newline_in_id_rejected_before_write(self, tmp_path):
        pidx = PQIndex(codebooks=np.zeros((1, 1, 1)), ids=["a", "b\n"],
                       codes=np.zeros((2, 1), dtype=np.int64), version=1)
        path = tmp_path / "idx.rpqx"
        with pytest.raises(ValueError, match=r"'b\\n'"):
            save_pq_index(pidx, path)
        assert not path.exists()

    def test_truncated_names_file(self, tmp_path):
        idx = random_index(5, 4, seed=16)
        pidx = compress(idx, train_pq(idx, m=2, k_c=3, seed=17))
        path = tmp_path / "idx.rpqx"
        save_pq_index(pidx, path)
        data = path.read_bytes()
        codes_start = len(data) - 5 * 2 * 2
        cb_start = codes_start - 2 * 3 * 2 * 4
        for cut in (0, 2, 20, 4 + 32 + 3, cb_start + 5, codes_start + 3,
                    len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="idx.rpqx.*truncated"):
                load_pq_index(path)

    @pytest.mark.parametrize("table", [b"z\nz", b"z\ny"])
    def test_ids_not_strictly_ascending_is_format_error(self, tmp_path,
                                                        table):
        path = tmp_path / "idx.rpqx"
        save_pq_index(PQIndex(codebooks=np.zeros((1, 1, 1)), ids=["y", "z"],
                              codes=np.zeros((2, 1), dtype=np.int64),
                              version=1), path)
        data = path.read_bytes()
        at = data.index(b"y\nz")
        path.write_bytes(data[:at] + table + data[at + len(table):])
        with pytest.raises(FormatError, match="idx.rpqx.*not strictly ascending"):
            load_pq_index(path)

    def test_unsorted_ids_sort_with_their_codes(self):
        codebooks = np.arange(3.0).reshape(1, 3, 1)
        pidx = PQIndex(codebooks=codebooks, ids=["c", "a", "b"],
                       codes=np.array([[2], [0], [1]]), version=1)
        assert pidx.ids == ["a", "b", "c"]
        np.testing.assert_array_equal(pidx.codes[:, 0], [0, 1, 2])
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            PQIndex(codebooks=codebooks, ids=["a", "b", "a"],
                    codes=np.zeros((3, 1), dtype=np.int64), version=1)

    def test_code_beyond_k_c_named_on_load(self, tmp_path):
        idx = random_index(5, 4, seed=16)
        path = tmp_path / "idx.rpqx"
        save_pq_index(compress(idx, train_pq(idx, m=2, k_c=3, seed=17)), path)
        path.write_bytes(path.read_bytes()[:-2] + b"\x03\0")
        with pytest.raises(FormatError, match=r"idx.rpqx: codes \d\.\.3 "
                                              r"outside 0\.\.2$"):
            load_pq_index(path)

    def test_k_c_0_named_on_load(self, tmp_path):
        # No rows, so k_c = 0 leaves no codebook or code bytes to read.
        path = tmp_path / "idx.rpqx"
        save_pq_index(PQIndex(codebooks=np.zeros((1, 1, 1)), ids=[],
                              codes=np.zeros((0, 1), dtype=np.int64),
                              version=1), path)
        data = path.read_bytes()
        path.write_bytes(data[:20] + b"\0\0\0\0" + data[24:-4])
        with pytest.raises(FormatError, match="idx.rpqx: k_c=0 is outside"):
            load_pq_index(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_codebook_is_format_error(self, tmp_path, value):
        idx = random_index(5, 4, seed=16)
        path = tmp_path / "idx.rpqx"
        save_pq_index(compress(idx, train_pq(idx, m=2, k_c=3, seed=17)), path)
        data = path.read_bytes()
        at = len(data) - 5 * 2 * 2 - 4  # the last codebook value
        path.write_bytes(data[:at] + np.array([value], "<f4").tobytes()
                         + data[at + 4:])
        with pytest.raises(FormatError, match="idx.rpqx.*non-finite"):
            load_pq_index(path)

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e39])
    def test_non_finite_codebook_rejected_before_write(self, tmp_path, value):
        codebooks = np.zeros((1, 2, 1))
        codebooks[0, 1, 0] = value
        pidx = PQIndex(codebooks=codebooks, ids=["a"],
                       codes=np.zeros((1, 1), dtype=np.int64), version=1)
        path = tmp_path / "idx.rpqx"
        with pytest.raises(ValueError, match="non-finite"):
            save_pq_index(pidx, path)
        assert not path.exists()

    @pytest.mark.parametrize("mangle", [
        lambda b: b"XXXX" + b[4:],  # magic
        lambda b: b + b"\0",  # trailing bytes
        lambda b: b[:16] + b"\0" + b[17:],  # m = 0
        lambda b: b[:-2] + b"\x03\0",  # last code 3 >= k_c
    ])
    def test_malformed_is_format_error(self, tmp_path, mangle):
        idx = random_index(5, 4, seed=16)
        path = tmp_path / "idx.rpqx"
        save_pq_index(compress(idx, train_pq(idx, m=2, k_c=3, seed=17)), path)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(FormatError, match="idx.rpqx"):
            load_pq_index(path)
