import struct

import numpy as np
import pytest

from rlab.cli import main
from rlab.index import EmbeddingIndex, FormatError, save_index
from rlab.retriever import (DualEncoder, EncoderParams, Gradients,
                            MaintenanceMode, Vocab, encode, encode_doc,
                            encode_query, init_encoder, load_checkpoint,
                            retrieval_distribution, retriever_gradient,
                            save_checkpoint, score)

from oracles import mp_softmax


@pytest.fixture
def small_encoder():
    vocab = Vocab([f"t{i}" for i in range(20)])
    return init_encoder(vocab, dim=4, seed=7)


class TestEncode:
    def test_mean_pooling(self, small_encoder):
        enc = small_encoder
        a = enc.query.embedding[enc.vocab.row("t1")]
        b = enc.query.embedding[enc.vocab.row("t2")]
        np.testing.assert_allclose(encode_query(enc, ["t1", "t2"]), (a + b) / 2)

    def test_single_token(self, small_encoder):
        enc = small_encoder
        np.testing.assert_allclose(
            encode_query(enc, ["t3"]),
            enc.query.embedding[enc.vocab.row("t3")])

    def test_duplicate_tokens_mean(self, small_encoder):
        enc = small_encoder
        np.testing.assert_allclose(encode_query(enc, ["t1", "t1"]),
                                   encode_query(enc, ["t1"]))

    def test_empty_input_raises(self, small_encoder):
        with pytest.raises(ValueError, match="empty input"):
            encode_query(small_encoder, [])

    def test_unknown_token_maps_to_unk(self, small_encoder):
        enc = small_encoder
        np.testing.assert_allclose(encode_query(enc, ["never-seen"]),
                                   enc.query.embedding[0])

    def test_projection_applied(self, small_encoder):
        enc = small_encoder
        enc.query.projection = np.diag([2.0, 1.0, 1.0, 1.0])
        vec = encode_query(enc, ["t1"])
        base = enc.query.embedding[enc.vocab.row("t1")]
        assert vec[0] == pytest.approx(2 * base[0])


class TestScore:
    def test_unit_basis(self):
        e1 = np.array([1.0, 0.0])
        e2 = np.array([0.0, 1.0])
        assert score(e1, e1) == 1.0
        assert score(e1, e2) == 0.0

    def test_arithmetic(self):
        assert score(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            score(np.zeros(2), np.zeros(3))


class TestRetrievalDistribution:
    def test_equal_scores_uniform(self):
        np.testing.assert_allclose(retrieval_distribution([2.0] * 4, 1.0),
                                   [0.25] * 4)

    def test_single_doc(self):
        np.testing.assert_allclose(retrieval_distribution([3.0], 0.5), [1.0])

    def test_logistic_value(self):
        probs = retrieval_distribution([1.0, 0.0], 1.0)
        np.testing.assert_allclose(probs, [0.7311, 0.2689], atol=1e-4)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.normal(size=rng.integers(1, 6)) * 10
            theta = float(rng.uniform(0.05, 2.0))
            got = retrieval_distribution(scores, theta)
            np.testing.assert_allclose(got, mp_softmax(scores, theta),
                                       rtol=1e-12, atol=1e-15)

    def test_shift_invariance(self):
        scores = [0.3, -1.2, 2.0]
        np.testing.assert_allclose(
            retrieval_distribution(scores, 0.7),
            retrieval_distribution([s + 100 for s in scores], 0.7))

    def test_temperature_limits(self):
        scores = [3.0, 1.0, -2.0]
        hot = retrieval_distribution(scores, 1e6)
        np.testing.assert_allclose(hot, [1 / 3] * 3, atol=1e-4)
        cold = retrieval_distribution(scores, 1e-6)
        assert cold[0] > 1 - 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            retrieval_distribution([1.0], 0.0)
        with pytest.raises(ValueError):
            retrieval_distribution([np.inf, 0.0], 1.0)

    def test_always_a_distribution(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            probs = retrieval_distribution(rng.normal(size=5) * 50, 0.1)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-9


def kl_of_params(enc, query, docs, target, theta):
    q = encode_query(enc, query)
    d = np.stack([encode_doc(enc, doc) for doc in docs])
    probs = retrieval_distribution(d @ q, theta)
    target = np.asarray(target)
    sup = target > 0
    return float(np.sum(target[sup] * np.log(target[sup] / probs[sup])))


class TestRetrieverGradient:
    def make(self, seed=0, dim=4):
        vocab = Vocab([f"t{i}" for i in range(12)])
        return init_encoder(vocab, dim=dim, seed=seed)

    def test_zero_at_minimum(self):
        enc = self.make()
        query = ["t0", "t1"]
        docs = [["t2"], ["t3"], ["t4"]]
        q = encode_query(enc, query)
        d = np.stack([encode_doc(enc, doc) for doc in docs])
        target = retrieval_distribution(d @ q, 1.0)
        grads = retriever_gradient(enc, query, docs, target, 1.0,
                                   MaintenanceMode.FULL_REFRESH)
        assert np.abs(grads.query_embedding).max() < 1e-12
        assert np.abs(grads.doc_embedding).max() < 1e-12

    def test_fixed_mode_errors(self):
        enc = self.make()
        with pytest.raises(ValueError, match="frozen"):
            retriever_gradient(enc, ["t0"], [["t1"]], np.array([1.0]), 1.0,
                               MaintenanceMode.FIXED)

    def test_query_side_doc_grads_zero(self):
        enc = self.make()
        grads = retriever_gradient(enc, ["t0"], [["t1"], ["t2"]],
                                   np.array([1.0, 0.0]), 0.5,
                                   MaintenanceMode.QUERY_SIDE)
        assert np.all(grads.doc_embedding == 0.0)
        assert np.all(grads.doc_projection == 0.0)
        assert np.abs(grads.query_embedding).max() > 0

    @pytest.mark.parametrize("mode", [MaintenanceMode.QUERY_SIDE,
                                      MaintenanceMode.RERANK,
                                      MaintenanceMode.FULL_REFRESH])
    def test_finite_difference_agreement(self, mode):
        rng = np.random.default_rng(42)
        step = 1e-5
        for trial in range(20):
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(2, 6))
            vocab = Vocab([f"t{i}" for i in range(10)])
            enc = init_encoder(vocab, dim=dim, seed=trial)
            query = [f"t{rng.integers(10)}" for _ in range(3)]
            docs = [[f"t{rng.integers(10)}" for _ in range(2)] for _ in range(k)]
            target = rng.dirichlet(np.ones(k))
            theta = float(rng.uniform(0.2, 2.0))

            grads = retriever_gradient(enc, query, docs, target, theta, mode)

            tables = [("query", enc.query.embedding, grads.query_embedding),
                      ("query_proj", enc.query.projection, grads.query_projection)]
            if mode.trains_docs:
                tables += [("doc", enc.doc.embedding, grads.doc_embedding),
                           ("doc_proj", enc.doc.projection, grads.doc_projection)]
            for name, table, grad in tables:
                flat_idx = rng.integers(table.size, size=4)
                for fi in flat_idx:
                    orig = table.flat[fi]
                    table.flat[fi] = orig + step
                    hi = kl_of_params(enc, query, docs, target, theta)
                    table.flat[fi] = orig - step
                    lo = kl_of_params(enc, query, docs, target, theta)
                    table.flat[fi] = orig
                    fd = (hi - lo) / (2 * step)
                    scale = max(abs(fd), abs(grad.flat[fi]), 1e-8)
                    assert abs(fd - grad.flat[fi]) / scale < 1e-4, name


class TestCheckpoint:
    def test_round_trip(self, tmp_path, small_encoder):
        path = tmp_path / "enc.rlab"
        save_checkpoint(small_encoder, path)
        loaded = load_checkpoint(path)
        assert loaded.vocab.tokens == small_encoder.vocab.tokens
        # Tables are stored in 32-bit; round trip is exact at that width.
        np.testing.assert_allclose(loaded.query.embedding,
                                   small_encoder.query.embedding, atol=1e-7)
        save_checkpoint(loaded, tmp_path / "enc2.rlab")
        assert (tmp_path / "enc.rlab").read_bytes() == \
               (tmp_path / "enc2.rlab").read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.rlab"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def _saved(self, tmp_path, enc):
        path = tmp_path / "enc.rlab"
        save_checkpoint(enc, path)
        return path, path.read_bytes()

    @staticmethod
    def _tables_end(enc):
        """Byte offset of the vocab in a version 2 file (24-byte header)."""
        vsize, dim = len(enc.vocab), enc.dim
        return 24 + 4 * (2 * vsize * dim + 2 * dim * dim)

    def _with_vocab(self, blob, enc, vocab: bytes):
        """blob with its vocab replaced and the header's length to match."""
        return (blob[:16] + struct.pack("<Q", len(vocab))
                + blob[24:self._tables_end(enc)] + vocab)

    def test_truncated_raises_format_error(self, tmp_path, small_encoder):
        path, blob = self._saved(tmp_path, small_encoder)
        vsize, dim = len(small_encoder.vocab), small_encoder.dim
        tables_end = self._tables_end(small_encoder)
        for cut in (0, 2, 10, 20,                # magic, header
                    24 + 4 * vsize * dim // 2,   # query embedding
                    24 + 4 * vsize * dim + 4,    # query projection
                    tables_end - 1,              # doc projection
                    tables_end,                  # no vocab at all
                    tables_end + 9):             # inside the vocab
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match="enc.rlab"):
                load_checkpoint(path)

    def test_malformed_raises_format_error(self, tmp_path, small_encoder):
        path, blob = self._saved(tmp_path, small_encoder)
        vocab = blob[self._tables_end(small_encoder):]
        bad_version = blob[:4] + struct.pack("<I", 9) + blob[8:]
        not_utf8 = self._with_vocab(blob, small_encoder, vocab + b"\n\xff\xfe")
        extra_token = self._with_vocab(blob, small_encoder, vocab + b"\nextra")
        for data, message in ((b"NOPE" + blob[4:], "magic"),
                              (bad_version, "version 9"),
                              (not_utf8, "UTF-8"),
                              (extra_token, "tokens"),
                              (blob + b"x", "trailing")):
            path.write_bytes(data)
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path)

    def test_cut_inside_last_token_raises(self, tmp_path, small_encoder):
        # The last token "t9" cut to "t" keeps the token count; only the
        # stored vocab length catches it.
        path, blob = self._saved(tmp_path, small_encoder)
        assert small_encoder.vocab.tokens[-1] == "t9"
        path.write_bytes(blob[:-1])
        with pytest.raises(FormatError, match="enc.rlab.*truncated"):
            load_checkpoint(path)

    def test_version_1_still_loads(self, tmp_path, small_encoder):
        path, blob = self._saved(tmp_path, small_encoder)
        vsize, dim = len(small_encoder.vocab), small_encoder.dim
        v1 = b"RLAB" + struct.pack("<III", 1, dim, vsize) + blob[24:]
        path.write_bytes(v1)
        loaded = load_checkpoint(path)
        assert loaded.vocab.tokens == small_encoder.vocab.tokens
        np.testing.assert_array_equal(
            loaded.doc.projection,
            small_encoder.doc.projection.astype(np.float32))
        # Version 1 stores no vocab length: the vocab runs to end of file.
        path.write_bytes(v1 + b"\nextra")
        with pytest.raises(FormatError, match="tokens"):
            load_checkpoint(path)

    def test_newline_in_vocab_token_rejected_before_write(self, tmp_path):
        enc = init_encoder(Vocab(["a", "b\nc"]), dim=2)
        path = tmp_path / "enc.rlab"
        with pytest.raises(ValueError, match=r"'b\\nc'"):
            save_checkpoint(enc, path)
        assert not path.exists()

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("tokens", [
        [],  # no UNK row: any lookup indexes an empty table
        ["<unk>", "ab", "ab"],  # "ab" answers to row 2, row 1 is orphaned
        ["ab", "<unk>"],  # unknown tokens would share the row of "ab"
    ])
    def test_bad_vocab_table_rejected(self, tmp_path, tokens, version):
        vocab = Vocab.__new__(Vocab)
        vocab.tokens = tokens
        vocab.index = {t: i for i, t in enumerate(tokens)}
        side = EncoderParams(np.zeros((len(tokens), 4)), np.eye(4))
        path, blob = self._saved(tmp_path, DualEncoder(vocab, side, side))
        if version == 1:
            path.write_bytes(b"RLAB" + struct.pack("<III", 1, 4, len(tokens))
                             + blob[24:])
        with pytest.raises(FormatError, match="enc.rlab.*vocab"):
            load_checkpoint(path)
        index = tmp_path / "idx.ridx"
        save_index(EmbeddingIndex(version=1, dim=4, ids=["a"],
                                  vectors=np.ones((1, 4))), index)
        assert main(["search", "--index", str(index), "--checkpoint",
                     str(path), "--query", "ab cd"]) == 1
