import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rlab.corpus import TokenTable
from rlab.formats import FormatError
from rlab.lm import MockScorer, OverlapLM, _count_matrix

from oracles import counter_overlap_lm, mp_overlap_lm


@pytest.fixture
def lm():
    return OverlapLM(vocab_size=10, smoothing=0.5)


tokens_st = st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12)


class TestPerDocLoglik:
    def test_smoothing_floor(self, lm):
        # Output token absent from the doc: each term is ln((1-0.5)/10).
        (got,) = lm.per_doc_loglik([], [["x", "y"]], ["z"])
        assert got == pytest.approx(math.log(0.05))

    def test_hand_value_repeated_token(self, lm):
        (got,) = lm.per_doc_loglik([], [["x"]], ["x"])
        assert got == pytest.approx(math.log(0.55))

    def test_identical_docs_identical_logliks(self, lm):
        a, b = lm.per_doc_loglik([], [["a", "b"], ["a", "b"]], ["a"])
        assert a == b

    def test_empty_doc_uses_floor(self, lm):
        (got,) = lm.per_doc_loglik([], [[]], ["x", "x"])
        assert got == pytest.approx(2 * math.log(0.05))

    def test_empty_output_errors(self, lm):
        with pytest.raises(ValueError, match="empty output"):
            lm.per_doc_loglik([], [["a"]], [])


class TestJointLoglik:
    def test_single_doc_equals_per_doc(self, lm):
        docs = [["a", "b", "a"]]
        assert lm.joint_loglik([], docs, ["a", "c"]) == \
            pytest.approx(lm.per_doc_loglik([], docs, ["a", "c"])[0])

    def test_duplication_invariance(self, lm):
        docs = [["a", "b"], ["c"]]
        assert lm.joint_loglik([], docs, ["a"]) == \
            pytest.approx(lm.joint_loglik([], docs + docs, ["a"]))

    def test_disjoint_docs_match_concatenation(self, lm):
        d1, d2 = ["a", "b"], ["c", "d", "e"]
        assert lm.joint_loglik([], [d1, d2], ["a", "e"]) == \
            pytest.approx(lm.per_doc_loglik([], [d1 + d2], ["a", "e"])[0])


class TestLooLogliks:
    def test_identical_docs_equal_entries(self, lm):
        got = lm.loo_logliks([], [["a"]] * 3, ["a"])
        assert got[0] == got[1] == got[2]

    def test_k2_swap(self, lm):
        d1, d2 = ["a", "a"], ["b"]
        loo = lm.loo_logliks([], [d1, d2], ["a"])
        per = lm.per_doc_loglik([], [d1, d2], ["a"])
        assert loo[0] == pytest.approx(per[1])
        assert loo[1] == pytest.approx(per[0])

    def test_k3_matches_explicit_subsets(self, lm):
        docs = [["a", "b"], ["b", "c"], ["d"]]
        loo = lm.loo_logliks([], docs, ["b", "d"])
        for k in range(3):
            subset = [d for i, d in enumerate(docs) if i != k]
            assert loo[k] == pytest.approx(lm.joint_loglik([], subset, ["b", "d"]))

    def test_k1_errors(self, lm):
        with pytest.raises(ValueError, match="leave-one-out"):
            lm.loo_logliks([], [["a"]], ["a"])


class TestAttentionRelevance:
    def test_no_overlap_zero(self, lm):
        assert lm.attention_relevance([], [["x", "y"]], ["z"]) == [0.0]

    def test_doc_equals_output(self, lm):
        (got,) = lm.attention_relevance([], [["a", "b"]], ["a", "b"])
        assert got == pytest.approx(0.5)

    def test_identical_docs_equal(self, lm):
        a, b = lm.attention_relevance([], [["a"], ["a"]], ["a"])
        assert a == b

    def test_empty_doc_zero(self, lm):
        assert lm.attention_relevance([], [[]], ["a"]) == [0.0]

    @given(st.lists(tokens_st, min_size=1, max_size=4), tokens_st)
    def test_nonnegative_finite(self, docs, output):
        lm = OverlapLM(vocab_size=7)
        for r in lm.attention_relevance([], docs, output):
            assert r >= 0.0
            assert math.isfinite(r)


class TestInvariants:
    @given(st.lists(tokens_st, min_size=2, max_size=4),
           tokens_st, st.randoms())
    def test_exchangeability(self, docs, output, rnd):
        lm = OverlapLM(vocab_size=9)
        perm = list(range(len(docs)))
        rnd.shuffle(perm)
        shuffled = [docs[i] for i in perm]
        for fn in (lm.per_doc_loglik, lm.loo_logliks, lm.attention_relevance):
            base = fn([], docs, output)
            assert fn([], shuffled, output) == pytest.approx([base[i] for i in perm])
        assert lm.joint_loglik([], shuffled, output) == \
            pytest.approx(lm.joint_loglik([], docs, output))

    @given(st.lists(tokens_st, min_size=1, max_size=4), tokens_st)
    def test_logliks_nonpositive(self, docs, output):
        lm = OverlapLM(vocab_size=9, smoothing=0.5)
        assert all(v <= 0 for v in lm.per_doc_loglik([], docs, output))
        assert lm.joint_loglik([], docs, output) <= 0

    def test_adding_output_token_never_decreases_loglik(self, lm):
        doc = ["a", "b", "c"]
        before = lm.per_doc_loglik([], [doc], ["a"])[0]
        after = lm.per_doc_loglik([], [doc + ["a"]], ["a"])[0]
        assert after >= before


class TestOracle:
    """All five scores against the formula evaluated in 50 digits."""

    @given(docs=st.lists(st.lists(st.sampled_from("abcde"), max_size=6),
                         min_size=1, max_size=4),
           output=st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=10),
           vocab_size=st.integers(2, 50),
           smoothing=st.floats(0.05, 0.95))
    @example(docs=[[]], output=["a"], vocab_size=7, smoothing=0.5)  # empty, K=1
    @example(docs=[["a", "b"], []], output=["a", "a", "z"],  # K=2, repeated
             vocab_size=10, smoothing=0.5)                  # and absent tokens
    @example(docs=[["a", "b", "a"], ["a", "b", "a"], ["c"]],  # duplicates
             output=["a", "c", "b", "a", "a", "c", "b", "a", "d"],
             vocab_size=9, smoothing=0.3)
    @example(docs=[[], []], output=["a"], vocab_size=3, smoothing=0.5)
    def test_matches_formula(self, docs, output, vocab_size, smoothing):
        lm = OverlapLM(vocab_size=vocab_size, smoothing=smoothing)
        want = mp_overlap_lm(docs, output, vocab_size, smoothing)
        close = dict(rel=1e-12, abs=0.0)
        assert lm.per_doc_loglik([], docs, output) == \
            pytest.approx(want["per_doc"], **close)
        assert lm.joint_loglik([], docs, output) == \
            pytest.approx(want["joint"], **close)
        assert lm.attention_relevance([], docs, output) == \
            pytest.approx(want["relevance"], **close)
        if len(docs) == 1:
            with pytest.raises(ValueError, match="leave-one-out"):
                lm.loo_logliks([], docs, output)
        else:
            assert lm.loo_logliks([], docs, output) == \
                pytest.approx(want["loo"], **close)

    def test_keeps_no_state_between_calls(self):
        lm = OverlapLM(vocab_size=9)
        before = dict(vars(lm))
        docs, output = [("a", "b"), ("b", "c", "c")], ("c", "a")
        for _ in range(2):
            for fn in (lm.per_doc_loglik, lm.joint_loglik, lm.loo_logliks,
                       lm.attention_relevance):
                fn((), docs, output)
        assert vars(lm) == before == {"vocab_size": 9, "smoothing": 0.5}


class TestCounterOracle:
    """Every output, for a row view of a token table and for the same
    documents as a list of tuples, against collections.Counter counts."""

    @given(corpus=st.lists(st.lists(st.sampled_from("abcde"), max_size=6),
                           min_size=1, max_size=6),
           picks=st.lists(st.integers(0, 5), min_size=1, max_size=5),
           output=st.lists(st.sampled_from("abcdefg"), min_size=1,
                           max_size=8),
           vocab_size=st.integers(2, 50),
           smoothing=st.floats(0.05, 0.95))
    @example(corpus=[["a", "b", "a"]], picks=[0], output=["a", "z", "a"],
             vocab_size=9, smoothing=0.5)  # K = 1, repeated and absent
    @example(corpus=[["a", "b"], ["c"], ["d", "e"]], picks=[2, 0, 2, 0],
             output=["c", "e", "f", "e"], vocab_size=9,  # duplicate docs;
             smoothing=0.3)  # "c" is a table term in no picked doc
    @example(corpus=[[], ["a"]], picks=[0, 0], output=["a"], vocab_size=3,
             smoothing=0.5)  # only empty docs
    def test_matches_counter(self, corpus, picks, output, vocab_size,
                             smoothing):
        rows = np.array([i % len(corpus) for i in picks])
        view = TokenTable([tuple(t) for t in corpus]).view(rows)
        docs = [tuple(corpus[r]) for r in rows]
        assert list(view) == docs
        want = counter_overlap_lm(docs, output, vocab_size, smoothing)
        lm = OverlapLM(vocab_size=vocab_size, smoothing=smoothing)
        close = dict(rel=1e-12, abs=1e-300)
        for given_docs in (view, docs):
            counts, lengths = _count_matrix(given_docs, output)
            assert counts.tolist() == want["counts"]
            assert lengths.tolist() == want["lengths"]
            assert lm.per_doc_loglik([], given_docs, output) == \
                pytest.approx(want["per_doc"], **close)
            assert lm.joint_loglik([], given_docs, output) == \
                pytest.approx(want["joint"], **close)
            assert lm.attention_relevance([], given_docs, output) == \
                want["relevance"]
            if len(docs) == 1:
                with pytest.raises(ValueError, match="leave-one-out"):
                    lm.loo_logliks([], given_docs, output)
            else:
                assert lm.loo_logliks([], given_docs, output) == \
                    pytest.approx(want["loo"], **close)


class TestMockScorer:
    def test_fixture_round_trip(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc_id": "p1", "loglik": -1.5, "relevance": 0.3}\n'
                        '{"doc_id": "p2", "loglik": -0.5}\n')
        mock = MockScorer.from_jsonl(path).bind(["p1", "p2"])
        assert mock.per_doc_loglik([], [], []) == [-1.5, -0.5]
        assert mock.attention_relevance([], [], []) == [0.3, 0.0]

    @pytest.mark.parametrize("bad_line", [
        '{"loglik": -1.0}',                            # no doc_id
        '{"doc_id": "p2", "loglik": "high"}',
        '{"doc_id": "p2", "loglik": -1.0, "relevance": null}',
        '[["p2", -1.0]]',                              # not an object
        '{"doc_id": "p2", "lo',                        # cut line
    ])
    def test_bad_line_names_file_and_line(self, tmp_path, bad_line):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"doc_id": "p1", "loglik": -1.5}\n' + bad_line)
        with pytest.raises(FormatError, match="scores.jsonl, line 2"):
            MockScorer.from_jsonl(path)
