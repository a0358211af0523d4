import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rlab.corpus import TokenTable
from rlab.lm import OverlapLM, _count_matrix

from needle import make_needle_task
from oracles import counter_overlap_lm, mp_overlap_lm


@pytest.fixture
def lm():
    return OverlapLM(vocab_size=10)


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
        lm = OverlapLM(vocab_size=9)
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
           vocab_size=st.integers(2, 50))
    @example(docs=[[]], output=["a"], vocab_size=7)  # empty, K=1
    @example(docs=[["a", "b"], []], output=["a", "a", "z"],  # K=2, repeated
             vocab_size=10)                                  # and absent tokens
    @example(docs=[["a", "b", "a"], ["a", "b", "a"], ["c"]],  # duplicates
             output=["a", "c", "b", "a", "a", "c", "b", "a", "d"],
             vocab_size=9)
    @example(docs=[[], []], output=["a"], vocab_size=3)
    def test_matches_formula(self, docs, output, vocab_size):
        lm = OverlapLM(vocab_size=vocab_size)
        want = mp_overlap_lm(docs, output, vocab_size, 0.5)
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
        assert vars(lm) == before == {"vocab_size": 9}


class TestCounterOracle:
    """Every output, for a row view of a token table and for the same
    documents as a list of tuples, against collections.Counter counts."""

    @given(corpus=st.lists(st.lists(st.sampled_from("abcde"), max_size=6),
                           min_size=1, max_size=6),
           picks=st.lists(st.integers(0, 5), min_size=1, max_size=5),
           output=st.lists(st.sampled_from("abcdefg"), min_size=1,
                           max_size=8),
           vocab_size=st.integers(2, 50))
    @example(corpus=[["a", "b", "a"]], picks=[0], output=["a", "z", "a"],
             vocab_size=9)  # K = 1, repeated and absent
    @example(corpus=[["a", "b"], ["c"], ["d", "e"]], picks=[2, 0, 2, 0],
             output=["c", "e", "f", "e"],  # duplicate docs; "c" is a
             vocab_size=9)                 # table term in no picked doc
    @example(corpus=[[], ["a"]], picks=[0, 0], output=["a"],
             vocab_size=3)  # only empty docs
    def test_matches_counter(self, corpus, picks, output, vocab_size):
        rows = np.array([i % len(corpus) for i in picks])
        view = TokenTable([tuple(t) for t in corpus]).view(rows)
        docs = [tuple(corpus[r]) for r in rows]
        assert list(view) == docs
        want = counter_overlap_lm(docs, output, vocab_size, 0.5)
        lm = OverlapLM(vocab_size=vocab_size)
        close = dict(rel=1e-12, abs=1e-300)
        for given_docs in (view, docs):
            counts, lengths = _count_matrix(given_docs, output)
            assert counts.tolist() == want["counts"]
            assert lengths.tolist() == want["lengths"]
            assert lm.per_doc_loglik([], given_docs, output) == \
                pytest.approx(want["per_doc"], **close)
            assert lm.joint_loglik([], given_docs, output) == \
                pytest.approx(want["joint"], **close)
            assert lm.attention_relevance([], given_docs, output).tolist() \
                == want["relevance"]
            if len(docs) == 1:
                with pytest.raises(ValueError, match="leave-one-out"):
                    lm.loo_logliks([], given_docs, output)
            else:
                assert lm.loo_logliks([], given_docs, output) == \
                    pytest.approx(want["loo"], **close)


def byte_reference(docs, output, vocab_size, smoothing):
    """Per-document, leave-one-out and joint log-likelihoods and attention
    relevance from collections.Counter counts: each factor in Python float
    arithmetic, np.log of the factors elementwise, and the logs added in
    token order."""
    counters = [Counter(d) for d in docs]
    lengths = [len(d) for d in docs]
    pooled, total = sum(counters, Counter()), sum(lengths)
    floor = (1.0 - smoothing) / vocab_size

    def loglik(counts, length):
        factors = [smoothing * (c / length if length else 0.0) + floor
                   for c in counts]
        value = 0.0
        for log in np.log(np.array(factors)).tolist():
            value += log
        return value

    return {
        "per_doc": [loglik([c[t] for t in output], n)
                    for c, n in zip(counters, lengths)],
        "loo": [loglik([pooled[t] - c[t] for t in output], total - n)
                for c, n in zip(counters, lengths)],
        "joint": loglik([pooled[t] for t in output], total),
        "relevance": [sum(c[t] for t in output) / (n * len(output)) if n
                      else 0.0 for c, n in zip(counters, lengths)],
    }


def assert_same_bits(corpus, rows, output, vocab_size):
    """For the corpus rows as a row view of a token table and as a list of
    tuples, every per-document score is a float64 array with the
    reference's bits, and the joint log-likelihood a float with them."""
    view = TokenTable([tuple(t) for t in corpus]).view(np.array(rows))
    docs = [tuple(corpus[r]) for r in rows]
    want = byte_reference(docs, output, vocab_size, 0.5)
    lm = OverlapLM(vocab_size=vocab_size)
    fns = {"per_doc": lm.per_doc_loglik, "relevance": lm.attention_relevance}
    if len(docs) > 1:
        fns["loo"] = lm.loo_logliks
    for given_docs in (view, docs):
        for name, fn in fns.items():
            got = fn([], given_docs, output)
            assert isinstance(got, np.ndarray), name
            assert got.dtype == np.float64 and got.shape == (len(docs),), name
            assert got.tobytes() == np.array(want[name]).tobytes(), name
        joint = lm.joint_loglik([], given_docs, output)
        assert type(joint) is float
        assert np.float64(joint).tobytes() == \
            np.float64(want["joint"]).tobytes()


class TestBytes:
    """The scores against a Counter reference, bit for bit."""

    @given(corpus=st.lists(st.lists(st.sampled_from("abcde"), max_size=8),
                           min_size=1, max_size=8),
           picks=st.lists(st.integers(0, 7), min_size=1, max_size=8),
           output=st.lists(st.sampled_from("abcdefg"), min_size=1,
                           max_size=12),
           vocab_size=st.integers(1, 60))
    @example(corpus=[["a", "b", "a"]], picks=[0], output=["a"],
             vocab_size=9)  # K = 1
    @example(corpus=[["a", "b"], [], ["c"]], picks=[0, 1, 2],
             output=["b", "c"], vocab_size=9)  # empty doc
    @example(corpus=[[]], picks=[0, 0], output=["a", "a"],
             vocab_size=3)  # only empty docs
    @example(corpus=[["a", "b", "a"], ["a", "c"]], picks=[1, 0, 1],
             output=["a", "c", "a", "b", "a", "a"],
             vocab_size=7)  # repeated output tokens, duplicate docs
    @example(corpus=[["a", "b"], ["c"]], picks=[0, 1],
             output=["z", "a", "y", "z"],
             vocab_size=11)  # tokens absent from the table
    def test_matches_reference(self, corpus, picks, output, vocab_size):
        rows = [i % len(corpus) for i in picks]
        assert_same_bits(corpus, rows, output, vocab_size)

    def test_needle_view(self):
        # The needle fixture at K = 1000: every passage of the trainer's
        # table in a shuffled retrieval order, against three outputs.
        passages, examples, encoder = make_needle_task()
        corpus = [p.text for p in sorted(passages, key=lambda p: p.id)]
        rows = np.random.default_rng(0).permutation(len(corpus)).tolist()
        assert len(rows) == 1000
        for ex in examples[:3]:
            assert_same_bits(corpus, rows, ex.output, len(encoder.vocab))
