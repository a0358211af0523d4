import numpy as np
import pytest

from rlab.corpus import Passage
from rlab.pretext import (RETRIEVER_MASK_TOKEN, TaskExamples, mlm_example,
                          prefix_lm_example, reconstruct_mlm, retrieval_query,
                          _sample_span_length)


class TestPrefixLM:
    def test_even_split(self):
        ex = prefix_lm_example(["a", "b", "c", "d"])
        assert ex.query == ("a", "b")
        assert ex.output == ("c", "d")

    def test_odd_split_query_gets_extra(self):
        ex = prefix_lm_example(["a", "b", "c"])
        assert ex.query == ("a", "b")
        assert ex.output == ("c",)

    def test_partition(self):
        chunk = tuple(f"w{i}" for i in range(17))
        ex = prefix_lm_example(chunk)
        assert ex.query + ex.output == chunk

    def test_too_short(self):
        with pytest.raises(ValueError):
            prefix_lm_example(["a"])


class TestMLM:
    def test_round_trip(self):
        chunk = tuple(f"w{i}" for i in range(200))
        for seed in range(20):
            ex = mlm_example(chunk, seed=seed)
            assert reconstruct_mlm(ex) == chunk

    def test_masked_fraction(self):
        chunk = tuple(f"w{i}" for i in range(1000))
        fractions = []
        for seed in range(100):
            ex = mlm_example(chunk, seed=seed)
            n_masked = sum(1 for t in ex.output if not t.startswith("[MASK_"))
            fractions.append(n_masked / len(chunk))
        assert 0.13 <= float(np.mean(fractions)) <= 0.17

    def test_span_length_distribution(self):
        rng = np.random.default_rng(0)
        draws = [_sample_span_length(rng) for _ in range(10000)]
        assert 2.8 <= float(np.mean(draws)) <= 3.2
        assert min(draws) >= 1
        assert max(draws) <= 10

    def test_sentinels_in_order(self):
        ex = mlm_example(tuple(f"w{i}" for i in range(300)), seed=3)
        q_sentinels = [t for t in ex.query if t.startswith("[MASK_")]
        assert q_sentinels == [f"[MASK_{i}]" for i in range(len(q_sentinels))]

    def test_retrieval_query_uses_single_mask_token(self):
        ex = mlm_example(tuple(f"w{i}" for i in range(100)), seed=1)
        rq = retrieval_query(ex.query)
        assert not any(t.startswith("[MASK_") for t in rq)
        assert RETRIEVER_MASK_TOKEN in rq

    def test_chunk_too_short(self):
        with pytest.raises(ValueError):
            mlm_example(("a",) * 5)

    def test_deterministic(self):
        chunk = tuple(f"w{i}" for i in range(150))
        assert mlm_example(chunk, seed=9) == mlm_example(chunk, seed=9)


class TestExamples:
    def test_nonempty_and_carry_origin(self):
        # Every chunk long enough for its task gives a nonempty query and
        # output, at every length and seed.
        for n in range(2, 41):
            ex = prefix_lm_example(tuple(f"w{i}" for i in range(n)), "o")
            assert ex.query and ex.output and ex.origin_passage_id == "o"
        for n in range(10, 61):
            for seed in range(20):
                ex = mlm_example(tuple(f"w{i}" for i in range(n)), seed, "o")
                assert ex.query and ex.output and ex.origin_passage_id == "o"

    @pytest.mark.parametrize("task", ["MLM", "prefix-lm", ""])
    def test_unknown_task_rejected(self, task):
        # "MLM" built prefix-LM examples.
        with pytest.raises(ValueError, match="'prefix_lm' or 'mlm'"):
            TaskExamples([Passage(id="p", doc_id="d", text=("a", "b"))],
                         task, seed=0)

    def test_prefix_lm_training_query_collapses_literal_sentinel(self):
        text = ("a", "[MASK_3]", "b", "c")
        examples = TaskExamples([Passage(id="p", doc_id="d", text=text)],
                                "prefix_lm", seed=0)
        assert examples[0].query == ("a", RETRIEVER_MASK_TOKEN)
        assert examples[0].output == ("b", "c")
        assert examples[0].origin_passage_id == "p"
