import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab.corpus import Passage
from rlab.evalkit import (ChoiceTask, EvalRecord, TaggedIndex, TemporalQA,
                          debias_infer, exact_match, filtered_rerun,
                          leakage_audit, longest_common_run, normalize_answer,
                          read_choice_tasks, temporal_swap_eval)
from rlab.formats import FormatError


def make_passage(pid, tokens):
    return Passage(id=pid, doc_id=pid.split(":")[0], text=tuple(tokens))


class TestNormalization:
    def test_lowercase_articles_punct(self):
        assert normalize_answer("The  Eiffel Tower!") == "eiffel tower"
        assert normalize_answer("a an the") == ""

    def test_exact_match(self):
        assert exact_match("The Eiffel Tower", "eiffel tower.") == 1
        assert exact_match("Eiffel", "eiffel tower") == 0


class FixedBiasScorer:
    """Always favors the letter position of a fixed hidden option.

    Mimics a position-biased model: probability mass follows the option
    string, so marginalizing over orderings spreads any residual letter
    bias evenly.
    """

    def __init__(self, favored_option, letter_bias=None):
        self.favored = favored_option
        self.letter_bias = (np.zeros(4) if letter_bias is None
                            else np.asarray(letter_bias))
        self.calls = 0

    def __call__(self, question, ordered_options, docs):
        self.calls += 1
        logits = self.letter_bias.copy()
        for pos, opt in enumerate(ordered_options):
            if opt == self.favored:
                logits[pos] += 2.0
        e = np.exp(logits - logits.max())
        return e / e.sum()


class TestDebiasInfer:
    task = ChoiceTask(question="q?",
                      options=("alpha", "beta", "gamma", "delta"), gold=2)

    def test_standard_single_call(self):
        scorer = FixedBiasScorer("gamma")
        pred, post = debias_infer(self.task, scorer, mode="standard")
        assert scorer.calls == 1
        assert pred == 2
        assert post.sum() == pytest.approx(1.0)

    def test_cyclic4_call_count(self):
        scorer = FixedBiasScorer("gamma")
        debias_infer(self.task, scorer, mode="cyclic4")
        assert scorer.calls == 4

    def test_all24_call_count(self):
        scorer = FixedBiasScorer("gamma")
        debias_infer(self.task, scorer, mode="all24")
        assert scorer.calls == 24

    def test_marginalization_removes_pure_letter_bias(self):
        # scorer that only looks at letter position: always letter A
        scorer = FixedBiasScorer(favored_option=None,
                                 letter_bias=[5.0, 0.0, 0.0, 0.0])
        _, post = debias_infer(self.task, scorer, mode="all24")
        # over all 24 orderings every option occupies A equally often
        np.testing.assert_allclose(post, np.full(4, 0.25), atol=1e-12)
        pred, _ = debias_infer(self.task, scorer, mode="all24")
        assert pred == 0  # tie resolved to lowest index

    def test_cyclic_removes_letter_bias_too(self):
        scorer = FixedBiasScorer(None, letter_bias=[5.0, 0.0, 0.0, 0.0])
        _, post = debias_infer(self.task, scorer, mode="cyclic4")
        np.testing.assert_allclose(post, np.full(4, 0.25), atol=1e-12)

    def test_content_signal_survives_marginalization(self):
        scorer = FixedBiasScorer("gamma", letter_bias=[1.0, 0.0, 0.0, 0.0])
        for mode in ("cyclic4", "all24"):
            pred, post = debias_infer(self.task, scorer, mode=mode)
            assert pred == 2
            assert post[2] > 0.25

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            debias_infer(self.task, FixedBiasScorer("alpha"), mode="all25")

    def test_task_validation(self):
        with pytest.raises(ValueError):
            ChoiceTask("q", ("a", "b", "c", "d"), gold=4)


def brute_force_longest_run(a, b):
    best = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            best = max(best, k)
    return best


class TestLeakage:
    def test_longest_run_basic(self):
        assert longest_common_run("a b c d".split(), "x b c y".split()) == 2
        assert longest_common_run([], ["a"]) == 0
        assert longest_common_run(["a"], ["a"]) == 1

    @given(st.lists(st.sampled_from("abc"), max_size=12),
           st.lists(st.sampled_from("abc"), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_longest_run_matches_brute_force(self, a, b):
        assert longest_common_run(a, b) == brute_force_longest_run(a, b)

    def test_threshold_boundary(self):
        # question of 4 tokens; a 3-token shared run is exactly 0.75
        q = "who wrote the iliad"
        hit = make_passage("d:s0:p0", ["wrote", "the", "iliad", "homer"])
        miss = make_passage("d:s0:p1", ["wrote", "the", "odyssey", "homer"])
        assert leakage_audit(q, [hit])[0] is True
        assert leakage_audit(q, [miss])[0] is False

    def test_empty_question(self):
        with pytest.raises(ValueError):
            leakage_audit("   ", [])

    def test_filtered_rerun_delta(self):
        leaky = make_passage("d:s0:p0", ["who", "wrote", "the", "iliad",
                                         "answer", "homer"])
        clean = make_passage("d:s0:p1", ["greek", "poetry", "survey"])
        records = [EvalRecord(question="who wrote the iliad", gold="homer",
                              retrieved=[leaky, clean])]

        def answer_fn(question, passages):
            for p in passages:
                if "homer" in p.text:
                    return "homer"
            return "unknown"

        report = filtered_rerun(records, answer_fn)
        assert report.original == 1.0
        assert report.filtered == 0.0
        assert report.delta == -1.0


class TestTemporalSwap:
    def make_setup(self):
        tasks = [TemporalQA(query=f"office holder {i}",
                            answers_by_year={"2017": f"old{i}",
                                             "2020": f"new{i}"})
                 for i in range(5)]
        facts = {
            "2017": {t.query: t.answers_by_year["2017"] for t in tasks},
            "2020": {t.query: t.answers_by_year["2020"] for t in tasks},
        }

        def make_index(year):
            def retrieve(query, k):
                answer = facts[year].get(query, "nothing")
                return [make_passage(f"{year}:s0:p0", [answer])]
            return TaggedIndex(dump_date=f"{year}-12-20", retrieve=retrieve)

        def answer_fn(question, passages):
            return passages[0].text[0] if passages else ""

        return tasks, make_index("2017"), make_index("2020"), answer_fn

    def test_matched_cells_dominate(self):
        tasks, ia, ib, answer_fn = self.make_setup()
        matrix = temporal_swap_eval(tasks, ia, ib, answer_fn)
        assert matrix[("2017", "2017")] == 1.0
        assert matrix[("2020", "2020")] == 1.0
        assert matrix[("2017", "2020")] == 0.0
        assert matrix[("2020", "2017")] == 0.0

    def test_same_dump_date_rejected(self):
        tasks, ia, _, answer_fn = self.make_setup()
        with pytest.raises(ValueError):
            temporal_swap_eval(tasks, ia, ia, answer_fn)

    def test_task_needs_distinct_answers(self):
        with pytest.raises(ValueError):
            TemporalQA(query="q", answers_by_year={"2017": "x", "2020": "x"})


class TestTaskJSONL:
    CHOICE = b'{"question": "q", "options": ["a", "b", "c", "d"], "gold": 1}'

    def write(self, tmp_path, *lines):
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(b"\n".join(lines))
        return path

    def test_choice_tasks_read(self, tmp_path):
        path = self.write(tmp_path, self.CHOICE, b"", self.CHOICE)
        assert read_choice_tasks(path) == [
            ChoiceTask(question="q", options=("a", "b", "c", "d"), gold=1)] * 2

    @pytest.mark.parametrize("bad_line", [
        b'{"question": "q", "options": ["a", "b", "c", "d"]}',       # no gold
        b'["q", ["a", "b", "c", "d"], 1]',                          # array
        b'{"question": "q", "options": ["a", "b", "c", "d"], "go',  # cut line
        b'{"question": "q", "options": ["a", "b", "c", "d"], "gold": 9}',
        b'{"question": "q", "options": ["a", "b", "c", "d"], "gold": true}',
        b'{"question": "q", "options": ["a", "b", "c"], "gold": 0}',
        b'{"question": "q", "options": "abcd", "gold": 0}',
        b'{"question": 7, "options": ["a", "b", "c", "d"], "gold": 0}',
    ])
    def test_bad_choice_task_names_file_and_line(self, tmp_path, bad_line):
        path = self.write(tmp_path, self.CHOICE, bad_line)
        with pytest.raises(FormatError, match="tasks.jsonl, line 2"):
            read_choice_tasks(path)
