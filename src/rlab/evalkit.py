"""Evaluation harness: answer metrics, de-biased multiple-choice
inference, leakage auditing, and the temporal index-swap experiment.
"""

from __future__ import annotations

import itertools
import re
import string
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .corpus import Passage, tokenize
from .formats import FormatError, jsonl_objects

LETTERS = ("A", "B", "C", "D")

# ---------------------------------------------------------------------------
# Answer metrics (standard open-domain QA normalization: lowercase, strip
# punctuation, drop English articles, collapse whitespace).

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_PUNCT = str.maketrans("", "", string.punctuation)


def normalize_answer(text: str) -> str:
    text = text.lower().translate(_PUNCT)
    text = _ARTICLES.sub(" ", text)
    return " ".join(text.split())


def exact_match(prediction: str, gold: str) -> int:
    return int(normalize_answer(prediction) == normalize_answer(gold))


def f1(prediction: str, gold: str) -> float:
    pred_tokens = normalize_answer(prediction).split()
    gold_tokens = normalize_answer(gold).split()
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    common = 0
    gold_counts: dict[str, int] = {}
    for t in gold_tokens:
        gold_counts[t] = gold_counts.get(t, 0) + 1
    for t in pred_tokens:
        if gold_counts.get(t, 0) > 0:
            gold_counts[t] -= 1
            common += 1
    if common == 0:
        return 0.0
    precision = common / len(pred_tokens)
    recall = common / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# Multiple-choice tasks and de-biased inference.

@dataclass(frozen=True)
class ChoiceTask:
    question: str
    options: tuple[str, str, str, str]
    gold: int

    def __post_init__(self):
        if len(self.options) != 4:
            raise ValueError("exactly 4 options required")
        if self.gold not in range(4):
            raise ValueError("gold must be an option index 0..3")


class ChoiceScorer(Protocol):
    def __call__(self, question: str, ordered_options: Sequence[str],
                 docs: Sequence[Passage]) -> np.ndarray:
        """Distribution over the four answer letters for this ordering."""
        ...


def choice_input_template(question: str, ordered_options: Sequence[str]) -> str:
    opts = " ".join(f"({letter}) {opt}"
                    for letter, opt in zip(LETTERS, ordered_options))
    return f"question: {question}\noptions: {opts}\nanswer: [MASK_0]"


def choice_target_template(letter: str) -> str:
    return f"[MASK_0] {letter}"


def qa_input_template(question: str) -> str:
    return f"question: {question} answer: [MASK_0]"


def qa_target_template(answer: str) -> str:
    return f"[MASK_0] {answer}"


_CYCLIC = tuple(tuple((i + s) % 4 for i in range(4)) for s in range(4))
_ALL24 = tuple(itertools.permutations(range(4)))


def debias_infer(task: ChoiceTask, scorer: ChoiceScorer,
                 mode: str = "standard",
                 docs: Sequence[Passage] = ()) -> tuple[int, np.ndarray]:
    """Marginalize letter probabilities over answer orderings.

    standard: one scorer call with the given order. cyclic4: the four
    cyclic shifts. all24: every permutation. Per call, the probability of
    each letter is credited to the option occupying it; the posterior is
    the normalized sum and the prediction its argmax (ties to the lowest
    option index).
    """
    if mode == "standard":
        orderings = (tuple(range(4)),)
    elif mode == "cyclic4":
        orderings = _CYCLIC
    elif mode == "all24":
        orderings = _ALL24
    else:
        raise ValueError(f"unknown inference mode {mode!r}")

    credit = np.zeros(4)
    for ordering in orderings:
        ordered = [task.options[i] for i in ordering]
        letter_probs = np.asarray(scorer(task.question, ordered, docs))
        for pos, opt_idx in enumerate(ordering):
            credit[opt_idx] += letter_probs[pos]
    posterior = credit / credit.sum()
    return int(np.argmax(posterior)), posterior


# ---------------------------------------------------------------------------
# Leakage audit.

def longest_common_run(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common contiguous token run (exact DP)."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    best = 0
    for i in range(1, len(a) + 1):
        cur = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                cur[j] = prev[j - 1] + 1
                if cur[j] > best:
                    best = cur[j]
        prev = cur
    return best


def leakage_audit(question: str, passages: Sequence[Passage],
                  threshold: float = 0.75) -> tuple[bool, int]:
    """Flag when some passage shares a contiguous token run of at least
    threshold * question length with the question."""
    q_tokens = tokenize(question)
    if not q_tokens:
        raise ValueError("question must be nonempty")
    best = 0
    for p in passages:
        best = max(best, longest_common_run(q_tokens, list(p.text)))
    return best >= threshold * len(q_tokens), best


@dataclass
class EvalRecord:
    question: str
    gold: str
    retrieved: list[Passage]


@dataclass
class RerunReport:
    original: float
    filtered: float

    @property
    def delta(self) -> float:
        return self.filtered - self.original


def filtered_rerun(records: Sequence[EvalRecord],
                   answer_fn: Callable[[str, Sequence[Passage]], str],
                   metric: Callable[[str, str], float] = exact_match,
                   threshold: float = 0.75) -> RerunReport:
    """Re-evaluate with leakage-flagged passages removed from every
    retrieval set and report (original, filtered, delta)."""
    def run(filtering: bool) -> float:
        scores = []
        for rec in records:
            passages = rec.retrieved
            if filtering:
                passages = [p for p in passages
                            if not leakage_audit(rec.question, [p], threshold)[0]]
            scores.append(metric(answer_fn(rec.question, passages), rec.gold))
        return float(np.mean(scores)) if scores else 0.0

    return RerunReport(original=run(False), filtered=run(True))


# ---------------------------------------------------------------------------
# Temporal index swap.

@dataclass(frozen=True)
class TemporalQA:
    query: str
    answers_by_year: dict[str, str]

    def __post_init__(self):
        if len(set(self.answers_by_year.values())) < 2:
            raise ValueError("need at least two distinct years with "
                             "differing answers")


@dataclass
class TaggedIndex:
    """A searchable corpus snapshot tagged with its dump year."""
    dump_date: str
    retrieve: Callable[[str, int], list[Passage]]

    @property
    def year(self) -> str:
        return self.dump_date.split("-")[0]


def temporal_swap_eval(tasks: Sequence[TemporalQA], index_a: TaggedIndex,
                       index_b: TaggedIndex,
                       answer_fn: Callable[[str, Sequence[Passage]], str],
                       k: int = 5) -> dict[tuple[str, str], float]:
    """Accuracy matrix keyed by (answer year, index year).

    Each cell evaluates the year-a gold answers against predictions made
    from the year-b index; matched cells should dominate mismatched ones
    when the index is the model's only source of time-sensitive facts.
    """
    if index_a.dump_date == index_b.dump_date:
        raise ValueError("indices must carry distinct dump_dates")
    matrix: dict[tuple[str, str], float] = {}
    for answer_year in (index_a.year, index_b.year):
        for idx in (index_a, index_b):
            scores = []
            for task in tasks:
                gold = task.answers_by_year.get(answer_year)
                if gold is None:
                    continue
                prediction = answer_fn(task.query, idx.retrieve(task.query, k))
                scores.append(exact_match(prediction, gold))
            matrix[(answer_year, idx.year)] = float(np.mean(scores)) if scores else 0.0
    return matrix


# ---------------------------------------------------------------------------
# Task JSONL.

def read_choice_tasks(path) -> list[ChoiceTask]:
    """Choice tasks from JSONL: a string question, a list of four string
    options and an integer gold option index per line."""
    tasks = []
    for where, obj in jsonl_objects(path):
        options, gold = obj.get("options"), obj.get("gold")
        if not (isinstance(obj.get("question"), str)
                and isinstance(options, list)
                and all(isinstance(o, str) for o in options)
                and type(gold) is int):
            raise FormatError(f"{where}: expected a string question, a list "
                              f"of string options and an integer gold")
        try:
            tasks.append(ChoiceTask(question=obj["question"],
                                    options=tuple(options), gold=gold))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return tasks


def read_temporal_tasks(path) -> list[TemporalQA]:
    """Temporal tasks from JSONL: a string query and an object mapping each
    year to a string answer per line."""
    tasks = []
    for where, obj in jsonl_objects(path):
        answers = obj.get("answers_by_year")
        if not (isinstance(obj.get("query"), str)
                and isinstance(answers, dict)
                and all(isinstance(a, str) for a in answers.values())):
            raise FormatError(f"{where}: expected a string query and an "
                              f"object of string answers_by_year")
        try:
            tasks.append(TemporalQA(query=obj["query"],
                                    answers_by_year=answers))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
    return tasks
