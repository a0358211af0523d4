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

LEAKAGE_THRESHOLD = 0.75  # flagged run length, as a share of the question
SWAP_TOP_K = 5  # passages retrieved per query in the temporal swap

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


# ---------------------------------------------------------------------------
# Multiple-choice tasks and de-biased inference.

@dataclass(frozen=True)
class ChoiceTask:
    question: str
    options: tuple[str, str, str, str]
    gold: int

    def __post_init__(self):
        if not tokenize(self.question):
            raise ValueError("question has no word")
        if len(self.options) != 4:
            raise ValueError("exactly 4 options required")
        if self.gold not in range(4):
            raise ValueError("gold must be an option index 0..3")


class ChoiceScorer(Protocol):
    def __call__(self, question: str, ordered_options: Sequence[str],
                 docs: Sequence[Passage]) -> np.ndarray:
        """Distribution over the four answer letters for this ordering."""
        ...


# Inference mode -> its answer orderings (the options shown as A..D).
ORDERINGS = {
    "standard": (tuple(range(4)),),
    "cyclic4": tuple(tuple((i + s) % 4 for i in range(4)) for s in range(4)),
    "all24": tuple(itertools.permutations(range(4))),
}


def debias_infer(task: ChoiceTask, scorer: ChoiceScorer,
                 mode: str = "standard",
                 docs: Sequence[Passage] = ()) -> tuple[int, np.ndarray]:
    """Marginalize letter probabilities over answer orderings.

    The mode names its orderings in `ORDERINGS`: standard is one scorer
    call with the given order, cyclic4 the four cyclic shifts, all24 every
    permutation. Per call, the probability of each letter is credited to
    the option occupying it; the posterior is the normalized sum and the
    prediction its argmax (ties to the lowest option index).
    """
    if mode not in ORDERINGS:
        raise ValueError(f"unknown inference mode {mode!r}")

    credit = np.zeros(4)
    for ordering in ORDERINGS[mode]:
        ordered = [task.options[i] for i in ordering]
        letter_probs = np.asarray(scorer(task.question, ordered, docs))
        for pos, opt_idx in enumerate(ordering):
            credit[opt_idx] += letter_probs[pos]
    posterior = credit / credit.sum()
    return int(np.argmax(posterior)), posterior


# ---------------------------------------------------------------------------
# Leakage audit.

def longest_common_run(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common contiguous token run, by exact DP over
    the length of the run that ends at each pair of positions."""
    best, prev = 0, [0] * (len(b) + 1)
    for x in a:
        prev = [0] + [prev[j] + 1 if x == y else 0 for j, y in enumerate(b)]
        best = max(best, *prev)
    return best


def leakage_audit(question: str, passages: Sequence[Passage]) -> tuple[bool, int]:
    """Flag when some passage shares a contiguous token run of at least
    LEAKAGE_THRESHOLD * question length with the question."""
    q_tokens = tokenize(question)
    if not q_tokens:
        raise ValueError("question must be nonempty")
    best = max((longest_common_run(q_tokens, list(p.text))
                for p in passages), default=0)
    return best >= LEAKAGE_THRESHOLD * len(q_tokens), best


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
                   answer_fn: Callable[[str, Sequence[Passage]], str]
                   ) -> RerunReport:
    """Re-evaluate exact match with leakage-flagged passages removed from
    every retrieval set and report (original, filtered, delta)."""
    def run(filtering: bool) -> float:
        scores = []
        for rec in records:
            passages = rec.retrieved
            if filtering:
                passages = [p for p in passages
                            if not leakage_audit(rec.question, [p])[0]]
            scores.append(exact_match(answer_fn(rec.question, passages),
                                      rec.gold))
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
                       answer_fn: Callable[[str, Sequence[Passage]], str]
                       ) -> dict[tuple[str, str], float]:
    """Accuracy matrix keyed by (answer year, index year), each prediction
    made from SWAP_TOP_K passages.

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
                prediction = answer_fn(task.query,
                                       idx.retrieve(task.query, SWAP_TOP_K))
                scores.append(exact_match(prediction, gold))
            matrix[(answer_year, idx.year)] = float(np.mean(scores)) if scores else 0.0
    return matrix


# ---------------------------------------------------------------------------
# Choice-task JSONL.

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
