"""Corpus ingestion: chunking, infobox linearization, and quality filtering.

Documents arrive as structured records (title + sections); they are
linearized, split by section into passages of bounded word count, and
filtered on simple document-level statistics. A "word" is a maximal run
of non-whitespace characters, and passages store their token lists
directly so all downstream counting is deterministic.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from collections import abc, defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .formats import FormatError, atomic_write, is_number, jsonl_objects

VALID_SOURCES = ("wiki", "cc", "infobox")


@dataclass(frozen=True)
class Section:
    title: str
    text: str


@dataclass(frozen=True)
class RawDocument:
    id: str
    title: str
    sections: tuple[Section, ...]
    source: str = "wiki"
    dump_date: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be nonempty")
        if self.source not in VALID_SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "wiki" and not self.dump_date:
            raise ValueError("wiki documents require a dump_date")


@dataclass(frozen=True)
class Passage:
    id: str
    doc_id: str
    text: tuple[str, ...]  # token list
    source: str = "wiki"
    dump_date: str | None = None
    section_title: str = ""


@dataclass(frozen=True)
class FilterConfig:
    min_doc_length: int = 50
    max_mean_word_length: float = 10.0
    min_alnum_ratio: float = 0.6
    max_repeated_token_ratio: float = 0.5

    def __post_init__(self):
        for name, value in vars(self).items():
            if not is_number(value):
                raise ValueError(f"{name} must be a number, not {value!r}")
        if not (0.0 <= self.min_alnum_ratio <= 1.0):
            raise ValueError("min_alnum_ratio must be in [0,1]")
        if not (0.0 <= self.max_repeated_token_ratio <= 1.0):
            raise ValueError("max_repeated_token_ratio must be in [0,1]")
        if not math.isfinite(self.max_mean_word_length):
            raise ValueError("max_mean_word_length must be finite")


def tokenize(text: str) -> list[str]:
    """Split on whitespace; a word is a maximal non-whitespace run."""
    return text.split()


class TokenTable(abc.Sequence):
    """Texts interned once, in CSR form: text i is the term ids
    terms[offsets[i]:offsets[i + 1]] and term t is term_strings[t], which
    term_ids inverts. Terms are interned by string, not by a vocabulary,
    so distinct tokens keep distinct ids. As a sequence, a table is its
    texts `rows` (all of them, unless it is a view) as token tuples.
    """

    def __init__(self, texts: Sequence[Sequence[str]]):
        ids = defaultdict(itertools.count().__next__)
        self.terms = np.fromiter(
            map(ids.__getitem__, itertools.chain.from_iterable(texts)),
            dtype=np.int32)
        self.offsets = np.cumsum([0] + [len(text) for text in texts])
        ids.default_factory = None  # a lookup never adds a term
        self.term_ids, self.term_strings = ids, list(ids)
        self.rows = np.arange(len(texts))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple[str, ...]:
        return tuple(map(self.term_strings.__getitem__,
                         self.text_terms(self.rows[i]).tolist()))

    def text_terms(self, i: int) -> np.ndarray:
        return self.terms[self.offsets[i]:self.offsets[i + 1]]

    def vocab_rows(self, vocab) -> np.ndarray:
        """Each term's row in vocab, 0 if it has none: one term_ids lookup
        per vocab token. A vocab token that is not a term writes the spare
        last slot, which is cut off."""
        slots = np.fromiter(map(self.term_ids.get, vocab.tokens,
                                itertools.repeat(-1)), np.int64, len(vocab))
        rows = np.zeros(len(self.term_strings) + 1, dtype=np.int64)
        rows[slots] = np.arange(len(vocab))
        return rows[:-1]

    def view(self, rows: np.ndarray) -> "TokenTable":
        """The same table, as the sequence of its texts rows."""
        view = copy.copy(self)
        view.rows = rows
        return view


def linearize_structured(entries: Sequence[str]) -> str:
    """Join list/infobox entries into flat text with a '; ' separator.

    Empty entries are skipped. Idempotent on already-flat (single entry)
    input.
    """
    return "; ".join(e for e in entries if e)


def linearize_document(doc: RawDocument) -> RawDocument:
    """Flatten an infobox/list document: each section body is one entry,
    joined with '; ' into a single flat section. Linearization happens
    before chunking.
    """
    flat = linearize_structured([s.text for s in doc.sections])
    return RawDocument(
        id=doc.id,
        title=doc.title,
        sections=(Section("", flat),),
        source=doc.source,
        dump_date=doc.dump_date,
    )


def chunk_tokens(tokens: Sequence[str], max_words: int) -> list[list[str]]:
    """Split a token sequence into ceil(W/max_words) near-equal pieces.

    Piece sizes differ by at most one, and concatenating the pieces
    reproduces the input exactly.
    """
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    n = len(tokens)
    if n == 0:
        return []
    pieces = math.ceil(n / max_words)
    base, extra = divmod(n, pieces)
    out = []
    pos = 0
    for i in range(pieces):
        size = base + (1 if i < extra else 0)
        out.append(list(tokens[pos:pos + size]))
        pos += size
    return out


def chunk(doc: RawDocument, max_words: int = 200) -> list[Passage]:
    """Split a document by section, then split long sections into
    equal-size passages of at most max_words words each.

    Section titles are kept as passage metadata, not counted as words.
    """
    passages = []
    for si, section in enumerate(doc.sections):
        tokens = tokenize(section.text)
        for pi, piece in enumerate(chunk_tokens(tokens, max_words)):
            passages.append(Passage(
                id=f"{doc.id}:s{si}:p{pi}",
                doc_id=doc.id,
                text=tuple(piece),
                source=doc.source,
                dump_date=doc.dump_date,
                section_title=section.title,
            ))
    return passages


def _doc_tokens(doc: RawDocument) -> list[str]:
    tokens = []
    for section in doc.sections:
        tokens.extend(tokenize(section.text))
    return tokens


def repeated_token_ratio(tokens: Sequence[str]) -> float:
    if not tokens:
        return 0.0
    return 1.0 - len(set(tokens)) / len(tokens)


def alnum_ratio(text: str) -> float:
    stripped = [c for c in text if not c.isspace()]
    if not stripped:
        return 0.0
    return sum(c.isalnum() for c in stripped) / len(stripped)


def quality_filter(doc: RawDocument, cfg: FilterConfig = FilterConfig()) -> bool:
    """True iff the document passes all four quality tests:
    length, mean word length, alphanumeric ratio, repeated-token ratio.
    """
    tokens = _doc_tokens(doc)
    if len(tokens) < cfg.min_doc_length:
        return False
    mean_word_len = sum(len(t) for t in tokens) / len(tokens)
    if mean_word_len > cfg.max_mean_word_length:
        return False
    if alnum_ratio(" ".join(tokens)) < cfg.min_alnum_ratio:
        return False
    if repeated_token_ratio(tokens) > cfg.max_repeated_token_ratio:
        return False
    return True


# ---------------------------------------------------------------------------
# JSONL interchange

def document_from_json(obj: dict) -> RawDocument:
    sections = tuple(Section(s.get("title", ""), s["text"])
                     for s in obj["sections"])
    return RawDocument(
        id=obj["id"],
        title=obj["title"],
        sections=sections,
        source=obj.get("source", "wiki"),
        dump_date=obj.get("dump_date"),
    )


def _is_section(obj) -> bool:
    return (isinstance(obj, dict) and isinstance(obj.get("text"), str)
            and isinstance(obj.get("title", ""), str))


def read_documents(path) -> Iterator[RawDocument]:
    """Raw documents from JSONL, one object per line; blank lines are
    skipped. A malformed line raises FormatError naming the file and line."""
    for where, obj in jsonl_objects(path):
        if not (isinstance(obj.get("id"), str)
                and isinstance(obj.get("title"), str)
                and isinstance(obj.get("sections"), list)
                and all(_is_section(s) for s in obj["sections"])
                and isinstance(obj.get("dump_date"), (str, type(None)))):
            raise FormatError(f"{where}: expected a string id, a string title, "
                              f"a list of sections with string text and a "
                              f"string or null dump_date")
        try:
            doc = document_from_json(obj)
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
        yield doc


def passage_to_json(p: Passage) -> dict:
    return {
        "id": p.id,
        "doc_id": p.doc_id,
        "text": " ".join(p.text),
        "source": p.source,
        "dump_date": p.dump_date,
        "section_title": p.section_title,
    }


def passage_from_json(obj: dict) -> Passage:
    return Passage(
        id=obj["id"],
        doc_id=obj.get("doc_id", obj["id"]),
        text=tuple(tokenize(obj["text"])),
        source=obj.get("source", "wiki"),
        dump_date=obj.get("dump_date"),
        section_title=obj.get("section_title", ""),
    )


def write_passages(passages: Iterable[Passage], path) -> int:
    n = 0
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for p in passages:
            fh.write(json.dumps(passage_to_json(p)) + "\n")
            n += 1
    return n


def read_passages(path) -> list[Passage]:
    """Passages from JSONL, one object per line; blank lines are skipped.
    A malformed line, or one whose text has no word, raises FormatError
    naming the file and line."""
    out = []
    for where, obj in jsonl_objects(path):
        if not (isinstance(obj.get("id"), str)
                and isinstance(obj.get("text"), str)
                and all(isinstance(obj.get(k, ""), str)
                        for k in ("doc_id", "source", "section_title"))
                and isinstance(obj.get("dump_date"), (str, type(None)))):
            raise FormatError(f"{where}: expected a string id and text, and "
                              f"string doc_id, source and section_title and "
                              f"a string or null dump_date where given")
        passage = passage_from_json(obj)
        if not passage.text:
            raise FormatError(f"{where}: empty text")
        out.append(passage)
    return out


def ingest(documents: Iterable[RawDocument], max_words: int = 200,
           cfg: FilterConfig | None = None) -> list[Passage]:
    """Filter documents, then chunk the survivors into passages."""
    cfg = cfg or FilterConfig()
    passages = []
    for doc in documents:
        if doc.source == "infobox":
            doc = linearize_document(doc)
        if quality_filter(doc, cfg):
            passages.extend(chunk(doc, max_words))
    return passages
