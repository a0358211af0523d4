"""Corpus ingestion: chunking, infobox linearization, and quality filtering.

Documents arrive as structured records (title + sections); `ingest`
linearizes infoboxes, filters documents on simple document-level
statistics and splits the survivors by section into passages of bounded
word count. A "word" is a maximal run of non-whitespace characters, and
passages store their token lists directly so all downstream counting is
deterministic. The passages that one `read_passages` or `ingest` call
returns share one string per distinct token: each call maps every token
through a dict of its own.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
import re
from collections import abc, defaultdict
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .formats import FormatError, atomic_write, jsonl_objects

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
            # A JSON number: an int or a float, not a bool, and finite.
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not -np.inf < value < np.inf):
                raise ValueError(f"{name} must be a finite number, not {value!r}")
        if not (0.0 <= self.min_alnum_ratio <= 1.0):
            raise ValueError("min_alnum_ratio must be in [0,1]")
        if not (0.0 <= self.max_repeated_token_ratio <= 1.0):
            raise ValueError("max_repeated_token_ratio must be in [0,1]")


def tokenize(text: str) -> list[str]:
    """Split on whitespace; a word is a maximal non-whitespace run."""
    return text.split()


def _shared(words: Sequence[str], canon: dict[str, str]) -> tuple[str, ...]:
    """words as a tuple of canon's strings: canon maps each token it has
    met to its first string, so equal tokens become one object."""
    return tuple(map(canon.setdefault, words, words))


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
        text = self.rows[i]
        return tuple(map(self.term_strings.__getitem__, self.terms[
            self.offsets[text]:self.offsets[text + 1]].tolist()))

    def gather(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """values (one per token position, as `terms`) of the texts `rows`,
        one text after another, and each text's length: their CSR form."""
        starts = self.offsets[self.rows]
        lengths = self.offsets[self.rows + 1] - starts
        return values[np.arange(lengths.sum()) + np.repeat(
            starts - np.cumsum(lengths) + lengths, lengths)], lengths

    def vocab_rows(self, vocab) -> np.ndarray:
        """Each token position's int32 row in vocab (as `terms`), 0 if its
        term has none: one term_ids lookup per vocab token. A vocab token
        that is not a term writes the spare last slot, read by no position."""
        slots = np.fromiter(map(self.term_ids.get, vocab.tokens,
                                itertools.repeat(-1)), np.int64, len(vocab))
        rows = np.zeros(len(self.term_strings) + 1, dtype=np.int32)
        rows[slots] = np.arange(len(vocab))
        return rows[self.terms]

    def view(self, rows: np.ndarray) -> "TokenTable":
        """The same table, as the sequence of its texts rows."""
        view = copy.copy(self)
        view.rows = rows
        return view


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
    base, extra = divmod(n, pieces)  # the first `extra` pieces get one more
    starts = [i * base + min(i, extra) for i in range(pieces + 1)]
    return [list(tokens[a:b]) for a, b in zip(starts, starts[1:])]


def chunk(doc: RawDocument, sections: Sequence[Sequence[str]],
          max_words: int) -> list[Passage]:
    """Split a document by section, given each section's tokens, then
    split long sections into equal-size passages of at most max_words
    words each. Section titles are passage metadata, not words."""
    passages = []
    for si, (section, tokens) in enumerate(zip(doc.sections, sections)):
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


def repeated_token_ratio(tokens: Sequence[str]) -> float:
    if not tokens:
        return 0.0
    return 1.0 - len(set(tokens)) / len(tokens)


def alnum_ratio(text: str) -> float:
    r"""The share of alphanumeric (`str.isalnum`) characters among the
    non-whitespace ones. `str.split` drops exactly the `str.isspace`
    characters, and `[\W_]` matches exactly the non-alphanumeric rest."""
    stripped = "".join(text.split())
    if not stripped:
        return 0.0
    return len(re.sub(r"[\W_]+", "", stripped)) / len(stripped)


def quality_filter(tokens: Sequence[str], cfg: FilterConfig) -> bool:
    """True iff a document of these tokens passes all four quality tests:
    length, mean word length, alphanumeric ratio, repeated-token ratio.
    A document with no word fails, whatever the minimum length."""
    if not tokens or len(tokens) < cfg.min_doc_length:
        return False
    joined = "".join(tokens)  # tokens hold no whitespace
    return (len(joined) / len(tokens) <= cfg.max_mean_word_length
            and alnum_ratio(joined) >= cfg.min_alnum_ratio
            and repeated_token_ratio(tokens) <= cfg.max_repeated_token_ratio)


# ---------------------------------------------------------------------------
# JSONL interchange

def _is_section(obj) -> bool:
    return (isinstance(obj, dict) and isinstance(obj.get("text"), str)
            and isinstance(obj.get("title", ""), str))


def read_documents(path) -> Iterator[RawDocument]:
    """Raw documents from JSONL, one object per line; blank lines are
    skipped. A malformed line or an id read before raises FormatError
    naming the file and line."""
    seen = set()
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
            doc = RawDocument(obj["id"], obj["title"], tuple(
                Section(s.get("title", ""), s["text"])
                for s in obj["sections"]),
                obj.get("source", "wiki"), obj.get("dump_date"))
        except ValueError as exc:
            raise FormatError(f"{where}: {exc}") from exc
        if doc.id in seen:
            raise FormatError(f"{where}: duplicate id {doc.id!r}")
        seen.add(doc.id)
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


def _passage(obj: dict, canon: dict[str, str]) -> Passage:
    """The passage of a JSON object, its tokens taken through canon
    (`_shared`). The fields go in by position: by keyword, a read of
    10,000 passages took about 10 ms longer."""
    get = obj.get
    return Passage(obj["id"], get("doc_id", obj["id"]),
                   _shared(tokenize(obj["text"]), canon), get("source", "wiki"),
                   get("dump_date"), get("section_title", ""))


def write_passages(passages: Iterable[Passage], path) -> int:
    n = 0
    with atomic_write(path, "w", encoding="utf-8") as fh:
        for p in passages:
            fh.write(json.dumps(passage_to_json(p)) + "\n")
            n += 1
    return n


def read_passages(path) -> list[Passage]:
    """Passages from JSONL, one object per line; blank lines are skipped.
    The passages share one string per distinct token, the first one read.
    A malformed line, an empty id, an id read before or a text with no
    word raises FormatError naming the file and line."""
    out, canon, seen = [], {}, set()
    for where, obj in jsonl_objects(path):
        get = obj.get
        if not (isinstance(get("id"), str) and isinstance(get("text"), str)
                and isinstance(get("doc_id", ""), str)
                and isinstance(get("source", ""), str)
                and isinstance(get("section_title", ""), str)
                and isinstance(get("dump_date"), (str, type(None)))):
            raise FormatError(f"{where}: expected a string id and text, and "
                              f"string doc_id, source and section_title and "
                              f"a string or null dump_date where given")
        passage = _passage(obj, canon)
        if not passage.id:
            raise FormatError(f"{where}: empty id")
        if passage.id in seen:
            raise FormatError(f"{where}: duplicate id {passage.id!r}")
        seen.add(passage.id)
        if not passage.text:
            raise FormatError(f"{where}: empty text")
        out.append(passage)
    return out


def ingest(documents: Iterable[RawDocument], max_words: int = 200,
           cfg: FilterConfig | None = None) -> list[Passage]:
    """Linearize each infobox into one section, its nonempty section
    bodies joined by '; ', filter the documents, then chunk the survivors.
    The passages share one string per distinct token, the first one kept.
    Each section is split into tokens once, for the filter and the chunks."""
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    cfg = cfg or FilterConfig()
    passages, canon = [], {}
    for doc in documents:
        if doc.source == "infobox":
            doc = replace(doc, sections=(Section("", "; ".join(
                s.text for s in doc.sections if s.text)),))
        sections = [tokenize(s.text) for s in doc.sections]
        if quality_filter([t for tokens in sections for t in tokens], cfg):
            passages.extend(chunk(doc, [_shared(tokens, canon)
                                        for tokens in sections], max_words))
    return passages
