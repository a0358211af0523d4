import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rlab.corpus import (FilterConfig, Passage, RawDocument, Section,
                         alnum_ratio, chunk, chunk_tokens, ingest,
                         passage_to_json, quality_filter, read_documents,
                         read_passages, repeated_token_ratio, tokenize,
                         write_passages)
from rlab.index import FormatError


def make_doc(sections, source="wiki", doc_id="d1"):
    return RawDocument(id=doc_id, title="T", sections=tuple(
        Section(t, b) for t, b in sections), source=source,
        dump_date="2021-12-20")


# Every document with a word passes the filter.
LENIENT = FilterConfig(min_doc_length=0, max_mean_word_length=1e9,
                       min_alnum_ratio=0.0, max_repeated_token_ratio=1.0)


def linearized(entries):
    """The passages ingest makes of an infobox of these section bodies."""
    doc = make_doc([(f"k{i}", e) for i, e in enumerate(entries)],
                   source="infobox")
    return ingest([doc], cfg=LENIENT)


class TestLinearize:
    def test_two_entries(self):
        (p,) = linearized(["pop.: 5M", "area: 10km²"])
        assert " ".join(p.text) == "pop.: 5M; area: 10km²"

    def test_single_entry_no_separator(self):
        (p,) = linearized(["x"])
        assert p.text == ("x",)

    def test_empty(self):
        assert linearized([]) == []

    def test_empty_entries_skipped(self):
        (p,) = linearized(["a", "", "b"])
        assert " ".join(p.text) == "a; b"

    def test_idempotent_on_flat(self):
        (flat,) = linearized(["a: 1", "b: 2"])
        assert linearized([" ".join(flat.text)]) == [flat]

    def test_document_linearization(self):
        # One flat section with no title, however many the infobox had.
        (p,) = linearized(["a: 1", "b: 2"])
        assert (p.id, p.section_title, " ".join(p.text)) == \
            ("d1:s0:p0", "", "a: 1; b: 2")


class TestChunk:
    def test_401_words_split_into_three(self):
        tokens = [f"w{i}" for i in range(401)]
        pieces = chunk_tokens(tokens, 200)
        assert sorted(len(p) for p in pieces) == [133, 134, 134]

    def test_small_section_single_passage(self):
        tokens = [f"w{i}" for i in range(78)]
        assert [len(p) for p in chunk_tokens(tokens, 200)] == [78]

    def test_boundary_exact(self):
        assert len(chunk_tokens([f"w{i}" for i in range(200)], 200)) == 1

    def test_empty_doc(self):
        assert chunk(make_doc([]), [], 200) == []
        assert ingest([make_doc([])], cfg=LENIENT) == []

    def test_section_titles_not_counted(self):
        doc = make_doc([("History", " ".join(f"w{i}" for i in range(10)))])
        (p,) = chunk(doc, [tokenize(doc.sections[0].text)], 200)
        assert len(p.text) == 10
        assert p.section_title == "History"
        assert ingest([doc], max_words=10, cfg=LENIENT) == [p]

    @pytest.mark.parametrize("max_words", [0, -1])
    def test_max_words_below_1_refused_before_any_document(self, max_words):
        # Refused only when a document passed the filter and was chunked.
        def documents():
            raise AssertionError("a document was read")
            yield
        with pytest.raises(ValueError, match="max_words must be >= 1"):
            ingest(documents(), max_words=max_words)

    @given(st.integers(1, 500), st.integers(1, 200))
    def test_partition_and_equal_size_properties(self, n, max_words):
        tokens = [f"w{i}" for i in range(n)]
        pieces = chunk_tokens(tokens, max_words)
        assert [t for p in pieces for t in p] == tokens
        sizes = [len(p) for p in pieces]
        assert max(sizes) <= max_words
        assert max(sizes) - min(sizes) <= 1
        assert len(pieces) == math.ceil(n / max_words)


class TestQualityFilter:
    def test_short_doc_rejected(self):
        tokens = ["one", "two", "three"]
        assert not quality_filter(tokens, FilterConfig(min_doc_length=50))

    def test_all_repeated_tokens_rejected(self):
        cfg = FilterConfig(min_doc_length=1, max_repeated_token_ratio=0.5)
        assert repeated_token_ratio(["aaa"] * 4) == 0.75
        assert not quality_filter(["aaa"] * 4, cfg)

    def test_normal_paragraph_accepted(self):
        # 60 distinct short alphanumeric words: length 60 >= 50, mean word
        # length 3.27 <= 10, alnum ratio 1.0 >= 0.6, repeated ratio 0 <= 0.5.
        assert quality_filter([f"ab{i}" for i in range(60)], FilterConfig())

    def test_long_words_rejected(self):
        words = [f"{'x' * 30}{i}" for i in range(60)]
        assert not quality_filter(words, FilterConfig())

    def test_no_word_rejected_at_any_minimum_length(self):
        # Divided by the zero token count at min_doc_length 0.
        assert not quality_filter([], LENIENT)
        assert not quality_filter([], FilterConfig(min_doc_length=-1))

    def test_ingest_filters_whole_documents(self):
        # Two 30-word sections pass a minimum of 60 together, though
        # neither would alone; a document of one of them fails.
        halves = [" ".join(f"{s}{i}" for i in range(30)) for s in "ab"]
        doc = make_doc([("A", halves[0]), ("B", halves[1])])
        cfg = FilterConfig(min_doc_length=60)
        assert [p.id for p in ingest([doc], cfg=cfg)] == ["d1:s0:p0",
                                                          "d1:s1:p0"]
        assert ingest([make_doc([("A", halves[0])])], cfg=cfg) == []

    def test_alnum_ratio_equals_a_per_character_oracle(self):
        # Every code point but the surrogates, alone and in one text with
        # whitespace between them: whitespace is not counted, and a counted
        # character is alphanumeric iff str.isalnum says so.
        chars = [chr(i) for i in range(0x110000) if not 0xD800 <= i < 0xE000]
        assert list(map(alnum_ratio, chars)) == \
            [float(c.isalnum()) for c in chars]
        counted = [c for c in chars if not c.isspace()]
        assert alnum_ratio(" ".join(chars)) == \
            sum(c.isalnum() for c in counted) / len(counted)
        assert alnum_ratio(" \t\n") == alnum_ratio("") == 0.0

    def test_non_alnum_rejected(self):
        words = [f"@#$%^&{i}!" for i in range(60)]
        assert not quality_filter(words, FilterConfig())

    @pytest.mark.parametrize("tighten", [
        dict(min_doc_length=120),
        dict(max_mean_word_length=1.0),
        dict(min_alnum_ratio=1.0),
        dict(max_repeated_token_ratio=0.0),
    ])
    def test_monotonicity(self, tighten):
        # Tightening any threshold never converts rejected into accepted.
        words = [f"ab{i}" for i in range(60)] + ["ab0"]
        base = FilterConfig()
        tight = FilterConfig(**{**base.__dict__, **tighten})
        if not quality_filter(words, base):
            assert not quality_filter(words, tight)

    @pytest.mark.parametrize("threshold, at, past", [
        # 4 tokens against a minimum of 4; 3 are too few.
        (dict(min_doc_length=4), ["a1", "a2", "a3", "a4"], ["a1", "a2", "a3"]),
        # Mean word length 16/4 == 4.0; 17/4 is above it.
        (dict(max_mean_word_length=4.0), ["ab01", "ab02", "ab03", "ab04"],
         ["ab01", "ab02", "ab03", "ab004"]),
        # Alphanumeric ratio 15/25 == 0.6; 15/26 is below it.
        (dict(min_alnum_ratio=0.6), ["001!!", "002!!", "003!!", "004!!",
                                     "005!!"],
         ["001!!", "002!!", "003!!", "004!!", "005!!!"]),
        # Repeated-token ratio 1 - 2/4 == 0.5; 1 - 2/5 is above it.
        (dict(max_repeated_token_ratio=0.5), ["a1", "a1", "b1", "b1"],
         ["a1", "a1", "b1", "b1", "b1"]),
    ])
    def test_threshold_is_inclusive(self, threshold, at, past):
        # A document exactly at a threshold passes, and one just past it
        # fails; each document meets the other three tests.
        cfg = FilterConfig(**{"min_doc_length": 1, **threshold})
        assert quality_filter(at, cfg)
        assert not quality_filter(past, cfg)


class TestIO:
    def test_passage_json_round_trip(self, tmp_path):
        p = Passage(id="d1:s0:p0", doc_id="d1", text=("a", "b"),
                    source="wiki", dump_date="2021-12-20",
                    section_title="History")
        path = tmp_path / "p.jsonl"
        write_passages([p], path)
        assert read_passages(path) == [p]

    def test_read_passages_fills_omitted_fields(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "b", "text": "x y"}\n')
        assert read_passages(path) == [Passage(id="b", doc_id="b",
                                               text=("x", "y"))]

    def test_ingest_linearizes_infoboxes(self):
        entries = [(f"k{i}", f"key{i}: value{i}") for i in range(30)]
        doc = make_doc(entries, source="infobox", doc_id="box")
        passages = ingest([doc], cfg=FilterConfig(min_doc_length=10))
        assert len(passages) == 1
        assert ";" in " ".join(passages[0].text)

    @pytest.mark.parametrize("bad_line, reason", [
        (b'{"id": "b", "text": "x y', "JSON"),        # truncated last line
        (b'{"id": "b", "text": "caf\xe9"}', "UTF-8"),
        (b'{"text": "x y"}', "id"),
        (b'{"id": "b"}', "text"),
        (b'{"id": "b", "text": 5}', "text"),
        (b'["b", "x y"]', "object"),
        # Non-string fields would load, then crash index writers.
        (b'{"id": 5, "text": "x y"}', "id"),
        (b'{"id": "b", "text": "x y", "doc_id": ["d"]}', "doc_id"),
        (b'{"id": "b", "text": "x y", "dump_date": 2021}', "dump_date"),
        (b'{"id": "b", "text": "x y", "section_title": null}', "section_title"),
        # A passage with no words has no embedding.
        (b'{"id": "b", "text": ""}', "empty text"),
        (b'{"id": "b", "text": " \\t "}', "empty text"),
    ])
    def test_read_passages_format_error_names_line(self, tmp_path, bad_line,
                                                   reason):
        path = tmp_path / "p.jsonl"
        # The blank line counts: the bad record is on line 3.
        path.write_bytes(b'{"id": "a", "text": "x y"}\n\n' + bad_line + b"\n")
        with pytest.raises(FormatError, match=rf"p\.jsonl, line 3: .*{reason}"):
            read_passages(path)

    def test_read_passages_skips_blank_lines(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Passage(id="a", doc_id="a", text=("x", "y"))
        path.write_text("\n" + json.dumps(passage_to_json(p)) + "\n\n")
        assert read_passages(path) == [p]

    GOOD_DOCUMENT = json.dumps({
        "id": "a", "title": "T", "dump_date": "2021-12-20",
        "sections": [{"title": "S", "text": "x y"}]}).encode()

    def test_read_documents_skips_blank_lines(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_bytes(b"\n" + self.GOOD_DOCUMENT + b"\n\n")
        assert list(read_documents(path)) == [RawDocument(
            id="a", title="T", sections=(Section("S", "x y"),),
            dump_date="2021-12-20")]

    @pytest.mark.parametrize("bad_line, reason", [
        (b'{"id": "b", "title": "T", "sections": [', "JSON"),  # cut line
        (b'{"id": "b", "title": "caf\xe9", "sections": []}', "UTF-8"),
        (b'["b", "T", []]', "object"),
        (b'{"title": "T", "sections": []}', "id"),
        (b'{"id": 5, "title": "T", "sections": []}', "id"),
        (b'{"id": "b", "sections": []}', "title"),
        (b'{"id": "b", "title": "T"}', "sections"),
        (b'{"id": "b", "title": "T", "sections": {}}', "sections"),
        (b'{"id": "b", "title": "T", "sections": [{"title": "S"}]}', "text"),
        (b'{"id": "b", "title": "T", "sections": [{"text": 5}]}', "text"),
        (b'{"id": "", "title": "T", "sections": [], "dump_date": "2021"}',
         "nonempty"),
        (b'{"id": "b", "title": "T", "sections": []}', "dump_date"),
        (b'{"id": "b", "title": "T", "sections": [], "dump_date": 2021}',
         "dump_date"),
    ])
    def test_read_documents_format_error_names_line(self, tmp_path, bad_line,
                                                    reason):
        path = tmp_path / "raw.jsonl"
        # The blank line counts: the bad record is on line 3.
        path.write_bytes(self.GOOD_DOCUMENT + b"\n\n" + bad_line + b"\n")
        with pytest.raises(FormatError,
                           match=rf"raw\.jsonl, line 3: .*{reason}"):
            list(read_documents(path))

    def test_read_passages_repeated_id_names_second_line(self, tmp_path):
        # Read without complaint; the index rejected it later, naming no
        # file or line.
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "a", "text": "x y"}\n{"id": "b", "text": "y"}'
                        '\n\n{"id": "a", "text": "z"}\n')
        with pytest.raises(FormatError,
                           match=r"p\.jsonl, line 4: duplicate id 'a'$"):
            read_passages(path)

    def test_read_documents_repeated_id_names_second_line(self, tmp_path):
        # ingest chunked both documents into passages of the same ids.
        path = tmp_path / "raw.jsonl"
        other = self.GOOD_DOCUMENT.replace(b'"id": "a"', b'"id": "b"')
        path.write_bytes(b"\n".join([self.GOOD_DOCUMENT, other, b"",
                                     self.GOOD_DOCUMENT]) + b"\n")
        with pytest.raises(FormatError,
                           match=r"raw\.jsonl, line 4: duplicate id 'a'$"):
            list(read_documents(path))

    def test_wiki_requires_dump_date(self):
        with pytest.raises(ValueError):
            RawDocument(id="d", title="t", sections=(), source="wiki")


WORDS = [f"word{i:03d}" for i in range(100)]  # not cached by the interpreter
REPEATS_PASS = FilterConfig(max_repeated_token_ratio=1.0)


def zipf_passages(n, length, seed=0):
    """n passages of `length` tokens drawn from WORDS, most repeated."""
    rng = np.random.default_rng(seed)
    return [Passage(id=f"d{i // 3}:s0:p{i % 3}", doc_id=f"d{i // 3}",
                    text=tuple(WORDS[j] for j in rng.zipf(1.5, length) % 100),
                    dump_date="2021-12-20", section_title="Body")
            for i in range(n)]


def zipf_documents():
    """20 documents of two 60-word sections, which ingest at 25 words
    per passage (REPEATS_PASS) chunks into 120 passages."""
    texts = [" ".join(p.text) for p in zipf_passages(40, 60)]
    return [make_doc([("A", a), ("B", b)], doc_id=f"d{i}")
            for i, (a, b) in enumerate(zip(texts[::2], texts[1::2]))]


def token_objects(passages) -> set[int]:
    """The identities of the token strings of passages."""
    return {id(t) for p in passages for t in p.text}


class TestSharedTokens:
    """The passages of one read_passages or ingest call hold one string
    per distinct token; a second call shares none of them."""

    def assert_shared(self, first, second):
        distinct = len({t for p in first for t in p.text})
        a, b = token_objects(first), token_objects(second)
        assert len(a) == len(b) == distinct
        assert not a & b

    def test_read_passages(self, tmp_path):
        path = tmp_path / "p.jsonl"
        write_passages(zipf_passages(60, 40), path)
        first, second = read_passages(path), read_passages(path)
        assert first == second == zipf_passages(60, 40)
        self.assert_shared(first, second)

    def test_ingest(self):
        first = ingest(zipf_documents(), max_words=25, cfg=REPEATS_PASS)
        second = ingest(zipf_documents(), max_words=25, cfg=REPEATS_PASS)
        assert first == second and len(first) == 120
        self.assert_shared(first, second)

    def test_reading_repeated_tokens_allocates_little(self, tmp_path):
        # 200,000 token occurrences of 100 words: a string per occurrence
        # is about 11 MB, one per word under 10 kB. On Python 3.11 the read
        # allocated 13.7 MB with a string per occurrence and 2.5 MB with
        # one per word, most of it the token tuples.
        path = tmp_path / "p.jsonl"
        write_passages(zipf_passages(2000, 100), path)
        tracemalloc.start()
        try:
            passages = read_passages(path)
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(passages) == 2000
        assert allocated < 3_500_000

    # sha256 of the file that test_written_passages_unchanged writes, as
    # the module wrote it when each token occurrence was its own string.
    GOLDEN = "e0615d6f2dc6870a039690395a1363c05b4a2d714975db14b6887b360464119b"

    def test_written_passages_unchanged(self, tmp_path):
        written, again = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        passages = ingest(zipf_documents(), max_words=25, cfg=REPEATS_PASS)
        assert write_passages(passages, written) == 120
        assert hashlib.sha256(written.read_bytes()).hexdigest() == self.GOLDEN
        passages = read_passages(written)
        assert len(token_objects(passages)) == len(
            {t for p in passages for t in p.text})
        write_passages(passages, again)
        assert again.read_bytes() == written.read_bytes()
