import json
import math

import pytest
from hypothesis import given, strategies as st

from rlab.corpus import (FilterConfig, Passage, RawDocument, Section,
                         chunk, chunk_tokens, ingest,
                         linearize_document, linearize_structured,
                         passage_from_json, passage_to_json, quality_filter,
                         read_documents, read_passages, repeated_token_ratio,
                         tokenize)
from rlab.index import FormatError


def make_doc(sections, source="wiki", doc_id="d1"):
    return RawDocument(id=doc_id, title="T", sections=tuple(
        Section(t, b) for t, b in sections), source=source,
        dump_date="2021-12-20")


class TestLinearize:
    def test_two_entries(self):
        assert linearize_structured(["pop.: 5M", "area: 10km²"]) == "pop.: 5M; area: 10km²"

    def test_single_entry_no_separator(self):
        assert linearize_structured(["x"]) == "x"

    def test_empty(self):
        assert linearize_structured([]) == ""

    def test_empty_entries_skipped(self):
        assert linearize_structured(["a", "", "b"]) == "a; b"

    def test_idempotent_on_flat(self):
        flat = linearize_structured(["a: 1", "b: 2"])
        assert linearize_structured([flat]) == flat

    def test_document_linearization(self):
        doc = make_doc([("k1", "a: 1"), ("k2", "b: 2")], source="infobox")
        flat = linearize_document(doc)
        assert len(flat.sections) == 1
        assert flat.sections[0].text == "a: 1; b: 2"


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
        doc = make_doc([])
        assert chunk(doc) == []

    def test_section_titles_not_counted(self):
        doc = make_doc([("History", " ".join(f"w{i}" for i in range(10)))])
        (p,) = chunk(doc)
        assert len(p.text) == 10
        assert p.section_title == "History"

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
        doc = make_doc([("", "one two three")])
        assert not quality_filter(doc, FilterConfig(min_doc_length=50))

    def test_all_repeated_tokens_rejected(self):
        doc = make_doc([("", "aaa aaa aaa aaa")])
        cfg = FilterConfig(min_doc_length=1, max_repeated_token_ratio=0.5)
        assert repeated_token_ratio(["aaa"] * 4) == 0.75
        assert not quality_filter(doc, cfg)

    def test_normal_paragraph_accepted(self):
        # 60 distinct short alphanumeric words: length 60 >= 50, mean word
        # length 3.27 <= 10, alnum ratio 1.0 >= 0.6, repeated ratio 0 <= 0.5.
        words = [f"ab{i}" for i in range(60)]
        doc = make_doc([("", " ".join(words))])
        assert quality_filter(doc, FilterConfig())

    def test_long_words_rejected(self):
        words = ["x" * 30 for _ in range(60)]
        doc = make_doc([("", " ".join(f"{w}{i}" for i, w in enumerate(words)))])
        assert not quality_filter(doc, FilterConfig())

    def test_non_alnum_rejected(self):
        words = [f"@#$%^&{i}!" for i in range(60)]
        doc = make_doc([("", " ".join(words))])
        assert not quality_filter(doc, FilterConfig())

    @pytest.mark.parametrize("tighten", [
        dict(min_doc_length=120),
        dict(max_mean_word_length=1.0),
        dict(min_alnum_ratio=1.0),
        dict(max_repeated_token_ratio=0.0),
    ])
    def test_monotonicity(self, tighten):
        # Tightening any threshold never converts rejected into accepted.
        words = [f"ab{i}" for i in range(60)] + ["ab0"]
        doc = make_doc([("", " ".join(words))])
        base = FilterConfig()
        tight = FilterConfig(**{**base.__dict__, **tighten})
        if not quality_filter(doc, base):
            assert not quality_filter(doc, tight)


class TestIO:
    def test_passage_json_round_trip(self):
        p = Passage(id="d1:s0:p0", doc_id="d1", text=("a", "b"),
                    source="wiki", dump_date="2021-12-20",
                    section_title="History")
        assert passage_from_json(passage_to_json(p)) == p

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

    def test_wiki_requires_dump_date(self):
        with pytest.raises(ValueError):
            RawDocument(id="d", title="t", sections=(), source="wiki")
