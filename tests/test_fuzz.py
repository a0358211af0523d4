"""Every artifact reader, fed a valid file with bytes cut, flipped or
spliced in, either returns something the library can use or raises
`FormatError` / `ValueError`; the CLI exits 0, 1 or 2, never with a
traceback.

Each case writes a small valid artifact once, mutates its bytes, loads the
result and uses it (search, PQ search, query encoding, ingest, index
build, evaluation).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab import corpus, evalkit
from rlab.cli import main
from rlab.index import build, load_index, save_index, search, search_batch
from rlab.pq import compress, load_pq_index, pq_search, save_pq_index, train_pq
from rlab.retriever import (Vocab, encode_doc, encode_query, init_encoder,
                            load_checkpoint, save_checkpoint)

EXAMPLES = 100


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """blob after one to three cuts, byte flips or splices, where a splice
    replaces a span with a span of the same blob."""
    for _ in range(draw(st.integers(1, 3))):
        n = len(blob)
        op = draw(st.sampled_from(["cut", "flip", "splice"]))
        if op == "cut" or n == 0:
            blob = blob[:draw(st.integers(0, max(n - 1, 0)))]
        elif op == "flip":
            at = draw(st.integers(0, n - 1))
            flipped = blob[at] ^ draw(st.integers(1, 255))
            blob = blob[:at] + bytes([flipped]) + blob[at + 1:]
        else:
            i = draw(st.integers(0, n))
            j = draw(st.integers(i, min(n, i + 16)))
            a = draw(st.integers(0, n))
            b = draw(st.integers(a, min(n, a + 16)))
            blob = blob[:i] + blob[a:b] + blob[j:]
    return blob


PASSAGES = [corpus.Passage(id=f"p{i}", doc_id=f"d{i}", dump_date="2021-12-20",
                           text=tuple(f"t{i}w{j}" for j in range(3)))
            for i in range(5)]
ENCODER = init_encoder(Vocab([t for p in PASSAGES for t in p.text]), dim=4)
QUERY = ["t1w0", "t2w1", "unseen"]


def _write(path, blob):
    path.write_bytes(blob)
    return path


def _saved(tmp_path_factory, writer, value) -> bytes:
    path = tmp_path_factory.mktemp("valid") / "artifact"
    writer(value, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def binaries(tmp_path_factory):
    """Valid RIDX (both precisions), RPQX and RLAB files."""
    idx = build(PASSAGES, ENCODER)
    files = {f"ridx2-{p}": _saved(tmp_path_factory, save_index,
                                  build(PASSAGES, ENCODER, precision=p))
             for p in ("float32", "float16")}
    files["rpqx"] = _saved(tmp_path_factory, save_pq_index, compress(
        idx, train_pq(idx, m=2, k_c=3, iterations=2, seed=0)))
    files["rlab2"] = _saved(tmp_path_factory, save_checkpoint, ENCODER)
    return files


def use_index(path):
    idx = load_index(path)
    search(idx, np.ones(idx.dim), 3)
    search_batch(idx, np.ones((2, idx.dim)), 2)


def use_pq_index(path):
    pidx = load_pq_index(path)
    pq_search(pidx, np.ones(pidx.dim), 3)


def use_checkpoint(path):
    enc = load_checkpoint(path)
    encode_query(enc, QUERY)
    encode_doc(enc, QUERY)


USES = {"ridx2-float32": use_index, "ridx2-float16": use_index,
        "rpqx": use_pq_index, "rlab2": use_checkpoint}


@pytest.mark.parametrize("kind", sorted(USES))
def test_binary_readers(binaries, tmp_path_factory, kind):
    path = tmp_path_factory.mktemp(kind) / "artifact"
    USES[kind](_write(path, binaries[kind]))  # the valid file is usable

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(mutations(binaries[kind]))
    def check(blob):
        try:
            USES[kind](_write(path, blob))
        except ValueError:  # FormatError included
            pass
    check()


@pytest.mark.parametrize("target", ["index", "checkpoint"])
def test_search_exit_codes(binaries, tmp_path_factory, capsys, target):
    root = tmp_path_factory.mktemp("search")
    paths = {"index": _write(root / "i.ridx", binaries["ridx2-float32"]),
             "checkpoint": _write(root / "c.rlab", binaries["rlab2"])}
    args = ["search", "--index", str(paths["index"]), "--checkpoint",
            str(paths["checkpoint"]), "--query", " ".join(QUERY)]
    assert main(args) == 0

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(mutations(binaries["ridx2-float32" if target == "index"
                              else "rlab2"]))
    def check(blob):
        _write(paths[target], blob)
        assert main(args) in (0, 1, 2)
        capsys.readouterr()
    check()


def _lines(records) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode()


DOCUMENTS = _lines({"id": f"doc{i}", "title": f"T{i}",
                    "dump_date": "2021-12-20", "source": "wiki",
                    "sections": [{"title": "Body",
                                  "text": f"w{i} x{i} y{i} z{i}"}]}
                   for i in range(3))
PASSAGE_LINES = _lines(corpus.passage_to_json(p) for p in PASSAGES)
CHOICE_TASKS = _lines({"question": f"t{i}w0 t{i}w1",
                       "options": ["a", "b", "c", "d"], "gold": i % 4}
                      for i in range(3))


def use_documents(path, root):
    return main(["ingest", "--in", str(path), "--out",
                 str(root / "passages.jsonl"), "--max-words", "3"])


def use_passages(path, root):
    corpus.read_passages(path)
    return main(["build-index", "--passages", str(path), "--out",
                 str(root / "index.ridx"), "--dim", "4"])


def use_choice_tasks(path, root):
    for task in evalkit.read_choice_tasks(path):
        evalkit.debias_infer(task, lambda q, opts, docs: np.full(4, 0.25),
                             mode="cyclic4")
    return main(["evaluate", "--task", str(path), "--mode", "cyclic4"])


JSONL = {"documents": (DOCUMENTS, use_documents),
         "passages": (PASSAGE_LINES, use_passages),
         "choice_tasks": (CHOICE_TASKS, use_choice_tasks)}


@pytest.mark.parametrize("kind", sorted(JSONL))
def test_jsonl_readers(tmp_path_factory, capsys, kind):
    blob, use = JSONL[kind]
    root = tmp_path_factory.mktemp(kind)
    path = root / "in.jsonl"
    assert use(_write(path, blob), root) in (0, None)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(mutations(blob))
    def check(mutated):
        try:
            assert use(_write(path, mutated), root) in (0, 1, 2, None)
        except ValueError:  # FormatError included
            pass
        capsys.readouterr()
    check()
