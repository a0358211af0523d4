import argparse
import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rlab import cli
from rlab.cli import _read_config, build_parser, main
from rlab.corpus import FilterConfig, Passage, read_passages, write_passages
from rlab.pretext import TaskExamples, mlm_example, prefix_lm_example
from rlab.index import load_index
from rlab.pq import compress, squared_error, train_pq
from rlab.retriever import load_checkpoint
from rlab.trainer import LossKind, MaintenanceMode, TrainConfig, TrainExample


def make_raw_corpus(path, n_docs=6, words_per_section=120):
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n_docs):
            body = " ".join(f"doc{i}tok{j}" for j in range(words_per_section))
            fh.write(json.dumps({
                "id": f"doc{i}",
                "title": f"Title {i}",
                "dump_date": "2021-12-20",
                "sections": [{"title": "Body", "text": body}],
            }) + "\n")


@pytest.fixture
def workspace(tmp_path):
    raw = tmp_path / "raw.jsonl"
    make_raw_corpus(raw)
    return tmp_path, raw


def run_ingest(tmp_path, raw):
    out = tmp_path / "passages.jsonl"
    assert main(["ingest", "--in", str(raw), "--out", str(out),
                 "--max-words", "40"]) == 0
    return out


def round_trip(manifest, cls, tmp_path):
    """`cls` read back from its fields in a manifest's config, written as
    `key = value` lines."""
    names = {f.name for f in fields(cls)}
    path = tmp_path / "round-trip.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in
                            manifest["config"].items() if k in names))
    return _read_config(path, cls)


def run_build(tmp_path, passages):
    out = tmp_path / "index.ridx"
    assert main(["build-index", "--passages", str(passages),
                 "--out", str(out), "--dim", "16"]) == 0
    return out, out.with_suffix(".rlab")


class TestIngest:
    def test_writes_passages_and_manifest(self, workspace, capsys):
        tmp_path, raw = workspace
        out = run_ingest(tmp_path, raw)
        passages = read_passages(out)
        assert passages
        assert all(len(p.text) <= 40 for p in passages)
        assert "wrote" in capsys.readouterr().out
        manifest = json.loads(
            (tmp_path / "passages.jsonl.manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["max_words"] == 40
        assert len(manifest["input_hashes"]["infile"]) == 64
        assert "ingest" in manifest["timings_s"]

    def test_missing_input_exit_1(self, tmp_path):
        assert main(["ingest", "--in", str(tmp_path / "absent.jsonl"),
                     "--out", str(tmp_path / "o.jsonl")]) == 1

    @pytest.mark.parametrize("bad_line", [
        b'{"id": "b", "title": "T", "sections": [{"text": "x',  # cut line
        b'{"title": "T", "sections": []}',                      # no id
        b'{"id": "b", "title": "caf\xe9", "sections": []}',     # not UTF-8
    ])
    def test_malformed_documents_exit_1(self, workspace, capsys, bad_line):
        tmp_path, raw = workspace
        raw.write_bytes(raw.read_bytes() + bad_line)
        lines = raw.read_bytes().count(b"\n") + 1
        out = tmp_path / "o.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out)]) == 1
        assert f"raw.jsonl, line {lines}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_filter_key_exit_2(self, workspace, capsys):
        tmp_path, raw = workspace
        bad = tmp_path / "filter.cfg"
        bad.write_text("no_such_knob = 1\n")
        assert main(["ingest", "--in", str(raw),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--filter-config", str(bad)]) == 2
        assert "filter.cfg, line 1: unknown key 'no_such_knob'" in (
            capsys.readouterr().err)

    def test_repeated_filter_key_exit_2_before_reading(self, tmp_path,
                                                       capsys):
        # The last line won silently. The input does not exist, so a
        # refusal made after reading it would exit 1.
        config = tmp_path / "filter.cfg"
        config.write_text("min_doc_length = 5\n# again\nmin_doc_length = 9\n")
        assert main(["ingest", "--in", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--filter-config", str(config)]) == 2
        assert ("filter.cfg, lines 1 and 3: repeated key 'min_doc_length'"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["filter.cfg"]

    @pytest.mark.parametrize("config, message", [
        ("min_doc_length = x", "min_doc_length: invalid literal"),
        ("min_alnum_ratio =", "min_alnum_ratio: could not convert"),
        ("max_mean_word_length = true", "max_mean_word_length: could not"),
        ("min_doc_length = 5.0", "min_doc_length: invalid literal"),
        ("min_doc_length: 5", "malformed line 'min_doc_length: 5'"),
        ("5", "malformed line '5'"),
    ])
    def test_mistyped_filter_config_exit_2(self, workspace, capsys, config,
                                           message):
        tmp_path, raw = workspace
        bad = tmp_path / "filter.cfg"
        bad.write_text(f"# filter\n\n{config}\n")
        assert main(["ingest", "--in", str(raw),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--filter-config", str(bad)]) == 2
        assert f"filter.cfg, line 3: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", [
        "min_doc_length", "max_mean_word_length", "min_alnum_ratio",
        "max_repeated_token_ratio"])
    def test_non_finite_filter_config_exit_2_and_nothing_written(
            self, workspace, capsys, key, value):
        # A NaN minimum length turned the length filter off and an
        # infinite one dropped every document, both with exit 0. The
        # integer field refuses them as integers, the others as finite
        # numbers.
        tmp_path, raw = workspace
        bad = tmp_path / "filter.cfg"
        bad.write_text(f"{key} = {value}\n")
        assert main(["ingest", "--in", str(raw),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--filter-config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"filter.cfg, line 1: {key}: " in err
        assert ("invalid literal for int()" if key == "min_doc_length"
                else f"{key} must be a finite number") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "filter.cfg", "raw.jsonl"]

    def test_document_with_no_word_fails_the_filter(self, tmp_path, capsys):
        # At min_doc_length 0 the filter divided by the document's zero
        # token count: a ZeroDivisionError traceback.
        raw, config = tmp_path / "raw.jsonl", tmp_path / "filter.cfg"
        raw.write_text(json.dumps({"id": "a", "title": "T", "sections": [],
                                   "dump_date": "2021-12-20"}) + "\n")
        config.write_text("min_doc_length = 0\n")
        out = tmp_path / "o.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out),
                     "--filter-config", str(config)]) == 0
        assert read_passages(out) == []
        assert "wrote 0 passages" in capsys.readouterr().out

    @pytest.mark.parametrize("max_words", ["0", "-1"])
    @pytest.mark.parametrize("min_doc_length", [50, 10 ** 6])
    def test_max_words_below_1_exit_2_and_nothing_written(
            self, workspace, capsys, max_words, min_doc_length):
        # When no document passed the filter, nothing was chunked and
        # max_words went unchecked: exit 0, with passages.jsonl and its
        # manifest written.
        tmp_path, raw = workspace
        (tmp_path / "filter.cfg").write_text(
            f"min_doc_length = {min_doc_length}\n")
        assert main(["ingest", "--in", str(raw),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--filter-config", str(tmp_path / "filter.cfg"),
                     "--max-words", max_words]) == 2
        assert "max_words must be >= 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "filter.cfg", "raw.jsonl"]

    def test_manifest_round_trips_the_filter_config(self, workspace):
        # A float that needs 17 significant digits comes back exactly.
        tmp_path, raw = workspace
        config = tmp_path / "filter.cfg"
        config.write_text("min_doc_length = 7\n"
                          "max_mean_word_length = 10.000000000000002\n"
                          "min_alnum_ratio = 0.30000000000000004\n"
                          "max_repeated_token_ratio = 0.1\n")
        out = tmp_path / "o.jsonl"
        assert main(["ingest", "--in", str(raw), "--out", str(out),
                     "--filter-config", str(config)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["input_hashes"]["filter_config"] == hashlib.sha256(
            config.read_bytes()).hexdigest()
        assert round_trip(manifest, FilterConfig, tmp_path) == _read_config(
            config, FilterConfig)
        assert _read_config(config, FilterConfig).min_alnum_ratio == 0.1 + 0.2


class TestBuildAndSearch:
    def test_build_then_search(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages)
        idx = load_index(index_path)
        assert idx.dim == 16
        assert idx.size == len(read_passages(passages))
        capsys.readouterr()
        assert main(["search", "--index", str(index_path),
                     "--checkpoint", str(ckpt),
                     "--query", "doc0tok0 doc0tok1", "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        pid, score = lines[0].split("\t")
        float(score)
        assert pid.startswith("doc")

    def test_truncated_index_exit_1(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages)
        index_path.write_bytes(index_path.read_bytes()[:-5])
        capsys.readouterr()
        assert main(["search", "--index", str(index_path),
                     "--checkpoint", str(ckpt), "--query", "doc0tok0"]) == 1
        assert "index.ridx" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["header", "tables"])
    def test_truncated_checkpoint_exit_1(self, workspace, capsys, cut):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:10] if cut == "header" else blob[:len(blob) // 2])
        capsys.readouterr()
        assert main(["search", "--index", str(index_path),
                     "--checkpoint", str(ckpt), "--query", "doc0tok0"]) == 1
        assert "index.rlab" in capsys.readouterr().err

    def test_nan_in_checkpoint_exit_1(self, workspace, capsys):
        # A NaN in the <unk> row (the first query embedding value) made
        # every score NaN: search printed nothing and exited 0.
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages)
        blob = ckpt.read_bytes()
        ckpt.write_bytes(blob[:24] + b"\x00\x00\xc0\x7f" + blob[28:])
        capsys.readouterr()
        assert main(["search", "--index", str(index_path), "--checkpoint",
                     str(ckpt), "--query", "doc0tok0 zzz", "--k", "2"]) == 1
        assert "index.rlab" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_line", [
        b'{"id": "b", "text": "x y',        # truncated last line
        b'{"text": "x y"}',                # no id
        b'{"id": "b", "text": 5}',         # text not a string
        b'{"id": "b", "text": "caf\xe9"}',  # not UTF-8
    ])
    def test_malformed_passages_exit_1(self, tmp_path, capsys, bad_line):
        passages = tmp_path / "passages.jsonl"
        passages.write_bytes(b'{"id": "a", "text": "x y"}\n' + bad_line)
        assert main(["build-index", "--passages", str(passages),
                     "--out", str(tmp_path / "index.ridx")]) == 1
        assert "passages.jsonl, line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["build-index", "train"])
    @pytest.mark.parametrize("field", ["id", "text"])
    def test_empty_passage_id_or_text_exit_1_and_nothing_written(
            self, tmp_path, capsys, command, field):
        # An empty id read as "no origin" in the trainer, so that passage's
        # example retrieved the passage itself.
        line = {"id": '{"id": "", "text": "y z"}',
                "text": '{"id": "b", "text": "  "}'}[field]
        passages = tmp_path / "passages.jsonl"
        passages.write_text('{"id": "a", "text": "x y"}\n' + line + "\n")
        config = tmp_path / "train.cfg"
        config.write_text("steps=1\nk_retrieved=1\n")
        args = {"build-index": ["--passages", str(passages),
                                "--out", str(tmp_path / "index.ridx")],
                "train": ["--config", str(config), "--corpus", str(passages),
                          "--out", str(tmp_path / "run")]}[command]
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert f"passages.jsonl, line 2: empty {field}" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "passages.jsonl", "train.cfg"]

    @pytest.mark.parametrize("command", ["ingest", "build-index",
                                         "compress-index"])
    def test_write_into_missing_directory_names_target(self, workspace, capsys,
                                                       command):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        index_path, _ = run_build(tmp_path, passages)
        out = tmp_path / "nodir" / "x.out"
        args = {"ingest": ["--in", str(raw)],
                "build-index": ["--passages", str(passages)],
                "compress-index": ["--index", str(index_path),
                                   "--m", "2", "--kc", "2"]}[command]
        capsys.readouterr()
        assert main([command, *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert not (tmp_path / "nodir").exists()

    @pytest.mark.parametrize("command", ["ingest", "build-index",
                                         "compress-index"])
    @pytest.mark.parametrize("out, message", [
        ("nodir/x", "[Errno 2] No such file or directory"),
        ("afile/x", "[Errno 20] Not a directory"),
        ("adir", "[Errno 21] Is a directory")], ids=["missing", "file", "dir"])
    def test_unwritable_out_exit_1_before_reading_the_input(
            self, tmp_path, capsys, command, out, message):
        # Each command did its whole work before the write failed, and
        # ingest over a directory named its random temporary file; here the
        # input is malformed, so it was the error they reported.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "adir").mkdir()
        out = tmp_path / out
        args = {"ingest": ["--in", str(bad)],
                "build-index": ["--passages", str(bad)],
                "compress-index": ["--index", str(bad),
                                   "--m", "2", "--kc", "2"]}[command]
        assert main([command, *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}: '{out}'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "adir", "afile", "bad.jsonl"]
        assert not any((tmp_path / "adir").iterdir())

    @pytest.mark.parametrize("command", ["ingest", "build-index",
                                         "compress-index"])
    def test_manifest_is_a_directory_exit_1_before_reading_the_input(
            self, tmp_path, capsys, command):
        # Each command did its whole work and wrote --out before the
        # manifest failed, naming its random temporary file; here the input
        # is malformed, so it was the error they reported.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        out = tmp_path / "x.out"
        manifest = tmp_path / "x.out.manifest.json"
        manifest.mkdir()
        args = {"ingest": ["--in", str(bad)],
                "build-index": ["--passages", str(bad)],
                "compress-index": ["--index", str(bad),
                                   "--m", "2", "--kc", "2"]}[command]
        assert main([command, *args, "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: [Errno 21] Is a directory: '{manifest}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.jsonl", "x.out.manifest.json"]
        assert not any(manifest.iterdir())

    @pytest.mark.parametrize("command", ["ingest", "build-index",
                                         "compress-index"])
    @pytest.mark.parametrize("out", ["", ".", "/"])
    def test_out_with_an_empty_name_exit_1_before_reading_the_input(
            self, tmp_path, monkeypatch, capsys, command, out):
        # "" skipped the --out check: ingest and compress-index read their
        # input first, and build-index exited 2 on Path's empty-name error.
        # "." and "/" were refused as they are now. The input is malformed.
        monkeypatch.chdir(tmp_path)
        Path("bad.jsonl").write_text("{not json\n")
        args = {"ingest": ["--in", "bad.jsonl"],
                "build-index": ["--passages", "bad.jsonl"],
                "compress-index": ["--index", "bad.jsonl",
                                   "--m", "2", "--kc", "2"]}[command]
        assert main([command, *args, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 21] Is a directory: '{out}'\n" if out
            else "error: [Errno 2] No such file or directory: ''\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]

    def test_fresh_checkpoint_is_a_directory_exit_1_before_reading(
            self, tmp_path, capsys):
        # The index was written, then saving the fresh checkpoint failed,
        # naming its random temporary file; here the passages are
        # malformed, so they were the error it reported.
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        ckpt = tmp_path / "x.rlab"
        ckpt.mkdir()
        assert main(["build-index", "--passages", str(bad),
                     "--out", str(tmp_path / "x.ridx"), "--dim", "4"]) == 1
        assert (capsys.readouterr().err
                == f"error: [Errno 21] Is a directory: '{ckpt}'\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "bad.jsonl", "x.rlab"]

    def test_newline_in_id_exit_2_and_nothing_written(self, tmp_path, capsys):
        passages = tmp_path / "passages.jsonl"
        passages.write_text('{"id": "a\\nb", "text": "x y"}\n'
                            '{"id": "c", "text": "y z"}\n')
        assert main(["build-index", "--passages", str(passages),
                     "--out", str(tmp_path / "index.ridx")]) == 2
        assert "'a\\nb'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["passages.jsonl"]

    def test_duplicate_index_ids_exit_1(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages)
        ids = load_index(index_path).ids
        data = index_path.read_bytes()
        # Overwrite the second id with a copy of the first (same length).
        first, second = ids[0].encode(), ids[1].encode()
        assert len(first) == len(second)
        at = data.index(first + b"\n" + second)
        index_path.write_bytes(data[:at] + first + b"\n" + first
                               + data[at + 2 * len(first) + 1:])
        capsys.readouterr()
        assert main(["search", "--index", str(index_path),
                     "--checkpoint", str(ckpt), "--query", "doc0tok0"]) == 1
        assert "index.ridx" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "build-index", "train",
                                         "evaluate"])
    def test_repeated_input_id_exit_1_and_nothing_written(
            self, tmp_path, capsys, command):
        # ingest wrote doc0's passages twice and evaluate read the
        # passages, both with exit 0; build-index and train exited 2 on
        # "duplicate id" from the index, naming no file or line.
        raw = tmp_path / "raw.jsonl"
        make_raw_corpus(raw, n_docs=2)
        raw.write_text(raw.read_text() + raw.read_text().splitlines()[0]
                       + "\n")
        passages = tmp_path / "passages.jsonl"
        passages.write_text('{"id": "doc0", "text": "x y"}\n'
                            '{"id": "doc1", "text": "y z"}\n'
                            '{"id": "doc0", "text": "z x"}\n')
        config = tmp_path / "train.cfg"
        config.write_text("steps=1\nk_retrieved=1\n")
        task = tmp_path / "tasks.jsonl"
        task.write_text(json.dumps({"question": "x y", "gold": 0,
                                    "options": ["x", "y", "z", "w"]}) + "\n")
        before = sorted(p.name for p in tmp_path.iterdir())
        args = {"ingest": ["--in", str(raw), "--out", str(tmp_path / "o")],
                "build-index": ["--passages", str(passages),
                                "--out", str(tmp_path / "index.ridx")],
                "train": ["--config", str(config), "--corpus", str(passages),
                          "--out", str(tmp_path / "run")],
                "evaluate": ["--task", str(task),
                             "--passages", str(passages)]}[command]
        assert main([command, *args]) == 1
        name = "raw.jsonl" if command == "ingest" else "passages.jsonl"
        assert (f"{name}, line 3: duplicate id 'doc0'"
                in capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_manifest_records_index_version(self, workspace):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        run_build(tmp_path, passages)
        manifest = json.loads(
            (tmp_path / "index.ridx.manifest.json").read_text())
        assert manifest["command"] == "build-index"
        assert manifest["index_version"] == 1

    def test_manifest_records_given_checkpoint_and_its_hash(self, workspace):
        # The manifest kept --passages' hash alone, so the encoder the
        # index was built with went unrecorded.
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        _, ckpt = run_build(tmp_path, passages)
        out = tmp_path / "again.ridx"
        assert main(["build-index", "--passages", str(passages),
                     "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["checkpoint"] == str(ckpt)
        assert manifest["input_hashes"] == {
            "checkpoint": hashlib.sha256(ckpt.read_bytes()).hexdigest(),
            "passages": hashlib.sha256(passages.read_bytes()).hexdigest()}

    def test_dim_with_checkpoint_exit_2_and_nothing_written(self, workspace,
                                                            capsys):
        # --dim was ignored, yet the manifest recorded it as the width.
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        _, ckpt = run_build(tmp_path, passages)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main(["build-index", "--passages", str(passages),
                     "--checkpoint", str(ckpt), "--out",
                     str(tmp_path / "again.ridx"), "--dim", "16"]) == 2
        assert "--dim" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["build-index", "train"])
    def test_dim_not_given_is_null_and_64_wide(self, workspace, command):
        # The manifest recorded the default 64 as if it had been given.
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        out = tmp_path / "out"
        if command == "build-index":
            argv = ["--passages", str(passages)]
            manifest, ckpt = (Path(f"{out}.manifest.json"),
                              out.with_suffix(".rlab"))
        else:
            cfg = tmp_path / "train.cfg"
            cfg.write_text("steps = 1\nk_retrieved = 2\n")
            argv = ["--config", str(cfg), "--corpus", str(passages)]
            manifest, ckpt = out / "manifest.json", out / "encoder.rlab"
        assert main([command, *argv, "--out", str(out)]) == 0
        assert json.loads(manifest.read_text())["config"]["dim"] is None
        assert load_checkpoint(ckpt).dim == 64

    def test_commands_in_one_directory_keep_their_own_manifests(
            self, workspace):
        # Each file command names its manifest after its artifact, so the
        # README's ingest, build-index, compress-index sequence in one
        # directory leaves three manifests, not the last one alone.
        tmp_path, raw = workspace
        index_path, _ = run_build(tmp_path, run_ingest(tmp_path, raw))
        assert main(["compress-index", "--index", str(index_path),
                     "--out", str(tmp_path / "index.rpqx"), "--m", "4",
                     "--kc", "4"]) == 0
        commands = {path.name: json.loads(path.read_text())["command"]
                    for path in tmp_path.glob("*manifest.json")}
        assert commands == {"passages.jsonl.manifest.json": "ingest",
                            "index.ridx.manifest.json": "build-index",
                            "index.rpqx.manifest.json": "compress-index"}


class TestOutputOverInput:
    """A command whose output would replace one of its inputs exits 2
    before it reads or writes anything; each case exited 0."""

    def listing(self, tmp_path):
        return {p.relative_to(tmp_path): p.is_dir() or p.read_bytes()
                for p in tmp_path.rglob("*")}

    def test_ingest_out_is_its_input(self, workspace, capsys):
        # The raw documents were replaced with passages.
        tmp_path, raw = workspace
        before = self.listing(tmp_path)
        assert main(["ingest", "--in", str(raw), "--out",
                     str(tmp_path / "." / "raw.jsonl")]) == 2
        assert "is also an input" in capsys.readouterr().err
        assert self.listing(tmp_path) == before

    def test_compress_index_out_is_its_index(self, workspace, capsys):
        # The RIDX file was replaced with an RPQX one.
        tmp_path, raw = workspace
        index_path, _ = run_build(tmp_path, run_ingest(tmp_path, raw))
        before = self.listing(tmp_path)
        assert main(["compress-index", "--index", str(index_path),
                     "--out", str(index_path), "--m", "2", "--kc", "2"]) == 2
        assert "is also an input" in capsys.readouterr().err
        assert self.listing(tmp_path) == before

    def test_build_index_out_is_its_checkpoint(self, workspace, capsys):
        # The checkpoint was replaced with an RIDX file.
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        _, ckpt = run_build(tmp_path, passages)
        before = self.listing(tmp_path)
        assert main(["build-index", "--passages", str(passages),
                     "--checkpoint", str(ckpt), "--out", str(ckpt)]) == 2
        assert "is also an input" in capsys.readouterr().err
        assert self.listing(tmp_path) == before

    def test_build_index_out_is_its_fresh_checkpoint(self, workspace, capsys):
        # The fresh checkpoint was written over the index, and searching
        # the index then failed with "bad index magic".
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        before = self.listing(tmp_path)
        assert main(["build-index", "--passages", str(passages),
                     "--out", str(tmp_path / "c.rlab")]) == 2
        assert "c.rlab is also another output" in capsys.readouterr().err
        assert self.listing(tmp_path) == before

    def test_build_index_fresh_checkpoint_is_its_passages(self, tmp_path,
                                                          capsys):
        passages = tmp_path / "x.rlab"
        passages.write_text("{not json\n")
        before = self.listing(tmp_path)
        assert main(["build-index", "--passages", str(passages),
                     "--out", str(tmp_path / "x.ridx")]) == 2
        assert (capsys.readouterr().err
                == f"error: {passages} is also an input\n")
        assert self.listing(tmp_path) == before

    def test_ingest_manifest_is_its_input(self, tmp_path, capsys):
        # The manifest was written over the documents, with exit 0; here
        # the documents are malformed, so reading them failed first.
        raw = tmp_path / "docs.manifest.json"
        raw.write_text("{not json\n")
        before = self.listing(tmp_path)
        assert main(["ingest", "--in", str(raw),
                     "--out", str(tmp_path / "docs")]) == 2
        assert capsys.readouterr().err == f"error: {raw} is also an input\n"
        assert self.listing(tmp_path) == before

    def test_train_corpus_is_its_metrics(self, tmp_path, capsys):
        # The run trained on the corpus and then wrote its metrics over
        # it, with exit 0; here the corpus is malformed, so reading it
        # failed first.
        run = tmp_path / "run"
        run.mkdir()
        corpus = run / "metrics.csv"
        corpus.write_text("{not json\n")
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 1\n")
        before = self.listing(tmp_path)
        assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                     "--out", str(run)]) == 2
        assert capsys.readouterr().err == f"error: {corpus} is also an input\n"
        assert self.listing(tmp_path) == before

    def test_train_out_is_its_corpus(self, workspace, capsys):
        # --out is checked as well as the four files written below it.
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 1\n")
        before = self.listing(tmp_path)
        assert main(["train", "--config", str(cfg), "--corpus", str(passages),
                     "--out", str(passages)]) == 2
        assert "is also an input" in capsys.readouterr().err
        assert self.listing(tmp_path) == before


class TestCompress:
    def test_compress_roundtrip(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        index_path, _ = run_build(tmp_path, passages)
        out = tmp_path / "index.rpqx"
        assert main(["compress-index", "--index", str(index_path),
                     "--out", str(out), "--m", "4", "--kc", "4",
                     "--iterations", "5"]) == 0
        assert out.exists()
        assert "x)" in capsys.readouterr().out

    def compress(self, tmp_path, index_path, kc, m=4, iterations=5):
        assert main(["compress-index", "--index", str(index_path),
                     "--out", str(tmp_path / "index.rpqx"), "--m", str(m),
                     "--kc", str(kc), "--iterations", str(iterations),
                     "--seed", "3"]) == 0
        manifest = json.loads(
            (tmp_path / "index.rpqx.manifest.json").read_text())
        assert manifest["command"] == "compress-index"
        return manifest["metrics"]

    @pytest.mark.parametrize("m, kc", [(0, 4), (4, 0), (4, -1)])
    def test_bad_m_or_kc_exit_2_and_nothing_written(self, workspace, capsys,
                                                    m, kc):
        tmp_path, raw = workspace
        index_path, _ = run_build(tmp_path, run_ingest(tmp_path, raw))
        out = tmp_path / "index.rpqx"
        capsys.readouterr()
        assert main(["compress-index", "--index", str(index_path),
                     "--out", str(out), "--m", str(m), "--kc", str(kc)]) == 2
        assert ("m=" if m < 1 else "k_c=") in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_error_equals_objective_per_vector(self, workspace):
        tmp_path, raw = workspace
        index_path, _ = run_build(tmp_path, run_ingest(tmp_path, raw))
        metrics = self.compress(tmp_path, index_path, kc=4)
        idx = load_index(index_path)
        codec = train_pq(idx, m=4, k_c=4, iterations=5, seed=3)
        assert (metrics["reconstruction_mse"]
                == squared_error(idx, compress(idx, codec)) / idx.size)
        assert metrics["reconstruction_mse"] > 0
        assert 0 <= metrics["recall_at_10"] <= 1

    def test_manifest_codebook_per_vector_is_exact(self, workspace):
        # k_c = N on distinct vectors: every vector is its own centroid.
        tmp_path, raw = workspace
        index_path, _ = run_build(tmp_path, run_ingest(tmp_path, raw))
        n = load_index(index_path).size
        assert n >= 10
        metrics = self.compress(tmp_path, index_path, kc=n)
        assert metrics == {"reconstruction_mse": 0.0, "recall_at_10": 1.0}


class TestTrain:
    def test_train_writes_artifacts(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 3\nbatch_size = 2\nk_retrieved = 4\n"
                       "learning_rate = 0.1\nwarmup_steps = 1\n"
                       "loss = pdist\nmode = query_side\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg),
                     "--corpus", str(passages), "--out", str(out_dir),
                     "--dim", "16"]) == 0
        assert (out_dir / "metrics.csv").exists()
        assert (out_dir / "encoder.rlab").exists()
        assert (out_dir / "index.ridx").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["steps"] == 3
        assert manifest["config"]["loss"] == "pdist"

    def test_manifest_records_every_argument(self, tmp_path):
        # --dim and --task were left out, so the manifest did not say
        # which encoder width or pretext task the run used.
        passages = tmp_path / "passages.jsonl"
        write_passages([Passage(id=f"p{i}", doc_id="d", text=tuple(
            f"w{i}x{j}" for j in range(12))) for i in range(4)], passages)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 1\nbatch_size = 1\nk_retrieved = 2\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--corpus", str(passages),
                     "--out", str(out_dir), "--dim", "4",
                     "--task", "mlm"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert {k: manifest["config"][k] for k in
                ("config", "corpus", "out", "dim", "task")} == {
            "config": str(cfg), "corpus": str(passages),
            "out": str(out_dir), "dim": 4, "task": "mlm"}
        assert set(manifest["input_hashes"]) == {"config", "corpus"}

    @pytest.mark.parametrize("loss", list(LossKind))
    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_manifest_round_trips_the_train_config(self, tmp_path, mode,
                                                   loss):
        # Floats that need 17 significant digits come back exactly.
        passages = tmp_path / "passages.jsonl"
        write_passages([Passage(id=f"p{i}", doc_id="d", text=tuple(
            f"w{i}x{j}" for j in range(12))) for i in range(5)], passages)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"mode = {mode.value}\nloss = {loss.value}\n"
                       "k_retrieved = 2\nl_rerank_pool = 3\nsteps = 1\n"
                       "batch_size = 1\nrefresh_interval = 1\n"
                       "temperature = 0.30000000000000004\n"
                       "temperature_target = 1.0000000000000002\n"
                       "learning_rate = 0.012345678901234568\nseed = 3\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--corpus", str(passages),
                     "--out", str(out_dir), "--dim", "4"]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        expected = _read_config(cfg, TrainConfig)
        assert expected.temperature == 0.1 + 0.2
        assert round_trip(manifest, TrainConfig, tmp_path) == expected

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_line_order_does_not_matter(self, tmp_path, mode):
        # The index, the trainer's passages, their interned texts and the
        # examples are in id order whatever the order of the lines. Every
        # passage is long enough for an example of either task; the
        # examples followed the lines, and the seeded draws then picked
        # other passages when the lines were reversed.
        passages = [Passage(id=f"p{i:02d}", doc_id="d", text=tuple(
            f"w{i * j % 13}" for j in range(10 + i % 7))) for i in range(12)]
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"mode = {mode.value}\nk_retrieved = 3\n"
                       "l_rerank_pool = 5\nrefresh_interval = 2\nsteps = 3\n"
                       "batch_size = 2\nlearning_rate = 0.5\n")
        for task in ("prefix_lm", "mlm"):
            outputs = []
            for order, lines in (("ascending", passages),
                                 ("reversed", passages[::-1])):
                corpus = tmp_path / f"{order}.jsonl"
                write_passages(lines, corpus)
                out = tmp_path / task / order
                assert main(["train", "--config", str(cfg), "--corpus",
                             str(corpus), "--out", str(out), "--dim", "4",
                             "--task", task]) == 0
                outputs.append([(out / name).read_bytes() for name in (
                    "encoder.rlab", "index.ridx", "metrics.csv")])
            assert outputs[0] == outputs[1], task
        distinct = {t for p in passages for t in p.text}
        vocab = load_checkpoint(out / "encoder.rlab").vocab
        assert vocab.tokens == ["<unk>", *sorted(distinct | {"<mask>"})]

    @pytest.mark.parametrize("task", ["prefix_lm", "mlm"])
    def test_lazy_examples_equal_eager_ones(self, task):
        # Passages of 1 to 13 tokens, so some are too short for either
        # task. The eager reference is the loop that built every example up
        # front, drawing an MLM seed per passage of at least 10 tokens and
        # collapsing each sentinel to the retriever's mask token.
        passages = [Passage(id=f"p{i:02d}", doc_id="d",
                            text=tuple(f"w{j}" for j in range(1 + i % 13)))
                    for i in range(40)]
        rng = np.random.default_rng(5)
        eager = []
        for p in passages:
            if len(p.text) < 2:
                continue
            if task == "prefix_lm":
                ex = prefix_lm_example(p.text, origin_id=p.id)
            else:
                if len(p.text) < 10:
                    continue
                ex = mlm_example(p.text, seed=int(rng.integers(2 ** 31)),
                                 origin_id=p.id)
            query = tuple("<mask>" if t.startswith("[MASK_") else t
                          for t in ex.query)
            eager.append(TrainExample(query=query, output=ex.output,
                                      origin_passage_id=p.id))
        lazy = TaskExamples(passages, task, seed=5)
        assert len(lazy) == len(eager)
        # Read out of order and twice: an example does not depend on which
        # were read before it.
        for i in [*range(len(eager) - 1, -1, -1), *range(len(eager))]:
            assert lazy[i] == eager[i]

    def test_bad_config_key_names_offender(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("stepz = 3\n")
        assert main(["train", "--config", str(cfg),
                     "--corpus", str(passages),
                     "--out", str(tmp_path / "run")]) == 2
        assert "stepz" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["steps = 0", "k_retrieved = -3"])
    def test_no_steps_or_negative_k_exit_2_and_nothing_written(
            self, workspace, capsys, line):
        # steps = 0 wrote the artifacts, then failed on an empty history.
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(line + "\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(passages), "--out", str(out_dir)]) == 2
        assert line.split()[0] in capsys.readouterr().err
        assert not out_dir.exists()

    def test_invalid_combination_exit_2(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        cfg = tmp_path / "train.cfg"
        cfg.write_text("mode = rerank\nk_retrieved = 50\nl_rerank_pool = 10\n")
        assert main(["train", "--config", str(cfg),
                     "--corpus", str(passages),
                     "--out", str(tmp_path / "run")]) == 2
        # A check across lines names the file alone.
        assert (f"{cfg}: rerank pool L must be >= K"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_loop_loss_with_one_document_exit_2_before_reading(
            self, tmp_path, capsys, mode):
        # Was accepted; the run read the corpus and built the index before
        # its first step died. The corpus path here does not exist, so a
        # config check made after reading it would exit 1.
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"loss = loop\nk_retrieved = 1\n"
                       f"mode = {mode.value}\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(tmp_path / "missing.jsonl"),
                     "--out", str(out_dir)]) == 2
        assert "k_retrieved" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_loop_loss_on_two_passages_exit_2_before_training(
            self, tmp_path, capsys, mode):
        # Each example's origin is one of the two passages, leaving one
        # document to leave out; the run died inside step 1.
        passages = tmp_path / "passages.jsonl"
        write_passages([Passage(id=f"p{i}", doc_id="d", text=tuple(
            f"w{i}x{j}" for j in range(12))) for i in range(2)], passages)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"loss = loop\nk_retrieved = 3\nl_rerank_pool = 3\n"
                       f"mode = {mode.value}\nsteps = 2\nbatch_size = 1\n")
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(passages), "--out", str(out_dir), "--dim", "4"]) == 2
        assert "2 selectable passages" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_config_file_sets_every_field(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# every field, off its default\n"
                       "k_retrieved = 3\nl_rerank_pool = 7\n"
                       "refresh_interval = 2\nbatch_size = 4\n"
                       "temperature = 0.5\ntemperature_target = 2\n"
                       "loss = emdr2\nmode = rerank\nsteps = 9\n"
                       "learning_rate = 1e-3\nwarmup_steps = 0\nseed = 11\n")
        assert _read_config(cfg, TrainConfig) == TrainConfig(
            k_retrieved=3, l_rerank_pool=7, refresh_interval=2, batch_size=4,
            temperature=0.5, temperature_target=2.0, loss=LossKind.EMDR2,
            mode=MaintenanceMode.RERANK, steps=9, learning_rate=1e-3,
            warmup_steps=0, seed=11)

    @pytest.mark.parametrize("line, message", [
        ("stepz = 3", "unknown key 'stepz'"),
        ("steps 3", "malformed line 'steps 3'"),
        ("steps = three", "steps: invalid literal for int()"),
        ("loss = bogus", "loss: 'bogus' is not a valid LossKind"),
        ("temperature = 0", "temperature: temperature must be finite"),
        ("seed = -1", "seed: seed must be >= 0"),
    ])
    def test_config_error_names_file_line_and_key(self, tmp_path, capsys,
                                                  line, message):
        # The corpus does not exist: the config is refused before it is
        # read.
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"# a comment = 1\nsteps = 2\n\n{line}\n")
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"train.cfg, line 4: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["train.cfg"]

    def test_repeated_config_key_exit_2_before_reading(self, tmp_path,
                                                       capsys):
        # steps = 2 then steps = 3 trained 3 steps with exit 0. The corpus
        # does not exist, so a refusal made after reading it would exit 1.
        cfg = tmp_path / "train.cfg"
        cfg.write_text("steps = 2\nbatch_size = 1\nsteps = 3\n")
        assert main(["train", "--config", str(cfg), "--corpus",
                     str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "run")]) == 2
        assert ("train.cfg, lines 1 and 3: repeated key 'steps'"
                in capsys.readouterr().err)
        assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]

    def test_out_is_a_file_exit_1_before_reading_the_corpus(self, tmp_path,
                                                            capsys):
        # The run read the corpus, built the index and trained every step
        # before making --out failed; here the malformed corpus was the
        # error it reported.
        cfg, corpus = tmp_path / "train.cfg", tmp_path / "passages.jsonl"
        cfg.write_text("steps = 1\n")
        corpus.write_text("{not json\n")
        out = tmp_path / "afile"
        out.write_text("kept\n")
        assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                     "--out", str(out)]) == 1
        assert f"--out {out}" in capsys.readouterr().err
        assert out.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "afile", "passages.jsonl", "train.cfg"]

    def test_empty_out_exit_1_and_nothing_written(self, tmp_path,
                                                  monkeypatch, capsys):
        # An empty --out named the working directory: the run trained and
        # wrote its four files there, with exit 0.
        monkeypatch.chdir(tmp_path)
        Path("train.cfg").write_text("steps = 1\n")
        Path("passages.jsonl").write_text('{"id": "a", "text": "x y z"}\n'
                                          '{"id": "b", "text": "y z w"}\n')
        assert main(["train", "--config", "train.cfg", "--corpus",
                     "passages.jsonl", "--out", ""]) == 1
        assert (capsys.readouterr().err
                == "error: [Errno 2] No such file or directory: ''\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "passages.jsonl", "train.cfg"]

    @pytest.mark.parametrize("below", ["run", "deeper/run"])
    def test_out_below_a_file_exit_1_before_reading_the_corpus(
            self, tmp_path, capsys, below):
        # The run trained every step, then failed to make --out with
        # "[Errno 20] Not a directory"; here the malformed corpus was the
        # error it reported.
        cfg, corpus = tmp_path / "train.cfg", tmp_path / "passages.jsonl"
        cfg.write_text("steps = 1\n")
        corpus.write_text("{not json\n")
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / below
        assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                     "--out", str(out)]) == 1
        assert (capsys.readouterr().err
                == f"error: --out {out}: {afile} is not a directory\n")
        assert afile.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "afile", "passages.jsonl", "train.cfg"]

    def test_manifest_is_a_directory_exit_1_before_reading_the_corpus(
            self, tmp_path, capsys):
        # The run trained every step and wrote its other three files
        # before the manifest failed; here the malformed corpus was the
        # error it reported.
        cfg, corpus = tmp_path / "train.cfg", tmp_path / "passages.jsonl"
        cfg.write_text("steps = 1\n")
        corpus.write_text("{not json\n")
        manifest = tmp_path / "run" / "manifest.json"
        manifest.mkdir(parents=True)
        assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                     "--out", str(manifest.parent)]) == 1
        assert (capsys.readouterr().err
                == f"error: [Errno 21] Is a directory: '{manifest}'\n")
        assert [p.name for p in manifest.parent.iterdir()] == ["manifest.json"]
        assert not any(manifest.iterdir())

    @pytest.mark.parametrize("task", ["prefix_lm", "mlm"])
    def test_corpus_with_no_example_exit_2_and_nothing_written(
            self, tmp_path, capsys, task):
        # A one-word passage is too short for either task, and
        # trainer.train refuses an empty example sequence before step 1.
        cfg, corpus = tmp_path / "train.cfg", tmp_path / "passages.jsonl"
        cfg.write_text("steps = 1\n")
        corpus.write_text('{"id": "a", "text": "alpha"}\n'
                          '{"id": "b", "text": "beta"}\n')
        assert main(["train", "--config", str(cfg), "--corpus", str(corpus),
                     "--out", str(tmp_path / "run"), "--task", task]) == 2
        assert "examples" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "passages.jsonl", "train.cfg"]

    @pytest.mark.parametrize("line", ["steps = 3.5", "temperature = warm",
                                      "loss = bogus", "mode = bogus"])
    def test_mistyped_config_value_exit_2(self, workspace, line):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        cfg = tmp_path / "train.cfg"
        cfg.write_text(line + "\n")
        assert main(["train", "--config", str(cfg),
                     "--corpus", str(passages),
                     "--out", str(tmp_path / "run")]) == 2


class TestEvaluate:
    def test_leakage_audit_counts_flagged_questions(self, workspace, capsys):
        # Questions copied from a passage are flagged; an unrelated one is
        # not.
        tmp_path, raw = workspace
        passages_path = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages_path)
        copied = " ".join(read_passages(passages_path)[2].text[:8])
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text("".join(
            json.dumps({"question": q, "options": ["a", "b", "c", "d"],
                        "gold": 0}) + "\n"
            for q in (copied, "unrelated words", copied)))
        capsys.readouterr()
        assert main(["evaluate", "--task", str(task_file),
                     "--passages", str(passages_path),
                     "--index", str(index_path), "--checkpoint", str(ckpt),
                     "--audit-leakage"]) == 0
        assert "leakage-flagged questions: 2" in capsys.readouterr().out

    def test_choice_accuracy(self, tmp_path, capsys):
        task_file = tmp_path / "tasks.jsonl"
        with open(task_file, "w") as fh:
            fh.write(json.dumps({"question": "pick gamma",
                                 "options": ["alpha", "beta", "gamma",
                                             "delta"],
                                 "gold": 2}) + "\n")
        assert main(["evaluate", "--task", str(task_file),
                     "--mode", "cyclic4"]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert "mode=cyclic4" in out

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_no_task_exit_2_before_reading_passages(self, tmp_path, capsys,
                                                    text):
        # Printed "accuracy: 0.0000 (0/0, mode=standard)" with exit 0. The
        # passages, index and checkpoint do not exist: none is read.
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text(text)
        absent = [str(tmp_path / name) for name in ("p.jsonl", "i", "c")]
        assert main(["evaluate", "--task", str(task_file),
                     "--passages", absent[0], "--index", absent[1],
                     "--checkpoint", absent[2]]) == 2
        captured = capsys.readouterr()
        assert f"{task_file} holds no task" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("passages", ["absent", "subset"])
    def test_index_ids_missing_from_passages_exit_2(self, workspace, capsys,
                                                   passages):
        tmp_path, raw = workspace
        passages_path = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages_path)
        extra = []
        if passages == "subset":
            subset = tmp_path / "subset.jsonl"
            subset.write_text("".join(
                passages_path.read_text().splitlines(keepends=True)[:3]))
            extra = ["--passages", str(subset)]
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text(json.dumps({"question": "doc4tok1",
                                         "options": ["a", "b", "c", "d"],
                                         "gold": 0}) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--task", str(task_file),
                     "--index", str(index_path),
                     "--checkpoint", str(ckpt)] + extra) == 2
        assert "--passages" in capsys.readouterr().err

    @pytest.mark.parametrize("given,missing", [("--index", "--checkpoint"),
                                               ("--checkpoint", "--index")])
    def test_half_a_retriever_exit_2(self, workspace, capsys, given,
                                     missing):
        # An index without its checkpoint, or the reverse, is a usage
        # error, not a closed-book run.
        tmp_path, raw = workspace
        passages_path = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages_path)
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text(json.dumps({"question": "doc4tok1",
                                         "options": ["a", "b", "c", "d"],
                                         "gold": 0}) + "\n")
        path = index_path if given == "--index" else ckpt
        capsys.readouterr()
        assert main(["evaluate", "--task", str(task_file),
                     "--passages", str(passages_path),
                     given, str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{given} needs {missing}" in captured.err
        assert "accuracy" not in captured.out

    @pytest.mark.parametrize("bad_line", [
        '{"question": "q", "options": ["a", "b", "c", "d"]}',       # no gold
        '["q", ["a", "b", "c", "d"], 0]',                          # array
        '{"question": "q", "options": ["a", "b", "c", "d"], "go',  # cut line
        '{"question": "q", "options": ["a", "b", "c", "d"], "gold": 9}',
        '{"question": "   ", "options": ["a", "b", "c", "d"], "gold": 0}',
    ])
    def test_malformed_task_exit_1(self, tmp_path, capsys, bad_line):
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text(json.dumps({"question": "q",
                                         "options": ["a", "b", "c", "d"],
                                         "gold": 0}) + "\n" + bad_line)
        assert main(["evaluate", "--task", str(task_file)]) == 1
        assert "tasks.jsonl, line 2" in capsys.readouterr().err

    def test_question_with_no_word_exit_1_with_a_retriever(self, workspace,
                                                           capsys):
        # Closed-book, the tie went to gold 0 (exit 0); with a retriever,
        # the query encoder said "empty input" (exit 2).
        tmp_path, raw = workspace
        passages_path = run_ingest(tmp_path, raw)
        index_path, ckpt = run_build(tmp_path, passages_path)
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text(json.dumps({"question": " ",
                                         "options": ["a", "b", "c", "d"],
                                         "gold": 0}) + "\n")
        capsys.readouterr()
        assert main(["evaluate", "--task", str(task_file),
                     "--passages", str(passages_path),
                     "--index", str(index_path),
                     "--checkpoint", str(ckpt)]) == 1
        assert ("tasks.jsonl, line 1: question has no word"
                in capsys.readouterr().err)


class TestSwapIndex:
    def test_swap(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        idx_a, _ = run_build(tmp_path, passages)
        # The replacement comes from a later dump of the same passages.
        later = tmp_path / "later.jsonl"
        write_passages([replace(p, dump_date="2022-12-20")
                        for p in read_passages(passages)], later)
        idx_b = tmp_path / "b.ridx"
        assert main(["build-index", "--passages", str(later),
                     "--out", str(idx_b), "--dim", "16", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["swap-index", "--from", str(idx_a),
                     "--to", str(idx_b)]) == 0
        assert "swapped" in capsys.readouterr().out

    def test_same_dump_date_exit_2(self, workspace, capsys):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        idx_a, _ = run_build(tmp_path, passages)
        idx_b = tmp_path / "b.ridx"
        assert main(["build-index", "--passages", str(passages),
                     "--out", str(idx_b), "--dim", "16", "--seed", "1"]) == 0
        before = idx_a.read_bytes()
        assert main(["swap-index", "--from", str(idx_a),
                     "--to", str(idx_b)]) == 2
        assert "dump_date" in capsys.readouterr().err
        assert idx_a.read_bytes() == before

    def test_dim_mismatch_exit_2(self, workspace):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        idx_a, _ = run_build(tmp_path, passages)
        idx_b = tmp_path / "b.ridx"
        assert main(["build-index", "--passages", str(passages),
                     "--out", str(idx_b), "--dim", "8"]) == 0
        assert main(["swap-index", "--from", str(idx_a),
                     "--to", str(idx_b)]) == 2


class TestCostModel:
    def test_reference_values(self, capsys):
        assert main(["cost-model", "--n", "37000000", "--b", "64",
                     "--k", "20", "--r", "1000", "--l", "200",
                     "--ratio", "0.04"]) == 0
        out = capsys.readouterr().out
        assert "full-refresh overhead: 0.289 (~30%)" in out
        assert "rerank overhead: 0.100" in out

    @pytest.mark.parametrize("ratio", [[], ["--ratio", "1/25"],
                                       ["--ratio", "0.04"]])
    def test_ratio_is_an_exact_fraction(self, capsys, ratio):
        # P_retr / P_lm = 1/25 by default, in decimal or as a fraction.
        assert main(["cost-model", "--n", "37000000", "--b", "64",
                     "--k", "20", "--r", "1000", "--l", "200"] + ratio) == 0
        assert capsys.readouterr().out == (
            "full-refresh overhead: 0.289 (~30%)\n"
            "rerank overhead: 0.100\n")

    @pytest.mark.parametrize("n, out", [("10000", "0.250 (~30%)"),
                                        ("2000", "0.050 (~10%)")])
    def test_percentage_rounds_half_up(self, capsys, n, out):
        # Exactly 0.25 and 0.05 printed ~20% and ~0%: rounded half to even
        # through a float.
        assert main(["cost-model", "--n", n, "--b", "4", "--k", "20",
                     "--r", "5"]) == 0
        assert capsys.readouterr().out == f"full-refresh overhead: {out}\n"

    @pytest.mark.parametrize("ratio", ["abc", "1/0", "inf", "0", "-0.04"])
    def test_bad_ratio_exit_2(self, ratio):
        assert main(["cost-model", "--n", "10", "--b", "1", "--k", "1",
                     "--ratio", ratio]) == 2

    @pytest.mark.parametrize("l, out", [
        ("-1", ""), ("0", "full-refresh overhead: 0.100 (~10%)\n")],
        ids=["-1", "0"])
    def test_l_below_1(self, capsys, l, out):
        # --l -1 printed the full-refresh line, then failed on the rerank
        # overhead; --l 0 means no rerank line.
        assert main(["cost-model", "--n", "10", "--b", "1", "--k", "1",
                     "--l", l]) == (2 if out == "" else 0)
        got = capsys.readouterr()
        assert got.out == out
        assert ("l_reranked must be >= 0" in got.err) == (out == "")


COMMANDS = ["ingest", "build-index", "compress-index", "search", "train",
            "evaluate", "swap-index", "cost-model"]
SEARCH = ["search", "--index", "i.ridx", "--checkpoint", "c.rlab",
          "--query", "q"]
COST = ["cost-model", "--n", "100", "--b", "2", "--k", "3"]
# Help, version, typos, and missing, extra, unknown and mistyped options:
# each one is answered by argparse, at the top level or by a subcommand.
USAGE_CASES = [[command, "-h"] for command in COMMANDS] + [
    [], ["-h"], ["--help"], ["--version"], ["--vers"], ["-x"], ["serch"],
    ["SEARCH"], ["--"], ["--", "search"], ["-h", "search"],
    ["--version", "search"], ["search"], ["search", "--index", "i.ridx"],
    SEARCH + ["extra"], ["search", "--bogus"], ["search", "--version"],
    ["search", "-h", "extra"], SEARCH + ["--k", "zz"],
    ["search", "--ind", "i.ridx", "--check", "c.rlab", "--q", "q"],
    SEARCH, ["ingest", "--in"], ["ingest", "--in", "raw.jsonl", "--out", "p"],
    ["build-index", "--passages", "p", "--out", "o", "--precision", "f8"],
    ["compress-index", "--m", "x"], ["train", "--task", "bogus"],
    ["evaluate", "--task", "t", "--mode", "bogus"], ["swap-index", "--from"],
    COST, COST + ["--l", "-1"], COST + ["--ratio", "1/0"],
    ["cost-model", "--", "--n", "1"],
]


class TestUsage:
    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_version_exit_0(self):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize("argv", USAGE_CASES)
    def test_same_answer_as_the_full_parser(self, argv, tmp_path, capsys,
                                            monkeypatch):
        # main builds only the subcommand argv[0] names; every exit code
        # and output byte equals that of the parser with all of them.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")
        got = main(argv), *capsys.readouterr()
        full = build_parser()
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
        assert (main(argv), *capsys.readouterr()) == got
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_a_command_builds_one_subparser(self, command, monkeypatch,
                                            capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        assert main([command, "--help"]) == 0
        assert built == ["rlab", f"rlab {command}"]
        assert capsys.readouterr().out.startswith(f"usage: rlab {command}")

    def test_dispatch_finds_a_replaced_handler(self, monkeypatch):
        # bench/tracing.py wraps cli.cmd_* by replacing module attributes.
        calls = []
        monkeypatch.setattr(cli, "cmd_search",
                            lambda args: calls.append(args) or 7)
        assert main(SEARCH) == 7
        assert [(a.command, a.index, a.k) for a in calls] == [
            ("search", "i.ridx", 5)]


def _integer_flags():
    """(subcommand, option) for every integer option of the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items()
            for action in parser._actions if action.type is int]


INT_CONFIG_KEYS = [f.name for f in fields(TrainConfig)
                   if type(f.default) is int]
FLOAT_CONFIG_KEYS = [f.name for f in fields(TrainConfig)
                     if type(f.default) is float]


class TestIntegerEdges:
    """Every integer option and numeric train-config key at 0 and -1 is
    either accepted or a usage error: exit 0 or 2, never a traceback."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("inputs")
        raw = root / "raw.jsonl"
        make_raw_corpus(raw, n_docs=3, words_per_section=60)
        passages = run_ingest(root, raw)
        index, checkpoint = run_build(root, passages)
        tasks = root / "tasks.jsonl"
        tasks.write_text(json.dumps({"question": "doc0tok1 doc0tok2",
                                     "options": ["a", "b", "c", "d"],
                                     "gold": 0}) + "\n")
        return {"raw": raw, "passages": passages, "index": index,
                "checkpoint": checkpoint, "tasks": tasks}

    @staticmethod
    def base_args(command, inputs, out):
        return [str(a) for a in {
            "ingest": ["--in", inputs["raw"], "--out", out / "p.jsonl"],
            "build-index": ["--passages", inputs["passages"],
                            "--out", out / "i.ridx", "--dim", "4"],
            "compress-index": ["--index", inputs["index"], "--out",
                               out / "i.rpqx", "--m", "4", "--kc", "2",
                               "--iterations", "2"],
            "search": ["--index", inputs["index"], "--checkpoint",
                       inputs["checkpoint"], "--query", "doc0tok0"],
            "train": ["--config", out / "train.cfg", "--corpus",
                      inputs["passages"], "--out", out / "run",
                      "--dim", "4"],
            "evaluate": ["--task", inputs["tasks"], "--passages",
                         inputs["passages"], "--index", inputs["index"],
                         "--checkpoint", inputs["checkpoint"]],
            "cost-model": ["--n", 100, "--b", 2, "--k", 3, "--l", 4],
        }[command]]

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("command, option, mode", [
        (command, option, None) for command, option in _integer_flags()] + [
        ("train", key, mode.value)
        for key in INT_CONFIG_KEYS + FLOAT_CONFIG_KEYS
        for mode in MaintenanceMode])
    def test_exit_0_or_2(self, inputs, tmp_path, capsys, command, option,
                         mode, value):
        config = "steps = 2\nbatch_size = 2\nk_retrieved = 2\n"
        args = self.base_args(command, inputs, tmp_path)
        if mode is None:
            args += [option, str(value)]
        else:  # a train-config key, under one maintenance mode
            config += f"mode = {mode}\n{option} = {value}\n"
        (tmp_path / "train.cfg").write_text(config)
        assert main([command, *args]) in (0, 2)
        capsys.readouterr()

    @pytest.mark.parametrize("command, option, mode, value", [
        ("compress-index", "--iterations", None, -1)] + [
        ("train", key, mode.value, value)
        for key, values in [("warmup_steps", [-1]),
                            ("refresh_interval", [0, -1]),
                            ("l_rerank_pool", [0, -1]),
                            ("temperature", ["nan", "inf", 0, -1]),
                            ("temperature_target", ["nan", "inf", 0, -1]),
                            ("learning_rate", ["nan", "inf"])]
        for value in values for mode in MaintenanceMode])
    def test_bad_count_exit_2_and_nothing_written(self, inputs, tmp_path,
                                                  capsys, command, option,
                                                  mode, value):
        # Each count exited 0: -1 iterations or warmup steps ran as none,
        # and the train keys were not checked where the mode ignores them.
        # A NaN or infinite float trained on NaN, wrote metrics.csv, then
        # exited 2 at save_checkpoint.
        config = "steps = 2\nbatch_size = 2\nk_retrieved = 2\n"
        args = self.base_args(command, inputs, tmp_path)
        if mode is None:
            args += [option, str(value)]
        else:
            config += f"mode = {mode}\n{option} = {value}\n"
        (tmp_path / "train.cfg").write_text(config)
        capsys.readouterr()
        assert main([command, *args]) == 2
        assert option.lstrip("-") in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["train.cfg"]

    @pytest.mark.parametrize("command", ["build-index", "train"])
    def test_dim_0_exit_2(self, inputs, tmp_path, capsys, command):
        (tmp_path / "train.cfg").write_text("steps = 1\n")
        args = self.base_args(command, inputs, tmp_path)
        capsys.readouterr()
        assert main([command, *args, "--dim", "0"]) == 2
        assert "dim must be >= 1" in capsys.readouterr().err
