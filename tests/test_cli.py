import argparse
import json
from dataclasses import fields, replace

import pytest

from rlab.cli import _parse_train_config, build_parser, main
from rlab.corpus import read_passages, write_passages
from rlab.index import load_index
from rlab.pq import compress, squared_error, train_pq
from rlab.trainer import LossKind, MaintenanceMode, TrainConfig


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
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "ingest"
        assert manifest["config"]["max_words"] == 40
        assert len(manifest["input_hashes"]["in"]) == 64
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

    def test_unknown_filter_key_exit_2(self, workspace):
        tmp_path, raw = workspace
        bad = tmp_path / "filter.json"
        bad.write_text('{"no_such_knob": 1}')
        assert main(["ingest", "--in", str(raw),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--filter-config", str(bad)]) == 2

    @pytest.mark.parametrize("config, key", [
        ('{"min_doc_length": "x"}', "min_doc_length"),
        ('{"min_alnum_ratio": null}', "min_alnum_ratio"),
        ('{"max_mean_word_length": true}', "max_mean_word_length"),
        ('[["min_doc_length", 5]]', "object"),
        ('5', "object"),
    ])
    def test_mistyped_filter_config_exit_2(self, workspace, capsys, config,
                                           key):
        tmp_path, raw = workspace
        bad = tmp_path / "filter.json"
        bad.write_text(config)
        assert main(["ingest", "--in", str(raw),
                     "--out", str(tmp_path / "o.jsonl"),
                     "--filter-config", str(bad)]) == 2
        assert key in capsys.readouterr().err


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
    def test_empty_passage_text_exit_1(self, tmp_path, capsys, command):
        passages = tmp_path / "passages.jsonl"
        passages.write_text('{"id": "a", "text": "x y"}\n'
                            '{"id": "b", "text": "  "}\n')
        config = tmp_path / "train.cfg"
        config.write_text("steps=1\n")
        args = {"build-index": ["--passages", str(passages),
                                "--out", str(tmp_path / "index.ridx")],
                "train": ["--config", str(config), "--corpus", str(passages),
                          "--out", str(tmp_path / "run")]}[command]
        assert main([command, *args]) == 1
        assert "passages.jsonl, line 2: empty text" in capsys.readouterr().err

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

    def test_manifest_records_index_version(self, workspace):
        tmp_path, raw = workspace
        passages = run_ingest(tmp_path, raw)
        run_build(tmp_path, passages)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "build-index"
        assert manifest["index_version"] == 1


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
        manifest = json.loads((tmp_path / "manifest.json").read_text())
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


    def test_config_file_sets_every_field(self, tmp_path):
        cfg = tmp_path / "train.cfg"
        cfg.write_text("# every field, off its default\n"
                       "k_retrieved = 3\nl_rerank_pool = 7\n"
                       "refresh_interval = 2\nbatch_size = 4\n"
                       "temperature = 0.5\ntemperature_target = 2\n"
                       "loss = emdr2\nmode = rerank\nsteps = 9\n"
                       "learning_rate = 1e-3\nwarmup_steps = 0\nseed = 11\n")
        assert _parse_train_config(cfg) == TrainConfig(
            k_retrieved=3, l_rerank_pool=7, refresh_interval=2, batch_size=4,
            temperature=0.5, temperature_target=2.0, loss=LossKind.EMDR2,
            mode=MaintenanceMode.RERANK, steps=9, learning_rate=1e-3,
            warmup_steps=0, seed=11)

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
    ])
    def test_malformed_task_exit_1(self, tmp_path, capsys, bad_line):
        task_file = tmp_path / "tasks.jsonl"
        task_file.write_text(json.dumps({"question": "q",
                                         "options": ["a", "b", "c", "d"],
                                         "gold": 0}) + "\n" + bad_line)
        assert main(["evaluate", "--task", str(task_file)]) == 1
        assert "tasks.jsonl, line 2" in capsys.readouterr().err


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

    @pytest.mark.parametrize("ratio", ["abc", "1/0", "inf", "0", "-0.04"])
    def test_bad_ratio_exit_2(self, ratio):
        assert main(["cost-model", "--n", "10", "--b", "1", "--k", "1",
                     "--ratio", ratio]) == 2


class TestUsage:
    def test_no_command_exit_2(self):
        assert main([]) == 2

    def test_version_exit_0(self):
        assert main(["--version"]) == 0


def _integer_flags():
    """(subcommand, option) for every integer option of the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items()
            for action in parser._actions if action.type is int]


INT_CONFIG_KEYS = [f.name for f in fields(TrainConfig)
                   if type(f.default) is int]


class TestIntegerEdges:
    """Every integer option and integer train-config key at 0 and -1 is
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
        for key in INT_CONFIG_KEYS for mode in MaintenanceMode])
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
                            ("l_rerank_pool", [0, -1])]
        for value in values for mode in MaintenanceMode])
    def test_bad_count_exit_2_and_nothing_written(self, inputs, tmp_path,
                                                  capsys, command, option,
                                                  mode, value):
        # Each exited 0: -1 iterations or warmup steps ran as none, and
        # the train keys were not checked where the mode ignores them.
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
