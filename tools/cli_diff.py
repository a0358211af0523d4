"""Hash everything the `rlab` commands write on a small corpus, to check
that a change keeps the CLI's bytes.

    python tools/cli_diff.py SRC_DIR

imports `rlab` from SRC_DIR, generates a corpus of raw documents (60 wiki
documents of two sections, one infobox and one too short for the quality
filter) and 12 multiple-choice tasks, a third of whose questions are
copied from a document, and runs `rlab.cli.main` in a temporary
directory:
- `ingest`;
- `build-index` in float32, and in float16 with `--shards 2`;
- `compress-index` of the float32 index;
- 20 searches, half on each index;
- `train` in every maintenance mode with both tasks (pdist for prefix_lm,
  emdr2 for mlm), once in rerank with loss loop and once in query_side
  with loss adist, so each of the four objectives runs;
- `evaluate --mode cyclic4 --audit-leakage` on a trained index, and
  `evaluate` with `--passages` alone;
- `build-index --checkpoint` with a trained `encoder.rlab` (an index
  refresh after retriever training);
- `swap-index` from an index of a later dump (the first ten documents
  ingested again under another `dump_date`) to the refreshed one, and a
  swap refused because both indexes share a `dump_date`;
- `cost-model` with and without `--l`;
- ten refusals: a train config that sets a key twice, `build-index`
  given both `--checkpoint` and `--dim`, `train --out` naming an existing
  file or a path below one, or empty, `ingest --out` in a missing directory,
  `build-index --out` naming a directory, `build-index` whose fresh
  checkpoint `<out>.rlab` is a directory, `ingest` whose manifest would
  be its own input, and `train` whose `manifest.json` is a directory.

It prints the sha256 of every file the commands wrote and of each
command's exit code, stdout and stderr, one per line, then the sha256 of
all of them. Manifests are hashed without their `timings_s`.

Run it on two trees (one unpacked with `git archive REV | tar -x -C DIR`)
under the same OPENBLAS_NUM_THREADS: equal totals mean the same bytes.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import string
import sys
import tempfile
from pathlib import Path

import numpy as np

MODES = ["fixed", "query_side", "rerank", "full_refresh"]
TASK_LOSSES = [("prefix_lm", "pdist"), ("mlm", "emdr2")]
TRAIN_CONFIG = ("mode = {mode}\nloss = {loss}\nk_retrieved = 4\n"
                "l_rerank_pool = 8\nrefresh_interval = 3\nsteps = 8\n"
                "batch_size = 4\nlearning_rate = 5\nwarmup_steps = 2\n")


def write_inputs(rng):
    """in/raw.jsonl and in/tasks.jsonl; returns a function that draws n
    corpus words as one string."""
    vocab = ["".join(rng.choice(list(string.ascii_lowercase), n))
             for n in rng.integers(2, 9, 2000)]
    weights = 1.0 / np.arange(10, 10 + len(vocab))  # a flattened Zipf

    def words(n):
        return " ".join(vocab[i] for i in rng.choice(
            len(vocab), n, p=weights / weights.sum()))

    docs = [{"id": f"doc{i}", "title": f"Title {i}", "dump_date": "2022-01-01",
             "sections": [{"title": "Intro", "text": words(int(n))},
                          {"title": "Body", "text": words(int(m))}]}
            for i, (n, m) in enumerate(rng.integers(30, 90, (60, 2)))]
    docs.append({"id": "box", "title": "Box", "source": "infobox",
                 "sections": [{"title": f"k{j}", "text": f"key{j}: {words(3)}"}
                              for j in range(20)]})
    docs.append({"id": "short", "title": "Short", "dump_date": "2022-01-01",
                 "sections": [{"title": "", "text": words(10)}]})
    with open("in/raw.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(doc) + "\n" for doc in docs)
    with open("in/tasks.jsonl", "w", encoding="utf-8") as fh:
        for t in range(12):
            text = docs[t]["sections"][1]["text"].split()
            question = " ".join(text[:8]) if t % 3 == 0 else words(6)
            fh.write(json.dumps({"question": question, "gold": t % 4,
                                 "options": [words(2) for _ in range(4)]})
                     + "\n")
    return words


def commands(words):
    """(label, argv) of every command, in the order they run; writes the
    train configs and other extra inputs into in/, and makes the two
    directories that refused outputs would replace."""
    out = [("ingest", ["ingest", "--in", "in/raw.jsonl",
                       "--out", "passages.jsonl", "--max-words", "40"]),
           ("build-f32", ["build-index", "--passages", "passages.jsonl",
                          "--out", "f32.ridx", "--dim", "16"]),
           ("build-f16", ["build-index", "--passages", "passages.jsonl",
                          "--out", "f16.ridx", "--dim", "16", "--seed", "1",
                          "--precision", "float16", "--shards", "2"]),
           ("compress", ["compress-index", "--index", "f32.ridx",
                         "--out", "f32.rpqx", "--m", "4", "--kc", "16",
                         "--iterations", "5"])]
    for q in range(20):
        name = ("f32", "f16")[q % 2]
        out.append((f"search{q:02d}", [
            "search", "--index", f"{name}.ridx", "--checkpoint",
            f"{name}.rlab", "--query", words(1 + q % 5), "--k",
            str((1, 5, 10)[q % 3])]))
    runs = [(mode, task, loss) for mode in MODES for task, loss in TASK_LOSSES]
    for mode, task, loss in runs + [("rerank", "prefix_lm", "loop"),
                                    ("query_side", "prefix_lm", "adist")]:
        label = f"train-{mode}-{task}-{loss}"
        Path(f"in/{label}.cfg").write_text(
            TRAIN_CONFIG.format(mode=mode, loss=loss))
        out.append((label, ["train", "--config", f"in/{label}.cfg", "--corpus",
                            "passages.jsonl", "--out", label, "--dim", "16",
                            "--task", task]))
    trained = "train-full_refresh-prefix_lm-pdist"
    out.append(("evaluate-trained", [
        "evaluate", "--task", "in/tasks.jsonl", "--passages",
        "passages.jsonl", "--index", f"{trained}/index.ridx",
        "--checkpoint", f"{trained}/encoder.rlab",
        "--mode", "cyclic4", "--audit-leakage", "--k", "3"]))
    out.append(("evaluate-passages", [
        "evaluate", "--task", "in/tasks.jsonl", "--passages",
        "passages.jsonl"]))
    with open("in/raw.jsonl", encoding="utf-8") as src, \
            open("in/raw2023.jsonl", "w", encoding="utf-8") as dst:
        dst.writelines(json.dumps({**json.loads(line),
                                   "dump_date": "2023-01-01"}) + "\n"
                       for line in itertools.islice(src, 10))
    Path("in/repeated.cfg").write_text(
        TRAIN_CONFIG.format(mode="fixed", loss="pdist") + "steps = 4\n")
    Path("in/docs.manifest.json").write_text(
        Path("in/raw.jsonl").read_text(encoding="utf-8"), encoding="utf-8")
    Path("refused-checkpoint.rlab").mkdir()
    Path("refused-run/manifest.json").mkdir(parents=True)
    cost = ["cost-model", "--n", "10000", "--b", "4", "--k", "20", "--r", "5"]
    out += [
        ("build-refresh", ["build-index", "--passages", "passages.jsonl",
                           "--checkpoint", f"{trained}/encoder.rlab",
                           "--out", "refresh.ridx"]),
        ("ingest-2023", ["ingest", "--in", "in/raw2023.jsonl",
                         "--out", "passages2023.jsonl", "--max-words", "40"]),
        ("build-2023", ["build-index", "--passages", "passages2023.jsonl",
                        "--out", "i2023.ridx", "--dim", "16"]),
        ("swap-same-dump", ["swap-index", "--from", "f32.ridx",
                            "--to", "refresh.ridx"]),
        ("swap", ["swap-index", "--from", "i2023.ridx", "--to",
                  "refresh.ridx"]),
        ("cost-model", cost),
        ("cost-model-rerank", [*cost, "--l", "100"]),
        ("refuse-repeated-key", [
            "train", "--config", "in/repeated.cfg", "--corpus",
            "passages.jsonl", "--out", "repeated", "--dim", "16"]),
        ("refuse-dim-with-checkpoint", [
            "build-index", "--passages", "passages.jsonl", "--checkpoint",
            "f32.rlab", "--out", "refused.ridx", "--dim", "16"]),
        ("refuse-out-file", [
            "train", "--config", f"in/{trained}.cfg", "--corpus",
            "passages.jsonl", "--out", "f32.rpqx", "--dim", "16"]),
        ("refuse-out-below-file", [
            "train", "--config", f"in/{trained}.cfg", "--corpus",
            "passages.jsonl", "--out", "f32.rpqx/run", "--dim", "16"]),
        ("refuse-out-empty", [
            "train", "--config", f"in/{trained}.cfg", "--corpus",
            "passages.jsonl", "--out", "", "--dim", "16"]),
        ("refuse-out-missing-dir", [
            "ingest", "--in", "in/raw.jsonl", "--out", "nodir/p.jsonl"]),
        ("refuse-out-dir", [
            "build-index", "--passages", "passages.jsonl", "--out", trained]),
        ("refuse-fresh-checkpoint-dir", [
            "build-index", "--passages", "passages.jsonl",
            "--out", "refused-checkpoint.ridx", "--dim", "16"]),
        ("refuse-manifest-over-input", [
            "ingest", "--in", "in/docs.manifest.json", "--out", "in/docs",
            "--max-words", "40"]),
        ("refuse-manifest-dir", [
            "train", "--config", f"in/{trained}.cfg", "--corpus",
            "passages.jsonl", "--out", "refused-run", "--dim", "16"]),
    ]
    return out


def file_bytes(path: Path) -> bytes:
    """A file's bytes; a manifest's without its timings."""
    data = path.read_bytes()
    if path.name.endswith("manifest.json"):
        manifest = json.loads(data)
        del manifest["timings_s"]
        data = json.dumps(manifest, indent=2, sort_keys=True).encode()
    return data


def run_all(main) -> dict[str, bytes]:
    """Every command's outputs in the working directory, by name; the
    inputs are in in/."""
    Path("in").mkdir()
    outputs = {}
    for label, argv in commands(write_inputs(np.random.default_rng(0))):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        outputs[f"{label}.stdout"] = f"exit {code}\n{out.getvalue()}".encode()
        outputs[f"{label}.stderr"] = err.getvalue().encode()
    for path in sorted(Path(".").rglob("*")):
        if path.is_file() and path.parts[0] != "in":
            outputs[str(path)] = file_bytes(path)
    return outputs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src_dir))
    from rlab.cli import main as rlab_main

    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            outputs = run_all(rlab_main)
        finally:
            os.chdir(here)
    total = hashlib.sha256()
    for name in sorted(outputs):
        line = f"{hashlib.sha256(outputs[name]).hexdigest()}  {name}"
        print(line)
        total.update(f"{line}\n".encode())
    print(f"{len(outputs)} digests, total {total.hexdigest()}")


if __name__ == "__main__":
    main()
