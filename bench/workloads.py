"""The three benchmark workloads and the generators of their inputs.

Each workload takes its seed, makes its inputs from it, sets up `setups`
times, then repeats its unit of measured work until the measured time
reaches `seconds` (at least one unit), checks every output it can, and
returns a `Result`. The program under test only ever sees the generated
inputs.

- needle_query_side: the criterion-4 joint training run, in process.
  LM scoring, dense gradients and k-selection over K=1000 dominate.
- search_100k: read-only exact search over 100,000 x 64 vectors. Almost
  all of the time is candidate selection; there is no LM, no backprop
  and no index write.
- cli_pipeline: a generated raw corpus through `rlab.cli.main`, in
  process. Index build, PQ training and compression, periodic rebuilds
  and artifact save/load dominate; LM scoring is about 1% of it.

Every timed operation runs between samples of a fixed reference kernel
(`Reference`), and each time is reported twice: as measured, and scaled to
the kernel's nominal speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rlab import cli, corpus, index, pq, retriever, trainer
from rlab.losses import LossKind


class Checks:
    """Counts output checks against attempts and keeps the failures.

    Workloads run the rlab calls that only check outputs inside `pause()`,
    which a traced run sets to keep them out of the per-layer figures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.pause = contextlib.nullcontext

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


class Reference:
    """A fixed kernel that shares no code with rlab, timed next to every
    measured operation.

    On a shared host the speed of all computation drifts by up to a third
    over seconds to minutes, as other tenants load it. The kernel (a
    Python sort of 10k tuples and a 10k x 64 matvec, like rlab's own mix)
    slows with it, so an operation's time divided by the kernel's time
    next to it stays put while the raw time moves. Scaled times are given
    at NOMINAL_S per kernel run, about its time on an idle 2.1 GHz Xeon.
    """

    NOMINAL_S = 0.005

    def __init__(self):
        rng = np.random.default_rng(20221017)
        self._keys = [(float(x), f"r{i:05d}")
                      for i, x in enumerate(rng.normal(size=10_000))]
        self._matrix = rng.normal(size=(10_000, 64))
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        sorted(self._keys)
        float((self._matrix @ self._matrix[0]).sum())
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def scale(self, elapsed: float, *around: float) -> float:
        """elapsed at the kernel's nominal speed, given kernel samples
        taken around it."""
        return elapsed * self.NOMINAL_S / statistics.fmean(around)

    def timed(self, fn, times: "Times", probes: int = 1):
        """Run fn between `probes` kernel samples on each side and record
        its time, raw and scaled. Long operations take more probes."""
        around = [self.sample() for _ in range(probes)]
        t0 = time.perf_counter()
        out = fn()
        elapsed = time.perf_counter() - t0
        around += [self.sample() for _ in range(probes)]
        times.add(elapsed, self.scale(elapsed, *around))
        return out

    def run_scale(self) -> float:
        """Factor from raw to scaled times over the whole run."""
        return self.NOMINAL_S / statistics.median(self.samples)


@dataclass
class Times:
    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)

    def add(self, raw: float, scaled: float):
        self.raw.append(raw)
        self.scaled.append(scaled)

    def extend(self, other: "Times"):
        self.raw += other.raw
        self.scaled += other.scaled


@dataclass
class Result:
    # name -> (as measured, scaled to the reference kernel, unit, samples)
    metrics: dict[str, tuple[float, float, str, int]] = field(default_factory=dict)
    # end-to-end metric of BENCHMARK.json -> the name above it reports
    headline: dict[str, str] = field(default_factory=dict)
    fingerprints: dict[str, object] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)  # raw
    run_scale: float = 1.0

    def value(self, name: str, value: float, unit: str, n: int):
        self.metrics[name] = (value, value, unit, n)

    def median(self, name: str, unit: str, times: Times, factor: float = 1.0):
        self.metrics[name] = (factor * statistics.median(times.raw),
                              factor * statistics.median(times.scaled),
                              unit, len(times.raw))
        self.samples[name] = times.raw

    def latency(self, prefix: str, times: Times):
        """p50 and p90 in ms; p90 has at least ten samples beyond it from
        100 samples on."""
        self.median(f"{prefix}_p50", "ms", times, 1e3)
        self.metrics[f"{prefix}_p90"] = (
            1e3 * statistics.quantiles(times.raw, n=10)[-1],
            1e3 * statistics.quantiles(times.scaled, n=10)[-1],
            "ms", len(times.raw))

    def rate(self, name: str, unit: str, items: int, times: Times):
        self.metrics[name] = (items / sum(times.raw), items / sum(times.scaled),
                              unit, len(times.raw))


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# needle_query_side

NEEDLE_CONFIG = dict(k_retrieved=1000, batch_size=8, steps=200,
                     loss=LossKind.PDIST,
                     mode=trainer.MaintenanceMode.QUERY_SIDE,
                     temperature=0.1, temperature_target=1.0,
                     learning_rate=0.3, warmup_steps=5)


def _load_needle_fixture(root: Path):
    spec = importlib.util.spec_from_file_location(
        "needle_fixture", root / "tests" / "needle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_needle_task


def needle_query_side(root: Path, out: Path, seed: int, seconds: float,
                      setups: int, checks: Checks) -> Result:
    make_needle_task = _load_needle_fixture(root)
    # The fixture is criterion 4's (fixture seed 1), whose recall gates are
    # calibrated on it; the seed picks the example order, and seed 0 is
    # criterion 4 exactly.
    cfg = trainer.TrainConfig(**NEEDLE_CONFIG, seed=seed)
    ref = Reference()

    def set_up():
        passages, examples, encoder = make_needle_task(
            n_passages=1000, n_examples=32, dim=32, seed=1)
        state = trainer.init_state(encoder, passages)
        return state, examples, trainer.recall_at_1(state, examples, cfg)

    setup, steps, recalls = Times(), Times(), []
    for _ in range(setups - 1):
        ref.timed(set_up, setup, probes=3)
    while not steps.raw or sum(steps.raw) < seconds:
        state, examples, before = ref.timed(set_up, setup, probes=3)
        # One kernel sample between consecutive steps serves both.
        probes = [ref.sample()]
        marks = [time.perf_counter()]

        def on_step(_):
            elapsed = time.perf_counter() - marks[-1]
            probes.append(ref.sample())
            steps.add(elapsed, ref.scale(elapsed, *probes[-2:]))
            marks.append(time.perf_counter())

        history = trainer.train(state, examples, cfg, on_step=on_step)
        after = trainer.recall_at_1(state, examples, cfg)
        checks("needle recall@1 before training < 0.05", before < 0.05,
               f"got {before}")
        checks("needle recall@1 after training >= 0.9", after >= 0.9,
               f"got {after}")
        recalls.append(after)

    res = Result(run_scale=ref.run_scale())
    res.median("setup_s", "s", setup)
    res.latency("train_step_ms", steps)
    res.rate("train_examples_per_s", "examples/s",
             len(steps.raw) * cfg.batch_size, steps)
    res.value("recall_at_1", statistics.median(recalls), "fraction",
              len(examples))
    res.headline = {"latency_ms_p50": "train_step_ms_p50",
                    "latency_ms_p90": "train_step_ms_p90",
                    "throughput_per_s": "train_examples_per_s",
                    "quality": "recall_at_1"}
    csv_path = out / "needle_metrics.csv"
    trainer.write_metrics_csv(history, csv_path)
    res.fingerprints = {"final_loss": repr(history[-1].loss),
                        "metrics_csv_sha256": _sha256_file(csv_path),
                        "index_version": state.index.version,
                        "rebuilds": state.index.version - 1}
    return res


# ---------------------------------------------------------------------------
# search_100k

SEARCH_N, SEARCH_DIM, SEARCH_QUERIES = 100_000, 64, 100
SEARCH_KS = (1, 10, 100)
SEARCH_BATCH = 12  # queries per search_batch call
SEARCH_ORACLE_SAMPLE = 5  # queries per k checked against brute force


def _brute_force_ids(vectors: np.ndarray, q: np.ndarray, k: int) -> np.ndarray:
    """Row positions of the top k: descending score, ties by ascending
    position (ids are assigned in ascending order). Shares no code with
    rlab: elementwise products summed by numpy instead of a BLAS matvec,
    and a full lexsort instead of k-selection."""
    scores = np.einsum("ij,j->i", vectors, q)
    return np.lexsort((np.arange(len(scores)), -scores))[:k]


def search_100k(root: Path, out: Path, seed: int, seconds: float,
                setups: int, checks: Checks) -> Result:
    ref = Reference()

    def set_up():
        rng = np.random.default_rng(seed)
        # Stored at float32 like an index built with precision="float32".
        vectors = rng.normal(size=(SEARCH_N, SEARCH_DIM)).astype(np.float32)
        queries = rng.normal(size=(SEARCH_QUERIES, SEARCH_DIM))
        idx = index.EmbeddingIndex(
            version=1, dim=SEARCH_DIM,
            ids=[f"v{i:06d}" for i in range(SEARCH_N)],
            vectors=vectors.astype(np.float64), precision="float32", shards=1)
        return idx, queries

    setup = Times()
    for _ in range(setups):
        idx = None  # so that peak RSS holds one index, not two
        idx, queries = ref.timed(set_up, setup, probes=3)
    ks = [SEARCH_KS[i % len(SEARCH_KS)] for i in range(SEARCH_QUERIES)]
    groups = [range(j, SEARCH_QUERIES, len(SEARCH_KS))
              for j in range(len(SEARCH_KS))]

    # One client in a closed loop sends each query of a k group alone, then
    # the group again in search_batch calls of SEARCH_BATCH queries. Whole
    # passes over the query set.
    single_t, batch_t = Times(), Times()
    single: list = [None] * SEARCH_QUERIES
    batched: list = [None] * SEARCH_QUERIES
    while not batch_t.raw or sum(single_t.raw) + sum(batch_t.raw) < seconds:
        for rows, k in zip(groups, SEARCH_KS):
            for i in rows:
                single[i] = ref.timed(lambda: index.search(idx, queries[i], k),
                                      single_t)
            for lo in range(0, len(rows), SEARCH_BATCH):
                batch = list(rows[lo:lo + SEARCH_BATCH])
                hits = ref.timed(lambda: index.search_batch(idx, queries[batch], k),
                                 batch_t, probes=3)
                for i, one in zip(batch, hits):
                    batched[i] = one

    exact = 0
    sampled = [i for rows in groups for i in rows[:SEARCH_ORACLE_SAMPLE]]
    for i in sampled:
        want = [idx.ids[r] for r in _brute_force_ids(idx.vectors, queries[i], ks[i])]
        got = [pid for pid, _ in single[i]]
        exact += checks(f"search q{i} k={ks[i]} equals brute force",
                        got == want, f"{got[:3]} vs {want[:3]}")
    for i, (one, many) in enumerate(zip(single, batched)):
        checks(f"search_batch q{i} equals search",
               [pid for pid, _ in one] == [pid for pid, _ in many]
               and np.allclose([s for _, s in one], [s for _, s in many],
                               rtol=1e-12, atol=0.0))

    res = Result(run_scale=ref.run_scale())
    res.median("setup_s", "s", setup)
    res.latency("search_ms", single_t)
    passes = len(single_t.raw) // SEARCH_QUERIES
    res.rate("search_batch_qps", "queries/s", SEARCH_QUERIES * passes, batch_t)
    res.value("exact_match_fraction", exact / len(sampled), "fraction",
              len(sampled))
    res.headline = {"latency_ms_p50": "search_ms_p50",
                    "latency_ms_p90": "search_ms_p90",
                    "throughput_per_s": "search_batch_qps",
                    "quality": "exact_match_fraction"}
    ids_blob = "\n".join(pid for hits in single for pid, _ in hits).encode()
    res.fingerprints = {"result_ids_sha256": hashlib.sha256(ids_blob).hexdigest(),
                        "index_version": idx.version}
    return res


# ---------------------------------------------------------------------------
# cli_pipeline

CLI_DOCS, CLI_VOCAB, CLI_ZIPF_S = 2000, 20_000, 1.0
CLI_DOC_WORDS = (300, 500)
CLI_QUERIES, CLI_TASKS = 200, 100
CLI_SEARCH_ROUNDS = 4
CLI_TRAIN_CONFIG = {"k_retrieved": 20, "refresh_interval": 5,
                    "batch_size": 8, "loss": "pdist",
                    "mode": "full_refresh", "steps": 20}
CLI_PQ = ["--m", "8", "--kc", "256", "--iterations", "5"]
CLI_PROBES = 5  # kernel samples on each side of a long command


def _zipf_vocabulary(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """CLI_VOCAB distinct lowercase words of 2-9 letters and their Zipf
    probabilities by rank."""
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words: dict[str, None] = {}
    while len(words) < CLI_VOCAB:
        words.setdefault("".join(letters[rng.integers(0, 26, size=int(rng.integers(2, 10)))]))
    probs = 1.0 / np.arange(1, CLI_VOCAB + 1) ** CLI_ZIPF_S
    return np.array(list(words)), probs / probs.sum()


def write_cli_inputs(seed: int, work: Path) -> list[str]:
    """Raw wiki corpus, multiple-choice tasks and train config under work;
    returns the search queries."""
    rng = np.random.default_rng(seed)
    words, probs = _zipf_vocabulary(rng)
    lengths = rng.integers(CLI_DOC_WORDS[0], CLI_DOC_WORDS[1] + 1, size=CLI_DOCS)
    tokens = words[rng.choice(CLI_VOCAB, size=int(lengths.sum()), p=probs)]
    docs, pos = [], 0
    with open(work / "raw.jsonl", "w", encoding="utf-8") as fh:
        for i, n in enumerate(lengths):
            doc = tokens[pos:pos + n]
            pos += n
            cut = int(rng.integers(n // 3, 2 * n // 3))
            docs.append(doc)
            fh.write(json.dumps({
                "id": f"doc{i:05d}", "title": f"Article {i}", "source": "wiki",
                "dump_date": "2022-01-01",
                "sections": [{"title": "Overview", "text": " ".join(doc[:cut])},
                             {"title": "Details", "text": " ".join(doc[cut:])}],
            }) + "\n")

    def phrase(n):
        return " ".join(words[rng.choice(CLI_VOCAB, size=n, p=probs)])

    with open(work / "tasks.jsonl", "w", encoding="utf-8") as fh:
        for t in range(CLI_TASKS):
            if t % 4 == 0:
                # Copied from a document, so the leakage audit has work.
                doc = docs[int(rng.integers(CLI_DOCS))]
                start = int(rng.integers(len(doc) - 8))
                question = " ".join(doc[start:start + 8])
            else:
                question = phrase(8)
            options = list(words[rng.choice(CLI_VOCAB, size=4, replace=False)])
            fh.write(json.dumps({"question": question, "options": options,
                                 "gold": int(rng.integers(4))}) + "\n")
    config = dict(CLI_TRAIN_CONFIG, seed=seed)
    (work / "train.cfg").write_text(
        "".join(f"{k}={v}\n" for k, v in config.items()), encoding="utf-8")
    return [phrase(8) for _ in range(CLI_QUERIES)]


def _round_trips(load, save, path: Path, scratch: Path) -> bool:
    save(load(path), scratch)
    return scratch.read_bytes() == path.read_bytes()


def _pipeline(work: Path, queries: list[str], seed: int, ref: Reference,
              checks: Checks) -> dict:
    """ingest -> build-index -> compress-index -> train -> evaluate, with
    the Q `rlab search` calls in CLI_SEARCH_ROUNDS rounds after build-index
    and each later command, then PQ search of the same queries in process.
    Spreading the searches makes their latency sample the whole run rather
    than one slow or fast spell of a shared machine."""
    for sub in ("ingest", "build", "compress", "train"):
        (work / sub).mkdir()
    passages = work / "ingest" / "passages.jsonl"
    ridx, rlab_ckpt = work / "build" / "index.ridx", work / "build" / "index.rlab"
    rpqx = work / "compress" / "index.rpqx"
    trained = work / "train"
    t = {k: Times() for k in ("ingest", "build", "compress", "search", "train",
                              "evaluate", "pq_load", "pq")}

    def rlab(argv: list[str], times: Times, probes: int = CLI_PROBES) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ref.timed(lambda: cli.main(argv), times, probes)
        checks(f"rlab {argv[0]} exits 0", code == 0, f"exit code {code}")
        return buf.getvalue()

    rounds = iter(np.array_split(np.arange(len(queries)), CLI_SEARCH_ROUNDS))
    cli_hits: list[list[str]] = []

    def search_round():
        for i in next(rounds):
            out = rlab(["search", "--index", str(ridx), "--checkpoint",
                        str(rlab_ckpt), "--query", queries[i], "--k", "10"],
                       t["search"], probes=1)
            cli_hits.append([line.split("\t")[0] for line in out.splitlines()])

    rlab(["ingest", "--in", str(work / "raw.jsonl"), "--out", str(passages),
          "--max-words", "100"], t["ingest"])
    rlab(["build-index", "--passages", str(passages), "--out", str(ridx),
          "--dim", "64", "--seed", str(seed)], t["build"])
    search_round()
    rlab(["compress-index", "--index", str(ridx), "--out", str(rpqx),
          *CLI_PQ, "--seed", str(seed)], t["compress"])
    search_round()
    rlab(["train", "--config", str(work / "train.cfg"), "--corpus",
          str(passages), "--out", str(trained), "--dim", "64"], t["train"])
    search_round()
    evaluation = rlab(["evaluate", "--task", str(work / "tasks.jsonl"),
                       "--mode", "cyclic4", "--audit-leakage", "--k", "5",
                       "--passages", str(passages),
                       "--index", str(trained / "index.ridx"),
                       "--checkpoint", str(trained / "encoder.rlab")],
                      t["evaluate"])
    search_round()

    def pq_load():
        enc = retriever.load_checkpoint(rlab_ckpt)
        return (pq.load_pq_index(rpqx),
                [retriever.encode_query(enc, corpus.tokenize(q)) for q in queries])

    pqx, q_vecs = ref.timed(pq_load, t["pq_load"], CLI_PROBES)
    pq_hits = [ref.timed(lambda: pq.pq_search(pqx, v, 10), t["pq"])
               for v in q_vecs]

    with checks.pause():
        idx = index.load_index(ridx)
        exact_hits = [index.search(idx, v, 10) for v in q_vecs]
        for i, (got, want) in enumerate(zip(cli_hits, exact_hits)):
            checks(f"rlab search q{i} equals index.search on the reloaded index",
                   got == [pid for pid, _ in want], f"{got[:3]} vs {want[:3]}")
        n_passages = len(corpus.read_passages(passages))
        checks("built index holds every passage", idx.size == n_passages,
               f"{idx.size} entries for {n_passages} passages")
        checks("PQ index matches the exact index",
               pqx.ids == idx.ids and int(pqx.codes.max()) < 256)
        for load, save, path in (
                (index.load_index, index.save_index, ridx),
                (index.load_index, index.save_index, trained / "index.ridx"),
                (retriever.load_checkpoint, retriever.save_checkpoint, rlab_ckpt),
                (retriever.load_checkpoint, retriever.save_checkpoint,
                 trained / "encoder.rlab"),
                (pq.load_pq_index, pq.save_pq_index, rpqx)):
            checks(f"{path.relative_to(work)} reloads with equal contents",
                   _round_trips(load, save, path, work / ("again" + path.suffix)))
        checks("evaluate reports accuracy", evaluation.startswith("accuracy: "),
               evaluation[:80])
        trained_version = index.load_index(trained / "index.ridx").version

    whole = Times()
    for times in t.values():
        whole.add(sum(times.raw), sum(times.scaled))
    with open(trained / "metrics.csv", newline="") as fh:
        final_loss = fh.read().splitlines()[-1].split(",")[1]
    return {"t": t, "pipeline": whole, "passages": n_passages,
            "pq_recall": pq.recall_at_k(pq_hits, exact_hits, 10),
            "fingerprints": {
                "final_loss": final_loss,
                "metrics_csv_sha256": _sha256_file(trained / "metrics.csv"),
                "index_version": trained_version,
                "rebuilds": trained_version - 1,
                "evaluate": evaluation.splitlines()[0]}}


def cli_pipeline(root: Path, out: Path, seed: int, seconds: float,
                 setups: int, checks: Checks) -> Result:
    work = out / f"cli_pipeline-seed{seed}"
    ref = Reference()

    def set_up():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        return write_cli_inputs(seed, work)

    setup = Times()
    for _ in range(setups - 1):
        ref.timed(set_up, setup, probes=3)
    runs = []
    while not runs or sum(sum(r["pipeline"].raw) for r in runs) < seconds:
        queries = ref.timed(set_up, setup, probes=3)
        runs.append(_pipeline(work, queries, seed, ref, checks))
    shutil.rmtree(work)

    def pooled(key: str) -> Times:
        times = Times()
        for r in runs:
            times.extend(r["t"][key])
        return times

    pipeline = Times()
    for r in runs:
        pipeline.add(sum(r["pipeline"].raw), sum(r["pipeline"].scaled))
    res = Result(run_scale=ref.run_scale())
    res.median("setup_s", "s", setup)
    for name, key in (("ingest_s", "ingest"), ("build_index_s", "build"),
                      ("compress_index_s", "compress"), ("train_s", "train"),
                      ("evaluate_s", "evaluate")):
        res.median(name, "s", pooled(key))
    res.latency("search_ms", pooled("search"))
    res.median("pq_search_ms_p50", "ms", pooled("pq"), 1e3)
    res.value("pq_recall_at_10", runs[0]["pq_recall"], "fraction", CLI_QUERIES)
    res.median("pipeline_s", "s", pipeline)
    res.rate("pipeline_passages_per_s", "passages/s",
             sum(r["passages"] for r in runs), pipeline)
    res.value("passages", runs[0]["passages"], "count", 1)
    res.headline = {"latency_ms_p50": "search_ms_p50",
                    "latency_ms_p90": "search_ms_p90",
                    "throughput_per_s": "pipeline_passages_per_s",
                    "quality": "pq_recall_at_10"}
    res.fingerprints = runs[0]["fingerprints"]
    return res


WORKLOADS = {
    "needle_query_side": needle_query_side,
    "search_100k": search_100k,
    "cli_pipeline": cli_pipeline,
}
