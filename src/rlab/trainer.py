"""Joint training loop: retrieve, score with the LM, build the target,
update the retriever.

Index-maintenance strategies (`retriever.MaintenanceMode`):
  fixed         no retriever updates (baseline);
  query_side    only the query encoder trains, the index never goes stale;
  rerank        retrieve top-L from the (possibly stale) index, re-embed
                those L documents with the current parameters, keep top-K
                and their fresh vectors for the loss and the backprop;
  full_refresh  train everything and rebuild the index every R steps.

An example never retrieves its origin passage: that row's score is masked
to -inf and k capped at the other rows, so rerank embeds exactly L
documents per example, as `costmodel.overhead_rerank` charges.

A step works in index rows, never passage ids: `TrainerState.passages`
is in index row order, and the static modes take document vectors from
the index rows. Their texts are interned once, in `TrainerState.tokens`,
whose view the LM scores, and `TrainerState.rows` holds the encoder vocab
row of each of their tokens. `init_state` alone makes that state, from
passages in any order: it sorts them by id, interns their texts, finds
their vocab rows and builds the index. A step runs its phases in order,
each over all of its examples: encode the queries, retrieve, encode the
trained documents, take each example's target, loss and score gradient,
and backprop once from those, in `retriever.encoder_gradient` as the
gradient check does, each embedding row once. A step's queries, its
trained documents and a rebuild are each one `encode_texts` call.
The optimizer is plain SGD with linear warmup and decay. With a fixed
seed, configuration and corpus, the parameter trajectory and the emitted
metrics are bit-identical across runs.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import index as index_mod
from .corpus import Passage, TokenTable
from .formats import atomic_write
from .lm import LMScorer, OverlapLM
from .losses import (DEFAULT_TARGET_TEMPERATURE, LossKind, build_target,
                     distill_step, emdr2_objective)
from .retriever import (DEFAULT_TEMPERATURE, DualEncoder, MaintenanceMode,
                        encode_texts, encoder_gradient, retrieval_distribution)


@dataclass(frozen=True)
class TrainConfig:
    k_retrieved: int = 20
    l_rerank_pool: int = 100
    refresh_interval: int = 1000
    batch_size: int = 8
    temperature: float = DEFAULT_TEMPERATURE
    temperature_target: float = DEFAULT_TARGET_TEMPERATURE
    loss: LossKind = LossKind.PDIST
    mode: MaintenanceMode = MaintenanceMode.QUERY_SIDE
    steps: int = 100
    learning_rate: float = 1e-2
    warmup_steps: int = 5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mode", MaintenanceMode(self.mode))
        object.__setattr__(self, "loss", LossKind(self.loss))
        # Counts are checked in every mode, also where the mode ignores
        # them. k_retrieved == 0 is the closed-book ablation: no retrieval,
        # no training signal; the harness still runs end to end.
        for name, least in [("batch_size", 1), ("steps", 1), ("seed", 0),
                            ("l_rerank_pool", 1), ("refresh_interval", 1),
                            ("k_retrieved", 0), ("warmup_steps", 0)]:
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.loss == LossKind.LOOP and self.k_retrieved == 1:
            raise ValueError("loss loop needs k_retrieved >= 2 (or 0)")
        for name in ("temperature", "temperature_target"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0")
        if not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be finite")
        if self.mode == MaintenanceMode.RERANK and self.l_rerank_pool < self.k_retrieved:
            raise ValueError("rerank pool L must be >= K")

    def rebuilds_at(self, step: int) -> bool:
        """Whether the index is rebuilt before step: every R steps in
        full_refresh, never in the other modes (rerank re-embeds only its
        candidates)."""
        return (self.mode == MaintenanceMode.FULL_REFRESH
                and step % self.refresh_interval == 0)


@dataclass
class TrainExample:
    """A (query, output) supervision pair; origin_passage_id, when set,
    is excluded from its own retrieval results."""
    query: tuple[str, ...]
    output: tuple[str, ...]
    origin_passage_id: str = ""
    gold_passage_id: str = ""


@dataclass
class TrainerState:
    encoder: DualEncoder
    index: index_mod.EmbeddingIndex
    passages: list[Passage]  # passages[r] is the passage of index row r
    tokens: TokenTable  # text r is the text of passages[r]
    rows: np.ndarray  # encoder vocab row of each token position of tokens
    step: int = 0
    stale_rerank_warnings: int = 0


@dataclass
class StepMetrics:
    step: int
    loss: float
    recall_at_1: float
    index_version: int


def _learning_rate(cfg: TrainConfig, step: int) -> float:
    """Linear warmup over warmup_steps, then linear decay to zero."""
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.learning_rate * step / cfg.warmup_steps
    remaining = max(cfg.steps - step, 0)
    span = max(cfg.steps - cfg.warmup_steps, 1)
    return cfg.learning_rate * remaining / span


def _flat(parts: Sequence[np.ndarray]) -> np.ndarray:
    """The int64 arrays parts, one after another; empty if there are none."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *parts])


def _retrieve(state: TrainerState, cfg: TrainConfig,
              examples: Sequence[TrainExample],
              q_vecs: np.ndarray) -> tuple[list[np.ndarray], tuple | None, int]:
    """Index rows of each example's candidate documents for its query
    vector, best first, honoring the maintenance mode and self-exclusion;
    in rerank the fresh pooled means and vectors of the kept rows, example
    after example, from one `encode_texts` call over every example's pool,
    else None; and how many examples raised rerank's stale-index signal.
    State is not changed."""
    rerank = cfg.mode == MaintenanceMode.RERANK
    retrieved = []
    for ex, q_vec in zip(examples, q_vecs):
        scores = state.index.vectors @ q_vec
        n = state.index.size  # selectable rows: all but the origin's
        origin = ex.origin_passage_id
        row = bisect.bisect_left(state.index.ids, origin)
        if origin and row < n and state.index.ids[row] == origin:
            scores[row] = -np.inf
            n -= 1
        k = cfg.l_rerank_pool if rerank else cfg.k_retrieved
        retrieved.append(index_mod._top_k(scores, min(k, n)))
    if not rerank:
        return retrieved, None, 0
    # Rescored in row order, so fresh ties break by ascending id.
    by_row = _flat([np.sort(pool) for pool in retrieved])
    pooled, vecs = encode_texts(
        state.encoder.doc, *state.tokens.view(by_row).gather(state.rows))
    kept, first, stale = [], 0, 0
    for pool, q_vec in zip(retrieved, q_vecs):
        scores = np.array([np.dot(q_vec, v)
                           for v in vecs[first:first + len(pool)]])
        kept.append(first + index_mod._top_k(scores, cfg.k_retrieved))
        # Stale-index signal: a fresh top-K element coming from the tail
        # of the stale pool suggests the true top-K may have escaped it.
        stale += bool(np.isin(by_row[kept[-1]],
                              pool[cfg.l_rerank_pool - 1:]).any())
        first += len(pool)
    kept_rows = _flat(kept)
    return ([by_row[k] for k in kept], (pooled[kept_rows], vecs[kept_rows]),
            stale)


def _queries(state: TrainerState, examples: Sequence[TrainExample]):
    """Vocab rows, lengths (CSR form), pooled means and vectors of the
    examples' queries, from one `encode_texts` call per step."""
    lengths = np.array([len(ex.query) for ex in examples], dtype=np.int64)
    rows = state.encoder.vocab.rows([t for ex in examples for t in ex.query])
    return (rows, lengths, *encode_texts(state.encoder.query, rows, lengths))


def _recall(state: TrainerState, examples: Sequence[TrainExample],
            retrieved: Sequence[np.ndarray]) -> float:
    """Share of the examples with a gold passage whose first retrieved row
    is it, 0.0 when none has one."""
    hits = [len(rows) > 0 and state.index.ids[rows[0]] == ex.gold_passage_id
            for ex, rows in zip(examples, retrieved) if ex.gold_passage_id]
    return sum(hits) / len(hits) if hits else 0.0


def train_step(state: TrainerState, batch: Sequence[TrainExample],
               cfg: TrainConfig, lm: LMScorer) -> StepMetrics:
    """One optimizer step over a batch, phase by phase. Rebuilds run
    strictly between steps, before the batch is processed."""
    state.step += 1
    if cfg.rebuilds_at(state.step):
        state.index = index_mod.build(
            state.passages, state.encoder,
            shards=state.index.shards, precision=state.index.precision,
            previous_version=state.index.version, rows=state.rows)
    if not cfg.k_retrieved:  # the closed-book ablation: no retrieval
        return StepMetrics(state.step, 0.0, 0.0, state.index.version)

    queries = _queries(state, batch)
    retrieved, fresh, stale = _retrieve(state, cfg, batch, queries[3])
    state.stale_rerank_warnings += stale
    if cfg.mode.trains_docs:
        rows, lengths = state.tokens.view(_flat(retrieved)).gather(state.rows)
        pooled, vecs = fresh or encode_texts(state.encoder.doc, rows, lengths)
        docs = (rows, lengths, pooled)
        d_vecs = np.split(vecs, np.cumsum([len(r) for r in retrieved])[:-1])
    else:  # the static modes' index is never stale: its rows are vectors
        docs, d_vecs = None, [state.index.vectors[rows] for rows in retrieved]

    # An example that retrieved nothing has loss 0.0 and a zero gradient.
    losses, g_scores = [0.0] * len(batch), [np.zeros(0)] * len(batch)
    for i, (ex, q_vec, rows, vecs) in enumerate(
            zip(batch, queries[3], retrieved, d_vecs)):
        if not len(rows):
            continue
        # Not `_retrieve`'s scores[rows]: matvec bits depend on row position.
        probs = retrieval_distribution(vecs @ q_vec, cfg.temperature)
        texts = state.tokens.view(rows)
        if cfg.loss == LossKind.EMDR2:
            logliks = lm.per_doc_loglik(ex.query, texts, ex.output)
            step = emdr2_objective(logliks, probs, cfg.temperature)
            losses[i] = -step.value
        else:
            target = build_target(cfg.loss, lm, ex.query, texts, ex.output,
                                  cfg.temperature_target)
            step = distill_step(target, probs, cfg.temperature)
            losses[i] = step.value
        g_scores[i] = step.grad_wrt_scores

    if cfg.mode != MaintenanceMode.FIXED:
        total = encoder_gradient(state.encoder, queries, g_scores, d_vecs,
                                 docs, 1.0 / len(batch))
        lr, enc = _learning_rate(cfg, state.step), state.encoder
        enc.query.embedding[total.query_rows] -= lr * total.query_values
        enc.query.projection -= lr * total.query_projection
        if cfg.mode.trains_docs:
            enc.doc.embedding[total.doc_rows] -= lr * total.doc_values
            enc.doc.projection -= lr * total.doc_projection

    return StepMetrics(
        step=state.step,
        loss=float(np.mean(losses)),
        recall_at_1=_recall(state, batch, retrieved),
        index_version=state.index.version,
    )


def init_state(encoder: DualEncoder,
               passages: Sequence[Passage]) -> TrainerState:
    """The state before step 1: the passages in index row order
    (ascending id), their texts interned, and the index built of them."""
    ordered = sorted(passages, key=lambda p: p.id)
    tokens = TokenTable([p.text for p in ordered])
    rows = tokens.vocab_rows(encoder.vocab)
    idx = index_mod.build(ordered, encoder, rows=rows)
    return TrainerState(encoder, idx, ordered, tokens, rows)


def train(state: TrainerState, examples: Sequence[TrainExample],
          cfg: TrainConfig, lm: LMScorer | None = None,
          on_step: Callable[[StepMetrics], None] | None = None) -> list[StepMetrics]:
    """Run cfg.steps optimizer steps, cycling deterministically through a
    seed-shuffled example order. Under loss loop, an example with fewer
    than two selectable index rows raises ValueError before any step."""
    if not len(examples):
        raise ValueError("examples is empty: nothing to train on")
    if cfg.loss == LossKind.LOOP and cfg.k_retrieved and state.index.size < 3:
        # Leave-one-out needs two rows other than the example's origin.
        for ex in examples:
            if state.index.size - (ex.origin_passage_id in state.index.ids) < 2:
                raise ValueError(f"loss loop needs 2 selectable passages per "
                                 f"example; an index of {state.index.size} "
                                 f"leaves fewer to the example with origin "
                                 f"{ex.origin_passage_id!r}")
    if lm is None:
        lm = OverlapLM(vocab_size=len(state.encoder.vocab))
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(examples))
    history = []
    for step in range(cfg.steps):
        draws = range(step * cfg.batch_size, (step + 1) * cfg.batch_size)
        batch = [examples[order[i % len(examples)]] for i in draws]
        metrics = train_step(state, batch, cfg, lm)
        history.append(metrics)
        if on_step:
            on_step(metrics)
    return history


def recall_at_1(state: TrainerState, examples: Sequence[TrainExample],
                cfg: TrainConfig) -> float:
    """Fraction of the examples with a gold passage whose top retrieved
    passage is it, 0.0 when none has one; the others retrieve nothing."""
    if not len(examples):
        raise ValueError("examples is empty: no recall to measure")
    gold = [ex for ex in examples if ex.gold_passage_id]
    return _recall(state, gold,
                   _retrieve(state, cfg, gold, _queries(state, gold)[3])[0])


def write_metrics_csv(history: Sequence[StepMetrics], path):
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "recall_at_1", "index_version"])
        for m in history:
            writer.writerow([m.step, f"{m.loss:.10g}",
                             f"{m.recall_at_1:.6g}", m.index_version])
