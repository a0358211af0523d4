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
the index rows. Their texts are interned once, in `TrainerState.tokens`:
the LM scores a view of it, and the document encoder and backprop read
embedding rows through `vocab_rows`. Score gradients reach the encoder
through `retriever.encoder_gradient`, the backprop that the gradient
check covers. The optimizer is plain SGD with linear warmup and decay.
With a fixed seed, configuration and corpus, the parameter trajectory and
the emitted metrics are bit-identical across runs.
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
from .losses import (LossKind, build_target, distill_step, emdr2_objective)
from .pretext import PretextExample
from .retriever import (DEFAULT_TEMPERATURE, DualEncoder, Gradients,
                        MaintenanceMode, encode, encode_query,
                        encoder_gradient, retrieval_distribution, sum_rows)


@dataclass(frozen=True)
class TrainConfig:
    k_retrieved: int = 20
    l_rerank_pool: int = 100
    refresh_interval: int = 1000
    batch_size: int = 8
    temperature: float = DEFAULT_TEMPERATURE
    temperature_target: float = 1.0
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
        for name, least in [("batch_size", 1), ("steps", 1),
                            ("l_rerank_pool", 1), ("refresh_interval", 1),
                            ("k_retrieved", 0), ("warmup_steps", 0)]:
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
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

    @classmethod
    def from_pretext(cls, ex: PretextExample) -> "TrainExample":
        return cls(query=ex.retrieval_query(), output=ex.output,
                   origin_passage_id=ex.origin_passage_id)


@dataclass
class TrainerState:
    encoder: DualEncoder
    index: index_mod.EmbeddingIndex
    passages: list[Passage]  # passages[r] is the passage of index row r
    tokens: TokenTable  # text r is the text of passages[r]
    vocab_rows: np.ndarray  # term id of tokens -> encoder vocab row
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


def _doc_rows(state: TrainerState, rows: np.ndarray) -> list[np.ndarray]:
    """The encoder vocab rows of the texts of index rows."""
    return [state.vocab_rows[state.tokens.text_terms(r)]
            for r in rows.tolist()]


def _retrieve(state: TrainerState, cfg: TrainConfig, example: TrainExample,
              q_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, bool]:
    """Index rows of the candidate documents for one example with query
    vector q_vec, best first, honoring the maintenance mode and
    self-exclusion; their fresh vectors in rerank, else None; and whether
    rerank raised the stale-index signal. State is not changed."""
    scores = state.index.vectors @ q_vec
    n = state.index.size  # selectable rows: all but the origin's
    origin = example.origin_passage_id
    row = bisect.bisect_left(state.index.ids, origin)
    if origin and row < n and state.index.ids[row] == origin:
        scores[row] = -np.inf
        n -= 1
    if cfg.mode != MaintenanceMode.RERANK:
        return index_mod._top_k(scores, min(cfg.k_retrieved, n)), None, False
    pool = index_mod._top_k(scores, min(cfg.l_rerank_pool, n))
    # Rescored in row order, so fresh ties break by ascending id.
    by_row = np.sort(pool)
    vecs = np.array([encode(state.encoder.doc, rows)
                     for rows in _doc_rows(state, by_row)]
                    ).reshape(-1, state.encoder.dim)
    fresh = np.array([np.dot(q_vec, v) for v in vecs])
    kept = index_mod._top_k(fresh, len(by_row))[:cfg.k_retrieved]
    # Stale-index signal: a fresh top-K element coming from the tail of the
    # stale pool suggests the true top-K may have escaped it.
    stale = bool(np.isin(by_row[kept], pool[cfg.l_rerank_pool - 1:]).any())
    return by_row[kept], vecs[kept], stale


def _example_gradient(state: TrainerState, cfg: TrainConfig, lm: LMScorer,
                      example: TrainExample) -> tuple[Gradients | None, float, np.ndarray]:
    """Loss gradient (None when frozen), loss value, retrieved rows. A
    stale-index signal from retrieval counts in state.stale_rerank_warnings."""
    enc = state.encoder
    query_rows = enc.vocab.rows(example.query)
    q_vec = encode(enc.query, query_rows)
    rows, d_vecs, stale = _retrieve(state, cfg, example, q_vec)
    state.stale_rerank_warnings += stale
    if not len(rows):
        return None, 0.0, rows
    docs = state.tokens.view(rows)
    doc_rows = _doc_rows(state, rows) if cfg.mode.trains_docs else []
    if cfg.mode == MaintenanceMode.FULL_REFRESH:
        d_vecs = np.stack([encode(enc.doc, r) for r in doc_rows])
    elif not cfg.mode.trains_docs:
        # The index is never stale in these modes; its vectors are the
        # document embeddings.
        d_vecs = state.index.vectors[rows]
    probs = retrieval_distribution(d_vecs @ q_vec, cfg.temperature)

    if cfg.loss == LossKind.EMDR2:
        logliks = lm.per_doc_loglik(example.query, docs, example.output)
        step = emdr2_objective(logliks, probs, cfg.temperature)
        loss_value = -step.value
    else:
        target = build_target(cfg.loss, lm, example.query, docs,
                              example.output, cfg.temperature_target)
        step = distill_step(target, probs, cfg.temperature)
        loss_value = step.value

    if cfg.mode == MaintenanceMode.FIXED:
        return None, loss_value, rows
    grads = encoder_gradient(enc, query_rows, doc_rows, q_vec, d_vecs,
                             step.grad_wrt_scores, cfg.mode)
    return grads, loss_value, rows


def train_step(state: TrainerState, batch: Sequence[TrainExample],
               cfg: TrainConfig, lm: LMScorer) -> StepMetrics:
    """One optimizer step over a batch. Rebuilds run strictly between
    steps, before the batch is processed."""
    state.step += 1
    if cfg.rebuilds_at(state.step):
        state.index = index_mod.build(
            state.passages, state.encoder,
            shards=state.index.shards, precision=state.index.precision,
            previous_version=state.index.version, tokens=state.tokens)

    total = Gradients.zeros_like(state.encoder)
    losses, hits, with_gold = [], 0, 0
    for example in batch:
        if cfg.k_retrieved == 0:
            continue  # closed-book ablation: nothing to retrieve or train
        grads, loss_value, rows = _example_gradient(state, cfg, lm, example)
        losses.append(loss_value)
        if example.gold_passage_id:
            with_gold += 1
            hits += int(len(rows) > 0 and state.index.ids[rows[0]]
                        == example.gold_passage_id)
        if grads is not None:
            total.add_scaled(grads, 1.0 / len(batch))

    if cfg.mode != MaintenanceMode.FIXED and cfg.k_retrieved > 0:
        lr = _learning_rate(cfg, state.step)
        rows, summed = sum_rows(total.query_rows, total.query_values)
        state.encoder.query.embedding[rows] -= lr * summed
        state.encoder.query.projection -= lr * total.query_projection
        if cfg.mode.trains_docs:
            rows, summed = sum_rows(total.doc_rows, total.doc_values)
            state.encoder.doc.embedding[rows] -= lr * summed
            state.encoder.doc.projection -= lr * total.doc_projection

    return StepMetrics(
        step=state.step,
        loss=float(np.mean(losses)) if losses else 0.0,
        recall_at_1=hits / with_gold if with_gold else 0.0,
        index_version=state.index.version,
    )


def init_state(encoder: DualEncoder,
               passages: Sequence[Passage]) -> TrainerState:
    ordered = sorted(passages, key=lambda p: p.id)
    tokens = TokenTable([p.text for p in ordered])
    idx = index_mod.build(ordered, encoder, tokens=tokens)
    return TrainerState(encoder=encoder, index=idx, passages=ordered,
                        tokens=tokens,
                        vocab_rows=tokens.vocab_rows(encoder.vocab))


def train(state: TrainerState, examples: Sequence[TrainExample],
          cfg: TrainConfig, lm: LMScorer | None = None,
          on_step: Callable[[StepMetrics], None] | None = None) -> list[StepMetrics]:
    """Run cfg.steps optimizer steps, cycling deterministically through a
    seed-shuffled example order."""
    if lm is None:
        lm = OverlapLM(vocab_size=len(state.encoder.vocab))
    rng = np.random.default_rng(cfg.seed)
    order = rng.permutation(len(examples))
    history = []
    cursor = 0
    for _ in range(cfg.steps):
        batch = []
        for _ in range(cfg.batch_size):
            batch.append(examples[order[cursor % len(examples)]])
            cursor += 1
        metrics = train_step(state, batch, cfg, lm)
        history.append(metrics)
        if on_step:
            on_step(metrics)
    return history


def recall_at_1(state: TrainerState, examples: Sequence[TrainExample],
                cfg: TrainConfig) -> float:
    """Fraction of examples whose top retrieved passage is their gold."""
    hits = 0
    for ex in examples:
        rows, _, _ = _retrieve(state, cfg, ex,
                               encode_query(state.encoder, ex.query))
        hits += int(len(rows) > 0
                    and state.index.ids[rows[0]] == ex.gold_passage_id)
    return hits / len(examples)


def write_metrics_csv(history: Sequence[StepMetrics], path):
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "recall_at_1", "index_version"])
        for m in history:
            writer.writerow([m.step, f"{m.loss:.10g}",
                             f"{m.recall_at_1:.6g}", m.index_version])
