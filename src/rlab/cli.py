"""Command-line entry point wiring corpus -> index -> trainer -> evalkit.

One binary, subcommand style. Every run writes a manifest (config
snapshot, seed, input hashes, index version, per-phase timings) next to
its artifacts so the run can be reproduced from the manifest alone.
Exit codes: 0 ok, 1 I/O or format error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, corpus, costmodel, evalkit
from . import index as index_mod
from . import lm as lm_mod
from . import pq as pq_mod
from . import formats, pretext, retriever, trainer
from .formats import atomic_write


class UsageError(ValueError):
    """A usage or configuration error (exit 2)."""


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict,
                    inputs: dict[str, Path], timings: dict[str, float],
                    index_version: int | None = None):
    manifest = {
        "tool_version": __version__,
        "command": command,
        "config": config,
        "input_hashes": {k: _sha256(p) for k, p in inputs.items()},
        "index_version": index_version,
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with atomic_write(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_ingest(args) -> int:
    cfg = corpus.FilterConfig()
    if args.filter_config:
        with open(args.filter_config, encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise UsageError("filter config must be a JSON object")
        known = {f.name for f in dataclasses.fields(corpus.FilterConfig)}
        for key in raw:
            if key not in known:
                raise UsageError(f"unknown filter-config key: {key}")
        cfg = corpus.FilterConfig(**raw)
    t0 = time.perf_counter()
    passages = corpus.ingest(corpus.read_documents(args.infile),
                             max_words=args.max_words, cfg=cfg)
    n = corpus.write_passages(passages, args.out)
    out_dir = Path(args.out).parent
    _write_manifest(out_dir, "ingest",
                    {"max_words": args.max_words,
                     "filter": dataclasses.asdict(cfg)},
                    {"in": Path(args.infile)},
                    {"ingest": time.perf_counter() - t0})
    print(f"wrote {n} passages to {args.out}")
    return 0


def cmd_build_index(args) -> int:
    t0 = time.perf_counter()
    passages = corpus.read_passages(args.passages)
    if args.checkpoint:
        enc = retriever.load_checkpoint(args.checkpoint)
    else:
        tokens = [t for p in passages for t in p.text]
        enc = retriever.init_encoder(retriever.Vocab(tokens), args.dim,
                                     seed=args.seed)
    idx = index_mod.build(passages, enc, shards=args.shards,
                          precision=args.precision)
    # The index is written first: an id it rejects leaves no files behind.
    index_mod.save_index(idx, args.out)
    if not args.checkpoint:
        retriever.save_checkpoint(enc, Path(args.out).with_suffix(".rlab"))
    _write_manifest(Path(args.out).parent, "build-index",
                    {"shards": args.shards, "precision": args.precision,
                     "dim": enc.dim, "seed": args.seed},
                    {"passages": Path(args.passages)},
                    {"build": time.perf_counter() - t0},
                    index_version=idx.version)
    print(f"built index: {idx.size} entries, dim {idx.dim}, "
          f"version {idx.version}")
    return 0


def cmd_compress_index(args) -> int:
    t0 = time.perf_counter()
    idx = index_mod.load_index(args.index)
    codec = pq_mod.train_pq(idx, m=args.m, k_c=args.kc,
                            iterations=args.iterations, seed=args.seed)
    compressed = pq_mod.compress(idx, codec)
    pq_mod.save_pq_index(compressed, args.out)
    ratio = idx.memory_bytes() / compressed.memory_bytes()
    _write_manifest(Path(args.out).parent, "compress-index",
                    {"m": args.m, "kc": args.kc,
                     "iterations": args.iterations, "seed": args.seed},
                    {"index": Path(args.index)},
                    {"compress": time.perf_counter() - t0},
                    index_version=idx.version)
    print(f"compressed {idx.memory_bytes()} -> {compressed.memory_bytes()} "
          f"bytes ({ratio:.1f}x)")
    return 0


def cmd_search(args) -> int:
    idx = index_mod.load_index(args.index)
    enc = retriever.load_checkpoint(args.checkpoint)
    q_vec = retriever.encode_query(enc, corpus.tokenize(args.query))
    for pid, score in index_mod.search(idx, q_vec, args.k):
        print(f"{pid}\t{score:.6f}")
    return 0


def _parse_train_config(path: Path) -> trainer.TrainConfig:
    """Flat key=value file mirroring TrainConfig fields, typed as each
    field's default."""
    fields = {f.name: type(f.default)
              for f in dataclasses.fields(trainer.TrainConfig)}
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"malformed config line: {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in fields:
                raise UsageError(f"unknown config key: {key}")
            values[key] = fields[key](raw)
    return trainer.TrainConfig(**values)


def cmd_train(args) -> int:
    cfg = _parse_train_config(Path(args.config))
    t0 = time.perf_counter()
    passages = corpus.read_passages(args.corpus)
    tokens = [t for p in passages for t in p.text]
    tokens.append(pretext.RETRIEVER_MASK_TOKEN)
    enc = retriever.init_encoder(retriever.Vocab(tokens), args.dim,
                                 seed=cfg.seed)
    state = trainer.init_state(enc, passages)
    build_time = time.perf_counter() - t0

    rng = np.random.default_rng(cfg.seed)
    examples = []
    for p in passages:
        if len(p.text) < 2:
            continue
        if args.task == "prefix_lm":
            ex = pretext.prefix_lm_example(p.text, origin_id=p.id)
        else:
            if len(p.text) < 10:
                continue
            ex = pretext.mlm_example(p.text, seed=int(rng.integers(2 ** 31)),
                                     origin_id=p.id)
        examples.append(trainer.TrainExample.from_pretext(ex))
    if not examples:
        raise UsageError("corpus produced no training examples")

    t1 = time.perf_counter()
    history = trainer.train(state, examples, cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    trainer.write_metrics_csv(history, out_dir / "metrics.csv")
    retriever.save_checkpoint(state.encoder, out_dir / "encoder.rlab")
    index_mod.save_index(state.index, out_dir / "index.ridx")
    _write_manifest(out_dir, "train",
                    {k: (v.value if hasattr(v, "value") else v)
                     for k, v in dataclasses.asdict(cfg).items()},
                    {"corpus": Path(args.corpus), "config": Path(args.config)},
                    {"build_index": build_time,
                     "train": time.perf_counter() - t1},
                    index_version=state.index.version)
    print(f"trained {cfg.steps} steps; final loss "
          f"{history[-1].loss:.6f}; artifacts in {out_dir}")
    return 0


def _overlap_choice_scorer(scorer_lm: lm_mod.OverlapLM) -> evalkit.ChoiceScorer:
    """Default scorer: letter probabilities from each option's likelihood
    under the pooled retrieved passages."""
    def score(question, ordered_options, docs):
        doc_tokens = [list(p.text) for p in docs] or [[]]
        logliks = [scorer_lm.joint_loglik(corpus.tokenize(question),
                                          doc_tokens,
                                          corpus.tokenize(opt) or ["?"])
                   / max(len(corpus.tokenize(opt)), 1)
                   for opt in ordered_options]
        return retriever.softmax(np.asarray(logliks))
    return score


def cmd_evaluate(args) -> int:
    tasks = evalkit.read_choice_tasks(args.task)
    passages = corpus.read_passages(args.passages) if args.passages else []
    retrieve = None
    if args.index and args.checkpoint:
        idx = index_mod.load_index(args.index)
        enc = retriever.load_checkpoint(args.checkpoint)
        by_id = {p.id: p for p in passages}
        missing = [pid for pid in idx.ids if pid not in by_id]
        if missing:
            raise UsageError(f"{len(missing)} index ids have no passage in "
                             f"--passages, first {missing[0]!r}")

        def retrieve(question: str, k: int):
            q_vec = retriever.encode_query(enc, corpus.tokenize(question))
            return [by_id[pid] for pid, _ in index_mod.search(idx, q_vec, k)]

    scorer_lm = lm_mod.OverlapLM(vocab_size=max(
        len({t for p in passages for t in p.text}), 1000))
    scorer = _overlap_choice_scorer(scorer_lm)

    correct, flagged = 0, 0
    for task in tasks:
        docs = retrieve(task.question, args.k) if retrieve else []
        if args.audit_leakage:
            kept = [p for p in docs
                    if not evalkit.leakage_audit(task.question, [p])[0]]
            flagged += len(kept) < len(docs)
            docs = kept
        prediction, _ = evalkit.debias_infer(task, scorer, mode=args.mode,
                                             docs=docs)
        correct += int(prediction == task.gold)
    accuracy = correct / len(tasks) if tasks else 0.0
    print(f"accuracy: {accuracy:.4f} ({correct}/{len(tasks)}, mode={args.mode})")
    if args.audit_leakage:
        print(f"leakage-flagged questions: {flagged}")
    return 0


def cmd_swap_index(args) -> int:
    active = index_mod.load_index(args.from_index)
    replacement = index_mod.load_index(args.to_index)
    if replacement.dim != active.dim:
        raise UsageError(f"dimension mismatch: {active.dim} vs {replacement.dim}")
    if (active.dump_date and replacement.dump_date
            and active.dump_date == replacement.dump_date):
        raise UsageError("indices share a dump_date; nothing to swap")
    index_mod.save_index(replacement, args.from_index)
    print(f"swapped index at {args.from_index}: version {active.version} "
          f"-> {replacement.version}")
    return 0


def _fraction(text: str) -> Fraction:
    """An exact rational from a decimal ("0.04") or a fraction ("1/25")."""
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {text!r}") from exc


def cmd_cost_model(args) -> int:
    params = costmodel.CostModelParams(
        n_docs=args.n, batch_size=args.b, k_retrieved=args.k,
        refresh_interval=args.r, l_reranked=args.l or 0,
        p_retr=args.ratio.numerator, p_lm=args.ratio.denominator)
    full = costmodel.overhead_full_refresh(params)
    print(f"full-refresh overhead: {float(full):.3f} "
          f"(~{round(float(full) * 100 / 10) * 10}%)")
    if args.l:
        rerank = costmodel.overhead_rerank(params)
        print(f"rerank overhead: {float(rerank):.3f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="chunk and filter raw documents")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-words", type=int, default=200)
    p.add_argument("--filter-config")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("build-index", help="embed passages into an index")
    p.add_argument("--passages", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="encoder checkpoint; a fresh seeded "
                                        "encoder is created when omitted")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--precision", choices=list(index_mod.PRECISIONS),
                   default="float32")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("compress-index", help="product-quantize an index")
    p.add_argument("--index", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kc", type=int, required=True)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compress_index)

    p = sub.add_parser("search", help="exact top-k search")
    p.add_argument("--index", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--query", required=True)
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("train", help="joint retriever training")
    p.add_argument("--config", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--task", choices=["prefix_lm", "mlm"],
                   default="prefix_lm")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="multiple-choice evaluation")
    p.add_argument("--task", required=True)
    p.add_argument("--mode", choices=list(evalkit.ORDERINGS),
                   default="standard")
    p.add_argument("--passages")
    p.add_argument("--index")
    p.add_argument("--checkpoint")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--audit-leakage", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("swap-index", help="replace the active index")
    p.add_argument("--from", dest="from_index", required=True)
    p.add_argument("--to", dest="to_index", required=True)
    p.set_defaults(func=cmd_swap_index)

    p = sub.add_parser("cost-model", help="index-maintenance overheads")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--l", type=int)
    p.add_argument("--ratio", type=_fraction, default=Fraction(1, 25),
                   help="P_retr / P_lm, such as 0.04 or 1/25 (default)")
    p.set_defaults(func=cmd_cost_model)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
