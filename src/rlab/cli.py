"""Command-line entry point wiring corpus -> index -> trainer -> evalkit.

One binary, subcommand style. Config files hold `key = value` lines.
Each artifact gets a manifest (every argument, config field and input
hash, the index version, per-phase timings) that reproduces its run:
`<artifact>.manifest.json` next to the file a command writes, or
`manifest.json` in the directory `train` writes.
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


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_config(path: str, cls):
    """A `cls` from `key = value` lines, each key once; blank and `#` lines
    are skipped. Each value is typed as its field's default and checked with
    the others at their defaults, so an error names its line or lines."""
    types = {f.name: type(f.default) for f in dataclasses.fields(cls)}
    values, lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            key, eq, raw = map(str.strip, line.partition("="))
            if key.startswith("#") or not (key or eq):
                continue
            if key not in types or not eq:
                what = "unknown key" if eq else "malformed line"
                raise ValueError(f"{path}, line {n}: {what} {key!r}")
            try:
                values[key] = types[key](raw)
                cls(**{key: values[key]})
            except ValueError as exc:
                raise ValueError(f"{path}, line {n}: {key}: {exc}") from None
            if lines.setdefault(key, n) != n:
                raise ValueError(f"{path}, lines {lines[key]} and {n}: "
                                 f"repeated key {key!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# The arguments that name an input file: a manifest hashes each one given,
# and `main` refuses, before anything is read, an --out that names one.
_INPUTS = ("infile", "passages", "checkpoint", "index", "corpus", "config",
           "filter_config")


def _write_manifest(path: Path, args, timings: dict[str, float], config=None,
                    index_version: int | None = None,
                    metrics: dict[str, float] | None = None):
    """Every argument in `args`, `config`'s fields and each input's sha256."""
    given = {k: v for k, v in vars(args).items()
             if k not in ("func", "command")}
    manifest = {
        "tool_version": __version__,
        "command": args.command,
        "config": {**given, **(dataclasses.asdict(config) if config else {})},
        "input_hashes": {k: _sha256(given[k]) for k in _INPUTS
                         if given.get(k)},
        "index_version": index_version,
        "timings_s": {k: round(v, 4) for k, v in timings.items()},
        "metrics": metrics or {},
    }
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Subcommands

def cmd_ingest(args) -> int:
    cfg = (_read_config(args.filter_config, corpus.FilterConfig)
           if args.filter_config else corpus.FilterConfig())
    t0 = time.perf_counter()
    passages = corpus.ingest(corpus.read_documents(args.infile),
                             max_words=args.max_words, cfg=cfg)
    n = corpus.write_passages(passages, args.out)
    _write_manifest(Path(f"{args.out}.manifest.json"), args,
                    {"ingest": time.perf_counter() - t0}, cfg)
    print(f"wrote {n} passages to {args.out}")
    return 0


def cmd_build_index(args) -> int:
    if args.checkpoint and args.dim is not None:
        raise ValueError("--dim sizes a fresh encoder, not --checkpoint's")
    ckpt = Path(args.checkpoint or Path(args.out).with_suffix(".rlab"))
    if ckpt.resolve() in {Path(p).resolve() for p in (args.out, args.passages)}:
        raise ValueError(f"checkpoint {ckpt} is also --out or --passages")
    t0 = time.perf_counter()
    passages = corpus.read_passages(args.passages)
    if args.checkpoint:
        enc = retriever.load_checkpoint(args.checkpoint)
    else:
        enc = retriever.init_encoder(retriever.Vocab(set().union(
            *(p.text for p in passages))),
            64 if args.dim is None else args.dim, seed=args.seed)
    idx = index_mod.build(passages, enc, shards=args.shards,
                          precision=args.precision)
    # The index is written first: an id it rejects leaves no files behind.
    index_mod.save_index(idx, args.out)
    if not args.checkpoint:
        retriever.save_checkpoint(enc, ckpt)
    _write_manifest(Path(f"{args.out}.manifest.json"), args,
                    {"build": time.perf_counter() - t0},
                    index_version=idx.version)
    print(f"built index: {idx.size} entries, dim {idx.dim}, "
          f"version {idx.version}")
    return 0


def cmd_compress_index(args) -> int:
    t0 = time.perf_counter()
    idx = index_mod.load_index(args.index)
    codebooks = pq_mod.train_pq(idx, m=args.m, k_c=args.kc,
                                iterations=args.iterations, seed=args.seed)
    compressed = pq_mod.compress(idx, codebooks)
    pq_mod.save_pq_index(compressed, args.out)
    t1 = time.perf_counter()
    # Up to 100 index rows, drawn with --seed, query both indexes.
    queries = idx.vectors[np.random.default_rng(args.seed).choice(
        idx.size, min(100, idx.size), replace=False)]
    metrics = {
        "reconstruction_mse": pq_mod.squared_error(idx, compressed) / idx.size,
        "recall_at_10": pq_mod.recall_at_k(
            [pq_mod.pq_search(compressed, q, 10) for q in queries],
            index_mod.search_batch(idx, queries, 10), 10),
    }
    _write_manifest(Path(f"{args.out}.manifest.json"), args,
                    {"compress": t1 - t0, "metrics": time.perf_counter() - t1},
                    index_version=idx.version, metrics=metrics)
    print(f"compressed {idx.memory_bytes()} -> {compressed.memory_bytes()} "
          f"bytes ({idx.memory_bytes() / compressed.memory_bytes():.1f}x)")
    return 0


def cmd_search(args) -> int:
    idx = index_mod.load_index(args.index)
    enc = retriever.load_checkpoint(args.checkpoint)
    q_vec = retriever.encode_query(enc, corpus.tokenize(args.query))
    for pid, score in index_mod.search(idx, q_vec, args.k):
        print(f"{pid}\t{score:.6f}")
    return 0


def cmd_train(args) -> int:
    cfg = _read_config(args.config, trainer.TrainConfig)
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():
        raise FileExistsError(f"--out {out_dir} is a file, not a directory")
    t0 = time.perf_counter()
    passages = corpus.read_passages(args.corpus)
    enc = retriever.init_encoder(retriever.Vocab(set().union(
        [pretext.RETRIEVER_MASK_TOKEN], *(p.text for p in passages))),
        64 if args.dim is None else args.dim, seed=cfg.seed)
    state = trainer.init_state(enc, passages)
    build_time = time.perf_counter() - t0

    examples = pretext.TaskExamples(state.passages, args.task, cfg.seed)
    if not examples:
        raise ValueError("corpus produced no training examples")

    t1 = time.perf_counter()
    history = trainer.train(state, examples, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    trainer.write_metrics_csv(history, out_dir / "metrics.csv")
    retriever.save_checkpoint(state.encoder, out_dir / "encoder.rlab")
    index_mod.save_index(state.index, out_dir / "index.ridx")
    _write_manifest(out_dir / "manifest.json", args,
                    {"build_index": build_time,
                     "train": time.perf_counter() - t1},
                    cfg, index_version=state.index.version)
    print(f"trained {cfg.steps} steps; final loss "
          f"{history[-1].loss:.6f}; artifacts in {out_dir}")
    return 0


def _overlap_choice_scorer(scorer_lm: lm_mod.OverlapLM) -> evalkit.ChoiceScorer:
    """Default scorer: letter probabilities from each option's likelihood
    under the pooled retrieved passages."""
    def score(question, ordered_options, docs):
        doc_tokens = corpus.TokenTable([p.text for p in docs] or [()])
        logliks = [scorer_lm.joint_loglik(corpus.tokenize(question),
                                          doc_tokens,
                                          corpus.tokenize(opt) or ["?"])
                   / max(len(corpus.tokenize(opt)), 1)
                   for opt in ordered_options]
        return retriever.softmax(np.asarray(logliks))
    return score


def cmd_evaluate(args) -> int:
    if bool(args.index) != bool(args.checkpoint):
        raise ValueError("--index needs --checkpoint" if args.index
                         else "--checkpoint needs --index")
    tasks = evalkit.read_choice_tasks(args.task)
    if not tasks:
        raise ValueError(f"{args.task} holds no task")
    passages = corpus.read_passages(args.passages) if args.passages else []
    retrieve = None
    if args.index:
        idx = index_mod.load_index(args.index)
        enc = retriever.load_checkpoint(args.checkpoint)
        by_id = {p.id: p for p in passages}
        missing = [pid for pid in idx.ids if pid not in by_id]
        if missing:
            raise ValueError(f"{len(missing)} index ids have no passage in "
                             f"--passages, first {missing[0]!r}")

        def retrieve(question: str, k: int):
            q_vec = retriever.encode_query(enc, corpus.tokenize(question))
            return [by_id[pid] for pid, _ in index_mod.search(idx, q_vec, k)]

    scorer = _overlap_choice_scorer(lm_mod.OverlapLM(vocab_size=max(
        len(set().union(*(p.text for p in passages))), 1000)))

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
    accuracy = correct / len(tasks)
    print(f"accuracy: {accuracy:.4f} ({correct}/{len(tasks)}, mode={args.mode})")
    if args.audit_leakage:
        print(f"leakage-flagged questions: {flagged}")
    return 0


def cmd_swap_index(args) -> int:
    active = index_mod.load_index(args.from_index)
    replacement = index_mod.load_index(args.to_index)
    if replacement.dim != active.dim:
        raise ValueError(f"dimension mismatch: {active.dim} vs {replacement.dim}")
    if (active.dump_date and replacement.dump_date
            and active.dump_date == replacement.dump_date):
        raise ValueError("indices share a dump_date; nothing to swap")
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

_REQUIRED, _REQUIRED_INT = {"required": True}, {"required": True, "type": int}
# Each subcommand's help line and options, as (flag, add_argument
# keywords), in the order `rlab --help` lists them.
_COMMANDS = {
    "ingest": ("chunk and filter raw documents", [
        ("--in", dict(dest="infile", required=True)), ("--out", _REQUIRED),
        ("--max-words", dict(type=int, default=200)),
        ("--filter-config", {})]),
    "build-index": ("embed passages into an index", [
        ("--passages", _REQUIRED), ("--out", _REQUIRED),
        ("--checkpoint", dict(help="encoder checkpoint; a fresh seeded "
                                   "encoder is created when omitted")),
        ("--dim", dict(type=int, help="fresh encoder width, default 64")),
        ("--shards", dict(type=int, default=1)),
        ("--precision", dict(choices=list(index_mod.PRECISIONS),
                             default="float32")),
        ("--seed", dict(type=int, default=0))]),
    "compress-index": ("product-quantize an index", [
        ("--index", _REQUIRED), ("--out", _REQUIRED),
        ("--m", _REQUIRED_INT), ("--kc", _REQUIRED_INT),
        ("--iterations", dict(type=int, default=20)),
        ("--seed", dict(type=int, default=0))]),
    "search": ("exact top-k search", [
        ("--index", _REQUIRED), ("--checkpoint", _REQUIRED),
        ("--query", _REQUIRED), ("--k", dict(type=int, default=5))]),
    "train": ("joint retriever training", [
        ("--config", _REQUIRED), ("--corpus", _REQUIRED), ("--out", _REQUIRED),
        ("--dim", dict(type=int, help="fresh encoder width, default 64")),
        ("--task", dict(choices=["prefix_lm", "mlm"], default="prefix_lm"))]),
    "evaluate": ("multiple-choice evaluation", [
        ("--task", _REQUIRED),
        ("--mode", dict(choices=list(evalkit.ORDERINGS), default="standard")),
        ("--passages", {}), ("--index", {}), ("--checkpoint", {}),
        ("--k", dict(type=int, default=5)),
        ("--audit-leakage", dict(action="store_true"))]),
    "swap-index": ("replace the active index", [
        ("--from", dict(dest="from_index", required=True)),
        ("--to", dict(dest="to_index", required=True))]),
    "cost-model": ("index-maintenance overheads", [
        ("--n", _REQUIRED_INT), ("--b", _REQUIRED_INT), ("--k", _REQUIRED_INT),
        ("--r", dict(type=int, default=1)), ("--l", dict(type=int)),
        ("--ratio", dict(type=_fraction, default=Fraction(1, 25), help=(
            "P_retr / P_lm, such as 0.04 or 1/25 (default)")))]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `rlab` parser with every subcommand, or with `command` alone:
    creating each subcommand's parser is most of the cost, so `main` builds
    only the one it runs. A lone subcommand keeps the full list in the
    usage line that top-level errors print."""
    parser = argparse.ArgumentParser(prog="rlab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    # No metavar on the full parser: it would rename `command` in errors.
    sub = parser.add_subparsers(dest="command", required=True, **(
        {"metavar": "{" + ",".join(_COMMANDS) + "}"} if command else {}))
    for name in [command] if command else _COMMANDS:
        help_line, options = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        # Looked up per build, so a handler replaced on the module runs.
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Only the command argv[0] names; for help or a typo, the full parser.
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if getattr(args, "out", None) and Path(args.out).resolve() in {
                Path(v).resolve() for k, v in vars(args).items()
                if k in _INPUTS and v}:
            raise ValueError(f"--out {args.out} is also an input")
        return args.func(args)
    except (OSError, formats.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
