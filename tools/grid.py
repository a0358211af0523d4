"""Hash a grid of short training runs, to check that a change keeps the
trainer's bits.

    python tools/grid.py SRC_DIR TESTS_DIR

imports `rlab` from SRC_DIR and the needle fixture from TESTS_DIR, runs
144 cases and prints the sha256 of them all. The cases are every
maintenance mode x every loss x (K, L) in {(3, 6), (5, 5), (8, 30)} x
{1, 2, 40} passages, each the needle fixture at d = 8 with 8 examples,
every other one with its gold passage as origin, and both projections
I + 0.3 N(0, 1); 7 steps of batch 4, R = 3, lr 0.5, warmup 2. A case
hashes its four encoder tables, its index vectors, every StepMetrics and
its stale-rerank count, or the type and message of what it raised.

Run it on two trees (one unpacked with `git archive REV | tar -x -C DIR`)
and under OPENBLAS_NUM_THREADS=1 and =2: equal totals mean the same bits.
"""

import argparse
import hashlib
import sys
from dataclasses import replace

import numpy as np

KL_PAIRS = [(3, 6), (5, 5), (8, 30)]
N_PASSAGES = [1, 2, 40]


def run_case(mode, loss, k, l_pool, n_passages):
    """The bytes that a case hashes."""
    from needle import make_needle_task
    from rlab.trainer import TrainConfig, init_state, train

    passages, examples, encoder = make_needle_task(
        n_passages=n_passages, n_examples=8, dim=8, seed=0)
    examples = [replace(ex, origin_passage_id=ex.gold_passage_id) if e % 2
                else ex for e, ex in enumerate(examples)]
    rng = np.random.default_rng(0)
    for side in (encoder.query, encoder.doc):
        side.projection[:] = np.eye(8) + 0.3 * rng.normal(size=(8, 8))
    cfg = TrainConfig(mode=mode, loss=loss, k_retrieved=k,
                      l_rerank_pool=l_pool, refresh_interval=3, batch_size=4,
                      steps=7, learning_rate=0.5, warmup_steps=2)
    try:
        state = init_state(encoder, passages)
        history = train(state, examples, cfg)
    except Exception as exc:  # a case that raises hashes what it raised
        return f"{type(exc).__name__}: {exc}".encode()
    tables = [encoder.query.embedding, encoder.query.projection,
              encoder.doc.embedding, encoder.doc.projection,
              state.index.vectors]
    return b"".join([*(t.tobytes() for t in tables),
                     repr(history).encode(),
                     str(state.stale_rerank_warnings).encode()])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src_dir")
    parser.add_argument("tests_dir")
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src_dir, args.tests_dir]
    from rlab.losses import LossKind
    from rlab.retriever import MaintenanceMode

    total = hashlib.sha256()
    for mode in MaintenanceMode:
        for loss in LossKind:
            for k, l_pool in KL_PAIRS:
                for n in N_PASSAGES:
                    case = f"{mode.value} {loss.value} K={k} L={l_pool} N={n}"
                    digest = hashlib.sha256(
                        run_case(mode, loss, k, l_pool, n)).hexdigest()
                    total.update(f"{case} {digest}\n".encode())
    print(total.hexdigest())


if __name__ == "__main__":
    main()
