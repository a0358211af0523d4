"""Train a retriever from LM feedback alone on a needle corpus.

1,000 passages, each made of its own private tokens, and 32 queries
whose tokens never occur in any passage. Embeddings start random, so
recall@1 starts at zero, and nothing ties a query to its gold passage
except that the LM scores the gold passage's text as far more likely to
produce the expected output. Distilling that signal into the retrieval
softmax is enough to reach perfect recall; freezing the retriever
(mode=fixed) goes nowhere on the same budget.
"""

import sys
import time
from pathlib import Path

from rlab.losses import LossKind
from rlab.trainer import (MaintenanceMode, TrainConfig, init_state,
                          recall_at_1, train)

# The needle fixture is shared with the test suite (criterion 4).
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from needle import make_needle_task  # noqa: E402


def run(loss, mode, temperature_target):
    passages, examples, encoder = make_needle_task(seed=1)
    state = init_state(encoder, passages)
    cfg = TrainConfig(k_retrieved=1000, batch_size=8, steps=200,
                      loss=loss, mode=mode, temperature=0.1,
                      temperature_target=temperature_target,
                      learning_rate=0.3, warmup_steps=5, seed=0)
    before = recall_at_1(state, examples, cfg)
    t0 = time.perf_counter()
    train(state, examples, cfg)
    after = recall_at_1(state, examples, cfg)
    print(f"{loss.value:>6} / {mode.value:<10} recall@1 "
          f"{before:.3f} -> {after:.3f}  ({time.perf_counter() - t0:.1f}s)")


def main():
    print("200 steps, batch 8, lr 0.3, softmax temperature 0.1\n")
    run(LossKind.PDIST, MaintenanceMode.FIXED, 1.0)
    for loss, t_target in ((LossKind.PDIST, 1.0), (LossKind.EMDR2, 1.0),
                           (LossKind.ADIST, 0.001), (LossKind.LOOP, 0.01)):
        run(loss, MaintenanceMode.QUERY_SIDE, t_target)


if __name__ == "__main__":
    main()
