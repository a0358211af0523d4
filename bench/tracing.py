"""Span tracing of rlab's public functions, applied from outside the library.

`Tracer.install()` replaces each function in LAYER_FUNCTIONS with a wrapper
that records one span per call: name, start, end and the index of the span
that was open when it was called (its parent). A module-level function is
replaced in every rlab module that holds a reference to it, because modules
bind imported names at import time: `trainer` imports `encode_doc`,
`encode_query` and `_backprop_side` from `retriever`, `index` imports
`encode_doc`, and `pq` imports `_top_k` from `index`. Methods are replaced
on their class. `uninstall()` puts every original back.

Spans stay in memory until the run ends; `self_times()` reduces them to
calls and self time per function, where self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# "<module>.<function>" or "<module>.<Class>.<method>", as the layer metric
# names spell them.
LAYER_FUNCTIONS = (
    "corpus.ingest",
    "corpus.read_passages",
    "corpus.write_passages",
    "retriever.encode_query",
    "retriever.encode_doc",
    "retriever._backprop_side",
    "retriever.Gradients.zeros_like",
    "retriever.Gradients.add_scaled",
    "retriever.save_checkpoint",
    "retriever.load_checkpoint",
    "index.build",
    "index.search",
    "index.search_batch",
    "index._top_k",
    "index.save_index",
    "index.load_index",
    "pq.train_pq",
    "pq.compress",
    "pq.pq_search",
    "pq.save_pq_index",
    "pq.load_pq_index",
    "lm.OverlapLM.per_doc_loglik",
    "lm.OverlapLM.joint_loglik",
    "losses.build_target",
    "losses.distill_step",
    "pretext.prefix_lm_example",
    "trainer.init_state",
    "trainer.train",
    "trainer.train_step",
    "trainer.recall_at_1",
    "evalkit.debias_infer",
    "evalkit.leakage_audit",
    "cli.main",
    "cli.cmd_ingest",
    "cli.cmd_build_index",
    "cli.cmd_compress_index",
    "cli.cmd_search",
    "cli.cmd_train",
    "cli.cmd_evaluate",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Calls inside record no spans (a workload's output checks)."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(span)
            starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = time.perf_counter()
                open_.pop()
        return traced

    def _replace(self, owner, attr: str, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "rlab" or key.startswith("rlab.")]
        for name in LAYER_FUNCTIONS:
            module_name, *path = name.split(".")
            owner = importlib.import_module(f"rlab.{module_name}")
            if len(path) == 2:
                cls = getattr(owner, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._replace(cls, path[1], wrapped)
                continue
            original = getattr(owner, path[0])
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time in ms)."""
        covered = [0.0] * len(self.names)
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[span] - self.starts[span]
        totals = {name: (0, 0.0) for name in LAYER_FUNCTIONS}
        for span, name in enumerate(self.names):
            calls, self_s = totals[name]
            own = self.ends[span] - self.starts[span] - covered[span]
            totals[name] = (calls + 1, self_s + own)
        return {name: (calls, 1e3 * self_s)
                for name, (calls, self_s) in totals.items()}

    def write_spans(self, path):
        """One JSON object per line: {name, start, end, parent}, times in
        seconds from the first span."""
        origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in zip(self.names, self.starts,
                                                self.ends, self.parents):
                fh.write(json.dumps({"name": name,
                                     "start": round(start - origin, 9),
                                     "end": round(end - origin, 9),
                                     "parent": parent}) + "\n")
