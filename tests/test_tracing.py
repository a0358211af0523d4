"""`bench/tracing.py` wraps rlab functions by name from outside the
library. A rename or a moved import in rlab must fail here instead of
silently breaking `python3 bench/run.py --trace 1`."""

import importlib
import importlib.util
import sys
from pathlib import Path

import rlab.cli  # noqa: F401  loads every rlab module the tracer patches
from rlab.lm import OverlapLM
from rlab.trainer import TrainConfig, init_state, train_step

from needle import make_needle_task

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(layer_functions):
    """Every global of every loaded rlab module, plus each traced name as
    its owner (module or class) holds it."""
    found = {(key, attr): value for key, module in sys.modules.items()
             if key == "rlab" or key.startswith("rlab.")
             for attr, value in vars(module).items()}
    for name in layer_functions:
        module_name, *path = name.split(".")
        owner = importlib.import_module(f"rlab.{module_name}")
        for attr in path[:-1]:
            owner = vars(owner)[attr]
        found[name] = vars(owner)[path[-1]]
    return found


def test_install_wraps_every_layer_function_and_uninstall_restores():
    tracing = load_tracing()
    names = tracing.LAYER_FUNCTIONS
    before = bindings(names)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = bindings(names)
        assert [n for n in names if during[n] is before[n]] == []
        # no rlab module may keep calling an unwrapped original
        originals = {id(before[n]) for n in names}
        assert [key for key, value in during.items()
                if id(value) in originals] == []

        passages, examples, encoder = make_needle_task(
            n_passages=20, n_examples=4, dim=8)
        cfg = TrainConfig(k_retrieved=5, batch_size=2, steps=1)
        train_step(init_state(encoder, passages), examples[:2], cfg,
                   OverlapLM(vocab_size=5000))
        calls = {name: c for name, (c, _) in tracer.self_times().items()}
        # One backprop per step: the query side only, in one call.
        assert calls["retriever._backprop_side"] == 1
        assert calls["retriever.Gradients.zeros_like"] == 1
        assert calls["retriever.Gradients.add_scaled"] == 0
    finally:
        tracer.uninstall()
    after = bindings(names)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
