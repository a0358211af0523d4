import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from rlab.costmodel import (CostModelParams, overhead_full_refresh,
                            overhead_rerank)


PAPER = CostModelParams(
    n_docs=37_000_000,
    batch_size=64,
    k_retrieved=20,
    refresh_interval=1000,
    l_reranked=200,
    p_retr=1,
    p_lm=25,
)


class TestFullRefresh:
    def test_reference_value(self):
        got = overhead_full_refresh(PAPER)
        assert got == Fraction(37_000_000, 4 * 64 * 20 * 25 * 1000)
        assert got == Fraction(37, 128)
        assert float(got) == 0.2890625
        assert abs(float(got) - 0.30) < 0.02

    def test_scales_inverse_with_refresh_interval(self):
        doubled = replace(PAPER, refresh_interval=2000)
        assert overhead_full_refresh(doubled) == overhead_full_refresh(PAPER) / 2

    def test_exact_fraction(self):
        p = CostModelParams(n_docs=3, batch_size=7, k_retrieved=11,
                            refresh_interval=13, p_retr=5, p_lm=2)
        assert overhead_full_refresh(p) == Fraction(3 * 5, 4 * 7 * 11 * 2 * 13)

    def test_validation(self):
        with pytest.raises(ValueError):
            CostModelParams(n_docs=0, batch_size=1, k_retrieved=1)


class TestRerank:
    def test_reference_value(self):
        got = overhead_rerank(PAPER)
        assert got == Fraction(200, 4 * 20 * 25)
        assert got == Fraction(1, 10)

    def test_independent_of_corpus_size(self):
        small = replace(PAPER, n_docs=100)
        assert overhead_rerank(small) == overhead_rerank(PAPER)

    def test_linear_in_l(self):
        assert overhead_rerank(replace(PAPER, l_reranked=400)) \
            == 2 * overhead_rerank(PAPER)

    def test_requires_positive_l(self):
        with pytest.raises(ValueError):
            overhead_rerank(replace(PAPER, l_reranked=0))

    def test_negative_l_rejected(self):
        with pytest.raises(ValueError, match="l_reranked"):
            replace(PAPER, l_reranked=-1)


def test_import_loads_no_other_rlab_module():
    # The package imported every module, so `import rlab.costmodel` loaded
    # all of them, numpy included.
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = ("import sys, rlab.costmodel\n"
              "print(sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'rlab'))")
    loaded = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert loaded == "['rlab', 'rlab.costmodel']\n"
