import math
from typing import Sequence

import numpy as np
import pytest

from rlab.losses import (LossKind, TargetDistribution, adist_target,
                         build_target, distill_step, emdr2_objective,
                         kl_divergence, loop_target, pdist_target)

from oracles import central_difference, mp_emdr2, mp_kl, mp_softmax


class MockScorer:
    """Fixed-value `LMScorer` for loss tests, keyed by document id."""

    def __init__(self, logliks: dict[str, float],
                 relevances: dict[str, float] | None = None,
                 joint: float = -1.0):
        self.logliks = logliks
        self.relevances = relevances or {}
        self.joint = joint
        self.doc_ids: Sequence[str] = []

    def bind(self, doc_ids: Sequence[str]) -> "MockScorer":
        self.doc_ids = list(doc_ids)
        return self

    def per_doc_loglik(self, query, docs, output):
        return [self.logliks[i] for i in self.doc_ids]

    def joint_loglik(self, query, docs, output):
        return self.joint

    def loo_logliks(self, query, docs, output):
        return [self.joint - self.logliks[i] for i in self.doc_ids]

    def attention_relevance(self, query, docs, output):
        return [self.relevances.get(i, 0.0) for i in self.doc_ids]


class TestKLDivergence:
    def test_identical_zero(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_value(self):
        got = kl_divergence([0.5, 0.5], [0.25, 0.75])
        assert got == pytest.approx(0.5 * math.log(2) + 0.5 * math.log(2 / 3),
                                    abs=1e-10)
        assert got == pytest.approx(0.1438, abs=1e-4)

    def test_degenerate_p(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_support_violation(self):
        with pytest.raises(ValueError, match="absolute continuity"):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_invalid_distribution(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.6], [0.5, 0.5])


class TestTargets:
    def test_adist_equal_relevances_uniform(self):
        np.testing.assert_allclose(adist_target([0.2, 0.2, 0.2]).probs,
                                   [1 / 3] * 3)

    def test_adist_hand_value(self):
        probs = adist_target([0.3, 0.1], 1.0).probs
        np.testing.assert_allclose(probs, [0.5498, 0.4502], atol=1e-4)

    def test_adist_single_doc(self):
        np.testing.assert_allclose(adist_target([0.9]).probs, [1.0])

    def test_adist_invalid_temperature(self):
        with pytest.raises(ValueError):
            adist_target([0.1], temperature_target=0.0)

    def test_pdist_normalizes_likelihoods(self):
        probs = pdist_target([math.log(0.9), math.log(0.1)], 1.0).probs
        np.testing.assert_allclose(probs, [0.9, 0.1], atol=1e-12)

    def test_pdist_hand_softmax(self):
        probs = pdist_target([-1.0, -2.0, -3.0], 1.0).probs
        np.testing.assert_allclose(probs, [0.6652, 0.2447, 0.0900], atol=1e-4)

    def test_loop_negated(self):
        probs = loop_target([-2.0, -1.0], 1.0).probs
        np.testing.assert_allclose(probs, [0.7311, 0.2689], atol=1e-4)

    def test_loop_requires_k2(self):
        with pytest.raises(ValueError):
            loop_target([-1.0])

    def test_loop_equivariance(self):
        a = loop_target([-3.0, -1.0, -2.0]).probs
        b = loop_target([-1.0, -2.0, -3.0]).probs
        np.testing.assert_allclose(a, [b[2], b[0], b[1]])

    def test_degenerate_scores_fall_back_to_uniform(self):
        with pytest.warns(UserWarning, match="degenerate"):
            probs = pdist_target([-np.inf, -np.inf]).probs
        np.testing.assert_allclose(probs, [0.5, 0.5])

    @pytest.mark.parametrize("kind", ["adist", "pdist", "loop"])
    def test_constructors_valid_and_equivariant(self, kind):
        rng = np.random.default_rng(0)
        ctor = {"adist": adist_target, "pdist": pdist_target,
                "loop": loop_target}[kind]
        for _ in range(50):
            k = int(rng.integers(2, 6))
            scores = rng.normal(size=k)
            t = ctor(scores, float(rng.uniform(0.1, 3.0)))
            assert np.all(t.probs >= 0)
            assert abs(t.probs.sum() - 1.0) < 1e-9
            perm = rng.permutation(k)
            np.testing.assert_allclose(
                ctor(scores[perm], t.temperature_target).probs,
                t.probs[perm], atol=1e-12)


class TestOracleEquivalence:
    """Targets and the mixture objective against 50-digit evaluation."""

    def test_targets_match_extended_precision(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            k = int(rng.integers(2, 6))
            theta_t = float(rng.uniform(0.1, 3.0))
            relevance = rng.uniform(0, 1, size=k)
            logliks = -rng.exponential(2.0, size=k)
            np.testing.assert_allclose(
                adist_target(relevance, theta_t).probs,
                mp_softmax(relevance / theta_t), rtol=1e-9)
            np.testing.assert_allclose(
                pdist_target(logliks, theta_t).probs,
                mp_softmax(logliks / theta_t), rtol=1e-9)
            np.testing.assert_allclose(
                loop_target(logliks, theta_t).probs,
                mp_softmax(-logliks / theta_t), rtol=1e-9)

    def test_emdr2_matches_extended_precision(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            logliks = -rng.exponential(2.0, size=k)
            probs = rng.dirichlet(np.ones(k))
            got = emdr2_objective(logliks, probs).value
            assert got == pytest.approx(mp_emdr2(logliks, probs), rel=1e-9)


class TestEMDR2:
    def test_hand_value(self):
        got = emdr2_objective([math.log(0.8), math.log(0.4)], [0.5, 0.5])
        assert got.value == pytest.approx(math.log(0.6))

    def test_one_hot_mixture(self):
        got = emdr2_objective([-1.0, -5.0], [0.0, 1.0])
        assert got.value == pytest.approx(-5.0)

    def test_constant_logliks(self):
        got = emdr2_objective([-2.5, -2.5, -2.5], [0.2, 0.3, 0.5])
        assert got.value == pytest.approx(-2.5)

    def test_value_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            logliks = -rng.exponential(2.0, size=k)
            probs = rng.dirichlet(np.ones(k))
            v = emdr2_objective(logliks, probs).value
            assert logliks.min() - 1e-9 <= v <= logliks.max() + 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        from rlab.retriever import retrieval_distribution
        for _ in range(50):
            k = int(rng.integers(2, 6))
            logliks = -rng.exponential(2.0, size=k)
            scores = rng.normal(size=k)
            theta = float(rng.uniform(0.2, 2.0))

            def negated_objective(s):
                p = retrieval_distribution(s, theta)
                return -emdr2_objective(logliks, p, theta).value

            probs = retrieval_distribution(scores, theta)
            got = emdr2_objective(logliks, probs, theta).grad_wrt_scores
            want = central_difference(negated_objective, scores)
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)
            assert abs(got.sum()) < 1e-10


class TestDistillStep:
    def test_zero_at_match(self):
        target = pdist_target([-1.0, -1.0])
        got = distill_step(target, [0.5, 0.5], 1.0)
        assert got.value == pytest.approx(0.0)
        np.testing.assert_allclose(got.grad_wrt_scores, [0.0, 0.0], atol=1e-15)

    def test_closed_form(self):
        target = TargetDistribution(np.array([1.0, 0.0]), LossKind.PDIST, 1.0)
        got = distill_step(target, [0.5, 0.5], 1.0)
        assert got.value == pytest.approx(math.log(2))
        np.testing.assert_allclose(got.grad_wrt_scores, [-0.5, 0.5])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        from rlab.retriever import retrieval_distribution
        for _ in range(50):
            k = int(rng.integers(2, 6))
            target = TargetDistribution(rng.dirichlet(np.ones(k)),
                                        LossKind.PDIST, 1.0)
            scores = rng.normal(size=k)
            theta = float(rng.uniform(0.2, 2.0))

            def value(s):
                return distill_step(target,
                                    retrieval_distribution(s, theta),
                                    theta).value

            got = distill_step(target, retrieval_distribution(scores, theta),
                               theta).grad_wrt_scores
            want = central_difference(value, scores)
            np.testing.assert_allclose(got, want, rtol=1e-4, atol=1e-8)
            assert abs(got.sum()) < 1e-10

    def test_kl_value_matches_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            p = rng.dirichlet(np.ones(k))
            q = rng.dirichlet(np.ones(k))
            assert kl_divergence(p, q) == pytest.approx(mp_kl(p, q), rel=1e-9)


class TestStopGradient:
    def test_target_frozen_vs_recomputed(self):
        # Perturbing the LM scores that produced the target must not change
        # grad_wrt_scores unless the target itself is rebuilt.
        from rlab.retriever import retrieval_distribution
        logliks = np.array([-1.0, -2.0, -0.5])
        scores = np.array([0.2, -0.1, 0.4])
        probs = retrieval_distribution(scores, 1.0)
        target = pdist_target(logliks)
        base = distill_step(target, probs, 1.0).grad_wrt_scores
        again = distill_step(target, probs, 1.0).grad_wrt_scores
        np.testing.assert_array_equal(base, again)
        rebuilt = pdist_target(logliks + np.array([0.3, 0.0, -0.2]))
        moved = distill_step(rebuilt, probs, 1.0).grad_wrt_scores
        assert not np.allclose(base, moved)


class TestIdentities:
    def test_pdist_loop_k2_swap(self):
        # With two docs, removing one leaves the other: LOOP of (a, b)
        # equals PDist of (b, a) at matching temperature.
        a, b = -1.3, -0.4
        np.testing.assert_allclose(loop_target([a, b], 0.7).probs,
                                   pdist_target([b, a], 0.7).probs)

    def test_build_target_dispatch(self):
        mock = MockScorer({"p1": -1.0, "p2": -2.0},
                          {"p1": 0.6, "p2": 0.1}, joint=-3.0).bind(["p1", "p2"])
        for kind in ("adist", "pdist", "loop"):
            t = build_target(kind, mock, [], [[], []], ["x"])
            assert t.source == LossKind(kind)
            assert abs(t.probs.sum() - 1.0) < 1e-9
        with pytest.raises(ValueError):
            build_target("emdr2", mock, [], [[], []], ["x"])
