"""Retriever training objectives.

Three of the four objectives (attention distillation, per-document
posterior distillation, leave-one-out distillation) construct a target
distribution over the retrieved documents from reader signals and distill
it into the retriever with a KL step. The fourth treats the documents as
latent variables and maximizes the log marginal likelihood of the output.
Each target and the mixture's posterior is a `retriever.softmax`, under its
rule; in LOOP the documents the output cannot do without share all the mass.

Targets are constants with respect to retriever differentiation
(StopGradient): the gradient of every objective with respect to the
retrieval scores has the closed form (p_retr - target) / temperature,
where for the marginal-likelihood objective the "target" is the document
posterior of the mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .retriever import check_distribution, check_temperature, softmax

DEFAULT_TARGET_TEMPERATURE = 1.0


class LossKind(str, Enum):
    ADIST = "adist"
    EMDR2 = "emdr2"
    PDIST = "pdist"
    LOOP = "loop"


@dataclass(frozen=True)
class TargetDistribution:
    probs: np.ndarray


@dataclass(frozen=True)
class LossValue:
    value: float
    grad_wrt_scores: np.ndarray


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Sum of p_k ln(p_k / q_k) with the 0 * ln 0 = 0 convention."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must have equal length")
    check_distribution(p, "p")
    check_distribution(q, "q")
    support = p > 0
    if np.any(q[support] <= 0):
        raise ValueError("absolute continuity violated: q=0 where p>0")
    return float(np.sum(p[support] * np.log(p[support] / q[support])))


def adist_target(relevance: Sequence[float],
                 temperature_target: float = DEFAULT_TARGET_TEMPERATURE) -> TargetDistribution:
    """Softmax of aggregated attention-relevance scores."""
    return TargetDistribution(softmax(relevance, temperature_target))


def pdist_target(per_doc_logliks: Sequence[float],
                 temperature_target: float = DEFAULT_TARGET_TEMPERATURE) -> TargetDistribution:
    """Document posterior under a uniform prior: softmax of the per-doc
    output log-likelihoods."""
    return TargetDistribution(softmax(per_doc_logliks, temperature_target))


def loop_target(loo_logliks: Sequence[float],
                temperature_target: float = DEFAULT_TARGET_TEMPERATURE) -> TargetDistribution:
    """Softmax of negated leave-one-out log-likelihoods: a document whose
    removal hurts most receives the highest target mass; those without
    which the output is impossible share all of it (the limit at +inf)."""
    scores = -np.asarray(loo_logliks, dtype=np.float64)
    if scores.size < 2:
        raise ValueError("leave-one-out target requires K >= 2")
    if np.isposinf(scores).any() and not np.isnan(scores).any():
        scores = np.where(np.isposinf(scores), 0.0, -np.inf)
    return TargetDistribution(softmax(scores, temperature_target))


def emdr2_objective(per_doc_logliks: Sequence[float],
                    retr_probs: Sequence[float],
                    temperature: float = 1.0) -> LossValue:
    """Log marginal likelihood ln sum_k p_lm(a|q,d_k) p_retr(d_k|q).

    value is the objective itself (to be maximized); grad_wrt_scores is
    the gradient of the *negated* objective with respect to the retrieval
    scores, (p_retr - posterior) / temperature, so it plugs into the same
    descent step as the KL losses. LM likelihoods are constants
    (StopGradient).
    """
    check_temperature(temperature)
    logliks = np.asarray(per_doc_logliks, dtype=np.float64)
    p = np.asarray(retr_probs, dtype=np.float64)
    if logliks.shape != p.shape:
        raise ValueError(f"{logliks.size} logliks for {p.size} retr_probs")
    check_distribution(p, "retr_probs")
    with np.errstate(divide="ignore"):
        joint = logliks + np.log(p)
    posterior, m = softmax(joint), np.max(joint)
    return LossValue(value=float(m + np.log(np.sum(np.exp(joint - m)))),
                     grad_wrt_scores=(p - posterior) / temperature)


def distill_step(target: TargetDistribution, retr_probs: Sequence[float],
                 temperature: float) -> LossValue:
    """KL(target || p_retr) and its gradient with respect to the retrieval
    scores, (p_retr - target) / temperature. The target is constant."""
    check_temperature(temperature)
    p = np.asarray(retr_probs, dtype=np.float64)
    return LossValue(value=kl_divergence(target.probs, p),
                     grad_wrt_scores=(p - target.probs) / temperature)


def build_target(kind: LossKind | str, lm, query, docs, output,
                 temperature_target: float = DEFAULT_TARGET_TEMPERATURE) -> TargetDistribution:
    """The target distribution of a named KL loss from an LM scorer's
    per-document scores (float64 arrays or any float sequence), under
    `retriever.softmax`'s rule and LOOP's for an indispensable document.
    The marginal-likelihood objective has no target; use emdr2_objective."""
    kind = LossKind(kind)
    if kind == LossKind.ADIST:
        return adist_target(lm.attention_relevance(query, docs, output),
                            temperature_target)
    if kind == LossKind.PDIST:
        return pdist_target(lm.per_doc_loglik(query, docs, output),
                            temperature_target)
    if kind == LossKind.LOOP:
        return loop_target(lm.loo_logliks(query, docs, output),
                           temperature_target)
    raise ValueError(f"{kind.value} does not define a target distribution")
