"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success (run with -s or read the
captured output); a failed assertion marks the criterion FAILED. These
are end-to-end checks against independent oracles and closed-form
values; the per-module unit suites cover the fine-grained behavior.
"""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np

from rlab.corpus import Passage
from rlab.costmodel import (CostModelParams, overhead_full_refresh,
                            overhead_rerank)
from rlab.evalkit import (ChoiceTask, EvalRecord, TaggedIndex, TemporalQA,
                          debias_infer, filtered_rerun, leakage_audit,
                          temporal_swap_eval)
from rlab.index import EmbeddingIndex, build, search
from rlab.lm import OverlapLM
from rlab.losses import (LossKind, adist_target, distill_step,
                         emdr2_objective, kl_divergence, loop_target,
                         pdist_target)
from rlab.pq import (compress, compressed_size_from_reported,
                     compression_ratio, decode, pq_search, recall_at_k,
                     train_pq)
from rlab.retriever import retrieval_distribution, retriever_gradient
from rlab.pretext import mlm_example, reconstruct_mlm, _sample_span_length
from rlab.trainer import (MaintenanceMode, TrainConfig, init_state,
                          recall_at_1, train)

from needle import make_needle_task
from oracles import (brute_force_search, central_difference, mp_emdr2,
                     mp_softmax)


def report(criterion, description):
    print(f"PASS criterion {criterion}: {description}")


def test_criterion_01_cost_model_closed_form():
    params = CostModelParams(n_docs=37_000_000, batch_size=64,
                             k_retrieved=20, refresh_interval=1000,
                             l_reranked=200, p_retr=1, p_lm=25)
    full = overhead_full_refresh(params)
    assert full == Fraction(37, 128)              # 0.2890625 exactly
    assert round(float(full), 1) == 0.3           # printed as ~30%
    assert overhead_rerank(params) == Fraction(1, 10)
    report(1, "cost model reproduces the closed-form overheads exactly")


def test_criterion_02_loss_targets_match_extended_precision_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        scores = rng.normal(scale=3.0, size=k)
        logliks = -rng.exponential(scale=5.0, size=k)
        temp_t = float(rng.uniform(0.05, 2.0))

        checks = [
            (pdist_target(logliks, temp_t).probs,
             mp_softmax(logliks, temp_t)),
            (loop_target(logliks, temp_t).probs,
             mp_softmax(-logliks, temp_t)),
            (adist_target(np.abs(scores), temp_t).probs,
             mp_softmax(np.abs(scores), temp_t)),
        ]
        for got, want in checks:
            err = np.abs(got - np.asarray(want)) / np.abs(want)
            worst = max(worst, float(err.max()))

        probs = retrieval_distribution(scores, 0.1)
        got = emdr2_objective(logliks, probs).value
        want = mp_emdr2(logliks, probs)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-9
    report(2, f"1000 loss instances match the 50-digit oracle "
              f"(worst rel err {worst:.2e})")


def test_criterion_03_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        # moderate temperatures keep the softmax off the one-hot plateau,
        # where the true gradient vanishes and finite differences measure
        # only rounding noise
        temperature = float(rng.uniform(0.5, 2.0))
        scores = rng.normal(size=k)
        logliks = -rng.exponential(scale=3.0, size=k)
        target = pdist_target(logliks, 1.0)

        def kl_of_scores(s):
            return kl_divergence(target.probs,
                                 retrieval_distribution(s, temperature))

        got = distill_step(target, retrieval_distribution(scores, temperature),
                           temperature).grad_wrt_scores
        want = central_difference(kl_of_scores, scores, step=1e-5)
        worst = max(worst, float(np.max(np.abs(got - want))
                                 / max(np.max(np.abs(want)), 1e-12)))

        def neg_emdr2_of_scores(s):
            return -emdr2_objective(
                logliks, retrieval_distribution(s, temperature),
                temperature).value

        got = emdr2_objective(logliks,
                              retrieval_distribution(scores, temperature),
                              temperature).grad_wrt_scores
        want = central_difference(neg_emdr2_of_scores, scores, step=1e-5)
        worst = max(worst, float(np.max(np.abs(got - want))
                                 / max(np.max(np.abs(want)), 1e-12)))
    assert worst < 1e-4

    # query-side training must leave document parameters untouched
    passages, examples, encoder = make_needle_task(n_passages=10,
                                                   n_examples=2, dim=8)
    docs = [p.text for p in passages[:3]]
    grads = retriever_gradient(encoder, examples[0].query, docs,
                               np.array([0.7, 0.2, 0.1]), temperature,
                               MaintenanceMode.QUERY_SIDE)
    assert np.all(grads.doc_embedding == 0.0)
    assert np.all(grads.doc_projection == 0.0)
    assert np.any(grads.query_embedding != 0.0)
    report(3, f"score gradients match finite differences "
              f"(worst rel err {worst:.2e}); query-side doc grads zero")


def test_criterion_04_joint_training_beats_fixed_retriever():
    target_temp = {LossKind.PDIST: 1.0, LossKind.EMDR2: 1.0,
                   LossKind.ADIST: 0.001, LossKind.LOOP: 0.01}

    def run(loss, mode=MaintenanceMode.QUERY_SIDE):
        passages, examples, encoder = make_needle_task(seed=1)
        state = init_state(encoder, passages)
        cfg = TrainConfig(k_retrieved=1000, batch_size=8, steps=200,
                          loss=loss, mode=mode, temperature=0.1,
                          temperature_target=target_temp[loss],
                          learning_rate=0.3, warmup_steps=5, seed=0)
        before = recall_at_1(state, examples, cfg)
        train(state, examples, cfg)
        return before, recall_at_1(state, examples, cfg)

    before, after = run(LossKind.PDIST)
    assert before < 0.05
    assert after >= 0.9

    _, frozen = run(LossKind.PDIST, mode=MaintenanceMode.FIXED)
    assert frozen < 0.05

    finals = {}
    for loss in (LossKind.EMDR2, LossKind.ADIST, LossKind.LOOP):
        _, finals[loss.value] = run(loss)
        assert finals[loss.value] >= 0.7
    report(4, f"needle recall@1 {before:.3f} -> {after:.3f} (pdist), "
              f"fixed stays {frozen:.3f}, others {finals}")


def test_criterion_05_exact_search_equals_brute_force():
    rng = np.random.default_rng(0)
    n, dim = 10_000, 64
    ids = [f"v{i:05d}" for i in range(n)]
    vectors = rng.normal(size=(n, dim))
    queries = rng.normal(size=(100, dim))
    # The oracle sorts the whole scan by (-score, id), a total order, then
    # cuts; so the first k of its k = 50 answer are its answer for k.
    expected = [brute_force_search(ids, vectors, q, 50) for q in queries]
    for shards in (1, 4, 7):
        idx = EmbeddingIndex(version=1, dim=dim, ids=ids, vectors=vectors,
                             shards=shards)
        for q, full in zip(queries, expected):
            for k in (1, 10, 50):
                got = search(idx, q, k)
                assert [pid for pid, _ in got] == [pid for pid, _ in full[:k]]
                # the library uses one BLAS matvec, the oracle per-row
                # dots; scores agree to the last few ulps
                np.testing.assert_allclose([s for _, s in got],
                                           [s for _, s in full[:k]],
                                           rtol=1e-12)
    report(5, "sharded exact search equals a full scan for "
              "100 queries x k in {1,10,50} x shards in {1,4,7}")


def test_criterion_06_pq_properties_and_memory_accounting():
    rng = np.random.default_rng(3)

    # saturated codebooks: k_c >= distinct subvectors -> exact round trip
    small = EmbeddingIndex(version=1, dim=8,
                           ids=[f"p{i}" for i in range(16)],
                           vectors=rng.normal(size=(16, 8)))
    codec = train_pq(small, m=2, k_c=16, iterations=25, seed=0)
    np.testing.assert_allclose(decode(compress(small, codec)),
                               small.vectors, atol=1e-12)

    # recall@50 non-increasing as codebooks shrink
    idx = EmbeddingIndex(version=1, dim=16,
                         ids=[f"p{i:04d}" for i in range(2000)],
                         vectors=rng.normal(size=(2000, 16)))
    queries = rng.normal(size=(20, 16))
    exact = [search(idx, q, 50) for q in queries]
    recalls = []
    for k_c in (256, 64, 16, 4):
        codec = train_pq(idx, m=4, k_c=k_c, iterations=10, seed=1)
        compressed = compress(idx, codec)
        approx = [pq_search(compressed, q, 50) for q in queries]
        recalls.append(recall_at_k(approx, exact, 50))
    assert all(a >= b - 1e-12 for a, b in zip(recalls, recalls[1:]))

    # memory arithmetic: 16x per-vector ratio, and the reported sizes
    assert compression_ratio(dim=64, bytes_per_scalar=2, m=8, k_c=256) == 16.0
    wiki = compressed_size_from_reported(49.0, dim=768, bytes_per_scalar=2,
                                         m=128, k_c=256)
    combined = compressed_size_from_reported(587.0, dim=768,
                                             bytes_per_scalar=2,
                                             m=128, k_c=256)
    assert abs(wiki - 4.0) < 0.1        # 49 GB -> ~4 GB
    assert abs(combined - 50.0) < 1.1   # 587 GB -> ~50 GB
    report(6, f"PQ round trip exact, recall@50 monotone {recalls}, "
              f"sizes {wiki:.2f}/{combined:.1f} GB")


def test_criterion_07_mlm_generator_statistics():
    chunk = tuple(f"w{i}" for i in range(1000))
    fractions, spans = [], []
    for seed in range(100):
        ex = mlm_example(chunk, seed=seed)
        assert reconstruct_mlm(ex) == chunk
        masked = sum(1 for t in ex.output if not t.startswith("[MASK_"))
        fractions.append(masked / len(chunk))
    rng = np.random.default_rng(0)
    spans = [_sample_span_length(rng) for _ in range(20000)]
    frac = float(np.mean(fractions))
    span = float(np.mean(spans))
    assert 0.13 <= frac <= 0.17
    assert 2.8 <= span <= 3.2
    report(7, f"masked fraction {frac:.3f}, mean span {span:.3f}, "
              f"100/100 exact reconstructions")


class ContentPlusLetterBias:
    """Scores each ordering as softmax(content + letter bias): the content
    term prefers the gold option, the bias term always prefers letter A."""

    def __init__(self, gold_option, content=1.0, bias=2.0):
        self.gold = gold_option
        self.content = content
        self.bias = bias

    def __call__(self, question, ordered_options, docs):
        logits = np.zeros(4)
        logits[0] += self.bias
        for pos, opt in enumerate(ordered_options):
            if opt == self.gold:
                logits[pos] += self.content
        e = np.exp(logits - logits.max())
        return e / e.sum()


def test_criterion_08_debias_invariance_and_recovery():
    rng = np.random.default_rng(11)

    # invariance: the predicted option is unaffected by how the options
    # are listed in the task
    for t in range(50):
        options = tuple(f"t{t}opt{j}" for j in range(4))
        gold = int(rng.integers(4))
        scorer = ContentPlusLetterBias(options[gold])
        for mode, orderings in (("all24", itertools.permutations(range(4))),
                                ("cyclic4", [tuple((i + s) % 4
                                             for i in range(4))
                                             for s in range(4)])):
            predicted = set()
            for perm in orderings:
                task = ChoiceTask(question=f"q{t}",
                                  options=tuple(options[i] for i in perm),
                                  gold=perm.index(gold))
                pred, _ = debias_infer(task, scorer, mode=mode)
                predicted.add(task.options[pred])
            assert len(predicted) == 1

    # recovery: letter bias flips the standard argmax whenever the gold
    # option is not listed first; marginalization cancels it
    standard_wrong = all24_right = 0
    for t in range(100):
        options = tuple(f"r{t}opt{j}" for j in range(4))
        gold = t % 4
        task = ChoiceTask(question=f"q{t}", options=options, gold=gold)
        scorer = ContentPlusLetterBias(options[gold])
        pred_std, _ = debias_infer(task, scorer, mode="standard")
        pred_all, _ = debias_infer(task, scorer, mode="all24")
        standard_wrong += int(pred_std != gold)
        all24_right += int(pred_all == gold)
    assert all24_right == 100
    assert standard_wrong >= 30
    report(8, f"de-bias invariant on 50 tasks; all24 100/100 correct while "
              f"standard errs on {standard_wrong}/100")


def test_criterion_09_temporal_swap_matrix():
    tasks = [TemporalQA(query=f"incumbent of seat {i}",
                        answers_by_year={"2017": f"holder17 {i}",
                                         "2020": f"holder20 {i}"})
             for i in range(40)]
    facts = {year: {t.query: t.answers_by_year[year] for t in tasks}
             for year in ("2017", "2020")}

    def make_index(year):
        def retrieve(query, k):
            answer = facts[year].get(query, "")
            return [Passage(id=f"{year}:s0:p0", doc_id=year,
                            text=tuple(answer.split()))]
        return TaggedIndex(dump_date=f"{year}-12-20", retrieve=retrieve)

    def answer_fn(question, passages):
        return " ".join(passages[0].text) if passages else ""

    matrix = temporal_swap_eval(tasks, make_index("2017"),
                                make_index("2020"), answer_fn)
    for year in ("2017", "2020"):
        assert matrix[(year, year)] >= 0.95
    for a, b in (("2017", "2020"), ("2020", "2017")):
        assert matrix[(a, b)] <= 0.05
    report(9, f"temporal matrix matched {matrix[('2017', '2017')]:.2f}/"
              f"{matrix[('2020', '2020')]:.2f}, swapped "
              f"{matrix[('2017', '2020')]:.2f}/{matrix[('2020', '2017')]:.2f}")


def test_criterion_10_leakage_audit_precision_and_delta():
    rng = np.random.default_rng(5)
    question = "which river flows through the old capital city"
    q_tokens = question.split()

    planted, clean = [], []
    for i in range(200):
        if i % 10 == 0:  # 10% planted verbatim copies
            filler = [f"f{i}a", f"f{i}b"]
            planted.append(Passage(id=f"p{i:03d}", doc_id=f"d{i}",
                                   text=tuple(q_tokens + filler)))
        else:
            # < 50% overlap: at most a 3-token run from an 8-token question
            shared = list(rng.choice(q_tokens, size=3, replace=False))
            body = [f"n{i}w{j}" for j in range(9)]
            clean.append(Passage(id=f"p{i:03d}", doc_id=f"d{i}",
                                 text=tuple(body[:4] + shared + body[4:])))

    flagged_planted = sum(leakage_audit(question, [p])[0] for p in planted)
    flagged_clean = sum(leakage_audit(question, [p])[0] for p in clean)
    assert flagged_planted == len(planted)   # flag recall 1.0
    assert flagged_clean == 0                # zero false positives

    records = [EvalRecord(question=question, gold="danube",
                          retrieved=[planted[0], clean[0]])]

    def answer_fn(q, passages):
        for p in passages:
            if set(q.split()) <= set(p.text):
                return "danube"
        return "unknown"

    rep = filtered_rerun(records, answer_fn)
    assert rep.delta != 0.0
    report(10, f"leakage flags {flagged_planted}/{len(planted)} planted, "
               f"0/{len(clean)} clean; filtered delta {rep.delta:+.2f}")
