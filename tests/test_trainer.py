import copy
import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rlab.corpus import Passage
from rlab.index import EmbeddingIndex, build, search
from rlab.lm import OverlapLM
from rlab.losses import (LossKind, build_target, distill_step,
                         emdr2_objective, pdist_target)
from rlab.retriever import (Gradients, Vocab, encode, encode_doc,
                            encode_query, init_encoder,
                            retrieval_distribution, retriever_gradient)
from rlab.trainer import (MaintenanceMode, StepMetrics, TrainConfig,
                          TrainExample, _example_gradient, _learning_rate,
                          _retrieve, init_state, recall_at_1, train,
                          train_step, write_metrics_csv)

from needle import make_needle_task


def small_task(**kwargs):
    defaults = dict(n_passages=30, n_examples=8, dim=16, seed=0)
    defaults.update(kwargs)
    return make_needle_task(**defaults)


class TestConfigValidation:
    def test_rerank_pool_must_cover_k(self):
        with pytest.raises(ValueError):
            TrainConfig(mode=MaintenanceMode.RERANK, k_retrieved=50,
                        l_rerank_pool=20)

    def test_batch_size_positive(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)

    def test_closed_book_allowed(self):
        TrainConfig(k_retrieved=0)

    @pytest.mark.parametrize("field, value", [
        ("steps", 0), ("steps", -1),
        # On 6 rows, a negative k kept no rows (-3) or 4 of them (-1).
        ("k_retrieved", -3), ("k_retrieved", -1),
    ])
    def test_no_steps_or_negative_k_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    @pytest.mark.parametrize("field, value", [
        ("warmup_steps", -1), ("refresh_interval", 0),
        ("refresh_interval", -1), ("l_rerank_pool", 0), ("l_rerank_pool", -1),
    ])
    def test_bad_counts_rejected_in_every_mode(self, mode, field, value):
        # Each was accepted: a negative warmup as none, and the other two
        # wherever the mode does not read them (k_retrieved = 0 keeps
        # rerank's L >= K rule out of the way).
        with pytest.raises(ValueError, match=field):
            TrainConfig(mode=mode, k_retrieved=0, **{field: value})

    def test_mode_given_as_string(self):
        cfg = TrainConfig(mode="rerank", k_retrieved=5, l_rerank_pool=10)
        assert cfg.mode is MaintenanceMode.RERANK
        assert cfg.mode.trains_docs

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="bogus")

    def test_loss_given_as_string(self):
        assert TrainConfig(loss="emdr2").loss is LossKind.EMDR2
        with pytest.raises(ValueError):
            TrainConfig(loss="bogus")


class TestRefreshPolicy:
    def test_full_refresh_schedule(self):
        cfg = TrainConfig(mode=MaintenanceMode.FULL_REFRESH, refresh_interval=3)
        assert [cfg.rebuilds_at(s) for s in range(1, 8)] == \
            [False, False, True, False, False, True, False]

    def test_rerank_never_rebuilds(self):
        cfg = TrainConfig(mode=MaintenanceMode.RERANK, k_retrieved=5,
                          l_rerank_pool=10)
        assert not any(cfg.rebuilds_at(s) for s in range(1, 5))

    @pytest.mark.parametrize("mode", [MaintenanceMode.FIXED,
                                      MaintenanceMode.QUERY_SIDE])
    def test_static_modes_never_touch_index(self, mode):
        cfg = TrainConfig(mode=mode)
        assert not any(cfg.rebuilds_at(s) for s in range(1, 20))


class TestLearningRate:
    cfg = TrainConfig(learning_rate=0.1, warmup_steps=5, steps=25)

    def test_linear_warmup(self):
        for s in range(1, 6):
            assert _learning_rate(self.cfg, s) == pytest.approx(0.1 * s / 5)

    def test_peak_at_warmup_end(self):
        assert _learning_rate(self.cfg, 5) == pytest.approx(0.1)

    def test_linear_decay_to_zero(self):
        assert _learning_rate(self.cfg, 15) == pytest.approx(0.1 * 10 / 20)
        assert _learning_rate(self.cfg, 25) == 0.0

    def test_no_warmup(self):
        cfg = replace(self.cfg, warmup_steps=0)
        assert _learning_rate(cfg, 1) == pytest.approx(0.1 * 24 / 25)


class TestRetrieve:
    def test_self_exclusion_preserves_k(self):
        passages, _, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(k_retrieved=5, steps=1)
        ex = TrainExample(query=passages[0].text[:2], output=("x",),
                          origin_passage_id=passages[0].id)
        rows, _, _ = _retrieve(state, cfg, ex, encode_query(encoder, ex.query))
        ids = [state.index.ids[r] for r in rows]
        assert len(ids) == 5
        assert passages[0].id not in ids

    def test_matches_index_search_without_exclusion(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(k_retrieved=5, steps=1)
        ex = examples[0]
        q_vec = encode_query(encoder, ex.query)
        expected = [pid for pid, _ in search(state.index, q_vec, 5)]
        rows, _, _ = _retrieve(state, cfg, ex, q_vec)
        assert [state.index.ids[r] for r in rows] == expected

    def test_rerank_agrees_with_fresh_index(self):
        # immediately after a build, rerank over L=N must equal plain top-K
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        fresh = TrainConfig(mode=MaintenanceMode.RERANK, k_retrieved=5,
                            l_rerank_pool=len(passages), steps=1)
        plain = TrainConfig(k_retrieved=5, steps=1)
        ex = examples[0]
        q_vec = encode_query(encoder, ex.query)
        assert _retrieve(state, fresh, ex, q_vec)[0].tolist() == \
            _retrieve(state, plain, ex, q_vec)[0].tolist()

    def test_rerank_ties_by_id_not_stale_order(self):
        # Every passage has the same text, so their fresh scores all tie,
        # while the stale index ranks them in descending id order.
        passages = [Passage(id=f"p{i:02d}", doc_id=f"d{i}", text=("a", "b"))
                    for i in range(12)]
        encoder = init_encoder(Vocab(["a", "b", "c"]), dim=4, seed=0)
        state = init_state(encoder, passages)
        ex = TrainExample(query=("a", "c"), output=("b",))
        q_vec = encode_query(encoder, ex.query)
        state.index = EmbeddingIndex(
            version=1, dim=4, ids=[p.id for p in passages],
            vectors=np.outer(np.arange(1.0, 13.0), q_vec))
        assert [pid for pid, _ in search(state.index, q_vec, 3)] == \
            ["p11", "p10", "p09"]
        cfg = TrainConfig(mode=MaintenanceMode.RERANK, k_retrieved=4,
                          l_rerank_pool=8)
        rows, _, stale = _retrieve(state, cfg, ex, q_vec)
        assert [state.index.ids[r] for r in rows] == \
            ["p04", "p05", "p06", "p07"]
        # p04 closes the stale pool, and the fresh top-K holds it.
        assert stale

    @staticmethod
    def _count_encodes(monkeypatch, encoder):
        """The vocab rows of the texts rerank re-embeds, recorded through
        the trainer's binding of encode on the document side."""
        encoded = []

        def counting(params, rows):
            if params is encoder.doc:
                encoded.append(rows.tolist())
            return encode(params, rows)
        monkeypatch.setattr("rlab.trainer.encode", counting)
        return encoded

    def test_rerank_reembeds_exactly_l(self, monkeypatch):
        # The query is the origin's own text, so the origin tops the stale
        # scores; it is masked out and never re-embedded.
        passages, _, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=MaintenanceMode.RERANK, k_retrieved=3,
                          l_rerank_pool=6)
        origin = passages[4]
        ex = TrainExample(query=origin.text, output=("x",),
                          origin_passage_id=origin.id)
        q_vec = encode_query(encoder, ex.query)
        assert search(state.index, q_vec, 1)[0][0] == origin.id
        encoded = self._count_encodes(monkeypatch, encoder)
        rows, _, _ = _retrieve(state, cfg, ex, q_vec)
        assert len(encoded) == cfg.l_rerank_pool
        assert encoder.vocab.rows(origin.text).tolist() not in encoded
        assert len(rows) == 3 and origin.id not in \
            [state.index.ids[r] for r in rows]

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_origin_not_in_index_changes_nothing(self, monkeypatch, mode):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=mode, k_retrieved=3, l_rerank_pool=6)
        q_vec = encode_query(encoder, examples[0].query)
        encoded = self._count_encodes(monkeypatch, encoder)
        results = []
        for origin in ("", "absent"):
            ex = replace(examples[0], origin_passage_id=origin)
            rows, _, stale = _retrieve(state, cfg, ex, q_vec)
            results.append((rows.tolist(), stale, len(encoded)))
            encoded.clear()
        assert results[0] == results[1]

    def test_stale_rerank_warning_counter(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=MaintenanceMode.RERANK, k_retrieved=5,
                          l_rerank_pool=8, steps=40, learning_rate=0.5,
                          loss=LossKind.PDIST)
        lm = OverlapLM(vocab_size=5000)
        for _ in range(40):
            train_step(state, examples, cfg, lm)
        # doc encoder moved while the index stayed put; the tiny pool
        # eventually misses part of the fresh top-K
        assert state.stale_rerank_warnings > 0


class TestTrainStep:
    @pytest.mark.parametrize("mode", [MaintenanceMode.FULL_REFRESH,
                                      MaintenanceMode.QUERY_SIDE])
    def test_example_gradient_is_retriever_gradient(self, mode):
        # training applies the gradient that criterion 3 checks
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=mode, k_retrieved=10, loss=LossKind.PDIST,
                          temperature=0.1, temperature_target=1.0)
        lm = OverlapLM(vocab_size=5000)
        ex = examples[0]
        grads, _, rows = _example_gradient(state, cfg, lm, ex)
        docs = [tuple(state.passages[r].text) for r in rows]
        target = pdist_target(lm.per_doc_loglik(ex.query, docs, ex.output),
                              cfg.temperature_target)
        want = retriever_gradient(encoder, ex.query, docs, target.probs,
                                  cfg.temperature, mode)
        for name in ("query_embedding", "query_projection",
                     "doc_embedding", "doc_projection"):
            got, exp = getattr(grads, name), getattr(want, name)
            if mode == MaintenanceMode.FULL_REFRESH:
                np.testing.assert_array_equal(got, exp)
            else:  # query_side scores against float32-rounded index rows
                np.testing.assert_allclose(got, exp, rtol=1e-6)

    def test_fixed_mode_never_updates(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        before = copy.deepcopy(encoder)
        cfg = TrainConfig(mode=MaintenanceMode.FIXED, steps=3,
                          learning_rate=1.0)
        lm = OverlapLM(vocab_size=5000)
        for _ in range(3):
            train_step(state, examples[:4], cfg, lm)
        np.testing.assert_array_equal(encoder.query.embedding,
                                      before.query.embedding)
        np.testing.assert_array_equal(encoder.doc.embedding,
                                      before.doc.embedding)

    def test_query_side_keeps_doc_encoder_and_index(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        before_doc = encoder.doc.embedding.copy()
        before_query = encoder.query.embedding.copy()
        cfg = TrainConfig(mode=MaintenanceMode.QUERY_SIDE, steps=3,
                          learning_rate=0.5)
        lm = OverlapLM(vocab_size=5000)
        v0 = state.index.version
        for _ in range(3):
            train_step(state, examples[:4], cfg, lm)
        np.testing.assert_array_equal(encoder.doc.embedding, before_doc)
        assert not np.array_equal(encoder.query.embedding, before_query)
        assert state.index.version == v0

    def test_full_refresh_bumps_index_version(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=MaintenanceMode.FULL_REFRESH,
                          refresh_interval=2, steps=6, learning_rate=0.1)
        lm = OverlapLM(vocab_size=5000)
        versions = [train_step(state, examples[:4], cfg, lm).index_version
                    for _ in range(6)]
        assert versions == [1, 2, 2, 3, 3, 4]

    def test_full_refresh_index_tracks_doc_encoder(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=MaintenanceMode.FULL_REFRESH,
                          refresh_interval=1, steps=4, learning_rate=0.5)
        lm = OverlapLM(vocab_size=5000)
        for _ in range(4):
            train_step(state, examples[:4], cfg, lm)
        # rebuilds run before the update, so freeze the encoder for one
        # more step and the index must match it exactly
        train_step(state, examples[:4], replace(cfg, learning_rate=0.0), lm)
        rebuilt = build(passages, encoder, previous_version=0)
        np.testing.assert_allclose(state.index.vectors, rebuilt.vectors)

    def test_closed_book_is_a_no_op(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        before = copy.deepcopy(encoder)
        cfg = TrainConfig(k_retrieved=0, steps=1)
        metrics = train_step(state, examples[:4], cfg, OverlapLM(vocab_size=5000))
        assert metrics.loss == 0.0
        np.testing.assert_array_equal(encoder.query.embedding,
                                      before.query.embedding)

    def test_batch_gradient_is_average(self):
        # a batch repeating one example twice must equal the singleton batch
        passages, examples, encoder = small_task()
        cfg = TrainConfig(mode=MaintenanceMode.QUERY_SIDE, steps=1,
                          learning_rate=0.5, warmup_steps=1,
                          batch_size=1)
        lm = OverlapLM(vocab_size=5000)
        state_a = init_state(copy.deepcopy(encoder), passages)
        train_step(state_a, [examples[0]], cfg, lm)
        state_b = init_state(copy.deepcopy(encoder), passages)
        train_step(state_b, [examples[0], examples[0]], cfg, lm)
        np.testing.assert_allclose(state_a.encoder.query.embedding,
                                   state_b.encoder.query.embedding)


class TestEmbedCount:
    """A step embeds the documents the cost model charges its mode for:
    none in the static modes, the L candidates of each example in rerank,
    and in full_refresh the K retrieved per example plus the N of a
    rebuild."""

    @staticmethod
    def _count_embeds(monkeypatch, encoder):
        """Every document embed, seen through the trainer's and the index
        builder's bindings of encode on the document side."""
        calls = []

        def counting(params, rows):
            if params is encoder.doc:
                calls.append(rows)
            return encode(params, rows)
        monkeypatch.setattr("rlab.trainer.encode", counting)
        monkeypatch.setattr("rlab.index.encode", counting)
        return calls

    @staticmethod
    def _batch(passages, examples):
        # Every other example names an origin passage, which leaves one
        # row fewer to select.
        return [replace(ex, origin_passage_id=passages[i].id) if i % 2
                else ex for i, ex in enumerate(examples[:4])]

    @pytest.mark.parametrize("l_pool", [6, 30])
    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_train_step(self, monkeypatch, mode, l_pool):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        batch = self._batch(passages, examples)
        cfg = TrainConfig(mode=mode, k_retrieved=3, l_rerank_pool=l_pool,
                          refresh_interval=2, batch_size=len(batch),
                          steps=2)
        selectable = [len(passages) - bool(ex.origin_passage_id)
                      for ex in batch]
        per_step = {
            MaintenanceMode.FIXED: 0,
            MaintenanceMode.QUERY_SIDE: 0,
            MaintenanceMode.RERANK: sum(min(l_pool, n) for n in selectable),
            MaintenanceMode.FULL_REFRESH: len(batch) * cfg.k_retrieved,
        }[mode]
        rebuild = len(passages) if cfg.rebuilds_at(2) else 0
        calls = self._count_embeds(monkeypatch, encoder)
        lm = OverlapLM(vocab_size=5000)
        counts = []
        for _ in range(2):
            train_step(state, batch, cfg, lm)
            counts.append(len(calls))
            calls.clear()
        assert counts == [per_step, per_step + rebuild]

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_recall_at_1(self, monkeypatch, mode):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        batch = self._batch(passages, examples)
        cfg = TrainConfig(mode=mode, k_retrieved=3, l_rerank_pool=6)
        calls = self._count_embeds(monkeypatch, encoder)
        recall_at_1(state, batch, cfg)
        assert len(calls) == (len(batch) * cfg.l_rerank_pool
                              if mode == MaintenanceMode.RERANK else 0)


def repeated_token_task(extra_vocab=0):
    """Passages and queries whose tokens recur 3 to 5 times, interleaved,
    and are shared across passages, queries and examples (each batch of 3
    consecutive examples shares a query token), so row gradients are sums
    of several different values."""
    passages = []
    for i in range(24):
        a, b, c = (f"w{(i * k + k) % 13}" for k in (1, 3, 5))
        passages.append(Passage(id=f"p{i:02d}", doc_id=f"d{i}",
                                text=(a, b, a, c, a, b, c, b, a, f"u{i}", a)))
    examples = [TrainExample(
        query=(f"w{e % 13}", f"w{e // 3 + 4}") * 3 + (f"w{e % 13}",) * 2,
        output=passages[e].text[:4], gold_passage_id=passages[e].id)
        for e in range(12)]
    tokens = [t for p in passages for t in p.text]
    tokens += [f"x{i}" for i in range(extra_vocab)]
    return passages, examples, init_encoder(Vocab(tokens), dim=6, seed=2)


def dense_side_gradient(params, vocab, text, grad_vec, emb_grad, proj_grad):
    rows = vocab.rows(text)
    proj_grad += np.outer(grad_vec, params.embedding[rows].mean(axis=0))
    np.add.at(emb_grad, rows, params.projection.T @ grad_vec / len(rows))


def dense_reference_step(state, batch, cfg, lm):
    """One SGD step with dense |V|x d gradients, sharing no code with
    `Gradients`: per example np.add.at into zero tables, total += g / B,
    table -= lr * total."""
    state.step += 1
    if cfg.rebuilds_at(state.step):
        state.index = build(state.passages, state.encoder,
                            previous_version=state.index.version)
    if cfg.mode == MaintenanceMode.FIXED:
        return
    enc = state.encoder
    tables = [enc.query.embedding, enc.query.projection,
              enc.doc.embedding, enc.doc.projection]
    total = [np.zeros_like(t) for t in tables]
    for ex in batch:
        q_vec = encode_query(enc, ex.query)
        rows, _, _ = _retrieve(state, cfg, ex, q_vec)
        docs = [state.passages[r].text for r in rows]
        if cfg.mode.trains_docs:
            d_vecs = np.stack([encode_doc(enc, d) for d in docs])
        else:
            d_vecs = state.index.vectors[rows]
        probs = retrieval_distribution(d_vecs @ q_vec, cfg.temperature)
        if cfg.loss == LossKind.EMDR2:
            g_scores = emdr2_objective(
                lm.per_doc_loglik(ex.query, docs, ex.output), probs,
                cfg.temperature).grad_wrt_scores
        else:
            target = build_target(cfg.loss, lm, ex.query, docs, ex.output,
                                  cfg.temperature_target)
            g_scores = distill_step(target, probs,
                                    cfg.temperature).grad_wrt_scores
        g = [np.zeros_like(t) for t in tables]
        dense_side_gradient(enc.query, enc.vocab, ex.query, g_scores @ d_vecs,
                            g[0], g[1])
        if cfg.mode.trains_docs:
            for g_k, doc in zip(g_scores, docs):
                dense_side_gradient(enc.doc, enc.vocab, doc, g_k * q_vec,
                                    g[2], g[3])
        for t, g_t in zip(total, g):
            t += g_t * (1.0 / len(batch))  # the trainer's 1/B, rounded once
    lr = _learning_rate(cfg, state.step)
    trained = 4 if cfg.mode.trains_docs else 2
    for table, t in list(zip(tables, total))[:trained]:
        table -= lr * t


class TestSparseGradients:
    @pytest.mark.parametrize("loss", [LossKind.PDIST, LossKind.EMDR2])
    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_bit_identical_to_dense_sgd(self, mode, loss):
        passages, examples, encoder = repeated_token_task()
        cfg = TrainConfig(mode=mode, loss=loss, k_retrieved=6,
                          l_rerank_pool=10, refresh_interval=2, batch_size=3,
                          steps=6, learning_rate=0.5, warmup_steps=2)
        lm = OverlapLM(vocab_size=50)
        state = init_state(encoder, passages)
        reference = init_state(encoder.copy(), passages)
        for step in range(cfg.steps):
            batch = examples[3 * step % len(examples):][:3]
            train_step(state, batch, cfg, lm)
            dense_reference_step(reference, batch, cfg, lm)
            for side in ("query", "doc"):
                for table in ("embedding", "projection"):
                    np.testing.assert_array_equal(
                        getattr(getattr(state.encoder, side), table),
                        getattr(getattr(reference.encoder, side), table),
                        err_msg=f"step {step + 1}: {side} {table}")
        initial = repeated_token_task()[2]
        assert np.array_equal(state.encoder.query.embedding,
                              initial.query.embedding) == (
            mode == MaintenanceMode.FIXED)
        assert np.array_equal(state.encoder.doc.embedding,
                              initial.doc.embedding) == (not mode.trains_docs)

    def test_no_array_grows_with_vocab(self):
        def array_sizes(extra_vocab):
            passages, examples, encoder = repeated_token_task(extra_vocab)
            state = init_state(encoder, passages)
            # K covers every passage, so the touched rows do not depend on
            # the (vocab-dependent) initial ranking.
            cfg = TrainConfig(mode=MaintenanceMode.FULL_REFRESH,
                              k_retrieved=len(passages))
            lm = OverlapLM(vocab_size=50)
            total = Gradients.zeros_like(encoder)
            sizes = [sorted(a.size for a in vars(total).values()
                            if isinstance(a, np.ndarray))]
            for ex in examples[:4]:
                grads, _, _ = _example_gradient(state, cfg, lm, ex)
                total.add_scaled(grads, 1.0 / 4)
                sizes.append(sorted(a.size for a in vars(grads).values()
                                    if isinstance(a, np.ndarray)))
            sizes.append(sorted(a.size for a in vars(total).values()
                                if isinstance(a, np.ndarray)))
            return sizes

        small, large = array_sizes(0), array_sizes(20000)
        assert small == large
        assert max(max(s) for s in large) < 20000


class TupleScorer:
    """An LMScorer as an outside scorer sees the documents: it records the
    documents it receives and hands OverlapLM a list of token tuples."""

    def __init__(self, lm):
        self.lm = lm
        self.seen = []

    def _tuples(self, docs):
        self.seen.append(list(docs))
        return [tuple(d) for d in docs]

    def per_doc_loglik(self, query, docs, output):
        return self.lm.per_doc_loglik(query, self._tuples(docs), output)

    def joint_loglik(self, query, docs, output):
        return self.lm.joint_loglik(query, self._tuples(docs), output)

    def loo_logliks(self, query, docs, output):
        return self.lm.loo_logliks(query, self._tuples(docs), output)

    def attention_relevance(self, query, docs, output):
        return self.lm.attention_relevance(query, self._tuples(docs), output)


class TestTokenTableDifferential:
    """Training with the LM reading the token table's row views equals
    training with the same LM given the documents as tuples."""

    @staticmethod
    def run(mode, loss, wrap):
        passages, examples, encoder = small_task(n_passages=40,
                                                 n_examples=12, dim=8)
        examples = [replace(ex, origin_passage_id=passages[i + 5].id)
                    if i % 2 else ex for i, ex in enumerate(examples)]
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=mode, loss=loss, k_retrieved=5,
                          l_rerank_pool=10, refresh_interval=3, batch_size=4,
                          steps=7, learning_rate=0.5, warmup_steps=2)
        lm = OverlapLM(vocab_size=500)
        history = train(state, examples, cfg, wrap(lm))
        enc = state.encoder
        return (history, [t.tobytes() for t in (
            enc.query.embedding, enc.query.projection, enc.doc.embedding,
            enc.doc.projection, state.index.vectors)],
            state.stale_rerank_warnings)

    @pytest.mark.parametrize("loss", list(LossKind))
    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_row_views_train_as_tuples(self, mode, loss):
        assert self.run(mode, loss, lambda lm: lm) == \
            self.run(mode, loss, TupleScorer)

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_scorer_receives_passage_texts(self, mode):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=mode, k_retrieved=4, l_rerank_pool=8,
                          loss=LossKind.LOOP)
        scorer = TupleScorer(OverlapLM(vocab_size=500))
        _, _, rows = _example_gradient(state, cfg, scorer, examples[0])
        assert scorer.seen == [[state.passages[r].text for r in rows]]
        assert all(type(doc) is tuple for doc in scorer.seen[0])


class TestTrainLoop:
    def test_deterministic_across_runs(self):
        cfg = TrainConfig(k_retrieved=10, steps=8, batch_size=4,
                          learning_rate=0.3, seed=7)
        histories, finals = [], []
        for _ in range(2):
            passages, examples, encoder = small_task()
            state = init_state(encoder, passages)
            histories.append(train(state, examples, cfg))
            finals.append(state.encoder.query.embedding.copy())
        assert [m.loss for m in histories[0]] == [m.loss for m in histories[1]]
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_history_length_and_steps(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        cfg = TrainConfig(k_retrieved=10, steps=5, batch_size=2)
        history = train(state, examples, cfg)
        assert [m.step for m in history] == [1, 2, 3, 4, 5]

    def test_on_step_callback(self):
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        seen = []
        cfg = TrainConfig(k_retrieved=10, steps=3, batch_size=2)
        train(state, examples, cfg, on_step=seen.append)
        assert len(seen) == 3
        assert all(isinstance(m, StepMetrics) for m in seen)

    def test_training_improves_recall(self):
        passages, examples, encoder = small_task(n_passages=50,
                                                 n_examples=16)
        state = init_state(encoder, passages)
        cfg = TrainConfig(k_retrieved=50, steps=60, batch_size=4,
                          learning_rate=0.3, temperature=0.1,
                          loss=LossKind.PDIST, seed=0)
        r0 = recall_at_1(state, examples, cfg)
        train(state, examples, cfg)
        r1 = recall_at_1(state, examples, cfg)
        assert r0 < 0.2
        assert r1 >= 0.7

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_recall_at_1_leaves_state_unchanged(self, mode):
        # In rerank mode a pool of L = K always holds the stale-index
        # signal (the fresh top K takes the pool's last row), so it fires
        # on every retrieval; only training steps may count it.
        passages, examples, encoder = small_task(n_passages=200,
                                                 n_examples=16)
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=mode, k_retrieved=5, l_rerank_pool=5,
                          refresh_interval=2, batch_size=4, steps=5,
                          learning_rate=0.5)
        train(state, examples, cfg)

        def snapshot():
            enc = state.encoder
            return (state.step, state.stale_rerank_warnings, id(state.index),
                    state.index.version, list(state.passages),
                    [t.tobytes() for t in (enc.query.embedding,
                                           enc.query.projection,
                                           enc.doc.embedding,
                                           enc.doc.projection)])

        before = snapshot()
        recall_at_1(state, examples, cfg)
        assert snapshot() == before


class TestMetricsCsv:
    def test_round_trip(self, tmp_path):
        history = [StepMetrics(step=1, loss=0.5, recall_at_1=0.0,
                               index_version=1),
                   StepMetrics(step=2, loss=0.25, recall_at_1=0.5,
                               index_version=2)]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(history, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["step"] == "1"
        assert float(rows[1]["loss"]) == 0.25
        assert rows[1]["index_version"] == "2"
