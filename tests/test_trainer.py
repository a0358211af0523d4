import copy
import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

from rlab.corpus import Passage, TokenTable
from rlab.index import EmbeddingIndex, build, search
from rlab.lm import OverlapLM
from rlab.losses import (LossKind, build_target, distill_step,
                         emdr2_objective, pdist_target)
from rlab.retriever import (Gradients, Vocab, encode_doc, encode_query,
                            encode_texts, encoder_gradient, init_encoder,
                            retrieval_distribution, retriever_gradient)
from rlab.trainer import (MaintenanceMode, StepMetrics, TrainConfig,
                          TrainExample, _learning_rate, _queries, _retrieve,
                          init_state, recall_at_1, train, train_step,
                          write_metrics_csv)

from needle import make_needle_task


def text_rows(rows, lengths):
    """The vocab rows of each text of an encode_texts call, as lists."""
    ends = np.cumsum(lengths)
    return [rows[end - n:end].tolist() for n, end in zip(lengths, ends)]


def small_task(**kwargs):
    defaults = dict(n_passages=30, n_examples=8, dim=16, seed=0)
    defaults.update(kwargs)
    return make_needle_task(**defaults)


def backprop_of_step(monkeypatch, state, batch, cfg, lm):
    """The arguments (encoder, queries, g_scores, d_vecs, docs, scale) and
    result of the one encoder_gradient call of a train_step."""
    calls = []

    def recording(*args):
        calls.append((args, encoder_gradient(*args)))
        return calls[-1][1]
    monkeypatch.setattr("rlab.trainer.encoder_gradient", recording)
    train_step(state, batch, cfg, lm)
    (call,) = calls
    return call


def cut(rows, lengths, *per_text, counts):
    """Texts in CSR form and arrays of one entry per text, cut into runs
    of counts[i] texts: one tuple of the same arrays per run."""
    ends = np.cumsum(counts)[:-1]
    row_ends = np.cumsum(np.concatenate([[0], lengths]))[ends]
    return list(zip(np.split(rows, row_ends),
                    *[np.split(a, ends) for a in (lengths, *per_text)]))


def per_example(queries, g_scores, d_vecs, docs):
    """Each example's own encoder_gradient arguments (queries, g_scores,
    d_vecs, docs), cut from a step's."""
    n = len(g_scores)
    own_docs = [None] * n
    if docs is not None:
        own_docs = cut(*docs, counts=[len(g) for g in g_scores])
    return [(q, [g], [v], d) for q, g, v, d in zip(
        cut(*queries, counts=np.ones(n, dtype=np.int64)), g_scores, d_vecs,
        own_docs)]


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

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_loop_loss_needs_two_documents(self, mode):
        # Accepted, then the first step died on "leave-one-out undefined
        # for K=1"; closed book (K = 0) still runs.
        with pytest.raises(ValueError, match="k_retrieved >= 2"):
            TrainConfig(mode=mode, loss=LossKind.LOOP, k_retrieved=1)
        for k in (0, 2):
            TrainConfig(mode=mode, loss=LossKind.LOOP, k_retrieved=k)
        TrainConfig(mode=mode, loss=LossKind.PDIST, k_retrieved=1)

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

    @pytest.mark.parametrize("field, value", [
        (field, value) for field in ("temperature", "temperature_target")
        for value in (float("nan"), float("inf"), 0.0, -1.0)] + [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", float("-inf"))])
    def test_non_finite_or_non_positive_floats_rejected(self, field, value):
        # A NaN temperature or learning rate trained every step on NaN.
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

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
        (rows,), _, _ = _retrieve(state, cfg, [ex],
                                  [encode_query(encoder, ex.query)])
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
        (rows,), _, _ = _retrieve(state, cfg, [ex], [q_vec])
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
        assert _retrieve(state, fresh, [ex], [q_vec])[0][0].tolist() == \
            _retrieve(state, plain, [ex], [q_vec])[0][0].tolist()

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
        (rows,), _, stale = _retrieve(state, cfg, [ex], [q_vec])
        assert [state.index.ids[r] for r in rows] == \
            ["p04", "p05", "p06", "p07"]
        # p04 closes the stale pool, and the fresh top-K holds it.
        assert stale == 1

    @staticmethod
    def _count_encodes(monkeypatch, encoder):
        """The vocab rows of the texts rerank re-embeds, recorded through
        the trainer's binding of encode_texts on the document side."""
        encoded = []

        def counting(params, rows, lengths):
            if params is encoder.doc:
                encoded.extend(text_rows(rows, lengths))
            return encode_texts(params, rows, lengths)
        monkeypatch.setattr("rlab.trainer.encode_texts", counting)
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
        (rows,), _, _ = _retrieve(state, cfg, [ex], [q_vec])
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
            (rows,), _, stale = _retrieve(state, cfg, [ex], [q_vec])
            results.append((rows.tolist(), stale, len(encoded)))
            encoded.clear()
        assert results[0] == results[1]

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_batch_equals_one_example_at_a_time(self, mode):
        # A step's examples retrieve together what each retrieves alone,
        # and rerank's fresh means and vectors are each one's, one after
        # another, with the same bits: it encodes all pools in one call.
        # The document encoder has moved since the build, so rerank's
        # fresh scores reorder its stale pools; every other example has
        # an origin.
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        rng = np.random.default_rng(5)
        encoder.doc.embedding += rng.normal(scale=0.3,
                                            size=encoder.doc.embedding.shape)
        batch = TestEmbedCount._batch(passages, examples)
        cfg = TrainConfig(mode=mode, k_retrieved=3, l_rerank_pool=6)
        q_vecs = _queries(state, batch)[3]
        rows, fresh, stale = _retrieve(state, cfg, batch, q_vecs)
        alone = [_retrieve(state, cfg, [ex], [q_vec])
                 for ex, q_vec in zip(batch, q_vecs)]
        assert [r.tolist() for r in rows] == [a[0][0].tolist() for a in alone]
        assert stale == sum(a[2] for a in alone)
        assert (fresh is None) == (mode != MaintenanceMode.RERANK)
        for i, field in enumerate(fresh or ()):
            want = np.concatenate([a[1][i] for a in alone])
            assert field.dtype == want.dtype and field.shape == want.shape
            assert field.tobytes() == want.tobytes()
        # No examples: nothing retrieved, no documents encoded.
        none, none_fresh, none_stale = _retrieve(state, cfg, [], q_vecs[:0])
        assert none == [] and none_stale == 0
        assert [len(a) for a in none_fresh or ()] == [0] * len(fresh or ())

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
    def test_step_gradient_is_retriever_gradient(self, monkeypatch, mode):
        # training applies the gradient that criterion 3 checks
        passages, examples, encoder = small_task()
        state = init_state(encoder.copy(), passages)
        cfg = TrainConfig(mode=mode, k_retrieved=10, loss=LossKind.PDIST,
                          temperature=0.1, temperature_target=1.0)
        lm = OverlapLM(vocab_size=5000)
        ex = examples[0]
        (rows,), _, _ = _retrieve(state, cfg, [ex], _queries(state, [ex])[3])
        _, grads = backprop_of_step(monkeypatch, state, [ex], cfg, lm)
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
    rebuild; a step's documents are one encode_texts call, and a rebuild
    is one more. Token rows are gathered once for the documents a step
    trains, and once more in rerank for its candidate pools."""

    @staticmethod
    def _count_embeds(monkeypatch, encoder):
        """Every document-side encode_texts call, as the vocab rows of each
        of its texts, seen through the trainer's and the index builder's
        bindings."""
        calls = []

        def counting(params, rows, lengths):
            if params is encoder.doc:
                calls.append(text_rows(rows, lengths))
            return encode_texts(params, rows, lengths)
        monkeypatch.setattr("rlab.trainer.encode_texts", counting)
        monkeypatch.setattr("rlab.index.encode_texts", counting)
        return calls

    @staticmethod
    def _count_gathers(monkeypatch, state):
        """The number of texts of every TokenTable.gather call of the
        encoder vocab rows state.rows (the LM gathers its own terms)."""
        calls, gather = [], TokenTable.gather

        def counting(table, values):
            if values is state.rows:
                calls.append(len(table))
            return gather(table, values)
        monkeypatch.setattr(TokenTable, "gather", counting)
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
        step_calls = int(mode.trains_docs)
        rebuild = len(passages) if cfg.rebuilds_at(2) else 0
        calls = self._count_embeds(monkeypatch, encoder)
        gathers = self._count_gathers(monkeypatch, state)
        lm = OverlapLM(vocab_size=5000)
        counts = []
        for _ in range(2):
            train_step(state, batch, cfg, lm)
            counts.append((len(calls), sum(map(len, calls))))
            calls.clear()
        assert counts == [(step_calls, per_step),
                          (step_calls + bool(rebuild), per_step + rebuild)]
        trained = len(batch) * cfg.k_retrieved if mode.trains_docs else None
        assert gathers == 2 * {MaintenanceMode.RERANK: [per_step, trained],
                               MaintenanceMode.FULL_REFRESH: [trained]
                               }.get(mode, [])

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    def test_recall_at_1(self, monkeypatch, mode):
        # An example with no gold passage is not retrieved for.
        passages, examples, encoder = small_task()
        state = init_state(encoder, passages)
        batch = self._batch(passages, examples)
        cfg = TrainConfig(mode=mode, k_retrieved=3, l_rerank_pool=6)
        calls = self._count_embeds(monkeypatch, encoder)
        gathers = self._count_gathers(monkeypatch, state)
        recall_at_1(state, batch + [replace(examples[4], gold_passage_id="")],
                    cfg)
        pools = ([len(batch) * cfg.l_rerank_pool]
                 if mode == MaintenanceMode.RERANK else [])
        assert [len(texts) for texts in calls] == pools
        # Only rerank's pools: recall gathers no trained documents.
        assert gathers == pools


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
    table -= lr * total. An example that retrieved nothing adds nothing."""
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
        (rows,), _, _ = _retrieve(state, cfg, [ex], [q_vec])
        if not len(rows):
            continue
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


# Corpora of 1, 2 and 24 passages, every other example naming an origin:
# with one passage, half the examples retrieve nothing. Rerank also runs
# with L above the selectable rows of the whole corpus. train refuses loss
# loop where an example has fewer than two selectable rows, so those cases
# are left out.
DENSE_CASES = [
    (mode, loss, n_passages, l_pool)
    for mode in MaintenanceMode for loss in LossKind
    for n_passages, l_pool in [(1, 10), (2, 10), (24, 10), (24, 30)]
    if (mode == MaintenanceMode.RERANK or l_pool == 10)
    and not (loss == LossKind.LOOP and n_passages < 3)]


class TestSparseGradients:
    @pytest.mark.parametrize("mode, loss, n_passages, l_pool", DENSE_CASES)
    def test_bit_identical_to_dense_sgd(self, mode, loss, n_passages, l_pool):
        passages, examples, encoder = repeated_token_task()
        passages = passages[:n_passages]
        examples = [replace(ex, origin_passage_id=passages[e % n_passages].id)
                    if e % 2 else ex for e, ex in enumerate(examples)]
        cfg = TrainConfig(mode=mode, loss=loss, k_retrieved=6,
                          l_rerank_pool=l_pool, refresh_interval=2,
                          batch_size=3, steps=6, learning_rate=0.5,
                          warmup_steps=2)
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
        if n_passages == 1:
            return  # one retrieved row: a zero gradient, nothing trains
        initial = repeated_token_task()[2]
        assert np.array_equal(state.encoder.query.embedding,
                              initial.query.embedding) == (
            mode == MaintenanceMode.FIXED)
        assert np.array_equal(state.encoder.doc.embedding,
                              initial.doc.embedding) == (not mode.trains_docs)

    @staticmethod
    def array_sizes(monkeypatch, passages, examples, encoder, cfg):
        """The size of each array the backprop is given in a step over the
        first four examples, and of each array of the step's total
        gradient; and the documents given (None where none train)."""
        state = init_state(encoder, passages)
        (_, queries, g_scores, d_vecs, docs, _), total = backprop_of_step(
            monkeypatch, state, examples[:4], cfg, OverlapLM(vocab_size=50))
        given = [a.size for a in (*queries, *g_scores, *d_vecs,
                                  *(docs or ()))]
        return given, sorted(a.size for a in vars(total).values()
                             if isinstance(a, np.ndarray)), docs

    def test_no_array_grows_with_vocab(self, monkeypatch):
        def array_sizes(extra_vocab):
            passages, examples, encoder = repeated_token_task(extra_vocab)
            # K covers every passage, so the touched rows do not depend on
            # the (vocab-dependent) initial ranking.
            cfg = TrainConfig(mode=MaintenanceMode.FULL_REFRESH,
                              k_retrieved=len(passages))
            return self.array_sizes(monkeypatch, passages, examples, encoder,
                                    cfg)[:2]

        small, large = array_sizes(0), array_sizes(20000)
        assert small == large
        assert max(max(s) for s in large) < 20000

    def test_query_side_builds_no_document_gradient(self, monkeypatch):
        # A query_side step hands the backprop no documents to train, only
        # each example's K score gradients and the K index rows that it
        # scored; its total has no document rows and a zero projection.
        passages, examples, encoder = small_task(n_passages=40)

        def backprop_given(k):
            cfg = TrainConfig(mode=MaintenanceMode.QUERY_SIDE, k_retrieved=k)
            given, _, docs = self.array_sizes(monkeypatch, passages, examples,
                                              encoder.copy(), cfg)
            assert docs is None
            return given

        # Four queries' rows, lengths, means and vectors; then each
        # example's K scores, and its K index rows of d = 16.
        five, thirty = backprop_given(5), backprop_given(30)
        assert five[:4] == thirty[:4]
        for k, given in [(5, five), (30, thirty)]:
            assert given[4:] == [k] * 4 + [k * 16] * 4
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=MaintenanceMode.QUERY_SIDE, k_retrieved=30)
        _, total = backprop_of_step(monkeypatch, state, examples[:4], cfg,
                                    OverlapLM(vocab_size=50))
        assert len(total.doc_rows) == 0 and len(total.doc_values) == 0
        assert not total.doc_projection.any()

    @pytest.mark.parametrize("mode", [MaintenanceMode.QUERY_SIDE,
                                      MaintenanceMode.RERANK,
                                      MaintenanceMode.FULL_REFRESH])
    @pytest.mark.parametrize("n_passages", [1, 14])
    def test_step_total_in_one_call(self, monkeypatch, mode, n_passages):
        # One backprop over a step's examples equals each example's
        # gradient added after zero tables with the step's 1/B. The
        # queries share tokens and the examples share documents; with one
        # passage, the example that has it as origin retrieves nothing and
        # gives a zero gradient, whose query rows carry +0.0.
        passages, examples, encoder = repeated_token_task()
        state = init_state(encoder.copy(), passages[:n_passages])
        batch = examples[:3] + [replace(examples[3],
                                        origin_passage_id=passages[0].id)]
        cfg = TrainConfig(mode=mode, k_retrieved=6, l_rerank_pool=10,
                          loss=LossKind.EMDR2)
        lm = OverlapLM(vocab_size=50)
        (_, queries, g_scores, d_vecs, docs, scale), got = backprop_of_step(
            monkeypatch, state, batch, cfg, lm)
        assert scale == 1.0 / len(batch)
        assert (docs is not None) == mode.trains_docs
        want, alone = Gradients.zeros_like(encoder), []
        for args in per_example(queries, g_scores, d_vecs, docs):
            alone.append(encoder_gradient(encoder, *args, 1.0))
            want.add_scaled(alone[-1], 1.0 / len(batch))
        assert (len(g_scores[3]) == len(d_vecs[3]) == 0) == (n_passages == 1)
        if n_passages == 1:
            values = alone[3].query_values
            assert len(values) and values.tobytes() == bytes(values.nbytes)
        for name in ("query_rows", "query_values", "query_projection",
                     "doc_rows", "doc_values", "doc_projection",
                     "query_embedding", "doc_embedding"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name
        assert (len(got.doc_rows) > 0) == mode.trains_docs
        # No examples: zero tables.
        none, zeros = (encoder_gradient(encoder, _queries(state, []), [],
                                        [], None, 0.25),
                       Gradients.zeros_like(encoder))
        assert [np.asarray(a).tobytes() for a in vars(none).values()] == [
            np.asarray(a).tobytes() for a in vars(zeros).values()]
        # Each row appears once, ascending.
        for rows in [got.query_rows] + [got.doc_rows] * mode.trains_docs:
            assert (np.diff(rows) > 0).all()

    @pytest.mark.parametrize("mode", [MaintenanceMode.QUERY_SIDE,
                                      MaintenanceMode.RERANK,
                                      MaintenanceMode.FULL_REFRESH])
    def test_rows_strictly_ascending(self, monkeypatch, mode):
        # Every Gradients holds each embedding row once, ascending: the
        # total of a step whose examples share rows, each example's own,
        # their sum by add_scaled, and retriever_gradient's.
        passages, examples, encoder = repeated_token_task()
        state = init_state(encoder.copy(), passages)
        batch = examples[:4]
        cfg = TrainConfig(mode=mode, k_retrieved=6, l_rerank_pool=10)
        lm = OverlapLM(vocab_size=50)
        (_, queries, g_scores, d_vecs, docs, _), total = backprop_of_step(
            monkeypatch, state, batch, cfg, lm)
        grads, added = [total], Gradients.zeros_like(encoder)
        for args in per_example(queries, g_scores, d_vecs, docs):
            grads.append(encoder_gradient(encoder, *args, 1.0))
            added.add_scaled(grads[-1], 0.25)
        docs = [p.text for p in passages[:5]]
        grads += [added, retriever_gradient(
            encoder, batch[0].query, docs, np.full(5, 0.2), 0.1, mode)]
        for g in grads:
            for rows in (g.query_rows, g.doc_rows):
                assert rows.dtype == np.int64
                assert (np.diff(rows) > 0).all()
        for side in ["query"] + ["doc"] * mode.trains_docs:
            rows = [getattr(g, f"{side}_rows") for g in grads[:5]]
            assert len(rows[0]) < sum(map(len, rows[1:])), side  # shared


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
        (rows,), _, _ = _retrieve(state, cfg, examples[:1],
                                  _queries(state, examples[:1])[3])
        train_step(state, examples[:1], cfg, scorer)
        assert scorer.seen == [[state.passages[r].text for r in rows]]
        assert all(type(doc) is tuple for doc in scorer.seen[0])


class RulingOutScorer(TupleScorer):
    """OverlapLM's scores, except that the output is impossible under the
    first document of each call, and without it: both its log-likelihood
    and its leave-one-out log-likelihood are -inf."""

    def per_doc_loglik(self, query, docs, output):
        logliks = super().per_doc_loglik(query, docs, output)
        logliks[0] = -np.inf
        return logliks

    def loo_logliks(self, query, docs, output):
        logliks = super().loo_logliks(query, docs, output)
        logliks[0] = -np.inf
        return logliks


class TestRuledOutDocument:
    @pytest.mark.parametrize("loss, mass", [("pdist", 0.0), ("loop", 1.0)])
    def test_gets_zero_target_mass_and_trains(self, monkeypatch, loss, mass):
        # Every example's target was uniform, with one warning each, so
        # PDist learned nothing from the step's examples; LOOP raised. The
        # first document is ruled out for PDist, and indispensable for LOOP.
        passages, examples, encoder = small_task(n_passages=40,
                                                 n_examples=12, dim=8)
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=MaintenanceMode.QUERY_SIDE, k_retrieved=5,
                          batch_size=4, steps=3, learning_rate=0.5, loss=loss)
        targets = []

        def recording(*args):
            targets.append(build_target(*args))
            return targets[-1]
        monkeypatch.setattr("rlab.trainer.build_target", recording)
        scorer = RulingOutScorer(OverlapLM(vocab_size=500))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            history = train(state, examples, cfg, scorer)
        assert len(targets) == 12
        assert all(np.isfinite(m.loss) and m.loss > 0 for m in history)
        for target in targets:
            assert target.probs[0] == mass
            assert target.probs[1:].sum() == pytest.approx(1.0 - mass)


class TestTrainLoop:
    @pytest.mark.parametrize("run", [train, recall_at_1])
    def test_no_examples_is_an_error(self, run):
        passages, _, encoder = small_task()
        state = init_state(encoder, passages)
        with pytest.raises(ValueError, match="examples"):
            run(state, [], TrainConfig(k_retrieved=5, steps=2))

    def test_no_examples_raises_before_step_1(self):
        passages, _, encoder = small_task()
        state = init_state(encoder, passages)
        query = state.encoder.query.embedding.copy()
        with pytest.raises(ValueError, match="nothing to train on"):
            train(state, [], TrainConfig(k_retrieved=5, steps=2))
        assert state.step == 0
        np.testing.assert_array_equal(state.encoder.query.embedding, query)

    def test_recall_counts_examples_with_a_gold(self):
        # Both count hits over the examples with a gold passage only: a
        # top hit beside an example without a gold reads 1.0 (recall_at_1
        # once read 0.5), and a batch with no gold reads 0.0.
        passages, examples, encoder = small_task(n_passages=20)
        state = init_state(encoder, passages)
        cfg = TrainConfig(mode=MaintenanceMode.FIXED, k_retrieved=5)
        lm = OverlapLM(vocab_size=5000)
        q_vec = encode_query(encoder, examples[0].query)
        (rows,), _, _ = _retrieve(state, cfg, examples[:1], [q_vec])
        top = state.index.ids[rows[0]]
        hit = replace(examples[0], gold_passage_id=top)
        no_gold = replace(examples[1], gold_passage_id="")
        for batch, recall in [([hit, no_gold], 1.0), ([no_gold], 0.0)]:
            assert recall_at_1(state, batch, cfg) == recall
            assert train_step(state, batch, cfg, lm).recall_at_1 == recall

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


class TestLoopNeedsTwoSelectable:
    """loss=loop leaves one retrieved document out, so train refuses,
    before any step, a run where an example has fewer than two selectable
    rows: the index's, less its origin's."""

    def run(self, n_passages, origin, mode=MaintenanceMode.QUERY_SIDE):
        passages, examples, encoder = small_task(n_passages=n_passages)
        state = init_state(encoder, passages)
        examples = [replace(examples[0], origin_passage_id=origin),
                    *examples[1:3]]
        cfg = TrainConfig(mode=mode, loss=LossKind.LOOP, k_retrieved=3,
                          l_rerank_pool=3, refresh_interval=1, steps=2,
                          batch_size=2)
        return state, lambda: train(state, examples, cfg)

    @pytest.mark.parametrize("mode", list(MaintenanceMode))
    @pytest.mark.parametrize("n_passages, origin", [
        (2, "p0000"), (1, ""), (1, "p0000")])
    def test_refused_before_step_1(self, mode, n_passages, origin):
        # An origin in a 2-row index died inside step 1, with state.step
        # already 1, on "leave-one-out undefined for K=1".
        state, run = self.run(n_passages, origin, mode)
        before = [t.tobytes() for t in (state.encoder.query.embedding,
                                        state.encoder.doc.embedding)]
        with pytest.raises(ValueError, match="2 selectable passages"):
            run()
        assert state.step == 0 and state.index.version == 1
        assert [t.tobytes() for t in (state.encoder.query.embedding,
                                      state.encoder.doc.embedding)] == before

    @pytest.mark.parametrize("n_passages, origin", [
        (2, ""), (2, "elsewhere"), (3, "p0000")])
    def test_two_selectable_rows_train(self, n_passages, origin):
        state, run = self.run(n_passages, origin)
        assert len(run()) == 2 and state.step == 2

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=(
        "ROADMAP item 4: at tau = 0.001 p_retr underflows to 0 where the "
        "loop target has mass, so the KL raises 'absolute continuity "
        "violated' at step 2, after the encoder has moved"))
    def test_sharp_temperature_trains_with_finite_losses(self):
        passages, examples, encoder = make_needle_task(
            n_passages=4, n_examples=4, tokens_per_passage=3, dim=4, seed=0)
        examples = [replace(ex, origin_passage_id=ex.gold_passage_id)
                    for ex in examples]
        cfg = TrainConfig(mode=MaintenanceMode.QUERY_SIDE,
                          loss=LossKind.LOOP, k_retrieved=2, batch_size=4,
                          steps=3, temperature=0.001, temperature_target=0.1,
                          learning_rate=0.3, warmup_steps=2, seed=49)
        history = train(init_state(encoder, passages), examples, cfg)
        assert len(history) == 3
        assert np.isfinite([m.loss for m in history]).all()


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
