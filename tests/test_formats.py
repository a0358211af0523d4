"""Artifact writers replace their target atomically: a writer that fails
mid-write leaves the previous file byte for byte and no temporary file.
Artifact readers map their file once, read-only. An index that its
constructor accepts saves and loads back equal."""

import dataclasses
import errno
import mmap
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab import formats
from rlab.cli import _write_manifest, main
from rlab.corpus import Passage, write_passages
from rlab.index import (PRECISIONS, EmbeddingIndex, build, load_index,
                        save_index)
from rlab.pq import (PQIndex, compress, load_pq_index, save_pq_index,
                     train_pq)
from rlab.retriever import (Vocab, init_encoder, load_checkpoint,
                            save_checkpoint)
from rlab.trainer import StepMetrics, write_metrics_csv


class FailingFile:
    """A file whose second write raises, after the first reached the disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        n = self.fh.write(data)
        self.fh.flush()
        return n

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def fail_second_writes(monkeypatch):
    """Every file `formats` opens from now on fails on its second write."""
    monkeypatch.setattr(formats, "open",
                        lambda *a, **kw: FailingFile(open(*a, **kw)),
                        raising=False)


@pytest.fixture
def failing_writes(monkeypatch):
    fail_second_writes(monkeypatch)


def small_artifacts():
    passages = [Passage(id=f"p{i}", doc_id=f"d{i}",
                        text=tuple(f"t{i}w{j}" for j in range(3)))
                for i in range(8)]
    encoder = init_encoder(Vocab([t for p in passages for t in p.text]),
                           dim=4, seed=0)
    idx = build(passages, encoder)
    pq_index = compress(idx, train_pq(idx, m=2, k_c=2, iterations=2, seed=0))
    history = [StepMetrics(step=s, loss=0.5, recall_at_1=0.0,
                           index_version=1) for s in range(1, 4)]
    return passages, encoder, idx, pq_index, history


WRITERS = {
    "save_index": lambda a, path: save_index(a[2], path),
    "save_pq_index": lambda a, path: save_pq_index(a[3], path),
    "save_checkpoint": lambda a, path: save_checkpoint(a[1], path),
    "write_passages": lambda a, path: write_passages(a[0], path),
    "write_metrics_csv": lambda a, path: write_metrics_csv(a[4], path),
    "manifest": lambda a, path: _write_manifest(
        path, SimpleNamespace(command="train", steps=3), {"train": 0.1}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_successful_write_leaves_only_the_target(tmp_path, writer):
    path = tmp_path / "manifest.json"
    path.write_bytes(b"previous artifact")
    WRITERS[writer](small_artifacts(), path)
    assert os.listdir(tmp_path) == ["manifest.json"]
    assert path.read_bytes() != b"previous artifact"


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, failing_writes, writer):
    path = tmp_path / "manifest.json"  # the name train's manifest takes
    path.write_bytes(b"previous artifact")
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](small_artifacts(), path)
    assert path.read_bytes() == b"previous artifact"
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_failed_write_of_new_file_leaves_nothing(tmp_path, failing_writes):
    with pytest.raises(OSError):
        WRITERS["save_index"](small_artifacts(), tmp_path / "new.ridx")
    assert os.listdir(tmp_path) == []


def test_failed_swap_index_keeps_active_index(tmp_path, monkeypatch, capsys):
    idx = small_artifacts()[2]
    active, replacement = tmp_path / "a.ridx", tmp_path / "b.ridx"
    save_index(idx, active)
    save_index(dataclasses.replace(idx, version=idx.version + 1), replacement)
    before = active.read_bytes()
    fail_second_writes(monkeypatch)
    assert main(["swap-index", "--from", str(active),
                 "--to", str(replacement)]) == 1
    assert "no space" in capsys.readouterr().err
    assert active.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["a.ridx", "b.ridx"]


ARTIFACTS = {"idx.ridx": ("save_index", load_index),
             "idx.rpqx": ("save_pq_index", load_pq_index),
             "enc.rlab": ("save_checkpoint", load_checkpoint)}


@pytest.fixture(params=sorted(ARTIFACTS))
def artifact(request, tmp_path):
    """(path, loader) of a saved RIDX, RPQX or RLAB file."""
    path = tmp_path / request.param
    writer, load = ARTIFACTS[request.param]
    WRITERS[writer](small_artifacts(), path)
    return path, load


def patch_mmap(monkeypatch, mapper):
    monkeypatch.setattr(formats, "mmap", SimpleNamespace(
        mmap=mapper, ACCESS_READ=mmap.ACCESS_READ))


class TestReader:
    def test_one_mapping_per_load(self, artifact, monkeypatch):
        # A checkpoint was mapped once per embedding table.
        path, load = artifact
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return mmap.mmap(*args, **kwargs)

        patch_mmap(monkeypatch, counting)
        load(path)
        assert len(calls) == 1

    # RLAB's case is TestMappedCheckpoint's in test_retriever.py.
    @pytest.mark.parametrize("artifact", ["idx.ridx", "idx.rpqx"],
                             indirect=True)
    def test_failed_mapping_is_a_format_error(self, artifact, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENODEV, "No such device")

        path, load = artifact
        patch_mmap(monkeypatch, refuse)
        with pytest.raises(formats.FormatError,
                           match=f"{path.name}: cannot map: .*No such device"):
            load(path)

    def test_empty_file_is_truncated_at_byte_0(self, artifact):
        path, load = artifact
        path.write_bytes(b"")
        with pytest.raises(formats.FormatError) as info:
            load(path)
        assert str(info.value) == (f"{path}: truncated at byte 0: needs 4 "
                                   f"more bytes, has 0")

    def test_loaded_indexes_own_their_arrays(self, tmp_path):
        # No array of a loaded RIDX or RPQX is a view, of the mapping or
        # of another array.
        _, _, idx, pq_index, _ = small_artifacts()
        save_index(idx, tmp_path / "idx.ridx")
        save_pq_index(pq_index, tmp_path / "idx.rpqx")
        loaded = load_index(tmp_path / "idx.ridx")
        pq_loaded = load_pq_index(tmp_path / "idx.rpqx")
        for array in (loaded.vectors, pq_loaded.codes,
                      pq_loaded.codebooks):
            assert array.flags.owndata and array.flags.writeable


# Strings without a newline (the table separator) or a lone surrogate (not
# UTF-8), which the writers refuse; ids unsorted, so the constructor sorts.
text_st = st.text(st.characters(blacklist_characters="\n",
                                blacklist_categories=("Cs",)), max_size=4)
ids_st = st.lists(text_st, max_size=8, unique=True)


class TestRoundTripProperty:
    """Every index the constructor accepts saves and loads back equal: its
    floats bit for bit after storage rounding, which the scales reach in
    the subnormals too."""

    def test_embedding_index(self, tmp_path):
        path = tmp_path / "idx.ridx"

        @settings(max_examples=40, deadline=None)
        @given(ids=ids_st, dim=st.integers(1, 4), seed=st.integers(0, 2**32),
               scale=st.sampled_from([1e-7, 1.0, 1e3]),
               precision=st.sampled_from(sorted(PRECISIONS)),
               version=st.integers(0, 2**32 - 1), shards=st.integers(1, 7),
               dump_date=st.none() | text_st)
        def check(ids, dim, seed, scale, precision, version, shards,
                  dump_date):
            vectors = np.random.default_rng(seed).normal(
                size=(len(ids), dim)) * scale
            idx = EmbeddingIndex(version=version, dim=dim, ids=ids,
                                 vectors=vectors, precision=precision,
                                 shards=shards, dump_date=dump_date)
            save_index(idx, path)
            loaded = load_index(path)
            assert ((loaded.ids, loaded.version, loaded.dim, loaded.precision,
                     loaded.shards, loaded.dump_date)
                    == (idx.ids, version, dim, precision, shards, dump_date))
            stored = idx.vectors.astype(PRECISIONS[precision])
            assert loaded.vectors.tobytes() == stored.astype(float).tobytes()
        check()

    def test_pq_index(self, tmp_path):
        path = tmp_path / "idx.rpqx"

        @settings(max_examples=40, deadline=None)
        @given(ids=ids_st, m=st.integers(1, 4), sub_dim=st.integers(1, 3),
               k_c=st.sampled_from([1, 2, 255, 256, 257, 300])
               | st.integers(1, 300),
               seed=st.integers(0, 2**32),
               scale=st.sampled_from([1e-40, 1.0, 1e30]),
               version=st.integers(0, 2**32 - 1))
        def check(ids, m, sub_dim, k_c, seed, scale, version):
            rng = np.random.default_rng(seed)
            codes = rng.integers(k_c, size=(len(ids), m))
            if codes.size:
                codes.flat[0], codes.flat[-1] = 0, k_c - 1
            pidx = PQIndex(codebooks=rng.normal(size=(m, k_c, sub_dim)) * scale,
                           ids=ids, codes=codes, version=version)
            save_pq_index(pidx, path)
            loaded = load_pq_index(path)
            assert ((loaded.ids, loaded.version, loaded.dim,
                     loaded.memory_bytes())
                    == (pidx.ids, version, m * sub_dim, pidx.memory_bytes()))
            np.testing.assert_array_equal(loaded.codes, pidx.codes)
            stored = pidx.codebooks.astype("<f4").astype(float)
            assert loaded.codebooks.tobytes() == stored.tobytes()
        check()
