"""Disk tier of the engine cache: snapshots, atomicity, fail-open."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cli import main
from repro.xbar.engine_cache import (
    DISK_CACHE_ENV,
    SNAPSHOT_FORMAT,
    EngineCache,
    clear_disk_cache,
    disk_cache_contents,
    resolve_disk_dir,
)
from repro.xbar.simulator import CircuitPredictor, CrossbarEngine, IdealPredictor
from tests.conftest import make_tiny_crossbar_config


@pytest.fixture
def config():
    return make_tiny_crossbar_config()


@pytest.fixture
def weight(rng):
    return rng.standard_normal((6, 10))


def _build(weight, config, predictor, cache, seed=9):
    rng = np.random.default_rng(seed)
    return (
        cache.get_or_build(
            weight,
            config,
            predictor,
            rng,
            lambda: CrossbarEngine(weight, config, predictor, rng),
        ),
        rng,
    )


def _load_must_hit(weight, config, predictor, cache, seed=9):
    rng = np.random.default_rng(seed)

    def no_rebuild():
        raise AssertionError("expected a disk hit, got a rebuild")

    return cache.get_or_build(weight, config, predictor, rng, no_rebuild), rng


def test_store_and_reload_bit_identical(tmp_path, config, weight, rng):
    predictor = IdealPredictor()
    writer = EngineCache(disk=tmp_path)
    built, rng_a = _build(weight, config, predictor, writer)
    assert writer.stats.disk_stores == 1
    assert writer.stats.misses == 1

    reader = EngineCache(disk=tmp_path)
    restored, rng_b = _load_must_hit(weight, config, predictor, reader)
    assert reader.stats.disk_hits == 1
    assert reader.stats.misses == 0

    vectors = rng.random((5, 10))
    np.testing.assert_array_equal(built.matvec(vectors), restored.matvec(vectors))
    # The programming RNG fast-forwards identically on disk hits, so
    # multi-layer conversions sharing one generator stay deterministic.
    assert rng_a.bit_generator.state == rng_b.bit_generator.state
    # A second load in the same cache is a pure memory hit.
    _load_must_hit(weight, config, predictor, reader)
    assert reader.stats.hits == 1


def test_geniex_snapshot_round_trip(tmp_path, config, weight, rng, tiny_geniex):
    writer = EngineCache(disk=tmp_path)
    built, _ = _build(weight, config, tiny_geniex, writer)
    assert writer.stats.disk_stores == 1
    reader = EngineCache(disk=tmp_path)
    restored, _ = _load_must_hit(weight, config, tiny_geniex, reader)
    vectors = rng.random((5, 10))
    np.testing.assert_array_equal(built.matvec(vectors), restored.matvec(vectors))


def test_circuit_predictor_not_spilled_but_works(tmp_path, config, weight):
    predictor = CircuitPredictor(config)
    cache = EngineCache(disk=tmp_path)
    _build(weight, config, predictor, cache)
    # List-shaped handles aren't serialized: no snapshot, no error.
    assert cache.stats.disk_stores == 0
    assert cache.stats.disk_errors == 0
    assert disk_cache_contents(tmp_path) == ([], 0)


def test_corrupt_snapshot_rebuilds(tmp_path, config, weight):
    predictor = IdealPredictor()
    writer = EngineCache(disk=tmp_path)
    _build(weight, config, predictor, writer)
    files, _ = disk_cache_contents(tmp_path)
    files[0].write_bytes(b"not an npz")

    reader = EngineCache(disk=tmp_path)
    rebuilt, _ = _build(weight, config, predictor, reader)
    assert reader.stats.misses == 1
    assert reader.stats.disk_errors == 1
    assert rebuilt.out_features == 6
    # The bad file was dropped and replaced by the fresh snapshot.
    assert reader.stats.disk_stores == 1


def test_older_snapshot_format_rebuilds(tmp_path, config, weight, tiny_geniex):
    """A snapshot written under an older format is a miss, never a restore.

    Format 5 changed the sum order of the predictors' ideal and
    hidden-layer products that programming-time gains are fitted
    through, so a format-4 file must be rebuilt from scratch."""
    import json

    writer = EngineCache(disk=tmp_path)
    built, _ = _build(weight, config, tiny_geniex, writer)
    files, _ = disk_cache_contents(tmp_path)
    assert len(files) == 1
    with np.load(files[0]) as npz:
        payload = {name: npz[name] for name in npz.files}
    meta = json.loads(bytes(payload["__meta__"].tobytes()).decode())
    assert meta["format"] == SNAPSHOT_FORMAT == 5
    meta["format"] = 4
    payload["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(files[0], "wb") as fh:
        np.savez(fh, **payload)

    reader = EngineCache(disk=tmp_path)
    rebuilt, _ = _build(weight, config, tiny_geniex, reader)
    assert reader.stats.disk_hits == 0
    assert reader.stats.misses == 1
    assert reader.stats.disk_errors == 1
    # The stale file was replaced by a fresh current-format snapshot.
    assert reader.stats.disk_stores == 1
    with np.load(files[0]) as npz:
        stored = json.loads(bytes(npz["__meta__"].tobytes()).decode())
    assert stored["format"] == SNAPSHOT_FORMAT
    vectors = np.random.default_rng(3).random((4, 10))
    np.testing.assert_array_equal(built.matvec(vectors), rebuilt.matvec(vectors))


def test_no_temp_files_left_behind(tmp_path, config, weight):
    cache = EngineCache(disk=tmp_path)
    _build(weight, config, IdealPredictor(), cache)
    assert list(tmp_path.glob("*.tmp")) == []
    assert list(tmp_path.glob(".*")) == []


def test_resolve_disk_dir_env_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv(DISK_CACHE_ENV, str(tmp_path))
    assert resolve_disk_dir() == tmp_path
    # Explicit override beats the environment.
    assert resolve_disk_dir(tmp_path / "other") == tmp_path / "other"
    # Empty/off disables the tier (the suite-wide hermetic default).
    for value in ("", "off", "0", "none"):
        monkeypatch.setenv(DISK_CACHE_ENV, value)
        assert resolve_disk_dir() is None


def test_disk_true_resolves_env_lazily(tmp_path, monkeypatch, config, weight):
    monkeypatch.setenv(DISK_CACHE_ENV, str(tmp_path))
    cache = EngineCache(disk=True)
    _build(weight, config, IdealPredictor(), cache)
    assert cache.stats.disk_stores == 1
    files, total = disk_cache_contents(tmp_path)
    assert len(files) == 1 and total > 0


def test_clear_disk_cache(tmp_path, config, weight):
    cache = EngineCache(disk=tmp_path)
    _build(weight, config, IdealPredictor(), cache)
    assert clear_disk_cache(tmp_path) == 1
    assert disk_cache_contents(tmp_path) == ([], 0)
    assert clear_disk_cache(tmp_path / "missing") == 0


def test_cli_cache_stats_and_clear(tmp_path, monkeypatch, capsys, config, weight):
    monkeypatch.setenv(DISK_CACHE_ENV, str(tmp_path))
    cache = EngineCache(disk=True)
    _build(weight, config, IdealPredictor(), cache)

    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert str(tmp_path) in out
    assert "1 snapshot(s)" in out

    assert main(["cache", "clear"]) == 0
    out = capsys.readouterr().out
    assert "1 snapshot(s) removed" in out
    assert disk_cache_contents(tmp_path) == ([], 0)


def test_cli_cache_stats_disabled(monkeypatch, capsys):
    monkeypatch.setenv(DISK_CACHE_ENV, "")
    assert main(["cache", "stats"]) == 0
    assert "disabled" in capsys.readouterr().out
