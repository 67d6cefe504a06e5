"""Regression tests for the true positives ``repro check`` surfaced.

The checker's first run over the real tree found three latent bugs; the
two whose code still exists get a behavioral pin here, independent of the
static rule that caught them (the third was ``EngineConfig.waste_budget``
not folding into the model fingerprint — the knob is gone):

* ``ModelRegistry.default_name`` read the registered name without the
  registry lock (a torn read against ``register``).
* ``ServingPool.stop`` read ``_started`` outside the pool lock while
  ``start`` writes it under the lock.
"""

from __future__ import annotations

import threading

import pytest

from repro.serving.pool import PoolConfig, ServingPool


@pytest.fixture(scope="module")
def trainer(shared_tiny_annotator):
    return shared_tiny_annotator.trainer


class _RecordingLock:
    """Context-manager lock probe: counts acquisitions."""

    def __init__(self) -> None:
        self._inner = threading.RLock()
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._inner.__enter__()

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self.acquisitions += 1
        return self._inner.acquire(*args, **kwargs)

    def release(self):
        return self._inner.release()


class TestRegistryDefaultNameLock:
    def test_default_name_reads_under_lock(self):
        from repro.serving.registry import ModelRegistry

        registry = ModelRegistry()
        probe = _RecordingLock()
        registry._lock = probe
        before = probe.acquisitions
        assert registry.default_name is None
        assert probe.acquisitions > before

    def test_default_name_tracks_registration(self, trainer):
        from repro.serving.registry import ModelRegistry

        registry = ModelRegistry()
        assert registry.default_name is None
        registry.register("tiny", trainer)
        assert registry.default_name == "tiny"


class TestPoolStopStartedLock:
    def test_stop_before_start_is_safe_and_collects_nothing(self):
        pool = ServingPool(PoolConfig(specs=[("default", "nowhere")]))
        pool.stop()  # never started: must not raise, must not merge stats
        assert pool.final_stats is None

    def test_stop_is_idempotent_without_start(self):
        pool = ServingPool(PoolConfig(specs=[("default", "nowhere")]))
        pool.stop()
        pool.stop()
        assert pool.final_stats is None

    def test_stop_snapshots_started_under_lock(self):
        pool = ServingPool(PoolConfig(specs=[("default", "nowhere")]))
        probe = _RecordingLock()
        pool._lock = probe
        pool.stop()
        assert probe.acquisitions > 0
